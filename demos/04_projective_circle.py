"""Planar projected dynamics: invariant control set and steering.

On the half-circle of directions, the controlled flow
theta' = f(theta, alpha) with alpha in [mu/T, 1] has a unique compact
invariant control set.  The angular speed is a first-degree trigonometric
polynomial in 2 theta, so the set is exact: its endpoints are closed-form
zeros of the speeds at the two ends of the control range.  This script
computes it, audits forward invariance under random admissible controls
(an independent RK4 simulation), and steers between directions with greedy
bang-bang controls whose switch and arrival times are exact integrals.
"""

import numpy as np

from pegrowth import (PESignal, SignalClass, angle_dynamics_d2,
                      forward_invariance_audit, invariant_control_set_d2,
                      point_of, splice_periodic, steer_d2,
                      steering_time_bound, validate_pe)
from pegrowth.projective import boundary_points

cls = SignalClass(T=1.0, mu=0.4)
crange = (cls.floor, 1.0)
RESOLUTION = 4096  # reporting scale of the audit and of steering (a cell is pi / RESOLUTION)

# A saddle with a mixing input: the set is a single arc hugging the dominant
# eigendirection.
A = np.array([[1.0, 0.0], [0.0, -1.0]])
B = np.array([[1.0], [1.0]])
K = np.array([[-0.6, 0.2]])

f, g = angle_dynamics_d2(A, B, K)
print("angular speed at a few directions (alpha = floor / 1):")
for theta in (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4):
    print(f"  theta={theta:.3f}: f_lo={f(theta, crange[0]):+.3f}, "
          f"f_hi={f(theta, crange[1]):+.3f}")

res = invariant_control_set_d2(A, B, K, crange)
lo, hi = res.arcs.arcs[0]
print(f"\ninvariant control set: arc [{lo:.6f}, {hi:.6f}) "
      f"(width {hi - lo:.6f} rad, exact endpoints; "
      f"audit scale pi/{RESOLUTION})")

pts = boundary_points(res.arcs, 40, RESOLUTION)
audit = forward_invariance_audit(A, B, K, crange, res.arcs, pts,
                                 n_signals=20, horizon=6.0, seed=0,
                                 resolution=RESOLUTION)
print(f"forward-invariance audit: ok={audit.ok} over {audit.n_trajectories} "
      f"trajectories (inflation {audit.inflate:.5f} rad)")

# Steer an arbitrary direction into the interior of the set, against a
# precomputed uniform time bound for that target.
target = point_of(0.5 * (lo + hi))
bound = steering_time_bound(A, B, K, crange, target, resolution=RESOLUTION,
                            mesh=32, max_time=20.0)
print(f"\nuniform steering-time bound to the arc midpoint: {bound:.3f}")
rng = np.random.default_rng(3)
for _ in range(3):
    q0 = point_of(rng.uniform(0.0, np.pi))
    st = steer_d2(q0, target, A, B, K, crange, resolution=RESOLUTION,
                  max_time=bound + 5.0)
    print(f"  from theta={float(np.arctan2(q0[1], q0[0])) % np.pi:.3f}: "
          f"arrived in tau={st.tau:.3f} (<= {bound:.3f}), "
          f"{st.signal.n_segments} control segments, switching at "
          f"{[round(t, 4) for t in st.signal.breakpoints[1:].tolist()]}")

# The steering segment has values inside [mu/T, 1], so it can close a
# periodic excitation-compliant signal around any admissible prefix.
st = steer_d2(point_of(0.2), target, A, B, K, crange, resolution=RESOLUTION,
              max_time=bound + 5.0)
closed = splice_periodic(PESignal.constant(1.0), 1.0, st.signal, st.tau, cls)
print(f"\nspliced steering loop: period {closed.period:.4f}, "
      f"valid={validate_pe(closed, cls).valid}")
