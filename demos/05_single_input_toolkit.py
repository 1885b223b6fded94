"""Single-input machinery: companion forms and per-gain certificates.

Every controllable single-input pair reduces to the chain pair (J, e_d) up
to a trace shift; the reduction carries gains along, and simple scalar
conditions on the reduced gain certify full Lie rank of the closed loop.
"""

import numpy as np

from pegrowth import (accessibility_certificate, check_larc,
                      companion_coefficient_bounds, companion_gain,
                      controllable_form_si, kalman_rank, nilpotent_shift,
                      parity_duality_check, unit_vector)
from pegrowth.rates import SearchBudget, bang_bang_family
from pegrowth.signals import SignalClass

rng = np.random.default_rng(2)
d = 3
while True:
    A = rng.standard_normal((d, d))
    b = rng.standard_normal((d, 1))
    if kalman_rank(A, b) == d:
        break
print(f"random controllable pair, d={d}, Kalman rank {kalman_rank(A, b)}")

form = controllable_form_si(A, b)  # companion form of A - tr(A) I
shifted = A - np.trace(A) * np.eye(d)
comp = nilpotent_shift(d) + np.outer(unit_vector(d, d - 1), form.v)
err = np.max(np.abs(np.linalg.inv(form.P) @ comp @ form.P - shifted))
print(f"companion row v = {np.round(form.v, 4)}; reconstruction error {err:.2e}")

# The accessibility certificate: iterated rows K_j and scalars r_j.
K = rng.standard_normal(d)
cert = accessibility_certificate(A, b, K)
print(f"\ngain {np.round(K, 3)}: certificate verdict={cert.verdict}")
print(f"  r scalars: {np.round(cert.r, 4)}")
if cert.verdict:
    larc = check_larc(shifted, b, (K @ cert.P).reshape(1, d))
    print(f"  cross-check, full Lie rank of the transported gain: {larc.verdict}")

# Deeply pole-placed gains always certify: the coefficient bounds force
# every coefficient of the companion gain to be large.
poles = [-6.0, -7.0, -8.0]
print(f"\npole placement at {poles}:")
kk = companion_gain(poles)
rep = companion_coefficient_bounds(kk)
print(f"  companion coefficient slacks: {np.round(rep.slacks, 3)} "
      f"(c0 = {rep.c0:.2f}, verdict {rep.verdict})")

# Repeated roots make every bound tight.
rep = companion_coefficient_bounds(companion_gain([-2.0, -2.0, -2.0]),
                                   eigenvalues=[-2.0, -2.0, -2.0])
print(f"  triple root at -2: slacks {np.round(rep.slacks, 12)}")

# Parity duality on the chain pair: flipping alternate signs of the gain
# swaps convergence and divergence, visible as spectral inversion of the
# monodromies signal by signal.
cls = SignalClass(1.0, 0.4)
fam = bang_bang_family(cls, SearchBudget(n_periods=2, size=10, seed=4))
kchain = np.array([1.0, -0.8, 1.3])
rep = parity_duality_check(kchain, fam, cls=cls)
print(f"\nparity duality for K={kchain} -> K_minus={rep.K_minus}:")
print(f"  max spectral-inversion residual over {len(rep.per_signal)} signals: "
      f"{rep.max_residual:.3e}")
