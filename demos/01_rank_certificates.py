"""Lie-algebraic rank certificates for feedback pairs.

Walks through the three certificates on small systems: full matrix-algebra
rank (LARC), traceless rank (LARC0), and the projected condition on real
projective space (PLARC), plus the implication chain between them.
"""

import numpy as np

from pegrowth import (check_larc, check_larc0, check_plarc,
                      inclusion_chain_audit, lie_closure, nilpotent_shift,
                      unit_vector)

# The chain pair (J, e_d): J shifts basis vectors, the input enters at the
# bottom.  A gain with all components nonzero generates everything.
d = 3
J = nilpotent_shift(d)
e_d = unit_vector(d, d - 1).reshape(d, 1)
K = np.array([[1.0, 1.0, 1.0]])

basis = lie_closure([J, e_d @ K])
print(f"chain pair, K = {K.ravel()}:")
print(f"  closure dimension {basis.dim} (full algebra is {d * d})")
print(f"  depth reached {basis.depth_reached}, all traceless: {basis.all_traceless}")

for kind, cert in [("LARC", check_larc(J, e_d, K)),
                   ("LARC0", check_larc0(J, e_d, K)),
                   ("PLARC", check_plarc(J, e_d, K))]:
    print(f"  {kind:6s} verdict={cert.verdict}  dim={cert.dim}")

# A rotation with no input at all: the projected field never vanishes on the
# circle, so PLARC holds even though the pair is not controllable.  This is
# the only non-controllable family with that property.
print("\nplanar rotation, B = 0:")
rot = np.array([[0.0, -1.0], [1.0, 0.0]])
cert = check_plarc(rot, np.zeros((2, 1)), np.zeros((1, 2)))
print(f"  PLARC verdict={cert.verdict} (closure dim {cert.dim})")

# A diagonal flow stalls at its eigendirections; the certificate reports the
# failing sample points.
print("\ndiagonal flow, B = 0:")
cert = check_plarc(np.diag([1.0, 2.0]), np.zeros((2, 1)), np.zeros((1, 2)))
print(f"  PLARC verdict={cert.verdict}, "
      f"first failing direction {np.round(cert.failing_samples[0], 6)}")

# The implication chain LARC(A + s I, B) => LARC0(A, B) => PLARC(A, B),
# audited on random controllable systems.
print("\nimplication chain on 20 random controllable triples (d = 3):")
rng = np.random.default_rng(0)
bad = 0
for i in range(20):
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 1))
    Kr = rng.standard_normal((1, 3))
    audit = inclusion_chain_audit(A, B, Kr, shift=float(rng.uniform(-1, 1)), seed=i)
    bad += len(audit.violations)
print(f"  violations: {bad}")
