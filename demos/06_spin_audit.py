"""Spectral audit of the Lorentz-bordered skew algebra spin(9,1).

Elements are bordered skew matrices whose spectra are symmetric about the
origin, equivalently whose characteristic polynomials are even.  These are
the spectral facts that let generic gains avoid the exceptional transitive
algebras in the density argument for the rank certificates.
"""

import numpy as np

from pegrowth import multiset_residual, opnorm
from pegrowth.spinchk import (charpoly_even_decomp, is_spin91, lorentz_form,
                              random_spin91)

g = lorentz_form()
print("Lorentz form diag:", np.diag(g).astype(int).tolist())

m = random_spin91(42)
print(f"\nseeded draw: membership={is_spin91(m)}, trace={np.trace(m):.1e}")

ev = np.linalg.eigvals(m)
print(f"eigenvalues are (+/-)-paired: negation residual "
      f"{multiset_residual(ev, -ev):.2e}")

dec = charpoly_even_decomp(m)
print(f"even characteristic polynomial: Q coefficients "
      f"{np.round(dec.q_coeffs, 4)}")
print(f"largest odd coefficient: {dec.odd_residual:.3e}")

print("\n100-draw audit:")
worst_m = worst_s = worst_o = 0.0
for seed in range(100):
    m = random_spin91(seed)
    worst_m = max(worst_m, opnorm(m.T @ g + g @ m) / (1 + opnorm(m)))
    evs = np.linalg.eigvals(m)
    worst_s = max(worst_s, multiset_residual(evs, -evs))
    worst_o = max(worst_o, charpoly_even_decomp(m).odd_residual
                  / (1 + opnorm(m) ** 10))
print(f"  max membership residual: {worst_m:.2e}")
print(f"  max spectrum-negation residual: {worst_s:.2e}")
print(f"  max scaled odd coefficient: {worst_o:.2e}")
