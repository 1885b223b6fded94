"""Worst-case growth rates and exact time-reversal duality.

For a fixed gain K, the convergence rate is the worst decay of
x' = (A + alpha(t) B K) x over the signal class; the divergence rate is the
worst guaranteed growth.  Searching periodic bang-bang signals gives
one-sided bounds, and reversing time swaps the two roles exactly.
"""

import numpy as np

from pegrowth import (SearchBudget, SignalClass, bang_bang_family,
                      constant_family, duality_check, family_rates,
                      mirror_family, monodromy, rc_estimate, rd_estimate,
                      shift_law_check)

cls = SignalClass(T=1.0, mu=0.4)
A = np.array([[0.0, 1.0], [0.0, 0.0]])
B = np.array([[0.0], [1.0]])
K = np.array([[-2.0, -3.0]])

# Constant signals bound the rates through closed-loop eigenvalues.
fam_const = constant_family(cls, 50)
rc_c = rc_estimate(A, B, K, cls, fam_const)
print("constant-signal bound:")
print(f"  rc <= {rc_c.value:.6f}, witnessed by alpha = {rc_c.witness.values[0]:.4f}")

# Bang-bang switching digs deeper.
fam = bang_bang_family(cls, SearchBudget(size=30, seed=1))
rc = rc_estimate(A, B, K, cls, fam)
print(f"  rc <= {rc.value:.6f} over a 30-signal bang-bang family "
      f"(witness period {rc.witness.period})")

# Per-signal structure: the monodromy over one period carries everything.
m = monodromy(A, B, K, rc.witness)
print(f"\nwitness monodromy: top rate {m.top_rate:.6f}, "
      f"bottom rate {m.bottom_rate:.6f}")

# Duality: the divergence estimate of the reversed system on the mirrored
# family equals the convergence estimate bit for bit, and each reversed
# monodromy inverts the original.
rep = duality_check(A, B, K, cls, fam)
print("\ntime-reversal duality:")
print(f"  rc(A,B,K)            = {rep.rc.value!r}")
print(f"  rd(-A,-B,K) mirrored = {rep.rd_mirror.value!r}")
print(f"  bit-for-bit equal: {rep.estimates_equal}")
print(f"  max inversion residual over the family: {rep.max_residual:.3e}")

rd = rd_estimate(-A, -B, K, cls, mirror_family(fam))
assert rd.value == rc.value

# Norm and conorm envelopes obey the same mirror identity.
delta = family_rates(A, B, K, cls, fam).delta
print(f"\nlog-norm envelope: delta >= {delta.delta_hat.value:.6f}, "
      f"conorm envelope: delta* <= {delta.delta_star_hat.value:.6f}")
print(f"mirror identity exact: {delta.mirror_identity_exact}")

# Shifting A by s*I shifts every exponent by exactly s.
rep = shift_law_check(A, B, K, -2.5, rc.witness, [1.0, 1.0], cls=cls, family=fam)
print(f"\nshift law at s=-2.5: top-rate residual {rep.top_rate_residual:.2e}, "
      f"rc-shift residual {rep.rc_shift_residual:.2e}")
