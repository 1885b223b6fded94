"""Persistently exciting signals and their constructions.

A signal class (T, mu) admits exactly those [0,1]-valued signals whose
integral over every window of length T is at least mu.  This script checks
membership and reverses signals in time.
"""

import numpy as np

from pegrowth import PESignal, SignalClass, reverse, validate_pe

cls = SignalClass(T=1.0, mu=0.4)
print(f"class: window T={cls.T}, energy mu={cls.mu}, constant floor mu/T={cls.floor}")

# The boundary constant sits exactly on the constraint.
const = PESignal.constant(cls.floor, period=1.0)
res = validate_pe(const, cls)
print(f"\nconstant {cls.floor}: valid={res.valid}, worst window integral "
      f"{res.worst_integral} (== mu: {res.worst_integral == cls.mu})")

# A square wave with on-time mu per period: every window catches exactly mu.
square = PESignal([0.0, cls.mu], [1.0, 0.0], period=cls.T)
res = validate_pe(square, cls)
print(f"square wave: valid={res.valid}, worst integral {res.worst_integral:.12f}")

# Too little on-time fails, and the report points at the worst window.
starved = PESignal([0.0, 0.25], [1.0, 0.0], period=1.0)
res = validate_pe(starved, cls)
print(f"starved wave: valid={res.valid}, worst window starts at "
      f"t={res.worst_window_start} with integral {res.worst_integral}")

# Time reversal reflects the profile; applying it twice restores the signal
# segment data bit for bit.
rev = reverse(square)
print(f"\nreversed square wave: breakpoints {rev.breakpoints.tolist()}, "
      f"values {rev.values.tolist()}")
back = reverse(rev)
print(f"double reversal restores durations exactly: "
      f"{np.array_equal(back.durations, square.durations)}")
