"""Closed real intervals with extended endpoints.

Infinite endpoints encode rays and the whole line, matching the set
queries the belief/plausibility closed forms take (``(-inf, y]`` for cdfs,
``[x, y]`` for bounded events).
"""

from __future__ import annotations

import math

from ._value import Value
from .errors import DomainError


class Interval(Value):
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo, hi = float(lo), float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise DomainError("interval endpoints must not be NaN")
        if lo > hi:
            raise DomainError(f"interval requires lo <= hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def complement_rays(self) -> list["Interval"]:
        """The closure of the complement, as zero, one or two rays."""
        rays = []
        if not (math.isinf(self.lo) and self.lo < 0):
            rays.append(Interval(-math.inf, self.lo))
        if not (math.isinf(self.hi) and self.hi > 0):
            rays.append(Interval(self.hi, math.inf))
        return rays


WHOLE_LINE = Interval(-math.inf, math.inf)
