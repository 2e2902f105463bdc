"""Closed real intervals with extended endpoints.

Infinite endpoints encode rays and the whole line, matching the set
queries the belief/plausibility closed forms take (``(-inf, y]`` for cdfs,
``[x, y]`` for bounded events).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise DomainError("interval endpoints must not be NaN")
        if lo > hi:
            raise DomainError(f"interval requires lo <= hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def complement_rays(self) -> list["Interval"]:
        """The closure of the complement, as zero, one or two rays."""
        rays = []
        if not (math.isinf(self.lo) and self.lo < 0):
            rays.append(Interval(-math.inf, self.lo))
        if not (math.isinf(self.hi) and self.hi > 0):
            rays.append(Interval(self.hi, math.inf))
        return rays


WHOLE_LINE = Interval(-math.inf, math.inf)
