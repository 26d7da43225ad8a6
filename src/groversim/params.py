"""Search-instance sizing shared by every engine."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True)
class SearchParams:
    """A search instance: ``n1`` unmarked ("collective") basis states and
    ``n2`` marked ones, searching ``n_total = n1 + n2`` items in total.

    Both counts must be at least 1, so ``n_total >= 2``.
    """

    n1: int
    n2: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n1", operator.index(self.n1))
        object.__setattr__(self, "n2", operator.index(self.n2))
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(
                f"n1 and n2 must each be >= 1, got n1={self.n1}, n2={self.n2}"
            )

    @property
    def n_total(self) -> int:
        return self.n1 + self.n2


class RegimeWarning(UserWarning):
    """The instance sits in a regime where the search loses efficiency."""


class Regime(str, Enum):
    EFFICIENT = "efficient"
    BOUNDARY = "boundary"
    INEFFICIENT = "inefficient"
    INVALID = "invalid"


def detect_regime(params: SearchParams) -> Regime:
    """Efficiency regime of the instance.

    efficient    n2 < N/4   (ball 1 keeps creeping rightward)
    boundary     n2 = N/4   (one iteration transfers all energy)
    inefficient  N/4 < n2 < N/2   (ball 1 reverses on the first iteration)
    invalid      n2 >= N/2  (equal or heavier ball 2; the search fails)
    """
    n, n2 = params.n_total, params.n2
    if 2 * n2 >= n:
        return Regime.INVALID
    if 4 * n2 < n:
        return Regime.EFFICIENT
    if 4 * n2 == n:
        return Regime.BOUNDARY
    return Regime.INEFFICIENT
