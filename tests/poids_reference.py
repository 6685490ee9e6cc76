"""Reference poids: the per-path definition that ``treewalks.oracles`` once
exposed, kept so tests can check the tallied oracle and the closed forms
against weights multiplied out step by step on each path.

A path takes U and D steps and never dips below the x-axis.  Its weight
multiplies c1 per U and c2 per D; its poids swaps in c3 for every D that
lands on the axis.  Splitting an axis-ending path at its returns to the
axis gives its irreducible components.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from treewalks.recurrence import WeightConfig

__all__ = ["LatticePath", "weight_and_poids", "irreducible_components", "valid_paths"]


@dataclass(frozen=True)
class LatticePath:
    """A U/D step sequence whose running height never goes negative."""

    steps: str

    def __post_init__(self) -> None:
        height = 0
        for k, step in enumerate(self.steps):
            if step == "U":
                height += 1
            elif step == "D":
                height -= 1
            else:
                raise ValueError(f"step {k} is {step!r}; only 'U' and 'D' are allowed")
            if height < 0:
                raise ValueError(f"path {self.steps!r} dips below the x-axis after step {k}")

    def __len__(self) -> int:
        return len(self.steps)

    def heights(self) -> list[int]:
        """Height after each step (length == number of steps)."""
        out = []
        height = 0
        for step in self.steps:
            height += 1 if step == "U" else -1
            out.append(height)
        return out

    @property
    def final_height(self) -> int:
        return self.steps.count("U") - self.steps.count("D")


def weight_and_poids(path: LatticePath, weights: WeightConfig) -> tuple[Fraction, Fraction]:
    """(weight, poids) of a path: c1 per U; c2 per D, or c3 when the D lands
    at height 0.  The t-exponent is implicit in the path length."""
    weight = Fraction(1)
    poids = Fraction(1)
    height = 0
    for step in path.steps:
        if step == "U":
            height += 1
            weight *= weights.c1
            poids *= weights.c1
        else:
            height -= 1
            weight *= weights.c2
            poids *= weights.c3 if height == 0 else weights.c2
    return weight, poids


def irreducible_components(path: LatticePath) -> list[LatticePath]:
    """Split an axis-ending path at its returns to height 0.

    Each component starts and ends on the axis and stays strictly above it
    in between; their concatenation is the original path.
    """
    if path.final_height != 0:
        raise ValueError(f"path {path.steps!r} ends at height {path.final_height}, not 0")
    components = []
    height = 0
    start = 0
    for k, step in enumerate(path.steps):
        height += 1 if step == "U" else -1
        if height == 0:
            components.append(LatticePath(path.steps[start : k + 1]))
            start = k + 1
    return components


@cache
def valid_paths() -> list[LatticePath]:
    """Every path of length <= 12 that never dips below the axis."""
    paths = []
    for n in range(13):
        for steps in itertools.product("UD", repeat=n):
            with contextlib.suppress(ValueError):
                paths.append(LatticePath("".join(steps)))
    return paths
