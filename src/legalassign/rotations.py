"""Rotations and the bijection between the two sides' rotations.

A rotation records a cyclic trade among agents of one side.  For side X
(students or schools) and a stable assignment M, the successor s_M(x) is
the first agent y outside M(x) on x's list willing to take x, and
next_M(x) the least preferred current partner of that y.  Directed cycles
of the arcs x -> s_M(x) -> next_M(x) are exactly the exposed X-rotations;
eliminating one trades every x_i from y_i to y_{i+1} and lands on another
stable assignment.  The walks in ``engine`` find and eliminate rotations
at index level; ``sigma`` maps a student-rotation onto the school-rotation
that undoes it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import SCHOOLS, STUDENTS, _check_side


@dataclass(frozen=True)
class Rotation:
    """Cyclic list of matched pairs (x_i, y_i); x_i trades y_i for y_{i+1}.

    Pairs are stored rotated so the lexicographically smallest x_i comes
    first, making rotations comparable across discovery orders.
    """
    side: str
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        _check_side(self.side)
        pairs = tuple([(x, y) for x, y in self.pairs])
        if len(pairs) < 2:
            raise ValueError("rotation needs at least two pairs")
        xs = [x for x, _ in pairs]
        if len(set(xs)) != len(xs) or len({y for _, y in pairs}) != len(pairs):
            raise ValueError("rotation agents must be distinct")
        k = xs.index(min(xs))
        object.__setattr__(self, "pairs", pairs[k:] + pairs[:k])

    def __len__(self) -> int:
        return len(self.pairs)


def sigma(rho: Rotation) -> Rotation:
    """Re-thread a student-rotation into the school-rotation undoing it:
    sigma(rho) is exposed in M/rho and (M/rho)/sigma(rho) = M."""
    if rho.side != STUDENTS:
        raise ValueError("sigma takes a student-rotation")
    pairs = rho.pairs
    r = len(pairs)
    return Rotation(SCHOOLS, tuple((pairs[(i + 1) % r][1], pairs[i][0]) for i in range(r)))
