"""Rotate-remove: compute legal assignments and the legal subinstance.

Eliminating school-rotations while deleting the edges exposed at sinks walks
from the student-optimal stable assignment up to the student-optimal legal
assignment; the student-side mirror walks from the school-optimal stable
assignment down to the school-optimal legal one.  Gluing the two walks to the
stable lattice in the middle yields every legal edge, hence the subinstance
whose stable assignments are exactly the legal assignments.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress
from operator import not_

from .engine import (ENUMERATE, LEGAL, EngineRun, all_rotations,
                     school_side_run, student_side_run)
from .gs import Counters, gs_school
from .model import Assignment, Instance, SCHOOLS, STUDENTS, _check_side
from .rotations import Rotation, sigma_inverse

__all__ = [
    "rotate_remove", "student_optimal_legal", "school_optimal_legal",
    "stable_edges", "legal_subinstance", "LegalSubinstanceReport",
]


def rotate_remove(inst: Instance, side: str = SCHOOLS, *,
                  order: list[str] | None = None) -> EngineRun:
    """Eliminate every rotation of the given side, deleting illegal edges at
    sinks.  side=schools yields the student-optimal legal assignment,
    side=students the school-optimal one.  `order` only permutes the walk;
    the outputs are invariant under it."""
    _check_side(side)
    if side == SCHOOLS:
        return school_side_run(inst, mode=LEGAL, order=order)
    return student_side_run(inst, mode=LEGAL, order=order)


def student_optimal_legal(inst: Instance) -> Assignment:
    return school_side_run(inst).assignment


def school_optimal_legal(inst: Instance) -> Assignment:
    return student_side_run(inst).assignment


def stable_edges(inst: Instance) -> frozenset[tuple[str, str]]:
    """Edges on some stable assignment: the school-optimal one plus every
    (x_i, y_i) pair of a student-rotation."""
    out = set(gs_school(inst).assignment.matched_pairs)
    for rho in all_rotations(inst, STUDENTS):
        out.update(rho.pairs)
    return frozenset(out)


@dataclass(frozen=True)
class LegalSubinstanceReport:
    instance: Instance                     # original preferences minus illegal edges
    legal_edges: frozenset[tuple[str, str]]
    illegal_edges: frozenset[tuple[str, str]]
    student_optimal: Assignment
    school_optimal: Assignment
    rotations: tuple[Rotation, ...]        # student-rotations of the subinstance,
                                           # ordered from student- to school-optimal
    counters: Counters                     # of the two walks and the enumeration


def legal_subinstance(inst: Instance) -> LegalSubinstanceReport:
    """Restrict the instance to its legal edges.

    The student-rotations of the restricted instance split into three runs:
    the mirror images of the school-rotations eliminated on the way up to the
    student-optimal legal assignment, the student-rotations of the original
    instance, and the ones eliminated on the way down to the school-optimal
    legal assignment.  The legal edge set is assembled from them twice, once
    from each end, and the two forms are checked against each other.
    """
    up = school_side_run(inst)
    down = student_side_run(inst)
    mid = student_side_run(inst, mode=ENUMERATE)
    rotations = (tuple(sigma_inverse(tau) for tau in reversed(up.rotations))
                 + mid.rotations + down.rotations)

    from_bottom = set(down.assignment.matched_pairs)
    for rho in rotations:
        from_bottom.update(rho.pairs)
    from_top = set(up.assignment.matched_pairs)
    for rho in rotations:
        pairs = rho.pairs
        r = len(pairs)
        from_top.update((pairs[i][0], pairs[(i + 1) % r][1]) for i in range(r))
    if from_bottom != from_top:
        raise AssertionError("legal edge set differs between the two walks")

    legal = frozenset(from_bottom)
    schools = inst.schools
    illegal: list[tuple[str, str]] = []
    s_keep: list[bytes] = []
    for a, row in zip(inst.students, inst._s_pref):
        cells = [(a, schools[j]) for j in row]
        keep = bytes(map(legal.__contains__, cells))
        illegal += compress(cells, map(not_, keep))
        s_keep.append(keep)
    return LegalSubinstanceReport(_restrict(inst, s_keep), legal, frozenset(illegal),
                                  up.assignment, down.assignment, rotations,
                                  up.counters + down.counters + mid.counters)


def _restrict(inst: Instance, s_keep: list[bytes]) -> Instance:
    """The instance without the edges whose student-side keep flag is 0.

    The school side's flags follow through the cross ranks.  A kept cell's
    new position is the number of kept cells up to and including it, minus
    one.
    """
    b_keep = [bytearray(len(row)) for row in inst._b_pref]
    for row, cranks, keep in zip(inst._s_pref, inst._s_srank, s_keep):
        for j, c in compress(zip(row, cranks), keep):
            b_keep[j][c] = 1
    s_pos = [list(accumulate(keep)) for keep in s_keep]
    b_pos = [list(accumulate(keep)) for keep in b_keep]
    s_srank = [[b_pos[j][c] - 1 for j, c in compress(zip(row, cranks), keep)]
               for row, cranks, keep in zip(inst._s_pref, inst._s_srank, s_keep)]
    b_rrank = [[s_pos[i][c] - 1 for i, c in compress(zip(row, cranks), keep)]
               for row, cranks, keep in zip(inst._b_pref, inst._b_rrank, b_keep)]
    return Instance._from_arrays(
        inst.students, inst.schools, inst._quota,
        [list(compress(row, keep)) for row, keep in zip(inst._s_pref, s_keep)],
        [list(compress(row, keep)) for row, keep in zip(inst._b_pref, b_keep)],
        s_srank, b_rrank)
