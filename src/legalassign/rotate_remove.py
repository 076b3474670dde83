"""Rotate-remove: compute legal assignments and the legal subinstance.

Eliminating school-rotations while deleting the edges exposed at sinks walks
from the student-optimal stable assignment up to the student-optimal legal
assignment; the student-side mirror walks down to the school-optimal legal
one.  Gluing the two walks yields every legal edge, hence the subinstance
whose stable assignments are exactly the legal assignments.  The glue is one
pointer per student, which each rotation of the chain moves down its list.

The subinstance costs one deferred-acceptance run and two walks, both from
the student-optimal stable assignment.  The downward walk deletes only
illegal edges, which no stable assignment uses, so it eliminates every
stable student-rotation on its way down (Gusfield & Irving 1989, ch. 3)
without a separate enumeration of the stable lattice.  It need not pass
the school-optimal stable assignment: a legal rotation that no stable
assignment exposes may come before a stable one.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator

from . import engine
from .engine import EngineRun, _named_rotations, school_side_run, student_side_run
from .gs import Counters
from .model import Assignment, Instance, SCHOOLS, STUDENTS, _check_side
from .rotations import Rotation

__all__ = [
    "rotate_remove", "legal_subinstance", "LegalSubinstanceReport",
]

_UNGLUED = "legal edge set differs between the two walks"
_FLIP = bytes([1, 0]) + bytes(254)  # swaps the keep flags 0 and 1


def rotate_remove(inst: Instance, side: str = SCHOOLS) -> EngineRun:
    """Eliminate every rotation of the given side, deleting illegal edges at
    sinks.  side=schools yields the student-optimal legal assignment,
    side=students the school-optimal one."""
    _check_side(side)
    if side == SCHOOLS:
        return school_side_run(inst)
    return student_side_run(inst)


@dataclass(frozen=True)
class LegalSubinstanceReport:
    """The legal subinstance and the walks that found it.

    The legal edges are held as one keep mask per school over the original
    instance's preference cells.  ``instance``, ``legal_edges``,
    ``illegal_edges`` and ``rotations`` are built from the index-level
    result on first access.
    """
    student_optimal: Assignment
    school_optimal: Assignment
    counters: Counters                     # of the one run and both walks
    _inst: Instance
    _keep: list[bytearray]                 # per school: 1 where the cell is legal
    _rotations: list[list[tuple[int, int]]]  # (student, school) index pairs

    @cached_property
    def instance(self) -> Instance:
        """The original preferences minus the illegal edges."""
        return _restrict(self._inst, self._keep)

    @cached_property
    def legal_edges(self) -> frozenset[tuple[str, str]]:
        return self._edges(self._keep)

    @cached_property
    def illegal_edges(self) -> frozenset[tuple[str, str]]:
        return self._edges(keep.translate(_FLIP) for keep in self._keep)

    def _edges(self, masks: Iterable[bytes]) -> frozenset[tuple[str, str]]:
        """The (student, school) cells that ``masks``, one per school, keep."""
        students = self._inst.students
        return frozenset((students[a], b) for b, row, keep
                         in zip(self._inst.schools, self._inst._b_pref, masks)
                         for a in compress(row, keep))

    @cached_property
    def rotations(self) -> tuple[Rotation, ...]:
        """Student-rotations of the subinstance in an elimination order,
        from the student-optimal to the school-optimal legal assignment."""
        return _named_rotations(self._inst, STUDENTS, self._rotations)

    def edges_by_student(self) -> Iterator[tuple[str, list[str], list[str]]]:
        """(student, its legal schools, its illegal schools) for every
        student in index order, each list in school index order.

        One pass over the schools' rows in index order drops each school
        into the bucket of every student it lists, so every bucket comes
        out sorted without a comparison sort.
        """
        students = self._inst.students
        legal: list[list[str]] = [[] for _ in students]
        illegal: list[list[str]] = [[] for _ in students]
        for b, row, keep in zip(self._inst.schools, self._inst._b_pref, self._keep):
            for a in compress(row, keep):
                legal[a].append(b)
            for a in compress(row, keep.translate(_FLIP)):
                illegal[a].append(b)
        return zip(students, legal, illegal)


def legal_subinstance(inst: Instance) -> LegalSubinstanceReport:
    """Restrict the instance to its legal edges.

    The student-rotations of the restricted instance, in an elimination
    order, are the mirror images of the school-rotations eliminated on the
    way up to the student-optimal legal assignment, then the ones eliminated
    on the way down to the school-optimal legal assignment, the stable
    student-rotations among them.  One student-proposing run starts both
    walks, the upward one from a copy.  One pointer per student replays the
    chain from the top down the student's list, marking the legal edges; a
    pair that does not start at its student's pointer, or pointers that do
    not end at the bottom walk's assignment, raise AssertionError.
    O(|E|) + chain length.
    """
    # looked up on engine per call, as the walks look up their own runs
    state, gs_counters = engine._gs_student_arrays(inst)
    up = school_side_run(inst, _start=state.copy())
    down = student_side_run(inst, _start=state)
    # the inverse of sigma on each school-rotation (b_i, a_i): the pairs (a_i, b_{i-1})
    rotations = ([[(tau[i][1], tau[i - 1][0]) for i in range(len(tau))]
                  for tau in reversed(up._rotations)]
                 + down._rotations)
    s_pref, s_srank = inst._s_pref, inst._s_srank
    keep = [bytearray(len(row)) for row in inst._b_pref]
    at = list(up._match_pos)
    for row, cranks, k in zip(s_pref, s_srank, at):
        if k < len(row):
            keep[row[k]][cranks[k]] = 1
    for rot in rotations:
        for (a, b), (_, b_next) in zip(rot, rot[1:] + rot[:1]):
            row, k = s_pref[a], at[a]
            try:
                row.index(b, k, k + 1)  # ValueError unless row[k] == b
                at[a] = k = row.index(b_next, k + 1)
            except ValueError:
                raise AssertionError(_UNGLUED) from None
            keep[b_next][s_srank[a][k]] = 1
    if at != down._match_pos:
        raise AssertionError(_UNGLUED)
    counters = gs_counters + up.counters + down.counters
    return LegalSubinstanceReport(up.assignment, down.assignment, counters,
                                  inst, keep, rotations)


def _restrict(inst: Instance, b_keep: list[bytearray]) -> Instance:
    """The instance without the edges whose school-side keep flag is 0.

    The student side's flags follow through the cross ranks.
    """
    s_keep = [bytearray(len(row)) for row in inst._s_pref]
    for row, cranks, keep in zip(inst._b_pref, inst._b_rrank, b_keep):
        for i, c in compress(zip(row, cranks), keep):
            s_keep[i][c] = 1
    return Instance._from_rows(
        inst.students, inst.schools, inst.quota,
        [list(compress(row, keep)) for row, keep in zip(inst._s_pref, s_keep)],
        [list(compress(row, keep)) for row, keep in zip(inst._b_pref, b_keep)])
