"""Brute-force ground truth for small markets.

Everything here enumerates, so it is only usable on toy instances, but it is
written straight from the definitions and shares no code with the production
solvers.  It reads an instance only through its preference lists and quotas,
never through the cross-rank tables the solvers use.  The differential test
suites treat its answers as authoritative.

The universe is one array of option indices (a position on the student's
list, or unmatched), one row per assignment, enumerated breadth first in
lexicographic order; an assignment is named only when read.  Every student
may stay unmatched, so the cap is checked exactly at every depth, before
the universe is complete.  Its masks are packed boolean matrices, one row
per edge and one bit per assignment.  One universe per market:
``legal_fixed_point``, ``verify_legal_property`` and ``enumerate_stable``
share a one-slot memo of it, keyed by the instance (compared by its tables)
and the cap.  ``is_constrained_efficient`` walks, depth first, only the
assignments in which every student holds an option it weakly prefers to
its option in m, and checks their priorities on option indices, with each
school's ranks taken from its preference list.  An assignment given to the
oracle is read into option indices by ``model._positions``.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .eadam import ConsentSet, _consent_flags
from .model import Assignment, Instance, _positions

DEFAULT_CAP = 10**6


class OracleCapError(RuntimeError):
    """Raised when an enumeration would exceed its cap."""


def _size_estimate(counts: Sequence[int]) -> str:
    """The product of the option counts over the students: exact below
    10^15, else the nearest power of ten, so that the text stays short at
    any market size."""
    digits = sum(map(math.log10, counts))
    return str(math.prod(counts)) if digits < 15 else f"about 10^{round(digits)}"


def _cap_error(cap: int, limits: Sequence[int]) -> OracleCapError:
    return OracleCapError(f"assignment enumeration exceeds cap={cap} "
                          f"(upper bound {_size_estimate(limits)})")


def _walk(inst: Instance, limits: Sequence[int], cap: int) -> Iterator[tuple[int, ...]]:
    """The assignments within the quotas in which each student i holds one
    of its first ``limits[i]`` options, in backtracking (lexicographic)
    order of their option indices; option r is ``row[r]``, or unmatched
    for r == len(row).  Raises OracleCapError when asked for more than
    ``cap``.  No recursion, so the market's depth is not bounded by
    Python's recursion limit.  Depth first, so the dominating walk, which
    mostly holds a handful of assignments and stops at the first that
    violates no priority, pays no per-call array cost."""
    rows = inst._s_pref
    n = len(rows)
    free = list(inst._quota)
    pos = [-1] * n  # -1: the student has not tried an option yet
    produced = 0
    d = 0  # the student to move next
    while d >= 0:
        if d == n:
            if produced >= cap:
                raise _cap_error(cap, limits)
            produced += 1
            yield tuple(pos)
            d -= 1
            continue
        # move student d to its next option with a seat, or back up past it
        row = rows[d]
        k = len(row)
        r = pos[d]
        if 0 <= r < k:
            free[row[r]] += 1
        r += 1
        while r < k and not free[row[r]]:
            r += 1
        if r < limits[d]:
            if r < k:
                free[row[r]] -= 1
            pos[d] = r
            d += 1
        else:
            pos[d] = -1
            d -= 1


def _enumerate(inst: Instance, cap: int) -> np.ndarray:
    """Every assignment's option indices, one row each, in ``_walk``'s
    order with no limits.  Breadth first: the frontier holds one row per
    partial assignment and one seat count per school, and is extended one
    student at a time, each row's children in option order.  Every
    student may stay unmatched, so each partial assignment extends to a
    distinct assignment, and a frontier larger than ``cap`` proves the
    universe larger: OracleCapError is raised at the first such depth."""
    rows = inst._s_pref
    limits = [len(row) + 1 for row in rows]
    if cap < 1:
        raise _cap_error(cap, limits)
    leaves = np.zeros((1, 0), np.min_scalar_type(max(limits, default=1)))
    free = np.array([inst._quota], np.min_scalar_type(max(inst._quota, default=0)))
    for row in rows:
        schools = np.array(row, np.intp)
        feasible = np.ones((len(leaves), len(row) + 1), bool)
        feasible[:, :-1] = free[:, schools] > 0
        if np.count_nonzero(feasible) > cap:
            raise _cap_error(cap, limits)
        parent, option = np.nonzero(feasible)
        leaves = np.column_stack((leaves[parent], option.astype(leaves.dtype)))
        free = free[parent]
        seated = np.flatnonzero(option < len(row))
        free[seated, schools[option[seated]]] -= 1
    return leaves


class _Assignments(Sequence[Assignment]):
    """A read-only sequence of assignments kept as rows of option indices
    (``leaves``); each assignment is named on its first read and cached."""

    def __init__(self, inst: Instance, leaves: Sequence[Sequence[int]]):
        self.leaves = leaves
        self._students = inst.students
        # per student, its options by index: its schools, then None
        self._options = [inst.student_prefs[a] + (None,) for a in inst.students]
        self._named: list[Assignment | None] = [None] * len(leaves)

    def __len__(self) -> int:
        return len(self.leaves)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        m = self._named[i]
        if m is None:
            m = self._named[i] = Assignment(dict(zip(
                self._students, map(tuple.__getitem__, self._options, self.leaves[i]))))
        return m

    def find(self, leaf: list[int]) -> int | None:
        """The index of the assignment with these option indices, by binary
        search over the sorted rows; None if it is not among them."""
        i = bisect_left(self.leaves, leaf, key=np.ndarray.tolist)
        return i if i < len(self.leaves) and self.leaves[i].tolist() == leaf else None


def enumerate_assignments(inst: Instance, cap: int = DEFAULT_CAP) -> Sequence[Assignment]:
    """All assignments (students may stay unmatched), deterministic order.

    The order is backtracking's over students in instance order, each
    student trying its schools in preference order, then None; the rows
    come from ``_enumerate``, breadth first.  Raises OracleCapError when
    there are more than ``cap`` assignments.  The read-only sequence
    returned keeps option indices and names each assignment when first read.
    """
    return _Assignments(inst, _enumerate(inst, cap))


@dataclass
class _Universe:
    """Enumerated assignments with two packed boolean matrices.

    One row per edge, in ``Instance.edges`` order, and one bit per
    assignment: assignment i is bit i % 8 of byte i // 8.  Row e of
    ``own`` flags the assignments that hold edge e, and row e of
    ``blocked_by`` those that e blocks.  An assignment is blocked by a set
    S of assignments iff an edge that some member of S holds blocks it,
    because blocking is purely edge-based.

    Blocking factorises by side: edge (a, b) blocks m iff a prefers b to
    m(a) and b admits a, that is, b has a free seat or ranks a above its
    worst member.  So ``build`` never looks at an edge on its own: it
    fills the rows one school at a time, from the options of the students
    on its list.  A student holds the edge when its option equals the
    edge's position on its list, and prefers it when its option lies
    below; ranks come from the preference lists, not the cross-rank tables.
    """

    assignments: _Assignments
    own: np.ndarray
    blocked_by: np.ndarray

    @classmethod
    def build(cls, inst: Instance, cap: int = DEFAULT_CAP) -> "_Universe":
        assignments = enumerate_assignments(inst, cap)
        options = np.ascontiguousarray(assignments.leaves.T)  # per student, per assignment
        s_off = list(accumulate(map(len, inst._s_pref), initial=0))
        s_rank = [{j: r for r, j in enumerate(row)} for row in inst._s_pref]
        own = np.zeros((s_off[-1], -(-len(assignments) // 8)), np.uint8)
        blocked = np.zeros_like(own)
        for j, (row, q) in enumerate(zip(inst._b_pref, inst._quota)):
            ranks = [s_rank[i][j] for i in row]
            held = options[row]  # the options of the school's students, in its order
            position = np.array(ranks, np.intp).reshape(-1, 1)
            members = held == position
            # a full school admits the students it ranks above its worst member
            admits = np.zeros_like(members)
            admits[:-1] = np.logical_or.accumulate(members[:0:-1])[::-1]
            admits |= np.count_nonzero(members, axis=0) < q
            edges = [s_off[i] + r for i, r in zip(row, ranks)]
            own[edges] = np.packbits(members, axis=1, bitorder="little")
            blocked[edges] = np.packbits((held > position) & admits, axis=1, bitorder="little")
        return cls(assignments, own, blocked)

    def pick(self, keep: np.ndarray) -> list[Assignment]:
        """The assignments whose flag in ``keep`` is set, named."""
        return list(map(self.assignments.__getitem__, np.flatnonzero(keep).tolist()))

    def flagged(self, matrix: np.ndarray, edges) -> np.ndarray:
        """Per assignment, whether a row of ``matrix`` picked by ``edges`` flags it."""
        flags = np.bitwise_or.reduce(matrix[edges], axis=0)
        return np.unpackbits(flags, count=len(self.assignments), bitorder="little").view(bool)

    def union(self, member: np.ndarray) -> np.ndarray:
        """Per edge, whether an assignment flagged in ``member`` holds it."""
        return (self.own & np.packbits(member, bitorder="little")).any(1)

    def unblocked(self, edges=slice(None)) -> np.ndarray:
        """Per assignment, whether no edge flagged in ``edges`` (by default
        any edge) blocks it."""
        return ~self.flagged(self.blocked_by, edges)


@lru_cache(maxsize=1)
def _universe(inst: Instance, cap: int) -> _Universe:
    """The universe of the last market asked for, by instance (equal
    tables) and cap.  A cap error is not cached.  One slot: a second
    universe kept alive costs memory."""
    return _Universe.build(inst, cap)


def enumerate_stable(inst: Instance, cap: int = DEFAULT_CAP) -> list[Assignment]:
    """All stable assignments (no edge blocks), deterministic order."""
    uni = _universe(inst, cap)
    return uni.pick(uni.unblocked())


def legal_fixed_point(
    inst: Instance, cap: int = DEFAULT_CAP
) -> tuple[list[Assignment], list[list[Assignment]]]:
    """The legal set by fixed-point iteration, with the full trace.

    Start from the stable set L0; repeatedly let L' be the assignments not
    blocked by anything that survives removal of I(L) (the assignments some
    member of L blocks).  The sequence grows monotonically and stabilizes at
    the legal set.  Returns (legal set, [L0, L1, ..., Lk]).
    """
    uni = _universe(inst, cap)
    cur = uni.unblocked()  # L0 = stable set
    levels = [cur]
    while True:
        survivors = uni.unblocked(uni.union(cur))  # not blocked by L
        nxt = uni.unblocked(uni.union(survivors))
        if np.array_equal(nxt, cur):
            break
        cur = nxt
        levels.append(cur)
    trace = list(map(uni.pick, levels))
    return trace[-1], trace


@dataclass(frozen=True)
class LegalityCheck:
    ok: bool
    internal_witness: tuple[Assignment, Assignment] | None = None  # (blocker, blocked)
    external_witness: Assignment | None = None  # unblocked outsider

    def __bool__(self) -> bool:
        return self.ok


def verify_legal_property(
    inst: Instance, candidate: Sequence[Assignment], cap: int = DEFAULT_CAP
) -> LegalityCheck:
    """Check internal and external stability of a candidate set directly.

    Internal: no member blocks a member.  External: every non-member is
    blocked by some member.  Returns the first witness found on failure:
    the lowest blocked member with its lowest blocker, else the lowest
    unblocked outsider.  Each member is read by `model._positions`' rules;
    a member that breaks a quota is outside the universe and raises
    ValueError.
    """
    uni = _universe(inst, cap)
    member = np.zeros(len(uni.assignments), bool)
    for m in candidate:
        i = uni.assignments.find(_positions(inst, m))
        if i is None:
            raise ValueError(f"candidate contains an assignment outside the universe: {m!r}")
        member[i] = True
    unblocked = uni.unblocked(uni.union(member))
    blocked = np.flatnonzero(member & ~unblocked)
    if len(blocked):
        i = int(blocked[0])
        blocking = uni.blocked_by[:, i >> 3] >> (i & 7) & 1 == 1  # the edges that block it
        j = np.flatnonzero(member & uni.flagged(uni.own, blocking))[0]
        return LegalityCheck(False, internal_witness=(uni.assignments[j], uni.assignments[i]))
    outsiders = np.flatnonzero(~member & unblocked)
    if len(outsiders):
        return LegalityCheck(False, external_witness=uni.assignments[outsiders[0]])
    return LegalityCheck(True)


def _dominating(inst: Instance, here: tuple[int, ...], cap: int) -> Iterator[tuple[int, ...]]:
    """The option indices of the assignments that dominate the one with
    option indices ``here``: every student holds an option it weakly
    prefers to its option there, and (preferences being strict) they
    differ from it.  ``cap`` bounds them and ``here`` together."""
    return (leaf for leaf in _walk(inst, [r + 1 for r in here], cap) if leaf != here)


def is_constrained_efficient(inst: Instance, consent: ConsentSet | None,
                             m: Assignment, cap: int = DEFAULT_CAP) -> bool:
    """True iff m respects every nonconsenting student's priority and every
    assignment the students strictly prefer violates one.  The enumeration's
    core walks the assignments in which every student holds an option it
    weakly prefers to its option in m, so this is a test oracle for small
    instances only.  ``cap`` bounds the number of those assignments it
    enumerates, not the size of the whole universe.  m is read by
    `model._positions`' rules.

    Each assignment is checked on its option indices in one pass: a
    refusing student's priority is violated when a school above its option
    holds a student that the school ranks below it."""
    refusing = [i for i, ok in enumerate(_consent_flags(inst, consent)) if not ok]
    here = tuple(_positions(inst, m))
    b_rank = [{i: c for c, i in enumerate(row)} for row in inst._b_pref]
    # per student, per option: the school and the student's rank there
    seats = [[(j, b_rank[j][i]) for j in row] for i, row in enumerate(inst._s_pref)]
    n_schools = inst.n_schools

    def violated(leaf: tuple[int, ...]) -> bool:
        worst = [-1] * n_schools  # each school's worst member's rank
        for options, r in zip(seats, leaf):
            if r < len(options):
                j, c = options[r]
                if c > worst[j]:
                    worst[j] = c
        return any(worst[j] > c for i in refusing for j, c in seats[i][:leaf[i]])

    return not violated(here) and all(map(violated, _dominating(inst, here, cap)))
