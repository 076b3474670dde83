"""Brute-force ground truth for small markets.

Everything here enumerates, so it is only usable on toy instances, but it is
written straight from the definitions and shares no code with the production
solvers.  It reads an instance only through its preference lists and quotas,
never through the cross-rank tables the solvers use.  The differential test
suites treat its answers as authoritative.

One index-level backtracking core keeps each assignment as its students'
option indices (a position on the student's list, or unmatched); an
assignment is named only when read, and the universe's bitmasks are
derived only once the enumeration has passed its cap.  One universe per
market: ``legal_fixed_point``, ``verify_legal_property`` and
``enumerate_stable`` share a one-slot memo of it, keyed by the instance
(compared by its tables) and the cap.  ``is_constrained_efficient`` walks
only the assignments in which every student holds an option it weakly
prefers to its option in m, and checks their priorities on option indices,
with each school's ranks taken from its preference list.  An assignment
given to the oracle is read into option indices by ``model._positions``.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, compress
from operator import or_
from typing import Iterable, Iterator, Sequence

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


def _walk(inst: Instance, limits: Sequence[int], cap: int) -> Iterator[tuple[int, ...]]:
    """The assignments within the quotas in which each student i holds one
    of its first ``limits[i]`` options, in backtracking (lexicographic)
    order of their option indices; option r is ``row[r]``, or unmatched
    for r == len(row).  Raises OracleCapError when asked for more than
    ``cap``.  No recursion, so the market's depth is not bounded by
    Python's recursion limit."""
    rows = inst._s_pref
    n = len(rows)
    free = list(inst._quota)
    pos = [-1] * n  # -1: the student has not tried an option yet
    produced = 0
    d = 0  # the student to move next
    while d >= 0:
        if d == n:
            if produced >= cap:
                raise OracleCapError(
                    f"assignment enumeration exceeds cap={cap} "
                    f"(upper bound {_size_estimate(limits)})")
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


class _Assignments(Sequence[Assignment]):
    """A read-only sequence of assignments kept as option indices
    (``leaves``); each assignment is named on its first read and cached."""

    def __init__(self, inst: Instance, leaves: list[tuple[int, ...]]):
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

    def find(self, leaf: tuple[int, ...]) -> int | None:
        """The index of the assignment with these option indices, by binary
        search over the sorted leaves; None if it is not among them."""
        i = bisect_left(self.leaves, leaf)
        return i if i < len(self.leaves) and self.leaves[i] == leaf else None


def enumerate_assignments(inst: Instance, cap: int = DEFAULT_CAP) -> Sequence[Assignment]:
    """All assignments (students may stay unmatched), deterministic order.

    Backtracks over students in instance order; each student tries its
    schools in preference order, then None.  Raises OracleCapError once more
    than ``cap`` assignments have been produced.  The read-only sequence
    returned keeps option indices and names each assignment when first read.
    """
    return _Assignments(inst, list(_walk(inst, [len(row) + 1 for row in inst._s_pref], cap)))


@dataclass
class _Universe:
    """Enumerated assignments with per-assignment bitmask indexes.

    Edges are numbered in ``Instance.edges`` order; ``own[i]`` is the
    bitmask of assignment i's matched edges and ``blocked_by[i]`` the mask
    of edges that block it.  An assignment is blocked by a set S of
    assignments iff its blocked_by mask intersects the union of S's own
    masks, because blocking is purely edge-based.

    Blocking factorises by side: edge (a, b) blocks m iff a prefers b to
    m(a) and b admits a, that is, b has a free seat or ranks a above its
    worst member.  So ``blocked_by`` is the union of the students' "prefers"
    masks intersected with the union of the schools' "admits" masks, and
    ``build`` never looks at an edge on its own.  Each student's options,
    by option index, map to a code of three disjoint fields: the option's
    own-edge bit, the mask of edges the student prefers to it, and the seat
    bit it fills on the school side (the school's offset plus the student's
    rank there).  No two students share a bit, so the sum of the codes is
    the union of each field; a school's members are the set bits of its
    slice of the seat field.
    """

    assignments: _Assignments
    own: list[int]
    blocked_by: list[int]

    @classmethod
    def build(cls, inst: Instance, cap: int = DEFAULT_CAP) -> "_Universe":
        assignments = enumerate_assignments(inst, cap)
        s_off = list(accumulate(map(len, inst._s_pref), initial=0))
        b_off = list(accumulate(map(len, inst._b_pref), initial=0))
        n_edges = s_off[-1]
        s_rank = [{j: r for r, j in enumerate(row)} for row in inst._s_pref]
        b_rank = [{i: c for c, i in enumerate(row)} for row in inst._b_pref]
        codes: list[list[int]] = []  # per student: option index -> code
        for i, (off, row) in enumerate(zip(s_off, inst._s_pref)):
            code = [(1 << (off + r)) | (((1 << r) - 1) << (off + n_edges))
                    | (1 << (2 * n_edges + b_off[j] + b_rank[j][i]))
                    for r, j in enumerate(row)]
            code.append(((1 << len(row)) - 1) << (off + n_edges))
            codes.append(code)
        # per school: (seat offset, seat-field mask, quota, admit masks), where
        # admit[w] holds the edges of its first w students and admit[-1] all
        admits = []
        for j, (off, row, q) in enumerate(zip(b_off, inst._b_pref, inst._quota)):
            admit = [0]
            for i in row:
                admit.append(admit[-1] | (1 << (s_off[i] + s_rank[i][j])))
            admits.append((off, (1 << len(row)) - 1, q, admit))

        edge_field = (1 << n_edges) - 1
        own: list[int] = []
        blocked: list[int] = []
        for leaf in assignments.leaves:
            total = sum(map(list.__getitem__, codes, leaf))
            seats = total >> 2 * n_edges
            admitted = 0
            for off, field, q, admit in admits:
                members = (seats >> off) & field
                # a full school admits the students it ranks above its worst member
                admitted |= admit[-1] if members.bit_count() < q else admit[members.bit_length() - 1]
            own.append(total & edge_field)
            blocked.append((total >> n_edges) & admitted)
        return cls(assignments, own, blocked)

    def pick(self, keep: Iterable[bool]) -> list[Assignment]:
        """The assignments whose flag in ``keep`` is set, named."""
        return list(map(self.assignments.__getitem__, compress(range(len(self.own)), keep)))

    def union_mask(self, member: Sequence[bool]) -> int:
        return reduce(or_, compress(self.own, member), 0)


@lru_cache(maxsize=1)
def _universe(inst: Instance, cap: int) -> _Universe:
    """The universe of the last market asked for, by instance (equal
    tables) and cap.  A cap error is not cached.  One slot: a second
    universe kept alive costs memory, and every garbage collection walks
    it."""
    return _Universe.build(inst, cap)


def enumerate_stable(inst: Instance, cap: int = DEFAULT_CAP) -> list[Assignment]:
    """All stable assignments (no edge blocks), deterministic order."""
    uni = _universe(inst, cap)
    return uni.pick(bm == 0 for bm in uni.blocked_by)


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
    blocked = uni.blocked_by
    cur = [bm == 0 for bm in blocked]  # L0 = stable set
    levels = [cur]
    while True:
        u_cur = uni.union_mask(cur)
        survivors = [bm & u_cur == 0 for bm in blocked]  # not blocked by L
        u_surv = uni.union_mask(survivors)
        nxt = [bm & u_surv == 0 for bm in blocked]
        if nxt == cur:
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
    blocked by some member.  Returns the first witness found on failure.
    Each member is read by `model._positions`' rules; a member that breaks
    a quota is outside the universe and raises ValueError.
    """
    uni = _universe(inst, cap)
    member = [False] * len(uni.own)
    for m in candidate:
        i = uni.assignments.find(tuple(_positions(inst, m)))
        if i is None:
            raise ValueError(f"candidate contains an assignment outside the universe: {m!r}")
        member[i] = True
    u = uni.union_mask(member)
    for i, is_m in enumerate(member):
        if is_m and uni.blocked_by[i] & u:
            for j, is_m2 in enumerate(member):
                if is_m2 and uni.blocked_by[i] & uni.own[j]:
                    return LegalityCheck(False, internal_witness=(uni.assignments[j], uni.assignments[i]))
    for i, is_m in enumerate(member):
        if not is_m and uni.blocked_by[i] & u == 0:
            return LegalityCheck(False, external_witness=uni.assignments[i])
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
