"""Brute-force ground truth for small markets.

Everything here enumerates, so it is only usable on toy instances, but it is
written straight from the definitions and shares no code with the production
solvers.  It reads an instance only through its preference lists and quotas,
never through the cross-rank tables the solvers use.  The differential test
suites treat its answers as authoritative.

One universe per market: ``legal_fixed_point``, ``verify_legal_property``
and ``enumerate_stable`` share a one-slot memo of the enumerated universe,
keyed by the instance (compared by its tables) and the cap, so checking a
market's legal set right after computing it enumerates the market once.
``is_constrained_efficient`` does not enumerate the universe at all: it
backtracks only over the assignments in which every student holds an
option it weakly prefers to its option in m.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, compress, repeat
from operator import or_
from typing import Iterator, Sequence

from .eadam import ConsentSet, _consent_flags
from .model import Assignment, Instance

DEFAULT_CAP = 10**6


class OracleCapError(RuntimeError):
    """Raised when an enumeration would exceed its cap."""


def _size_estimate(options: Sequence[Sequence[str | None]]) -> str:
    """The product of the option counts over the students: exact below
    10^15, else the nearest power of ten, so that the text stays short at
    any market size."""
    counts = list(map(len, options))
    digits = sum(map(math.log10, counts))
    return str(math.prod(counts)) if digits < 15 else f"about 10^{round(digits)}"


def enumerate_assignments(inst: Instance, cap: int = DEFAULT_CAP) -> list[Assignment]:
    """All assignments (students may stay unmatched), deterministic order.

    Backtracks over students in instance order; each student tries his
    schools in preference order, then None.  Raises OracleCapError once more
    than ``cap`` assignments have been produced.
    """
    return list(_backtrack(inst, [inst.student_prefs[a] + (None,) for a in inst.students],
                           cap))


def _backtrack(inst: Instance, options: Sequence[Sequence[str | None]],
               cap: int) -> Iterator[Assignment]:
    """The assignments in which each student holds one of its ``options``,
    within the quotas, in backtracking order: students in instance order,
    each trying its options in the order given.  Raises OracleCapError
    when asked for more than ``cap``.  The backtracking keeps one
    iterator over each placed student's remaining options on a stack, so
    the depth of a market is not bounded by Python's recursion limit.
    """
    students = inst.students
    n = len(students)
    free = {b: inst.quota_of(b) for b in inst.schools}
    produced = 0
    match: dict[str, str | None] = {}
    stack: list[Iterator[str | None]] = []
    while True:
        if len(stack) < n:
            stack.append(iter(options[len(stack)]))
        else:
            if produced >= cap:
                raise OracleCapError(
                    f"assignment enumeration exceeds cap={cap} "
                    f"(upper bound {_size_estimate(options)})")
            produced += 1
            yield Assignment(match)
        # move the deepest student that has an option left to that option
        while stack:
            a = students[len(stack) - 1]
            b = match.get(a)
            if b is not None:
                free[b] += 1
            for b in stack[-1]:
                if b is None or free[b] > 0:
                    break
            else:
                stack.pop()
                match[a] = None
                continue
            if b is not None:
                free[b] -= 1
            match[a] = b
            break
        else:
            return


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
    ``build`` never looks at an edge on its own.  Each student's options
    (a school on its list, or ``None``) map to a code of three disjoint
    fields: the option's own-edge bit, the mask of edges the student
    prefers to it, and the seat bit it fills on the school side (the
    school's offset plus the student's rank there).  No two students share
    a bit, so the sum of the codes is the union of each field; a school's
    members are the set bits of its slice of the seat field.
    """

    inst: Instance
    assignments: list[Assignment]
    codes: list[dict[str | None, int]]  # per student: option -> code
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
        schools = inst.schools
        codes: list[dict[str | None, int]] = []
        for i, (off, row) in enumerate(zip(s_off, inst._s_pref)):
            code: dict[str | None, int] = {
                schools[j]: ((1 << (off + r)) | (((1 << r) - 1) << (off + n_edges))
                             | (1 << (2 * n_edges + b_off[j] + b_rank[j][i])))
                for r, j in enumerate(row)}
            code[None] = ((1 << len(row)) - 1) << (off + n_edges)
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
        students = inst.students
        own: list[int] = []
        blocked: list[int] = []
        for m in assignments:
            total = sum(map(dict.__getitem__, codes, map(m._match.__getitem__, students)))
            seats = total >> 2 * n_edges
            admitted = 0
            for off, field, q, admit in admits:
                members = (seats >> off) & field
                # a full school admits the students it ranks above its worst member
                admitted |= admit[-1] if members.bit_count() < q else admit[members.bit_length() - 1]
            own.append(total & edge_field)
            blocked.append((total >> n_edges) & admitted)
        return cls(inst, assignments, codes, own, blocked)

    def own_of(self, m: Assignment) -> int | None:
        """m's own mask by its per-student schools; None if m names a
        student or an edge outside the instance."""
        match = m.mapping
        try:
            total = sum(map(dict.__getitem__, self.codes,
                            map(match.pop, self.inst.students, repeat(None))))
        except KeyError:
            return None
        if any(b is not None for b in match.values()):
            return None
        return total & ((1 << self.inst.n_edges) - 1)

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
    return [m for m, bm in zip(uni.assignments, uni.blocked_by) if bm == 0]


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
    trace = [list(compress(uni.assignments, cur))]
    while True:
        u_cur = uni.union_mask(cur)
        survivors = [bm & u_cur == 0 for bm in blocked]  # not blocked by L
        u_surv = uni.union_mask(survivors)
        nxt = [bm & u_surv == 0 for bm in blocked]
        if nxt == cur:
            break
        cur = nxt
        trace.append(list(compress(uni.assignments, cur)))
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
    """
    uni = _universe(inst, cap)
    index = dict(zip(uni.own, range(len(uni.own))))
    member = [False] * len(uni.assignments)
    for m in candidate:
        i = index.get(uni.own_of(m))
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


def _violated_priority(inst: Instance, m: Assignment, a: str) -> bool:
    """a strictly prefers some school that admitted a student below him."""
    mb = m.school_of(a)
    top = inst.student_rank(a, mb) if mb is not None else len(inst._s_pref[inst._s_index[a]])
    row = inst._s_pref[inst._s_index[a]]
    for pos in range(top):
        b = inst.schools[row[pos]]
        r = inst.school_rank(b, a)
        if any(inst.school_rank(b, a2) > r for a2 in m.students_of(b)):
            return True
    return False


def is_constrained_efficient(inst: Instance, consent: ConsentSet | None,
                             m: Assignment, cap: int = DEFAULT_CAP) -> bool:
    """True iff m respects every nonconsenting student's priority and every
    assignment the students strictly prefer violates one.  Enumerates the
    assignments in which every student holds an option it weakly prefers to
    its option in m, so this is a test oracle for small instances only.
    ``cap`` bounds the number of those assignments it enumerates, not the
    size of the whole universe."""
    flags = _consent_flags(inst, consent)
    refusing = [a for i, a in enumerate(inst.students) if not flags[i]]
    if any(_violated_priority(inst, m, a) for a in refusing):
        return False
    students = inst.students
    here = tuple(map(m.school_of, students))
    # per student: the options it weakly prefers to its school in m, in its order
    better = []
    for a, b in zip(students, here):
        row = inst.student_prefs[a]
        better.append(row + (None,) if b is None else row[:inst.student_rank(a, b) + 1])
    for m2 in _backtrack(inst, better, cap):
        # strict preferences: m2 strictly dominates m iff it weakly does and differs
        if tuple(map(m2._match.__getitem__, students)) == here:
            continue
        if not any(_violated_priority(inst, m2, a) for a in refusing):
            return False
    return True
