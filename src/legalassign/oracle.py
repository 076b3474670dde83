"""Brute-force ground truth for small markets.

Everything here enumerates, so it is only usable on toy instances, but it is
written straight from the definitions and shares no code with the production
solvers.  The differential test suites treat its answers as authoritative.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .eadam import ConsentSet, _consent_flags
from .model import Assignment, Instance, dominates

DEFAULT_CAP = 10**6


class OracleCapError(RuntimeError):
    """Raised when an enumeration would exceed its cap."""


def _size_estimate(inst: Instance) -> int:
    est = 1
    for a in inst.students:
        est *= inst.student_degree(a) + 1
    return est


def enumerate_assignments(inst: Instance, cap: int = DEFAULT_CAP) -> list[Assignment]:
    """All assignments (students may stay unmatched), deterministic order.

    Backtracks over students in instance order; each student tries his
    schools in preference order, then None.  Raises OracleCapError once more
    than ``cap`` assignments have been produced.
    """
    students = inst.students
    options = [list(inst.student_prefs[a]) + [None] for a in students]
    free = {b: inst.quota_of(b) for b in inst.schools}
    out: list[Assignment] = []
    match: dict[str, str | None] = {}

    def rec(i: int) -> None:
        if i == len(students):
            if len(out) >= cap:
                raise OracleCapError(
                    f"assignment enumeration exceeds cap={cap} "
                    f"(upper bound {_size_estimate(inst)})")
            out.append(Assignment(match))
            return
        a = students[i]
        for b in options[i]:
            if b is None:
                match[a] = None
                rec(i + 1)
            elif free[b] > 0:
                free[b] -= 1
                match[a] = b
                rec(i + 1)
                free[b] += 1
        del match[a]

    rec(0)
    return out


def is_maximal(inst: Instance, m: Assignment) -> bool:
    """No edge (a, b) with a unmatched and b under quota."""
    for a in inst.students:
        if m.school_of(a) is None:
            for b in inst.student_prefs[a]:
                if len(m.students_of(b)) < inst.quota_of(b):
                    return False
    return True


@dataclass
class _Universe:
    """Enumerated assignments with per-assignment bitmask indexes.

    ``edge_bit`` numbers the edges; ``own[i]`` is the bitmask of assignment
    i's matched edges and ``blocked_by[i]`` the mask of edges that block it.
    An assignment is blocked by a set S of assignments iff its blocked_by
    mask intersects the union of S's own masks, because blocking is purely
    edge-based.
    """

    inst: Instance
    assignments: list[Assignment]
    edge_bit: dict[tuple[str, str], int]
    own: list[int]
    blocked_by: list[int]

    @classmethod
    def build(cls, inst: Instance, cap: int = DEFAULT_CAP) -> "_Universe":
        assignments = enumerate_assignments(inst, cap)
        edge_bit = {e: k for k, e in enumerate(inst.edges())}
        s_rank = {a: {b: r for r, b in enumerate(inst.student_prefs[a])} for a in inst.students}
        b_rank = {b: {a: r for r, a in enumerate(inst.school_prefs[b])} for b in inst.schools}
        quota = {b: inst.quota_of(b) for b in inst.schools}
        own: list[int] = []
        blocked: list[int] = []
        for m in assignments:
            o = 0
            for pair in m.matched_pairs:
                o |= 1 << edge_bit[pair]
            own.append(o)
            worst: dict[str, int] = {}
            load: dict[str, int] = {}
            for a, b in m.matched_pairs:
                r = b_rank[b][a]
                load[b] = load.get(b, 0) + 1
                if r > worst.get(b, -1):
                    worst[b] = r
            mask = 0
            for (a, b), k in edge_bit.items():
                cur = m.school_of(a)
                if cur is not None and s_rank[a][cur] <= s_rank[a][b]:
                    continue
                if load.get(b, 0) < quota[b] or b_rank[b][a] < worst[b]:
                    mask |= 1 << k
            blocked.append(mask)
        return cls(inst, assignments, edge_bit, own, blocked)

    def union_mask(self, member: Sequence[bool]) -> int:
        u = 0
        for i, keep in enumerate(member):
            if keep:
                u |= self.own[i]
        return u


def enumerate_stable(inst: Instance, cap: int = DEFAULT_CAP) -> list[Assignment]:
    """All stable assignments (no edge blocks), deterministic order."""
    uni = _Universe.build(inst, cap)
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
    uni = _Universe.build(inst, cap)
    n = len(uni.assignments)
    cur = [bm == 0 for bm in uni.blocked_by]  # L0 = stable set
    trace = [[m for m, keep in zip(uni.assignments, cur) if keep]]
    while True:
        u_cur = uni.union_mask(cur)
        survivors = [uni.blocked_by[i] & u_cur == 0 for i in range(n)]  # not blocked by L
        u_surv = uni.union_mask(survivors)
        nxt = [uni.blocked_by[i] & u_surv == 0 for i in range(n)]
        if nxt == cur:
            break
        cur = nxt
        trace.append([m for m, keep in zip(uni.assignments, cur) if keep])
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
    uni = _Universe.build(inst, cap)
    index = {m: i for i, m in enumerate(uni.assignments)}
    member = [False] * len(uni.assignments)
    for m in candidate:
        i = index.get(m)
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


def legal_edges_brute(inst: Instance, cap: int = DEFAULT_CAP) -> frozenset[tuple[str, str]]:
    """Union of the matched pairs over the legal set."""
    legal, _ = legal_fixed_point(inst, cap)
    out: set[tuple[str, str]] = set()
    for m in legal:
        out |= m.matched_pairs
    return frozenset(out)


def blocking_digraph(inst: Instance, cap: int = DEFAULT_CAP) -> dict[Assignment, set[Assignment]]:
    """Arcs u -> v whenever u blocks v, over all assignments."""
    uni = _Universe.build(inst, cap)
    out: dict[Assignment, set[Assignment]] = {m: set() for m in uni.assignments}
    for i, u in enumerate(uni.assignments):
        for j, v in enumerate(uni.assignments):
            if uni.own[i] & uni.blocked_by[j]:
                out[u].add(v)
    return out


def optimal_in(inst: Instance, group: Sequence[Assignment], side: str) -> Assignment:
    """The member every student weakly prefers (side='students') or the
    reverse extreme (side='schools', i.e. worst for students)."""
    if not group:
        raise ValueError("empty assignment set")
    for m in group:
        if side == "students" and all(dominates(inst, m, m2) for m2 in group):
            return m
        if side == "schools" and all(dominates(inst, m2, m) for m2 in group):
            return m
    raise ValueError("set has no dominant element; not a lattice slice?")


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
    assignment the students strictly prefer violates one.  Enumerates all
    assignments, so this is a test oracle for small instances only."""
    flags = _consent_flags(inst, consent)
    refusing = [a for i, a in enumerate(inst.students) if not flags[i]]
    if any(_violated_priority(inst, m, a) for a in refusing):
        return False
    for m2 in enumerate_assignments(inst, cap):
        # strict preferences: m2 strictly dominates m iff it weakly does and differs
        if m2 == m or not dominates(inst, m2, m):
            continue
        if not any(_violated_priority(inst, m2, a) for a in refusing):
            return False
    return True
