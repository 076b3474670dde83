"""References the fast, index-level code is tested against.

The naive blocking predicate tests one edge through name-level ranks;
beside it sit underdemanded schools, sigma's inverse, a set's lattice
ends, maximality and the stable edges from the rotations, the named
school-optimal stable assignment (`gs_school`), and the seat reduction's
`pi` and `pi_inverse`.  The Latin ones read a market's ranking matrix
back, test stability on the matrix alone and name a rank diagonal.
The string-level rotation digraph finds successors, exposed rotations and
eliminations through named agents.  The digraph-rebuilding references
rebuild that digraph from scratch at every step, so they are slow and only
meant for small markets.  The legal-subinstance one assembles the report
from named edges.  The oracle ones test every edge against every
assignment, the masks through the naive blocking predicate, and the
name-level enumeration backtracks over school names and builds a name dict
for every assignment.  The parser
keeps every row as names and leaves all checks to the name-level
constructor.  `assemble_instance` stores index tables unchecked, for tests
that hand over cross ranks of their own.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import not_
from typing import Iterator, Sequence

from legalassign import (Assignment, ConsentSet, GSResult, Instance,
                         InvalidInstanceError, LatinSquare, OneToOneReduction,
                         ParseError, all_rotations, dominates, gs_student)
from legalassign.eadam import _consent_flags
from legalassign.engine import _gs_school_arrays, school_side_run, student_side_run
from legalassign.gs import _as_assignment
from legalassign.latin import _as_square
from legalassign.model import SCHOOLS, STUDENTS, _check_side
from legalassign.oracle import DEFAULT_CAP, OracleCapError, enumerate_assignments
from legalassign.rotations import Rotation


# -- the naive blocking predicate and other test-only helpers ------------------

def is_blocking_pair(inst: Instance, m: Assignment, a: str, b: str) -> bool:
    """True iff edge (a, b) blocks m.

    The pair blocks when a strictly prefers b to his current school and b
    either has a free seat or prefers a to one of its current students.
    """
    rank_ab = inst.student_rank(a, b)  # raises on non-edge
    cur = m.school_of(a)
    if cur is not None and inst.student_rank(a, cur) <= rank_ab:
        return False
    assigned = m.students_of(b)
    if len(assigned) < inst.quota_of(b):
        return True
    rank_ba = inst.school_rank(b, a)
    return any(inst.school_rank(b, x) > rank_ba for x in assigned)


def blocks(inst: Instance, m_blocking: Assignment, m: Assignment) -> bool:
    """True iff some edge of m_blocking blocks m."""
    return any(is_blocking_pair(inst, m, a, b) for a, b in m_blocking.matched_pairs)


def underdemanded_schools(inst: Instance, m: Assignment) -> set[str]:
    """Schools that no student strictly prefers to his current match."""
    demanded = [False] * inst.n_schools
    s_pref = inst._s_pref
    match_pos = [len(s_pref[i]) if m.school_of(a) is None
                 else inst.student_rank(a, m.school_of(a))
                 for i, a in enumerate(inst.students)]
    for i in range(inst.n_students):
        row = s_pref[i]
        for pos in range(match_pos[i]):
            demanded[row[pos]] = True
    return {b for j, b in enumerate(inst.schools) if not demanded[j]}


def sigma_inverse(tau: Rotation) -> Rotation:
    if tau.side != SCHOOLS:
        raise ValueError("sigma_inverse takes a school-rotation")
    pairs = tau.pairs
    return Rotation(STUDENTS, tuple((pairs[i][1], pairs[i - 1][0]) for i in range(len(pairs))))


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


def is_maximal(inst: Instance, m: Assignment) -> bool:
    """No edge (a, b) with a unmatched and b under quota."""
    for a in inst.students:
        if m.school_of(a) is None:
            for b in inst.student_prefs[a]:
                if len(m.students_of(b)) < inst.quota_of(b):
                    return False
    return True


def stable_edges(inst: Instance) -> frozenset[tuple[str, str]]:
    """Edges on some stable assignment: the school-optimal one plus every
    (x_i, y_i) pair of a student-rotation."""
    out = set(gs_school(inst).assignment.matched_pairs)
    for rho in all_rotations(inst, STUDENTS):
        out.update(rho.pairs)
    return frozenset(out)


def gs_school(inst: Instance) -> GSResult:
    """School-proposing deferred acceptance; the school-optimal stable assignment."""
    state, counters = _gs_school_arrays(inst)
    return GSResult(_as_assignment(inst, state.match_school), counters)


def pi(red: OneToOneReduction, m: Assignment) -> Assignment:
    """The seat matching of m: the i-th best student of b gets seat b^i."""
    match: dict[str, str | None] = {a: None for a in red.original.students}
    for b, seats in red.school_seats.items():
        ranked = sorted(m.students_of(b), key=lambda a: red.original.school_rank(b, a))
        for seat, a in zip(seats, ranked):
            match[a] = seat
    return Assignment(match)


def pi_inverse(red: OneToOneReduction, m: Assignment) -> Assignment:
    """The assignment of the original market that seat matching m encodes."""
    return Assignment({a: (red.seat_school[s] if s is not None else None)
                       for a, s in ((a, m.school_of(a)) for a in red.instance.students)})


# -- Latin ranking matrices read off a market ----------------------------------

def ranking_matrix(inst: Instance) -> LatinSquare:
    """Recover the Latin ranking matrix of an instance, validating that the
    instance really is Latin (complete one-to-one lists whose two sides'
    ranks sum to n+1 everywhere)."""
    n = inst.n_students
    if inst.n_schools != n:
        raise InvalidInstanceError("a Latin instance has as many schools as students")
    if any(v != 1 for v in inst.quota.values()):
        raise InvalidInstanceError("a Latin instance is one-to-one")
    if any(len(row) != n for row in inst._s_pref):
        raise InvalidInstanceError("a Latin instance has complete lists")
    rows = []
    for a in inst.students:
        row = []
        for b in inst.schools:
            r = inst.student_rank(a, b) + 1
            if inst.school_rank(b, a) + 1 != n + 1 - r:
                raise InvalidInstanceError(
                    f"ranks of ({a}, {b}) do not sum to n+1")
            row.append(r)
        rows.append(tuple(row))
    return LatinSquare(tuple(rows))


def _as_perm(q: LatinSquare, m: Sequence[int]) -> list[int]:
    perm = list(m)
    if sorted(perm) != list(range(q.n)):
        raise ValueError("matching must pair every row with a distinct column")
    return perm


def latin_stable(q: LatinSquare | Sequence[Sequence[int]], m: Sequence[int]) -> bool:
    """Stability test on the matrix alone: m (row i matched to column m[i],
    0-based) is stable iff no cell's value lies strictly between its row's
    and its column's matched values."""
    sq = _as_square(q)
    perm = _as_perm(sq, m)
    col_match = [0] * sq.n  # matched value in each column
    row_match = [0] * sq.n
    for i, j in enumerate(perm):
        col_match[j] = row_match[i] = sq.q[i][j]
    for i in range(sq.n):
        for j in range(sq.n):
            v = sq.q[i][j]
            lo, hi = sorted((col_match[j], row_match[i]))
            if lo < v < hi:
                return False
    return True


def diagonal_matching(q: LatinSquare | Sequence[Sequence[int]], rank: int) -> Assignment:
    """The perfect matching of all cells holding the given rank value."""
    sq = _as_square(q)
    if not 1 <= rank <= sq.n:
        raise ValueError(f"rank must be in 1..{sq.n}")
    return Assignment({f"a{i + 1}": f"b{row.index(rank) + 1}"
                       for i, row in enumerate(sq.q)})


# -- the string-level rotation digraph ----------------------------------------

class UnstableAssignmentError(ValueError):
    """Raised when an operation requiring a stable assignment finds a blocking pair."""

    def __init__(self, student: str, school: str):
        self.pair = (student, school)
        super().__init__(f"assignment is not stable: ({student}, {school}) is a blocking pair")


def _matched_set(m: Assignment, x: str, side: str) -> frozenset[str]:
    if side == STUDENTS:
        b = m.school_of(x)
        return frozenset() if b is None else frozenset((b,))
    return m.students_of(x)


def _accepts(inst: Instance, m: Assignment, y: str, x: str, y_side: str) -> bool:
    """Would y take x?  True when y has a free seat or likes x better than
    some current partner."""
    if y_side == SCHOOLS:
        held = m.students_of(y)
        if len(held) < inst.quota[y]:
            return True
        r = inst.school_rank(y, x)
        return any(inst.school_rank(y, a) > r for a in held)
    b = m.school_of(y)
    return b is None or inst.student_rank(y, x) < inst.student_rank(y, b)


def successor(inst: Instance, m: Assignment, x: str, side: str) -> str | None:
    """s_M(x): first y not in M(x) on x's list that would take x.

    Raises UnstableAssignmentError when the found y also improves x, since
    that means xy is a blocking pair and M was not stable to begin with.
    """
    _check_side(side)
    own = _matched_set(m, x, side)
    if side == STUDENTS:
        mine = m.school_of(x)
        my_rank = inst.student_rank(x, mine) if mine is not None else None
        for r, b in enumerate(inst.student_prefs[x]):
            if b in own:
                continue
            if _accepts(inst, m, b, x, SCHOOLS):
                if my_rank is None or r < my_rank:
                    raise UnstableAssignmentError(x, b)
                return b
        return None
    worst = max((inst.school_rank(x, a) for a in own), default=None)
    free = len(own) < inst.quota[x]
    for r, a in enumerate(inst.school_prefs[x]):
        if a in own:
            continue
        if _accepts(inst, m, a, x, STUDENTS):
            if free or (worst is not None and r < worst):
                raise UnstableAssignmentError(a, x)
            return a
    return None


def next_agent(inst: Instance, m: Assignment, x: str, side: str) -> str | None:
    """Least preferred current partner of s_M(x); None when that agent
    still has a free seat."""
    y = successor(inst, m, x, side)
    if y is None:
        raise ValueError(f"{x} has no successor")
    if side == STUDENTS:
        held = m.students_of(y)
        if len(held) < inst.quota[y]:
            return None
        return max(held, key=lambda a: inst.school_rank(y, a))
    return m.school_of(y)  # a student's single seat; None if unmatched


@dataclass(frozen=True)
class RotationDigraph:
    """Arcs x -> s_M(x) and s_M(x) -> next_M(x); out-degree <= 1 per node.
    A value of None is the shared empty sink."""
    side: str
    arcs: dict[str, str | None]

    def sinks(self) -> set[str]:
        heads = {v for v in self.arcs.values() if v is not None}
        return {v for v in heads if v not in self.arcs}

    def cycles(self) -> list[list[str]]:
        """Node cycles in first-touch order, each starting at an X-agent."""
        state: dict[str, int] = {}  # 1 = on current walk, 2 = done
        out: list[list[str]] = []
        for start in self.arcs:
            if state.get(start):
                continue
            walk: list[str] = []
            node: str | None = start
            while node is not None and node in self.arcs and not state.get(node):
                state[node] = 1
                walk.append(node)
                node = self.arcs[node]
            if node is not None and state.get(node) == 1:
                out.append(walk[walk.index(node):])
            for v in walk:
                state[v] = 2
        return out


def build_rotation_digraph(inst: Instance, m: Assignment, side: str) -> RotationDigraph:
    _check_side(side)
    xs = inst.students if side == STUDENTS else inst.schools
    arcs: dict[str, str | None] = {}
    for x in xs:
        y = successor(inst, m, x, side)
        if y is None:
            continue
        arcs[x] = y
        if y not in arcs:
            arcs[y] = next_agent(inst, m, x, side)
    return RotationDigraph(side, arcs)


def _cycle_to_rotation(inst: Instance, side: str, cycle: list[str]) -> Rotation:
    # cycle alternates between the two sides; pair each x with the y
    # preceding it in cyclic order (its current partner)
    x_side = inst._s_index if side == STUDENTS else inst._b_index
    if cycle[0] not in x_side:
        cycle = cycle[1:] + cycle[:1]
    pairs = [(cycle[i], cycle[i - 1]) for i in range(0, len(cycle), 2)]
    return Rotation(side, tuple(pairs))


def exposed_rotations(inst: Instance, m: Assignment, side: str) -> list[Rotation]:
    d = build_rotation_digraph(inst, m, side)
    return [_cycle_to_rotation(inst, side, c) for c in d.cycles()]


def eliminate(inst: Instance, m: Assignment, rho: Rotation) -> Assignment:
    """M/rho: each x_i swaps y_i for y_{i+1}.  Validates exposure."""
    pairs = rho.pairs
    r = len(pairs)
    for i, (x, y) in enumerate(pairs):
        y_next = pairs[(i + 1) % r][1]
        matched = (m.school_of(x) == y) if rho.side == STUDENTS else (m.school_of(y) == x)
        if not matched or successor(inst, m, x, rho.side) != y_next:
            raise ValueError(f"rotation not exposed at ({x}, {y})")
    mapping = dict(m.mapping)
    if rho.side == STUDENTS:
        for i, (x, _) in enumerate(pairs):
            mapping[x] = pairs[(i + 1) % r][1]
    else:
        for i, (_, y) in enumerate(pairs):
            mapping[y] = pairs[i - 1][0]
    return Assignment(mapping)



@dataclass(frozen=True)
class NaiveRun:
    assignment: Assignment
    rotations: tuple[Rotation, ...]
    removed_edges: tuple[tuple[str, str], ...]


def rotate_remove_naive(inst: Instance, side: str = SCHOOLS, *,
                        rng: random.Random | None = None,
                        consenting: dict[str, bool] | None = None) -> NaiveRun:
    """Digraph-rebuild reference: at each step pick, uniformly at random, one
    applicable action (delete the edge under a sink, or eliminate a cycle).
    Exercises the choice freedom the fast walk never uses."""
    _check_side(side)
    if consenting is not None and side != SCHOOLS:
        raise ValueError("consent applies to school-side elimination only")
    rng = rng if rng is not None else random.Random()
    sp = {a: list(row) for a, row in inst.student_prefs.items()}
    bp = {b: list(row) for b, row in inst.school_prefs.items()}
    cur = Instance(inst.students, inst.schools, inst.quota, sp, bp)
    m = (gs_student(cur) if side == SCHOOLS else gs_school(cur)).assignment
    x_ids = set(inst.schools if side == SCHOOLS else inst.students)
    removed: list[tuple[str, str]] = []
    rotations: list[Rotation] = []
    while True:
        dg = build_rotation_digraph(cur, m, side)
        if not dg.arcs:
            break
        actions: list[tuple] = [("cycle", c) for c in dg.cycles()]
        for x, y in dg.arcs.items():
            if x not in x_ids or y is None:
                continue
            nxt = dg.arcs.get(y)  # next agent past the successor y
            if nxt is None or nxt not in dg.arcs:
                actions.append(("remove", x, y))
        if not actions:
            raise AssertionError("digraph has arcs but no applicable action")
        act = actions[rng.randrange(len(actions))]
        if act[0] == "cycle":
            rho = _cycle_to_rotation(cur, side, act[1])
            m = eliminate(cur, m, rho)
            rotations.append(rho)
            continue
        _, x, y = act
        a, b = (y, x) if side == SCHOOLS else (x, y)
        doomed = [(a, b)]
        if consenting is not None and not consenting.get(a, True):
            below = bp[b][bp[b].index(a) + 1:]
            doomed += [(a2, b) for a2 in below]
        for a2, b2 in doomed:
            sp[a2].remove(b2)
            bp[b2].remove(a2)
            removed.append((a2, b2))
        cur = Instance(inst.students, inst.schools, inst.quota, sp, bp)
    return NaiveRun(m, tuple(rotations), tuple(removed))


def all_rotations_naive(inst: Instance, side: str) -> list[Rotation]:
    """Every rotation of the side, one exposed rotation at a time; the same
    set as all_rotations."""
    m = (gs_student(inst) if side == STUDENTS else gs_school(inst)).assignment
    out: list[Rotation] = []
    while True:
        rot = exposed_rotations(inst, m, side)
        if not rot:
            return out
        out.append(rot[0])
        m = eliminate(inst, m, rot[0])


@dataclass(frozen=True)
class ReferenceReport:
    instance: Instance
    legal_edges: frozenset[tuple[str, str]]
    illegal_edges: frozenset[tuple[str, str]]
    student_optimal: Assignment
    school_optimal: Assignment
    rotations: tuple[Rotation, ...]


def legal_subinstance_reference(inst: Instance) -> ReferenceReport:
    """legal_subinstance from named edges: the walks' named rotations with
    the stable lattice's between them, one (student, school) tuple per cell
    tested against a frozenset, and a rebuild from per-student keep flags."""
    up = school_side_run(inst)
    down = student_side_run(inst)
    rotations = (tuple(sigma_inverse(tau) for tau in reversed(up.rotations))
                 + tuple(all_rotations_naive(inst, STUDENTS)) + down.rotations)

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
    return ReferenceReport(_restrict_by_students(inst, s_keep), legal, frozenset(illegal),
                           up.assignment, down.assignment, rotations)


def _restrict_by_students(inst: Instance, s_keep: list[bytes]) -> Instance:
    """The instance without the edges whose student-side keep flag is 0."""
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
    return assemble_instance(
        inst.students, inst.schools, inst._quota,
        [list(compress(row, keep)) for row, keep in zip(inst._s_pref, s_keep)],
        [list(compress(row, keep)) for row, keep in zip(inst._b_pref, b_keep)],
        s_srank, b_rrank)


def assemble_instance(students, schools, quota, s_pref, b_pref, s_srank,
                      b_rrank) -> Instance:
    """An instance of the given index tables, unchecked, so that a test can
    hand over cross ranks that the library would compute or refuse."""
    inst = object.__new__(Instance)
    inst._students = tuple(students)
    inst._schools = tuple(schools)
    inst._quota = tuple(quota)
    inst._s_index = {a: i for i, a in enumerate(inst._students)}
    inst._b_index = {b: j for j, b in enumerate(inst._schools)}
    inst._s_pref = s_pref
    inst._b_pref = b_pref
    inst._s_srank = s_srank
    inst._b_rrank = b_rrank
    inst._n_edges = sum(len(r) for r in s_pref)
    return inst


def _size_estimate(options: Sequence[Sequence[str | None]]) -> str:
    """The product of the option counts over the students: exact below
    10^15, else the nearest power of ten, so that the text stays short at
    any market size."""
    counts = list(map(len, options))
    digits = sum(map(math.log10, counts))
    return str(math.prod(counts)) if digits < 15 else f"about 10^{round(digits)}"


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


def enumerate_assignments_reference(inst: Instance, cap: int = DEFAULT_CAP) -> list[Assignment]:
    """enumerate_assignments by name-level backtracking."""
    return list(_backtrack(inst, [inst.student_prefs[a] + (None,) for a in inst.students],
                           cap))


def dominating_reference(inst: Instance, m: Assignment,
                         cap: int = DEFAULT_CAP) -> Iterator[Assignment]:
    """The assignments is_constrained_efficient tests, by name-level
    backtracking: every student holds an option it weakly prefers to its
    school in m, and some student holds another school than in m."""
    students = inst.students
    here = tuple(map(m.school_of, students))
    better = []
    for a, b in zip(students, here):
        row = inst.student_prefs[a]
        better.append(row + (None,) if b is None else row[:inst.student_rank(a, b) + 1])
    return (m2 for m2 in _backtrack(inst, better, cap)
            if tuple(map(m2._match.__getitem__, students)) != here)


def universe_masks_reference(inst: Instance,
                             assignments: list[Assignment]) -> tuple[list[int], list[int]]:
    """(own, blocked_by) masks of _Universe, one edge at a time: bit k of
    an assignment's masks is edge k of inst.edges() when the assignment
    holds it, and when is_blocking_pair says it blocks the assignment."""
    edges = list(inst.edges())
    own = [sum(1 << k for k, e in enumerate(edges) if e in m.matched_pairs)
           for m in assignments]
    blocked = [sum(1 << k for k, (a, b) in enumerate(edges)
                   if is_blocking_pair(inst, m, a, b))
               for m in assignments]
    return own, blocked


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


def is_constrained_efficient_reference(inst: Instance, consent: ConsentSet | None,
                                       m: Assignment) -> bool:
    """is_constrained_efficient through dominates and assignment equality."""
    flags = _consent_flags(inst, consent)
    refusing = [a for i, a in enumerate(inst.students) if not flags[i]]
    if any(_violated_priority(inst, m, a) for a in refusing):
        return False
    for m2 in enumerate_assignments(inst):
        if m2 == m or not dominates(inst, m2, m):
            continue
        if not any(_violated_priority(inst, m2, a) for a in refusing):
            return False
    return True


def parse_instance_reference(text: str) -> Instance:
    """parse_instance keeping every preference line as names, resolved and
    checked only by the name-level constructor."""
    students: list[str] | None = None
    schools: list[str] | None = None
    student_set: set[str] | None = None
    school_set: set[str] | None = None
    quota: dict[str, int] = {}
    s_prefs: dict[str, list[str]] = {}
    b_prefs: dict[str, list[str]] = {}
    header_seen = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != "instance v1":
                raise ParseError("expected header 'instance v1'", lineno)
            header_seen = True
            continue
        if line.startswith("students:"):
            if students is not None:
                raise ParseError("duplicate students: line", lineno)
            students = line[len("students:"):].split()
            student_set = set(students)
            continue
        if line.startswith("schools:"):
            if schools is not None:
                raise ParseError("duplicate schools: line", lineno)
            schools = []
            for tok in line[len("schools:"):].split():
                if tok.endswith("]") and "[" in tok:
                    name, _, qpart = tok.partition("[")
                    qtext = qpart[:-1]
                    try:
                        if not (qtext.isascii() and qtext.isdigit()):  # only what to_text writes
                            raise ValueError
                        q = int(qtext)
                    except ValueError:
                        raise ParseError(f"bad quota {qtext!r} for school {name!r}", lineno) from None
                    if q < 1:
                        raise ParseError(f"school {name!r} has quota {q}; must be >= 1", lineno)
                    schools.append(name)
                    quota[name] = q
                else:
                    schools.append(tok)
            school_set = set(schools)
            continue
        if ":" not in line:
            raise ParseError(f"cannot parse {line!r}", lineno)
        name, _, rest = line.partition(":")
        name = name.strip()
        entries = rest.split()
        if student_set is None or school_set is None:
            raise ParseError("preference line before students:/schools: rosters", lineno)
        if name in s_prefs or name in b_prefs:
            raise ParseError(f"duplicate preference line for {name!r}", lineno)
        if name in student_set:
            s_prefs[name] = entries
        elif name in school_set:
            b_prefs[name] = entries
        else:
            raise ParseError(f"unknown identifier {name!r}", lineno)

    if not header_seen:
        raise ParseError("missing header 'instance v1'", 1)
    if students is None:
        raise ParseError("missing students: line")
    if schools is None:
        raise ParseError("missing schools: line")
    try:
        return Instance(students, schools, quota, s_prefs, b_prefs)
    except InvalidInstanceError as e:
        raise ParseError(str(e)) from e
