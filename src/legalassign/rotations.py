"""Rotation machinery: successor maps, rotation digraphs, elimination.

A rotation records a cyclic trade among agents of one side.  For side X
(students or schools) and a stable assignment M, the successor s_M(x) is
the first agent y outside M(x) on x's list willing to take x, and
next_M(x) the least preferred current partner of that y.  Directed cycles
of the arcs x -> s_M(x) -> next_M(x) are exactly the exposed X-rotations;
eliminating one trades every x_i from y_i to y_{i+1} and lands on another
stable assignment.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import (
    Assignment, Instance, SCHOOLS, STUDENTS, UnstableAssignmentError, _check_side,
)


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

    def dump(self) -> str:
        return f"{self.side}: " + " ".join(f"({x} {y})" for x, y in self.pairs)


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


def sigma(rho: Rotation) -> Rotation:
    """Re-thread a student-rotation into the school-rotation undoing it:
    sigma(rho) is exposed in M/rho and (M/rho)/sigma(rho) = M."""
    if rho.side != STUDENTS:
        raise ValueError("sigma takes a student-rotation")
    pairs = rho.pairs
    r = len(pairs)
    return Rotation(SCHOOLS, tuple((pairs[(i + 1) % r][1], pairs[i][0]) for i in range(r)))


def sigma_inverse(tau: Rotation) -> Rotation:
    if tau.side != SCHOOLS:
        raise ValueError("sigma_inverse takes a school-rotation")
    pairs = tau.pairs
    return Rotation(STUDENTS, tuple((pairs[i][1], pairs[i - 1][0]) for i in range(len(pairs))))

