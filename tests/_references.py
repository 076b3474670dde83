"""References the fast, index-level code is tested against.

The digraph-rebuilding ones rebuild the rotation digraph from scratch at
every step, so they are slow and only meant for small markets.  The
legal-subinstance one assembles the report from named edges.  The oracle
ones test every edge against every assignment through string dicts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import not_

from legalassign import (Assignment, ConsentSet, Counters, Instance, dominates,
                         gs_school, gs_student)
from legalassign.eadam import _consent_flags
from legalassign.engine import ENUMERATE, school_side_run, student_side_run
from legalassign.model import SCHOOLS, STUDENTS, _check_side
from legalassign.oracle import _violated_priority, enumerate_assignments
from legalassign.rotations import (Rotation, _cycle_to_rotation,
                                   build_rotation_digraph, eliminate,
                                   exposed_rotations, sigma_inverse)


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
    counters: Counters


def legal_subinstance_reference(inst: Instance) -> ReferenceReport:
    """legal_subinstance from named edges: the walks' named rotations, one
    (student, school) tuple per cell tested against a frozenset, and a
    rebuild from per-student keep flags."""
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
    return ReferenceReport(_restrict_by_students(inst, s_keep), legal, frozenset(illegal),
                           up.assignment, down.assignment, rotations,
                           up.counters + down.counters + mid.counters)


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
    return Instance._from_arrays(
        inst.students, inst.schools, inst._quota,
        [list(compress(row, keep)) for row, keep in zip(inst._s_pref, s_keep)],
        [list(compress(row, keep)) for row, keep in zip(inst._b_pref, b_keep)],
        s_srank, b_rrank)


def universe_masks_reference(inst: Instance,
                             assignments: list[Assignment]) -> tuple[list[int], list[int]]:
    """(own, blocked_by) masks of _Universe, one edge at a time: an edge
    blocks m when its student prefers it to m and its school has a free
    seat or ranks the student above its worst member."""
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
    return own, blocked


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
