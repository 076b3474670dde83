"""Digraph-rebuilding references the linear walks are tested against.

They rebuild the rotation digraph from scratch at every step, so they are
slow and only meant for small markets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from legalassign import Assignment, Instance, gs_school, gs_student
from legalassign.model import SCHOOLS, STUDENTS, _check_side
from legalassign.rotations import (Rotation, _cycle_to_rotation,
                                   build_rotation_digraph, eliminate,
                                   exposed_rotations)


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
