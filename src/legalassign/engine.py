"""Linear-time path-following solvers over rotation digraphs.

Instead of materializing a rotation digraph per iteration, the solvers grow
a single directed path, school (or student) by school, using per-agent scan
positions that only move forward.  Reaching a sink deletes one edge and pops
one path entry.  On the student side, two sinks need no entry: a school
with a free seat, and a school whose worst member has already retired.  The
scan that reaches either deletes the edge and goes on, so the student path
holds only students.  Closing a cycle eliminates the corresponding rotation
and truncates the path.  Each pointer passes each preference cell at most
once, plus one re-scan per eliminated rotation, so a full run costs O(|E|).
New paths start at the agents in roster order; the outputs do not depend on
that order.

Scans jump between candidate cells with ``bytearray.find``: the start
state fixes every cell that can ever stop a scan, and one mask per
scanning agent flags them.  Where the candidates are too many for that to
pay, the scan steps through every cell.  Either way the walk is the same,
and ``edge_scans`` counts the distance the pointers move.

The modes of the school walk (the student walk is always legal):
  - legal:     rotate-remove; sinks delete illegal edges (finds legal optima)
  - consent:   legal plus the nonconsent cascade that seals a school's list
               when the student losing out did not consent

``all_rotations`` reads the stable rotations off the legal student walk.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import add
from typing import Sequence

from .gs import (Counters, _MatchState, _as_assignment, _gs_school_arrays,
                 _gs_student_arrays)
from .model import (Assignment, Instance, SCHOOLS, STUDENTS, _check_side,
                    _school_worst)
from .rotations import Rotation, sigma

_EMPTY = -1  # shared empty sink; also the "no student" marker in path entries
#: the walks build candidate masks only when the candidate cells are at most
#: this share of the cells their pointers will pass
_MASK_SHARE = 0.2

LEGAL = "legal"
CONSENT = "consent"


@dataclass(frozen=True)
class EngineRun:
    """One walk's result.

    The walk records its assignment, rotations and removed edges at index
    level; ``assignment``, ``rotations`` and ``removed_edges`` name them on
    first access.
    """
    counters: Counters                       # the initial solve (if run) plus the walk
    _inst: Instance
    _side: str                               # the side whose rotations were walked
    _match_school: list[int]                 # per student: school index or -1
    _match_pos: list[int]                    # per student: own-list position of its match
    _rotations: list[list[tuple[int, int]]]  # (x, y) index pairs, x on _side
    _removed_a: list[int]                    # removed edges in removal order:
    _removed_b: list[int]                    # student and school indices

    @cached_property
    def assignment(self) -> Assignment:
        return _as_assignment(self._inst, self._match_school)

    @cached_property
    def rotations(self) -> tuple[Rotation, ...]:
        """In elimination order."""
        return _named_rotations(self._inst, self._side, self._rotations)

    @cached_property
    def removed_edges(self) -> tuple[tuple[str, str], ...]:
        """(student, school) pairs in removal order."""
        inst = self._inst
        return tuple(zip(map(inst.students.__getitem__, self._removed_a),
                         map(inst.schools.__getitem__, self._removed_b)))


def _named_rotations(inst: Instance, side: str,
                     rotations: list[list[tuple[int, int]]]) -> tuple[Rotation, ...]:
    """Rotations of the given side from their (x, y) index pairs."""
    xs, ys = ((inst.schools, inst.students) if side == SCHOOLS
              else (inst.students, inst.schools))
    return tuple(Rotation(side, tuple([(xs[x], ys[y]) for x, y in rot]))
                 for rot in rotations)


def _candidate_masks(deg: list[int], p: list[int], rows: list[list[int]],
                     cranks: list[list[int]], prefix: list[int]) -> list[bytearray] | None:
    """Per scanning agent, a mask over its list with a 1 at every cell that
    can ever stop its scan, and a sentinel 1 one past its end.

    The masks are filled from the other side: the first ``prefix[x]`` cells
    of agent x's row ``rows[x]``, at the positions ``cranks[x]`` on the
    scanning agents' lists, are the candidates.  None, and the walk steps
    cell by cell, when the candidates exceed ``_MASK_SHARE`` of the cells
    the pointers ``p`` will pass.
    """
    if sum(prefix) > _MASK_SHARE * (sum(deg) - sum(p)):
        return None
    masks = list(map(bytearray, map(add, deg, repeat(1))))  # a zero per cell, then the sentinel
    for mask in masks:
        mask[-1] = 1
    for row, crank, k in compress(zip(rows, cranks, prefix), prefix):
        for i in range(k):
            masks[row[i]][crank[i]] = 1
    return masks


def _run_school_side(inst: Instance, match_school: list[int], match_pos: list[int],
                     consenting: Sequence[bool] | None,
                     gs_counters: Counters) -> EngineRun:
    b_pref, b_rrank = inst._b_pref, inst._b_rrank
    n_b = inst.n_schools
    deg = [len(row) for row in b_pref]
    quota = inst._quota
    fill, worst = _school_worst(inst, match_school, match_pos)

    # schools with a free seat can never gain a suitor here: in a stable
    # assignment nobody prefers them, and students only improve from now on
    p = [worst[b] if fill[b] == quota[b] else deg[b] for b in range(n_b)]
    # students only move up, so only a cell above its student's start match
    # (any cell of an unmatched student) can stop a school's scan
    masks = _candidate_masks(deg, p, inst._s_pref, inst._s_srank, match_pos)
    f = 0
    path_a: list[int] = []   # student arriving at each entry; _EMPTY at the head
    path_b: list[int] = []   # school of each entry; _EMPTY is the shared sink
    on_path = [0] * n_b      # school -> path index + 1
    removed_a: list[int] = []
    removed_b: list[int] = []
    rotations: list[list[tuple[int, int]]] = []
    scans = 0

    while True:
        if not path_b:
            while f < n_b and p[f] >= deg[f]:
                f += 1
            if f == n_b:
                break
            path_a.append(_EMPTY)
            path_b.append(f)
            on_path[f] = 1
        tail = path_b[-1]
        if tail == _EMPTY or p[tail] >= deg[tail]:
            a_in = path_a.pop()
            path_b.pop()
            if tail >= 0:
                on_path[tail] = 0
                p[tail] = deg[tail]
            if a_in >= 0:
                b_prev = path_b[-1]
                removed_a.append(a_in)
                removed_b.append(b_prev)
                if consenting is not None and not consenting[a_in]:
                    # seal b_prev below the lost student; it becomes a sink
                    sealed = b_pref[b_prev][p[b_prev] + 1:]
                    removed_a += sealed
                    removed_b += [b_prev] * len(sealed)
                    p[b_prev] = deg[b_prev]
            continue
        # find the successor of tail: next student below p preferring tail
        row_a = b_pref[tail]
        row_r = b_rrank[tail]
        d = deg[tail]
        mask = None if masks is None else masks[tail]
        pos = start = p[tail]
        found = -1
        while True:
            pos = pos + 1 if mask is None else mask.find(1, pos + 1)
            if pos >= d:
                scans += pos - start - 1
                break
            a = row_a[pos]
            if row_r[pos] < match_pos[a]:
                found = a
                scans += pos - start
                break
        p[tail] = pos
        if found < 0:
            continue  # sink; handled at the top
        nxt = match_school[found]
        if nxt >= 0 and on_path[nxt]:
            # cycle: entries from l onward plus the closing student
            l = on_path[nxt] - 1
            cyc = path_b[l:]
            partners = [found] + path_a[l + 1:]
            rotations.append(list(zip(cyc, partners)))
            for b in cyc:
                a_new = b_pref[b][p[b]]
                match_school[a_new] = b
                match_pos[a_new] = b_rrank[b][p[b]]
                on_path[b] = 0
            del path_b[l:]
            del path_a[l:]
            if l > 0:
                # its successor edge needs one re-scan; a scan found that
                # cell, so a mask flags it
                p[path_b[-1]] -= 1
            continue
        path_a.append(found)
        path_b.append(nxt)  # _EMPTY when found is unmatched
        if nxt >= 0:
            on_path[nxt] = len(path_b)

    return EngineRun(
        gs_counters + Counters(edge_scans=scans,
                               rotations_eliminated=len(rotations),
                               edges_removed=len(removed_a)),
        inst, SCHOOLS, match_school, match_pos, rotations, removed_a, removed_b,
    )


def _run_student_side(inst: Instance, match_school: list[int], match_pos: list[int],
                      gs_counters: Counters) -> EngineRun:
    s_pref, s_srank = inst._s_pref, inst._s_srank
    b_pref = inst._b_pref
    n_a, n_b = inst.n_students, inst.n_schools
    deg = [len(row) for row in s_pref]
    quota = inst._quota
    fill, worst = _school_worst(inst, match_school, match_pos)
    under_quota = [fill[b] < quota[b] for b in range(n_b)]
    held = [bytearray(len(b_pref[b])) for b in range(n_b)]
    for a, b in enumerate(match_school):
        if b >= 0:
            held[b][s_srank[a][match_pos[a]]] = 1

    # an unmatched student stays unmatched: no school with a free seat lists
    # him (stability), and full schools only improve their worst member
    p = [match_pos[a] if match_school[a] >= 0 else deg[a] for a in range(n_a)]
    # a school's worst member only improves, so only a cell above the
    # school's start worst member, or at a school with a free seat, can
    # stop a student's scan
    masks = _candidate_masks(deg, p, b_pref, inst._b_rrank,
                             [len(b_pref[b]) if under_quota[b] else worst[b]
                              for b in range(n_b)])
    f = 0
    path_b: list[int] = []   # school arriving at each entry; _EMPTY at the head
    path_a: list[int] = []   # student of each entry
    on_path = [0] * n_a
    removed_a: list[int] = []
    removed_b: list[int] = []
    rotations: list[list[tuple[int, int]]] = []
    scans = 0

    while True:
        if not path_a:
            while f < n_a and p[f] >= deg[f]:
                f += 1
            if f == n_a:
                break
            path_b.append(_EMPTY)
            path_a.append(f)
            on_path[f] = 1
        tail = path_a[-1]
        if p[tail] >= deg[tail]:
            b_in = path_b.pop()
            path_a.pop()
            on_path[tail] = 0
            if b_in >= 0:
                removed_a.append(path_a[-1])
                removed_b.append(b_in)
            continue
        row_b = s_pref[tail]
        row_r = s_srank[tail]
        d = deg[tail]
        mask = None if masks is None else masks[tail]
        pos = start = p[tail]
        found = -1
        while True:
            pos = pos + 1 if mask is None else mask.find(1, pos + 1)
            if pos >= d:
                scans += pos - start - 1
                break
            b = row_b[pos]
            if not under_quota[b]:
                if row_r[pos] >= worst[b]:
                    continue
                if p[w := b_pref[b][worst[b]]] < deg[w]:
                    found = b
                    scans += pos - start
                    break
            # a free seat, or a worst member who has retired (a retired
            # student is never on the path): a sink that needs no entry
            removed_a.append(tail)
            removed_b.append(b)
        p[tail] = pos
        if found < 0:
            continue
        nxt = b_pref[found][worst[found]]
        if on_path[nxt]:
            l = on_path[nxt] - 1
            cyc = path_a[l:]
            partners = [found] + path_b[l + 1:]
            rotations.append(list(zip(cyc, partners)))
            for a in cyc:
                pos = p[a]
                b = s_pref[a][pos]
                flags = held[b]
                flags[worst[b]] = 0          # its worst member moves on
                flags[s_srank[a][pos]] = 1
                worst[b] = flags.rfind(1, 0, worst[b])
                match_school[a] = b
                match_pos[a] = pos
                on_path[a] = 0
            del path_a[l:]
            del path_b[l:]
            if l > 0:
                p[path_a[-1]] -= 1
            continue
        path_b.append(found)
        path_a.append(nxt)
        on_path[nxt] = len(path_a)

    return EngineRun(
        gs_counters + Counters(edge_scans=scans,
                               rotations_eliminated=len(rotations),
                               edges_removed=len(removed_a)),
        inst, STUDENTS, match_school, match_pos, rotations, removed_a, removed_b,
    )


def school_side_run(inst: Instance, *, mode: str = LEGAL,
                    consenting: Sequence[bool] | None = None,
                    _start: _MatchState | None = None) -> EngineRun:
    """Walk school-rotations upward from the student-optimal stable assignment.

    legal climbs to the student-optimal legal assignment, consent to the
    EADAM assignment for the given per-student consent flags.  ``_start``
    is that assignment already computed; the walk changes it in place, keeps
    it as its result and counts no deferred-acceptance run.
    """
    if mode not in (LEGAL, CONSENT):
        raise ValueError(f"unknown mode {mode!r}")
    if (consenting is not None) != (mode == CONSENT):
        raise ValueError("consenting is required exactly in consent mode")
    if consenting is not None and len(consenting) != inst.n_students:
        raise ValueError(f"consenting has {len(consenting)} flags "
                         f"for {inst.n_students} students")
    state, gs_counters = _gs_student_arrays(inst) if _start is None else (_start, Counters())
    return _run_school_side(inst, state.match_school, state.match_pos,
                            consenting, gs_counters)


def student_side_run(inst: Instance, *,
                     _start: _MatchState | None = None) -> EngineRun:
    """Walk student-rotations downward to the school-optimal legal
    assignment; the mirror of school_side_run in legal mode.

    The walk starts at the school-optimal stable assignment, or at
    ``_start``, a stable assignment already computed; it then changes
    ``_start`` in place, keeps it as its result and counts no
    deferred-acceptance run.  It deletes only illegal edges, which no
    stable assignment uses, so from the student-optimal stable assignment
    it eliminates every stable student-rotation on its way to the same end.
    """
    state, gs_counters = _gs_school_arrays(inst) if _start is None else (_start, Counters())
    return _run_student_side(inst, state.match_school, state.match_pos, gs_counters)


def all_rotations(inst: Instance, side: str) -> list[Rotation]:
    """Every rotation of the given side exposed in any stable assignment,
    in one elimination order (the set does not depend on the order).

    The legal set is the stable set of the legal subinstance, so the legal
    walk down from the student-optimal stable assignment M0 eliminates a
    chain of the subinstance's rotations, every stable one among them.  In
    that lattice each student moves down one fixed sequence of schools, one
    rotation per step, so a rotation has been eliminated at the
    school-optimal stable assignment Mz exactly when any one of its
    students, say the first, sits in Mz below the school the rotation moves
    it from.  One forward pointer per student replays the chain, so the
    filter is O(|E|).

    sigma maps the student-rotations one to one onto the school-rotations,
    and undoes each one, so the school side is the student side's chain
    mapped through sigma and read backwards, from the school-optimal end.
    """
    _check_side(side)
    top, _ = _gs_student_arrays(inst)
    at = top.match_pos[:]
    bottom = _gs_school_arrays(inst)[0].match_pos
    s_pref = inst._s_pref
    stable = []
    for rot in student_side_run(inst, _start=top)._rotations:
        if at[rot[0][0]] < bottom[rot[0][0]]:
            stable.append(rot)
        for (a, _), (_, b_next) in zip(rot, rot[1:] + rot[:1]):
            at[a] = s_pref[a].index(b_next, at[a] + 1)
    rotations = _named_rotations(inst, STUDENTS, stable)
    if side == STUDENTS:
        return list(rotations)
    return [sigma(rho) for rho in reversed(rotations)]
