"""Deferred acceptance in O(|E|), and the operation counts of every run.

Both runs are linear: every proposal consumes a preference cell, and each
school's pointer to its least preferred tentative student only sweeps its
list once.  The student-proposing run gives the student-optimal stable
assignment; the school-proposing one, which starts the student-side walks,
gives the school-optimal one.  The round-traced run that Kesten's EADAM
reads lives in ``baselines``.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import NamedTuple, Sequence

from .model import Assignment, Instance

_UNRANKED = 1 << 60  # worse than any real rank


@dataclass(frozen=True)
class Counters:
    """Operation counts of one run, or the sum of several runs (``+``).

    Deferred acceptance counts its proposals and the preference cells it
    touches; a rotation walk counts the distance its scan pointers move
    (``edge_scans``, whether a scan steps through every cell or jumps
    between candidate cells), eliminated rotations and removed edges.
    Each deferred-acceptance run counts one in ``gs_runs``.
    """
    proposals: int = 0
    cells_scanned: int = 0
    edge_scans: int = 0
    rotations_eliminated: int = 0
    edges_removed: int = 0
    gs_runs: int = 0

    def report(self) -> dict[str, int]:
        """The five values that ``solve --counters`` and a bench row print.

        ``edge_scans`` adds deferred acceptance's cells to the walk's
        scans; ``gs_reruns`` counts the deferred-acceptance runs after the
        first.
        """
        return {"proposals": self.proposals,
                "edge_scans": self.edge_scans + self.cells_scanned,
                "rotations_eliminated": self.rotations_eliminated,
                "edges_removed": self.edges_removed,
                "gs_reruns": self.gs_runs - 1}

    def __add__(self, other: Counters) -> Counters:
        return Counters(*map(add, vars(self).values(), vars(other).values()))


@dataclass(frozen=True)
class GSResult:
    assignment: Assignment
    counters: Counters


class _MatchState(NamedTuple):
    """Index-level solver output, reused by downstream engines."""
    match_school: list[int]  # per student: school index or -1
    match_pos: list[int]     # per student: own-list position of match, len(list) if unmatched

    def copy(self) -> _MatchState:
        return _MatchState(self.match_school[:], self.match_pos[:])


def _as_assignment(inst: Instance, match_school: Sequence[int]) -> Assignment:
    schools = inst.schools
    return Assignment({a: (schools[j] if j >= 0 else None)
                       for a, j in zip(inst.students, match_school)})


def _gs_core(s_pref: list[list[int]], s_srank: list[list[int]],
             b_pref: list[list[int]], quota: Sequence[int],
             ) -> tuple[_MatchState, Counters]:
    """Student-proposing run on raw index rows.

    match_pos entries are positions within the rows given here.
    """
    n_a, n_b = len(s_pref), len(b_pref)
    match_pos = [len(row) for row in s_pref]
    match_school = [-1] * n_a
    ptr = [0] * n_a
    fill = [0] * n_b
    worst = [-1] * n_b                      # list position of worst tentative student
    held = [bytearray(len(row)) for row in b_pref]  # per school: tentative list positions
    proposals = 0
    cells = 0

    stack = [a for a in range(n_a - 1, -1, -1) if s_pref[a]]
    while stack:
        a = stack.pop()
        row = s_pref[a]
        cranks = s_srank[a]
        pos = ptr[a]
        n = len(row)
        while pos < n:
            cells += 1
            b = row[pos]
            rank = cranks[pos]
            proposals += 1
            flags = held[b]
            if fill[b] < quota[b]:
                flags[rank] = 1
                fill[b] += 1
                if rank > worst[b]:
                    worst[b] = rank
                match_school[a] = b
                match_pos[a] = pos
                ptr[a] = pos + 1
                break
            if rank > worst[b]:
                pos += 1
                continue
            # displace b's worst tentative student
            w = worst[b]
            loser = b_pref[b][w]
            flags[w] = 0
            flags[rank] = 1
            match_school[loser] = -1
            match_pos[loser] = len(s_pref[loser])
            stack.append(loser)
            # rank < old worst and flags[rank] is set, so this stops at >= rank
            w2 = flags.rfind(1, 0, w)
            cells += w - 1 - w2
            worst[b] = w2
            match_school[a] = b
            match_pos[a] = pos
            ptr[a] = pos + 1
            break
        else:
            ptr[a] = pos  # exhausted: stays unmatched

    return (_MatchState(match_school, match_pos),
            Counters(proposals, cells, gs_runs=1))


def _gs_student_arrays(inst: Instance) -> tuple[_MatchState, Counters]:
    return _gs_core(inst._s_pref, inst._s_srank, inst._b_pref, inst._quota)


def gs_student(inst: Instance) -> GSResult:
    """Student-proposing deferred acceptance; student-optimal stable assignment."""
    state, counters = _gs_student_arrays(inst)
    return GSResult(_as_assignment(inst, state.match_school), counters)


def _gs_school_arrays(inst: Instance) -> tuple[_MatchState, Counters]:
    """School-proposing run on index arrays (school-optimal stable assignment)."""
    b_pref, b_rrank = inst._b_pref, inst._b_rrank
    s_pref = inst._s_pref
    n_a, n_b = inst.n_students, inst.n_schools
    quota = inst._quota

    cur_rank = [_UNRANKED] * n_a            # rank of held school on the student's list
    match_school = [-1] * n_a
    fill = [0] * n_b
    ptr = [0] * n_b
    proposals = 0

    stack = [b for b in range(n_b - 1, -1, -1) if b_pref[b]]
    while stack:
        b = stack.pop()
        row = b_pref[b]
        cranks = b_rrank[b]
        pos = ptr[b]
        n = len(row)
        while fill[b] < quota[b] and pos < n:
            a = row[pos]
            rank = cranks[pos]
            pos += 1
            proposals += 1
            if rank < cur_rank[a]:
                old = match_school[a]
                if old >= 0:
                    fill[old] -= 1
                    stack.append(old)
                cur_rank[a] = rank
                match_school[a] = b
                fill[b] += 1
        ptr[b] = pos

    match_pos = [cur_rank[a] if cur_rank[a] != _UNRANKED else len(s_pref[a])
                 for a in range(n_a)]
    return (_MatchState(match_school, match_pos),
            Counters(proposals, proposals, gs_runs=1))
