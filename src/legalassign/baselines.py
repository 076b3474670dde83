"""The reference EADAM forms that the O(|E|) walk is compared against.

kesten_eadam re-runs a round-traced deferred acceptance, each time deleting
the interrupting pairs settled latest (Kesten, QJE 2010); simplified_eadam
re-runs plain deferred acceptance, settling the students whose schools
nobody envies.  Both return the assignment that
``eadam.rotate_remove_consent`` reaches in one deferred-acceptance run and
one walk.  They are readable references and benchmark baselines: ``solve
--mechanism eadam|eadam-simplified``, ``bench`` and the tests call them,
and no solver module imports this one.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress, count
from typing import Iterator, NamedTuple, Sequence

from .eadam import ConsentSet, _consent_flags
from .gs import Counters, _as_assignment, _gs_core
from .model import Assignment, Instance

ACCEPTED = "accepted"
REJECTED = "rejected"
DISPLACED = "displaced"


# -- round-traced deferred acceptance ----------------------------------------

@dataclass(frozen=True)
class GSEvent:
    round: int
    student: str
    school: str
    outcome: str  # accepted | rejected | displaced


@dataclass(frozen=True)
class GSTrace:
    rounds: tuple[tuple[GSEvent, ...], ...]

    def events(self) -> Iterator[GSEvent]:
        for r in self.rounds:
            yield from r

    def dump(self) -> str:
        return "\n".join(f"{e.round} {e.student} {e.school} {e.outcome}"
                         for e in self.events()) + ("\n" if self.rounds else "")


class TracedGS(NamedTuple):
    assignment: Assignment
    trace: GSTrace


def gs_student_traced(inst: Instance, alive: Sequence[bytearray] | None = None) -> TracedGS:
    """Simultaneous-rounds student-proposing run with a full event log.

    Each round every unmatched student with list remaining proposes to his
    next school; each school keeps the best q of incumbents plus proposers.
    A student whose list runs out simply stops (no event).  A round's events
    go school by school in index order: first each proposer's outcome in
    student index order, then the displaced students in the school's list
    order.  The final assignment equals gs_student's.
    """
    students, schools = inst.students, inst.schools
    s_pref, s_srank, b_pref, quota = inst._s_pref, inst._s_srank, inst._b_pref, inst._quota

    ptr, cur = [0] * len(students), [-1] * len(students)  # cur: school index or -1
    holding: list[list[int]] = [[] for _ in schools]  # per school: held list positions, ascending
    rounds: list[tuple[GSEvent, ...]] = []
    for rnd in count(1):
        proposals: dict[int, list[int]] = {}  # school -> proposers' positions on its list
        for i, row in enumerate(s_pref):
            if cur[i] >= 0:
                continue
            pos = ptr[i]
            if alive is not None:
                while pos < len(row) and not alive[i][pos]:
                    pos += 1
            if pos >= len(row):
                ptr[i] = pos
                continue
            ptr[i] = pos + 1
            proposals.setdefault(row[pos], []).append(s_srank[i][pos])
        if not proposals:
            break
        events: list[GSEvent] = []
        for j in sorted(proposals):
            b, names = schools[j], b_pref[j]
            kept = sorted(holding[j] + proposals[j])[:quota[j]]
            taken = set(kept)
            for r in proposals[j]:
                a = names[r]
                if r in taken:
                    events.append(GSEvent(rnd, students[a], b, ACCEPTED))
                    cur[a] = j
                else:
                    events.append(GSEvent(rnd, students[a], b, REJECTED))
            for r in holding[j]:
                if r not in taken:
                    events.append(GSEvent(rnd, students[names[r]], b, DISPLACED))
                    cur[names[r]] = -1
            holding[j] = kept
        rounds.append(tuple(events))
    return TracedGS(_as_assignment(inst, cur), GSTrace(tuple(rounds)))


def interrupting_pairs(trace: GSTrace) -> list[tuple[str, str, int]]:
    """Pairs (a, b, k') where a was tentatively accepted by b at some round k,
    pushed out at round k', and b rejected or displaced somebody in rounds
    k..k'-1.  Sorted by k' descending, then by student and school id.
    """
    accepted_at: dict[tuple[str, str], int] = {}
    rejections: dict[str, list[int]] = {}
    out: list[tuple[str, str, int]] = []
    for e in trace.events():
        if e.outcome == ACCEPTED:
            accepted_at[(e.student, e.school)] = e.round
        else:
            rejections.setdefault(e.school, []).append(e.round)
            if e.outcome == DISPLACED:
                k = accepted_at[(e.student, e.school)]
                if any(k <= r < e.round for r in rejections[e.school]):
                    out.append((e.student, e.school, e.round))
    out.sort(key=lambda t: (-t[2], t[0], t[1]))
    return out


# -- the two re-running EADAM forms ------------------------------------------

@dataclass(frozen=True)
class EadamResult:
    assignment: Assignment
    removed_edges: tuple[tuple[str, str], ...]  # in removal order
    counters: Counters

    @property
    def gs_runs(self) -> int:
        """Deferred-acceptance invocations."""
        return self.counters.gs_runs


def _fresh_alive(inst: Instance) -> list[bytearray]:
    return [bytearray(b"\x01" * len(row)) for row in inst._s_pref]


def kesten_eadam(inst: Instance, consent: ConsentSet | None = None) -> EadamResult:
    """Repeatedly re-run deferred acceptance, each time deleting all the
    interrupting pairs at the latest step that has a consenting interrupter."""
    flags = _consent_flags(inst, consent)
    s_index, s_rank = inst._s_index, inst._s_rank
    b_index = inst._b_index
    alive = _fresh_alive(inst)
    removed: list[tuple[str, str]] = []
    proposals = runs = 0
    while True:
        res = gs_student_traced(inst, alive)
        runs += 1
        # every proposal is accepted or rejected once; a displacement is not one
        proposals += sum(e.outcome != DISPLACED for e in res.trace.events())
        pairs = interrupting_pairs(res.trace)  # latest step first
        step = next((k for a, _, k in pairs if flags[s_index[a]]), None)
        if step is None:
            return EadamResult(res.assignment, tuple(removed),
                               Counters(proposals, edges_removed=len(removed),
                                        gs_runs=runs))
        for a, b, k in pairs:
            if k == step and flags[s_index[a]]:
                alive[s_index[a]][s_rank[s_index[a]][b_index[b]]] = 0
                removed.append((a, b))


def simplified_eadam(inst: Instance, consent: ConsentSet | None = None) -> EadamResult:
    """Re-run deferred acceptance on the reduced problem; after each run,
    students matched to an underdemanded school (or unmatched) are settled:
    their strictly-better edges are deleted, and a nonconsenting settled
    student drags down with each deleted edge ab every a'b with a' below a.
    Stops once every school is underdemanded.

    A school is demanded when some student lists it above his match in the
    round's surviving rows; that is the set of schools that rejected
    somebody during the run, since a student proposes down his list and
    leaves a school only when it refuses or displaces him.  Each round the
    surviving preference rows are rebuilt and the unmodified solver is rerun
    on them; this is the deliberately plain reference implementation.
    """
    flags = _consent_flags(inst, consent)
    s_pref, b_pref = inst._s_pref, inst._b_pref
    s_srank, b_rrank = inst._s_srank, inst._b_rrank
    alive = _fresh_alive(inst)
    removed: list[tuple[str, str]] = []
    total = Counters()
    while True:
        rows = [list(compress(row, mask)) for row, mask in zip(s_pref, alive)]
        ranks = [list(compress(row, mask)) for row, mask in zip(s_srank, alive)]
        state, counters = _gs_core(rows, ranks, b_pref, inst._quota)
        total += counters
        demanded = {b for row, pos in zip(rows, state.match_pos) for b in row[:pos]}
        if not demanded:
            return EadamResult(_as_assignment(inst, state.match_school),
                               tuple(removed),
                               replace(total, edges_removed=len(removed)))
        for a in range(inst.n_students):
            b = state.match_school[a]
            if b in demanded:
                continue  # a's school is still demanded; a is not settled yet
            row, mask = s_pref[a], alive[a]
            for pos in range(len(row)):
                b2 = row[pos]
                if b2 == b:
                    break  # everything above the match is now gone
                if not mask[pos]:
                    continue
                mask[pos] = 0
                removed.append((inst.students[a], inst.schools[b2]))
                if flags[a]:
                    continue
                prow, crow = b_pref[b2], b_rrank[b2]
                for k in range(s_srank[a][pos] + 1, len(prow)):
                    a2 = prow[k]
                    pos2 = crow[k]
                    if alive[a2][pos2]:
                        alive[a2][pos2] = 0
                        removed.append((inst.students[a2], inst.schools[b2]))
