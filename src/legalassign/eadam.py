"""Efficiency-adjusted deferred acceptance, three outcome-equivalent ways.

kesten_eadam re-runs a traced deferred acceptance, each round dropping the
interrupting pairs settled latest; simplified_eadam re-runs it freezing the
students whose schools nobody envies; rotate_remove_consent walks school
rotations once, sealing a school's list whenever a nonconsenting student
would have been bypassed.  All three return the same assignment; the first
two exist as readable references and benchmark baselines, the third is the
O(|E|) production path.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress
from typing import Iterable

from .engine import CONSENT, EngineRun, school_side_run
from .gs import (DISPLACED, Counters, _as_assignment, _gs_core,
                 gs_student_traced, interrupting_pairs)
from .model import Assignment, Instance, InvalidInstanceError

__all__ = [
    "ConsentSet", "EadamResult", "kesten_eadam", "simplified_eadam",
    "rotate_remove_consent",
]


@dataclass(frozen=True)
class ConsentSet:
    """The students who consent to waiving their priorities."""
    consenting: frozenset[str]

    @classmethod
    def of(cls, students: Iterable[str]) -> "ConsentSet":
        return cls(frozenset(students))

    def validate(self, inst: Instance) -> None:
        stray = self.consenting - frozenset(inst.students)
        if stray:
            raise InvalidInstanceError(
                f"consent set names unknown students: {sorted(stray)}")


def _consent_flags(inst: Instance, consent: ConsentSet | None) -> list[bool]:
    if consent is None:
        return [True] * inst.n_students
    consent.validate(inst)
    return [a in consent.consenting for a in inst.students]


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


def rotate_remove_consent(inst: Instance, consent: ConsentSet | None = None) -> EngineRun:
    """School-rotate-remove with the nonconsent cascade; single deferred-
    acceptance invocation plus an O(|E|) walk."""
    return school_side_run(inst, mode=CONSENT,
                           consenting=_consent_flags(inst, consent))

