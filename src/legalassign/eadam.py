"""Efficiency-adjusted deferred acceptance with consent, in O(|E|).

rotate_remove_consent runs deferred acceptance once and then walks school
rotations, sealing a school's list whenever a nonconsenting student would
have been bypassed.  It returns the assignment of Kesten's iterated re-run
and of the simplified form, the two baselines in ``baselines``.
``ConsentSet`` and its flags are shared with those forms and the oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .engine import CONSENT, EngineRun, school_side_run
from .model import Instance, InvalidInstanceError

__all__ = ["ConsentSet", "rotate_remove_consent"]


@dataclass(frozen=True)
class ConsentSet:
    """The students who consent to waiving their priorities."""
    consenting: frozenset[str]

    @classmethod
    def of(cls, students: Iterable[str]) -> "ConsentSet":
        if isinstance(students, str):
            raise InvalidInstanceError(
                f"consent set is a string, {students!r}, not a collection of names")
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


def rotate_remove_consent(inst: Instance, consent: ConsentSet | None = None) -> EngineRun:
    """School-rotate-remove with the nonconsent cascade; single deferred-
    acceptance invocation plus an O(|E|) walk."""
    return school_side_run(inst, mode=CONSENT,
                           consenting=_consent_flags(inst, consent))
