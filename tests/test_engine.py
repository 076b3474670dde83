import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legalassign import (Assignment, Instance, all_rotations, school_side_run,
                         sigma, student_side_run)
from legalassign.gs import _as_assignment
from _markets import random_consent, random_market
from _references import all_rotations_naive, rotate_remove_naive

LEGAL_EX4 = Assignment({"a1": "b1", "a2": "b2", "a3": "b3", "a4": "b4", "a5": "b5"})
STABLE_EX4 = Assignment({"a1": "b4", "a2": "b3", "a3": "b2", "a4": "b1", "a5": "b5"})


def test_school_side_reaches_student_optimal_legal(ex4):
    run = school_side_run(ex4)
    assert run.assignment == LEGAL_EX4
    assert set(run.removed_edges) == {("a5", "b1"), ("a5", "b2"),
                                      ("a5", "b3"), ("a5", "b4")}
    assert all(r.side == "schools" for r in run.rotations)
    assert run.counters.rotations_eliminated == len(run.rotations) == 6
    assert run.counters.edges_removed == 4


def test_student_side_stops_at_unique_stable(ex4):
    # the lattice below the stable matching is empty here
    assert student_side_run(ex4).assignment == STABLE_EX4


@pytest.mark.parametrize("walk", [
    school_side_run, student_side_run, lambda inst: student_side_run(inst, mode="enumerate"),
], ids=["schools", "students", "enumerate"])
def test_assignment_is_named_on_first_read(ex3, walk):
    run = walk(ex3)
    assert "assignment" not in run.__dict__
    named = run.assignment
    assert "assignment" in run.__dict__
    assert named == _as_assignment(ex3, run._match_school)
    assert replace(run, _rotations=[]).assignment == named


def test_scan_budget_ex4(ex4):
    run = school_side_run(ex4)
    assert run.counters.total_scans <= 8 * ex4.n_edges


def test_consent_mode_keeps_ex8_output(ex4, consent8):
    consenting = [a != "a5" for a in ex4.students]
    run = school_side_run(ex4, mode="consent", consenting=consenting)
    assert run.assignment == STABLE_EX4


def test_consent_mode_ex5(ex5, consent5):
    consenting = [a != "a3" for a in ex5.students]
    run = school_side_run(ex5, mode="consent", consenting=consenting)
    assert run.assignment == Assignment({"a1": "b1", "a2": "b2",
                                         "a3": "b4", "a4": "b3"})


def test_mode_validation(ex4, ex5):
    with pytest.raises(ValueError):
        school_side_run(ex4, mode="sideways")
    with pytest.raises(ValueError):
        school_side_run(ex4, mode="consent")  # flags missing
    with pytest.raises(ValueError):
        school_side_run(ex4, consenting=[True] * 5)  # flags without the mode
    with pytest.raises(ValueError):
        student_side_run(ex4, mode="consent")
    with pytest.raises(ValueError):
        school_side_run(ex5, mode="consent", consenting=[False])  # too few flags
    with pytest.raises(ValueError):
        school_side_run(ex5, mode="consent", consenting=[True] * 10)  # too many


def test_permuted_school_roster_ex4(ex4):
    # the walk starts its paths in roster order; the output does not depend on it
    shuffled = Instance(ex4.students, ["b5", "b3", "b1", "b2", "b4"], ex4.quota,
                        ex4.student_prefs, ex4.school_prefs)
    assert school_side_run(shuffled).assignment == LEGAL_EX4


def test_enumerate_mode_empty_when_stable_is_unique(ex4):
    # ex4 has one stable assignment, so there is nothing between the optima
    assert all_rotations(ex4, "schools") == []
    assert all_rotations(ex4, "students") == []


def test_enumerate_mode_ex3(ex3):
    schools_side = all_rotations(ex3, "schools")
    students_side = all_rotations(ex3, "students")
    assert {sigma(r) for r in students_side} == set(schools_side)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_enumerate_matches_naive(seed):
    inst = random_market(random.Random(seed))
    for side in ("students", "schools"):
        assert set(all_rotations(inst, side)) == set(all_rotations_naive(inst, side))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_sigma_maps_rotation_sets_across_sides(seed):
    inst = random_market(random.Random(seed))
    student_side = all_rotations(inst, "students")
    assert {sigma(r) for r in student_side} == set(all_rotations(inst, "schools"))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_legal_walk_matches_naive_twin(seed):
    rng = random.Random(seed)
    inst = random_market(rng)
    assert (school_side_run(inst).assignment
            == rotate_remove_naive(inst, "schools", rng=rng).assignment)
    assert (student_side_run(inst).assignment
            == rotate_remove_naive(inst, "students", rng=rng).assignment)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_consent_walk_matches_naive_twin(seed):
    rng = random.Random(seed)
    inst = random_market(rng)
    consent = random_consent(rng, inst)
    flags = [a in consent.consenting for a in inst.students]
    fast = school_side_run(inst, mode="consent", consenting=flags)
    naive = rotate_remove_naive(inst, "schools", rng=rng,
                                consenting=dict(zip(inst.students, flags)))
    assert fast.assignment == naive.assignment


def test_scan_budget_random():
    rng = random.Random(11)
    for _ in range(120):
        inst = random_market(rng)
        for run in (school_side_run(inst), student_side_run(inst)):
            assert run.counters.total_scans <= 8 * inst.n_edges + 8
