import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legalassign import (Assignment, GenConfig, Instance, all_rotations, engine, generate,
                         legal_subinstance, rotate_remove, school_side_run, sigma,
                         student_side_run)
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


@pytest.mark.parametrize("walk", [school_side_run, student_side_run],
                         ids=["schools", "students"])
def test_assignment_is_named_on_first_read(ex3, walk):
    run = walk(ex3)
    assert "assignment" not in run.__dict__
    named = run.assignment
    assert "assignment" in run.__dict__
    assert named == _as_assignment(ex3, run._match_school)
    assert replace(run, _rotations=[]).assignment == named


def test_scan_budget_ex4(ex4):
    run = school_side_run(ex4)
    assert run.counters.report()["edge_scans"] <= 8 * ex4.n_edges


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
    with pytest.raises(TypeError):
        student_side_run(ex4, mode="consent")  # the student walk has no modes
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
            assert run.counters.report()["edge_scans"] <= 8 * inst.n_edges + 8


def _walks(inst, consenting):
    """Every walk the solvers run: both legal walks (the student one from both
    starts) and the consent walk."""
    top = engine._gs_student_arrays(inst)[0]
    bottom = engine._gs_school_arrays(inst)[0]
    return [school_side_run(inst, _start=top.copy()),
            school_side_run(inst, mode="consent", consenting=consenting, _start=top.copy()),
            student_side_run(inst, _start=bottom.copy()),
            student_side_run(inst, _start=top.copy())]


def _trail(run):
    return (run.counters, run._rotations, run._removed_a, run._removed_b,
            run._match_school, run._match_pos)


def _mask_pool():
    for seed in range(300):
        rng = random.Random(seed)
        yield random_market(rng), rng
    for seed in range(12):
        rng = random.Random(seed)
        yield random_market(rng, max_students=40, max_schools=8, max_quota=4), rng


def test_candidate_masks_do_not_change_a_walk(monkeypatch):
    # the same rotations, removals in order, matches and counters whether
    # the scans jump between candidate cells or step through every cell
    for inst, rng in _mask_pool():
        consenting = [a in random_consent(rng, inst).consenting for a in inst.students]
        trails = []
        for share in (float("inf"), -1.0):  # masks always, masks never
            monkeypatch.setattr(engine, "_MASK_SHARE", share)
            trails.append([_trail(run) for run in _walks(inst, consenting)])
        assert trails[0] == trails[1], inst.to_text()


def test_mask_gate_on_the_pinned_markets(monkeypatch):
    # the pins of test_walk_pins cover both paths: square-complete's walks
    # jump between candidates, tall-top10 market 0's student walk steps
    picked = []
    build = engine._candidate_masks

    def spy(*args):
        masks = build(*args)
        picked.append(masks is not None)
        return masks

    monkeypatch.setattr(engine, "_candidate_masks", spy)
    square = generate(GenConfig(300, 300, quota_lo=1, quota_hi=1, seed=0))
    rotate_remove(square, "schools")
    rotate_remove(square, "students")
    legal_subinstance(square)  # the upward walk, then the downward one
    rotate_remove(generate(GenConfig(2000, 20, quota_model="nyc", list_length=10, seed=0)),
                  "students")
    assert picked == [True, True, True, True, False]
