import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legalassign import (Assignment, ConsentSet, InvalidInstanceError, gs_student,
                         gs_student_traced, is_constrained_efficient,
                         kesten_eadam, parse_latin, rotate_remove,
                         rotate_remove_consent, simplified_eadam)
from legalassign.latin import instance_from_latin

from _markets import random_consent, random_market
from _references import diagonal_matching, underdemanded_schools

EADAM_EX5 = Assignment({"a1": "b1", "a2": "b2", "a3": "b4", "a4": "b3"})


def test_kesten_golden(ex5, consent5):
    res = kesten_eadam(ex5, consent5)
    assert res.assignment == EADAM_EX5
    assert res.removed_edges == (("a2", "b1"),)
    assert res.gs_runs == 2


def test_kesten_full_consent_matches_legal_optimum(ex5):
    assert kesten_eadam(ex5).assignment == rotate_remove(ex5).assignment


def test_kesten_counts_proposals_not_displacements():
    # with nobody consenting Kesten runs deferred acceptance once, so it makes
    # gs_student's proposals; a displaced student proposed only once
    for seed in range(300):
        inst = random_market(random.Random(seed))
        res = kesten_eadam(inst, ConsentSet.of([]))
        assert res.gs_runs == 1, seed
        assert res.counters.proposals == gs_student(inst).counters.proposals, seed


def test_underdemanded_at_student_optimal(ex5):
    m0 = gs_student(ex5).assignment
    assert underdemanded_schools(ex5, m0) == {"b4"}


def test_underdemanded_all_when_everyone_is_on_top():
    from legalassign import fixture_path
    square = parse_latin(fixture_path("ex9.matrix").read_text())
    inst = instance_from_latin(square)
    m = diagonal_matching(square, 1)
    assert underdemanded_schools(inst, m) == {"b1", "b2", "b3", "b4"}


def test_underdemanded_schools_are_those_that_rejected_nobody():
    # simplified_eadam finds the demanded schools from the match positions,
    # not from the run's refusals; the two sets agree
    for seed in range(1000):
        inst = random_market(random.Random(seed))
        refused = {e.school for e in gs_student_traced(inst).trace.events()
                   if e.outcome in ("rejected", "displaced")}
        assert (underdemanded_schools(inst, gs_student(inst).assignment)
                == set(inst.schools) - refused), seed


def test_simplified_golden(ex5, consent5):
    res = simplified_eadam(ex5, consent5)
    assert res.assignment == EADAM_EX5
    assert res.gs_runs == 3
    assert res.removed_edges == (("a3", "b3"), ("a2", "b3"), ("a3", "b2"),
                                 ("a1", "b2"), ("a4", "b2"), ("a2", "b1"))


def test_rotate_remove_consent_golden(ex5, consent5):
    run = rotate_remove_consent(ex5, consent5)
    assert run.assignment == EADAM_EX5
    # the walk seals the same reduced-problem edges simplified EADAM deletes
    assert set(run.removed_edges) == {("a3", "b3"), ("a2", "b3"), ("a3", "b2"),
                                      ("a1", "b2"), ("a4", "b2"), ("a2", "b1")}


def test_rotate_remove_consent_refusal_blocks_everything(ex4, consent8):
    # a5 is the lone interrupter; without his consent nothing moves
    run = rotate_remove_consent(ex4, consent8)
    assert run.assignment == gs_student(ex4).assignment
    assert run.rotations == ()
    # with everyone consenting the walk reaches the legal optimum
    assert rotate_remove_consent(ex4).assignment == Assignment(
        {"a1": "b1", "a2": "b2", "a3": "b3", "a4": "b4", "a5": "b5"})


def test_constrained_efficiency(ex5, consent5):
    out = kesten_eadam(ex5, consent5).assignment
    assert is_constrained_efficient(ex5, consent5, out)
    # the plain student-optimal assignment wastes the consented slack
    assert not is_constrained_efficient(ex5, None, gs_student(ex5).assignment)


def test_empty_consent_is_identity(ex5):
    nobody = ConsentSet.of([])
    assert kesten_eadam(ex5, nobody).assignment == gs_student(ex5).assignment
    assert simplified_eadam(ex5, nobody).assignment == gs_student(ex5).assignment
    assert rotate_remove_consent(ex5, nobody).assignment == gs_student(ex5).assignment


def test_consent_validation(ex5):
    stranger = ConsentSet.of(["a1", "zz"])
    for fn in (kesten_eadam, simplified_eadam, rotate_remove_consent):
        try:
            fn(ex5, stranger)
        except ValueError:
            continue
        raise AssertionError(f"{fn.__name__} accepted an unknown student")


@pytest.mark.parametrize("names", ["ab", "a1"])
def test_consent_set_refuses_a_string(names):
    # a string is not read one character per name
    with pytest.raises(InvalidInstanceError) as err:
        ConsentSet.of(names)
    assert str(err.value) == (f"consent set is a string, {names!r}, "
                              "not a collection of names")


@given(st.integers(0, 10 ** 6))
@settings(max_examples=120, deadline=None)
def test_trio_always_agrees(seed):
    rng = random.Random(seed)
    inst = random_market(rng)
    consent = random_consent(rng, inst)
    a = kesten_eadam(inst, consent).assignment
    b = simplified_eadam(inst, consent).assignment
    c = rotate_remove_consent(inst, consent).assignment
    assert a == b == c


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_output_is_constrained_efficient(seed):
    rng = random.Random(seed)
    inst = random_market(rng)
    consent = random_consent(rng, inst)
    out = kesten_eadam(inst, consent).assignment
    assert is_constrained_efficient(inst, consent, out)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_rerun_counts_stay_small(seed):
    rng = random.Random(seed)
    inst = random_market(rng)
    consent = random_consent(rng, inst)
    assert kesten_eadam(inst, consent).gs_runs <= inst.n_edges + 1
    assert simplified_eadam(inst, consent).gs_runs <= inst.n_students + inst.n_schools + 1
    walk = rotate_remove_consent(inst, consent)
    assert walk.counters.report()["edge_scans"] <= 8 * inst.n_edges + 8


@given(st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_consent_walk_seals_right_after_each_refusal(seed):
    # the removal order: a sink deletion (a, b), then, if a did not consent,
    # every student below a on b's list, in list order
    rng = random.Random(seed)
    inst = random_market(rng, max_students=12, max_schools=4)
    consent = random_consent(rng, inst)
    removed = rotate_remove_consent(inst, consent).removed_edges
    i = 0
    while i < len(removed):
        a, b = removed[i]
        i += 1
        if a not in consent.consenting:
            row = inst.school_prefs[b]
            below = [(x, b) for x in row[row.index(a) + 1:]]
            assert list(removed[i:i + len(below)]) == below
            i += len(below)
