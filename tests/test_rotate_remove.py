import importlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legalassign import (Assignment, Counters, Instance, dominates, enumerate_stable,
                         fixture_path, gs_student, is_stable, legal_fixed_point,
                         legal_subinstance, parse_instance, rotate_remove)
from legalassign.benchgen import GenConfig, generate
from legalassign.engine import all_rotations, school_side_run, student_side_run
from legalassign.gs import _gs_student_arrays

from _markets import random_market
from _references import (eliminate, exposed_rotations, gs_school, legal_subinstance_reference,
                         stable_edges)

# the module, which the package's rotate_remove function shadows
rotate_remove_module = importlib.import_module("legalassign.rotate_remove")

STUDENT_OPT_EX3 = Assignment({"a1": "b2", "a2": "b2", "a3": "b3",
                              "a4": "b1", "a5": "b3", "a6": "b1"})
SCHOOL_OPT_EX3 = Assignment({"a1": "b1", "a2": "b2", "a3": "b2",
                             "a4": "b1", "a5": "b3", "a6": "b3"})


def test_school_rotations_reach_student_optimal_legal(ex3):
    run = rotate_remove(ex3, "schools")
    assert run.assignment == STUDENT_OPT_EX3
    assert run.removed_edges == (("a2", "b1"),)


def test_student_rotations_reach_school_optimal_legal(ex3):
    run = rotate_remove(ex3, "students")
    assert run.assignment == SCHOOL_OPT_EX3
    assert run.removed_edges == (("a1", "b3"),)


def test_rotate_remove_defaults_to_the_school_side(ex3):
    assert rotate_remove(ex3).assignment == STUDENT_OPT_EX3


def test_legal_optima_dominate_in_order(ex3):
    m0 = gs_student(ex3).assignment
    assert dominates(ex3, STUDENT_OPT_EX3, m0)
    assert dominates(ex3, m0, SCHOOL_OPT_EX3)


def test_student_optimal_legal_ex1(ex1):
    assert rotate_remove(ex1).assignment == Assignment({"1": "A", "2": "B", "3": "C"})


def test_legal_subinstance_ex1(ex1):
    report = legal_subinstance(ex1)
    assert report.legal_edges == frozenset({("1", "A"), ("1", "B"), ("2", "A"),
                                            ("2", "B"), ("3", "C")})
    assert report.illegal_edges == frozenset({("1", "C"), ("3", "A")})
    assert report.student_optimal == Assignment({"1": "A", "2": "B", "3": "C"})
    assert report.school_optimal == Assignment({"1": "B", "2": "A", "3": "C"})
    assert report.instance.n_edges == 5


def test_legal_subinstance_keeps_everything_when_all_edges_legal(ex9):
    report = legal_subinstance(ex9)
    assert report.illegal_edges == frozenset()
    assert report.instance.n_edges == 16


def test_stable_edges_ex1(ex1):
    # the instance has a single stable assignment
    assert stable_edges(ex1) == frozenset({("1", "B"), ("2", "A"), ("3", "C")})


@given(st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_subinstance_stable_set_is_the_legal_set(seed):
    inst = random_market(random.Random(seed))
    legal, _ = legal_fixed_point(inst)
    report = legal_subinstance(inst)
    assert set(enumerate_stable(report.instance)) == set(legal)
    assert report.legal_edges == frozenset(
        (a, b) for m in legal for a, b in m.matched_pairs)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_removed_edges_lie_on_no_legal_assignment(seed):
    inst = random_market(random.Random(seed))
    legal, _ = legal_fixed_point(inst)
    on_legal = {(a, b) for m in legal for a, b in m.matched_pairs}
    for side in ("students", "schools"):
        run = rotate_remove(inst, side)
        assert not on_legal.intersection(run.removed_edges)
        assert run.assignment in legal


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_outputs_are_lattice_extremes_of_the_legal_set(seed):
    inst = random_market(random.Random(seed))
    legal, _ = legal_fixed_point(inst)
    lo = rotate_remove(inst, "students").assignment
    hi = rotate_remove(inst, "schools").assignment
    for m in legal:
        assert dominates(inst, hi, m)
        assert dominates(inst, m, lo)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_stable_edges_matches_enumeration(seed):
    inst = random_market(random.Random(seed))
    expected = {(a, b) for m in enumerate_stable(inst) for a, b in m.matched_pairs}
    assert stable_edges(inst) == expected


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_subinstance_optima_are_stable_in_it(seed):
    inst = random_market(random.Random(seed))
    report = legal_subinstance(inst)
    assert is_stable(report.instance, report.student_optimal)
    assert is_stable(report.instance, report.school_optimal)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_subinstance_matches_a_validating_build(seed):
    inst = random_market(random.Random(seed))
    report = legal_subinstance(inst)
    legal = report.legal_edges
    built = Instance(inst.students, inst.schools, inst.quota,
                     {a: [b for b in row if (a, b) in legal]
                      for a, row in inst.student_prefs.items()},
                     {b: [a for a in row if (a, b) in legal]
                      for b, row in inst.school_prefs.items()})
    sub = report.instance
    assert sub == built
    assert (sub._s_srank, sub._b_rrank) == (built._s_srank, built._b_rrank)
    assert report.illegal_edges == frozenset(inst.edges()) - legal


def _student_optimal(inst):
    return _gs_student_arrays(inst)[0]


def _assert_report_matches_reference(inst):
    report, ref = legal_subinstance(inst), legal_subinstance_reference(inst)
    assert report.legal_edges == ref.legal_edges
    assert report.illegal_edges == ref.illegal_edges
    assert report.student_optimal == ref.student_optimal
    assert report.school_optimal == ref.school_optimal
    assert report.rotations == ref.rotations
    # one deferred-acceptance run, then both walks from the student-optimal
    # stable assignment
    assert report.counters == (gs_student(inst).counters
                               + school_side_run(inst, _start=_student_optimal(inst)).counters
                               + student_side_run(inst, _start=_student_optimal(inst)).counters)
    sub = report.instance
    assert sub == ref.instance
    assert (sub._s_srank, sub._b_rrank) == (ref.instance._s_srank, ref.instance._b_rrank)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_report_equals_the_named_edge_reference(seed):
    _assert_report_matches_reference(random_market(random.Random(seed)))


@pytest.mark.parametrize("seed", range(12))
def test_report_equals_the_named_edge_reference_on_larger_markets(seed):
    rng = random.Random(seed)
    _assert_report_matches_reference(
        random_market(rng, max_students=40, max_schools=8, max_quota=4))


def test_legal_subinstance_runs_deferred_acceptance_once(ex5):
    counters = legal_subinstance(ex5).counters
    gs = gs_student(ex5).counters
    assert counters.gs_runs == 1
    assert (counters.proposals, counters.cells_scanned) == (gs.proposals, gs.cells_scanned)


def _assert_enumeration_ends_school_optimal(inst):
    # all_rotations, in its order, is a walk of the stable lattice from the
    # student-optimal stable assignment down to its bottom
    m = gs_student(inst).assignment
    for rho in all_rotations(inst, "students"):
        assert rho in exposed_rotations(inst, m, "students")
        m = eliminate(inst, m, rho)
    assert m == gs_school(inst).assignment


def test_enumeration_ends_school_optimal():
    for seed in range(300):
        _assert_enumeration_ends_school_optimal(random_market(random.Random(seed)))


@pytest.mark.parametrize("seed", range(12))
def test_enumeration_ends_school_optimal_on_larger_markets(seed):
    rng = random.Random(seed)
    _assert_enumeration_ends_school_optimal(
        random_market(rng, max_students=40, max_schools=8, max_quota=4))


def _assert_downward_walk_eliminates_every_stable_rotation(inst):
    # the downward walk starts at the student-optimal stable assignment: it
    # must still end at the school-optimal legal one, which rotate_remove
    # reaches from the school-optimal stable start, and eliminate every
    # stable student-rotation on the way, though it need not pass the
    # school-optimal stable assignment
    report = legal_subinstance(inst)
    assert report.school_optimal == rotate_remove(inst, "students").assignment
    assert set(all_rotations(inst, "students")) <= set(report.rotations)


def test_downward_walk_passes_the_stable_lattice():
    for seed in range(300):
        _assert_downward_walk_eliminates_every_stable_rotation(
            random_market(random.Random(seed)))


@pytest.mark.parametrize("seed", range(12))
def test_downward_walk_passes_the_stable_lattice_on_larger_markets(seed):
    rng = random.Random(seed)
    _assert_downward_walk_eliminates_every_stable_rotation(
        random_market(rng, max_students=40, max_schools=8, max_quota=4))


def test_all_rotations_keeps_a_stable_rotation_behind_an_unstable_one():
    # the chain from the student-optimal stable assignment eliminates an
    # unstable rotation first: the assignment after it blocks, and the one
    # stable rotation comes third, so no prefix of the chain is the stable set
    inst = generate(GenConfig(200, 20, quota_model="nyc", list_length=5, seed=3))
    chain = _down_chain(inst).rotations
    assert len(chain) == 3
    pairs = chain[0].pairs
    first = dict(gs_student(inst).assignment.mapping)
    first.update((a, b) for (a, _), (_, b) in zip(pairs, pairs[1:] + pairs[:1]))
    assert not is_stable(inst, Assignment(first))
    assert all_rotations(inst, "students") == [chain[2]]


#: rotate_remove(inst, "students") on the market below: 20 of the 38 removed
#: edges go to b1 and b4, which have a free seat all the way down (4 of 5 and
#: 3 of 7 seats filled at the school-optimal stable assignment)
NYC_30X5_REMOVED = (
    "a8:b4 a18:b1 a23:b4 a22:b4 a23:b3 a7:b2 a7:b3 a2:b5 a2:b1 a3:b4 a4:b4 a5:b4 "
    "a6:b4 a6:b5 a9:b4 a10:b2 a10:b1 a11:b5 a13:b3 a13:b5 a15:b3 a15:b2 a16:b1 "
    "a17:b1 a19:b4 a20:b1 a21:b1 a24:b4 a25:b1 a25:b3 a26:b5 a26:b2 a27:b1 a27:b3 "
    "a28:b3 a28:b5 a29:b5 a29:b1")


def test_student_walk_settles_free_seat_sinks_in_order():
    inst = generate(GenConfig(30, 5, quota_model="nyc", list_length=3, seed=2))
    run = rotate_remove(inst, "students")
    assert run.removed_edges == tuple(tuple(e.split(":")) for e in NYC_30X5_REMOVED.split())
    assert run.counters == Counters(proposals=78, cells_scanned=78, edge_scans=59,
                                    rotations_eliminated=3, edges_removed=38, gs_runs=1)


def _patch_down_chain(monkeypatch, edit):
    """Make legal_subinstance's downward walk return edit(rotations)."""
    real = rotate_remove_module.student_side_run

    def patched(inst, *, _start=None):
        run = real(inst, _start=_start)
        return replace(run, _rotations=edit(run._rotations))

    monkeypatch.setattr(rotate_remove_module, "student_side_run", patched)


def _down_chain(inst):
    """The downward walk of legal_subinstance, on its own."""
    return student_side_run(inst, _start=_student_optimal(inst))


EX9 = parse_instance(fixture_path("ex9.inst").read_text())


def test_legal_subinstance_leaves_the_enumeration_assignment_unnamed(ex9, monkeypatch):
    # one student walk gives the stable and the legal descent
    runs = []
    real = rotate_remove_module.student_side_run

    def recording(inst, **kwargs):
        runs.append(real(inst, **kwargs))
        return runs[-1]

    monkeypatch.setattr(rotate_remove_module, "student_side_run", recording)
    report = legal_subinstance(ex9)
    (down,) = runs
    assert report.school_optimal == down.assignment


@pytest.mark.parametrize("lost", range(len(_down_chain(EX9)._rotations)))
def test_glue_rejects_a_chain_that_lost_a_rotation(ex9, monkeypatch, lost):
    _patch_down_chain(monkeypatch, lambda rots: rots[:lost] + rots[lost + 1:])
    with pytest.raises(AssertionError, match="differs between the two walks"):
        legal_subinstance(ex9)


def test_glue_rejects_a_pair_whose_next_school_is_not_below(ex9, monkeypatch):
    # a one-pair rotation sends its student to the school it already holds,
    # which is not further down its list: list.index's ValueError must not leak
    end = _down_chain(ex9)._match_pos
    stay = [(0, ex9._s_pref[0][end[0]])]
    _patch_down_chain(monkeypatch, lambda rots: rots + [stay])
    with pytest.raises(AssertionError, match="differs between the two walks"):
        legal_subinstance(ex9)
