import random

from hypothesis import given, settings
from hypothesis import strategies as st

from legalassign import (Assignment, dominates, enumerate_stable, gs_student,
                         gs_student_traced, interrupting_pairs, parse_instance)

from _markets import random_market
from _references import gs_school

M0_EX5 = Assignment({"a1": "b3", "a2": "b2", "a3": "b4", "a4": "b1"})


def test_student_optimal_ex1(ex1):
    assert gs_student(ex1).assignment == Assignment({"1": "B", "2": "A", "3": "C"})


def test_student_optimal_ex5(ex5):
    assert gs_student(ex5).assignment == M0_EX5


def test_optima_coincide_ex3(ex3):
    m0 = Assignment({"a1": "b2", "a2": "b2", "a3": "b1",
                     "a4": "b1", "a5": "b3", "a6": "b3"})
    assert gs_student(ex3).assignment == m0
    assert gs_school(ex3).assignment == m0


def test_proposal_count_ex5(ex5):
    assert gs_student(ex5).counters.proposals == 10
    assert len(gs_student_traced(ex5).trace.rounds) == 6


def test_trace_rounds_ex5(ex5):
    trace = gs_student_traced(ex5).trace
    by_round = [{(e.student, e.school, e.outcome) for e in r} for r in trace.rounds]
    assert by_round == [
        {("a1", "b1", "rejected"), ("a2", "b1", "accepted"),
         ("a3", "b3", "rejected"), ("a4", "b3", "accepted")},
        {("a1", "b2", "rejected"), ("a3", "b2", "accepted")},
        {("a1", "b3", "accepted"), ("a4", "b3", "displaced")},
        {("a4", "b1", "accepted"), ("a2", "b1", "displaced")},
        {("a2", "b2", "accepted"), ("a3", "b2", "displaced")},
        {("a3", "b4", "accepted")},
    ]
    assert gs_student_traced(ex5).assignment == M0_EX5


def test_trace_dump_format():
    inst = parse_instance("instance v1\nstudents: a\nschools: b\na: b\nb: a\n")
    assert gs_student_traced(inst).trace.dump() == "1 a b accepted\n"


def test_interrupting_pairs_ex5(ex5):
    trace = gs_student_traced(ex5).trace
    assert interrupting_pairs(trace) == [("a3", "b2", 5), ("a2", "b1", 4),
                                         ("a4", "b3", 3)]


def test_no_interrupters_after_removal(ex5):
    alive = [bytearray(b"\x01" * 4) for _ in range(4)]
    alive[1][0] = 0  # kill a2's cell for b1
    res = gs_student_traced(ex5, alive)
    assert len(res.trace.rounds) == 3
    assert interrupting_pairs(res.trace) == []
    assert res.assignment == Assignment({"a1": "b1", "a2": "b2",
                                         "a3": "b4", "a4": "b3"})


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_event_driven_matches_traced(seed):
    inst = random_market(random.Random(seed))
    assert gs_student(inst).assignment == gs_student_traced(inst).assignment


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_gs_output_is_student_optimal_stable(seed):
    inst = random_market(random.Random(seed), max_students=6)
    m = gs_student(inst).assignment
    stable = enumerate_stable(inst)
    assert m in stable
    assert all(dominates(inst, m, other) for other in stable)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_gs_school_is_school_optimal_stable(seed):
    inst = random_market(random.Random(seed), max_students=6)
    m = gs_school(inst).assignment
    stable = enumerate_stable(inst)
    assert m in stable
    assert all(dominates(inst, other, m) for other in stable)


def test_counters_bounded_by_edges():
    rng = random.Random(5)
    for _ in range(50):
        inst = random_market(rng)
        c = gs_student(inst).counters
        assert c.proposals <= inst.n_edges
        assert c.cells_scanned <= 2 * inst.n_edges + inst.n_students
