import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legalassign import (Assignment, Instance, Rotation, all_rotations, gs_student,
                         is_stable, sigma)

from _markets import random_market
from _references import (UnstableAssignmentError, build_rotation_digraph, eliminate,
                         exposed_rotations, next_agent, sigma_inverse, successor)


def drop_edge(inst: Instance, a: str, b: str) -> Instance:
    sp = {x: [y for y in inst.student_prefs[x] if (x, y) != (a, b)]
          for x in inst.students}
    bp = {y: [x for x in inst.school_prefs[y] if (x, y) != (a, b)]
          for y in inst.schools}
    return Instance(inst.students, inst.schools,
                    {s: inst.quota_of(s) for s in inst.schools}, sp, bp)


@pytest.fixture(scope="module")
def m0(ex3):
    return gs_student(ex3).assignment


def test_successor_and_next_students(ex3, m0):
    assert successor(ex3, m0, "a1", "students") == "b3"
    assert next_agent(ex3, m0, "a1", "students") == "a5"


def test_successor_and_next_schools(ex3, m0):
    assert successor(ex3, m0, "b1", "schools") == "a2"
    assert next_agent(ex3, m0, "b1", "schools") == "b2"


def test_student_digraph_ex3(ex3, m0):
    d = build_rotation_digraph(ex3, m0, "students")
    assert d.arcs == {"a1": "b3", "b3": "a5", "a3": "b2", "b2": "a1", "a6": "b2"}


def test_school_digraph_ex3(ex3, m0):
    d = build_rotation_digraph(ex3, m0, "schools")
    assert d.arcs == {"b3": "a3", "a3": "b1", "b1": "a2", "a2": "b2"}


def test_no_rotation_exposed_at_m0(ex3, m0):
    assert exposed_rotations(ex3, m0, "students") == []
    assert exposed_rotations(ex3, m0, "schools") == []


def test_student_rotation_after_removal(ex3, m0):
    sub = drop_edge(ex3, "a1", "b3")
    rots = exposed_rotations(sub, m0, "students")
    assert [r.pairs for r in rots] == [(("a1", "b2"), ("a3", "b1"))]
    m2 = eliminate(sub, m0, rots[0])
    assert m2 == Assignment({"a1": "b1", "a2": "b2", "a3": "b2",
                             "a4": "b1", "a5": "b3", "a6": "b3"})
    assert is_stable(sub, m2)


def test_school_rotation_after_removal(ex3, m0):
    sub = drop_edge(ex3, "a2", "b1")
    rots = exposed_rotations(sub, m0, "schools")
    assert [r.pairs for r in rots] == [(("b1", "a3"), ("b3", "a6"))]
    m2 = eliminate(sub, m0, rots[0])
    assert m2 == Assignment({"a1": "b2", "a2": "b2", "a3": "b3",
                             "a4": "b1", "a5": "b3", "a6": "b1"})


def test_sigma_rethreads(ex3, m0):
    sub = drop_edge(ex3, "a1", "b3")
    rho = exposed_rotations(sub, m0, "students")[0]
    tau = sigma(rho)
    assert tau.side == "schools"
    assert tau.pairs == (("b1", "a1"), ("b2", "a3"))
    assert sigma_inverse(tau) == rho


def test_sigma_round_trips_elimination(ex3, m0):
    sub = drop_edge(ex3, "a1", "b3")
    rho = exposed_rotations(sub, m0, "students")[0]
    m2 = eliminate(sub, m0, rho)
    assert eliminate(sub, m2, sigma(rho)) == m0


def test_rotation_canonical_start():
    r1 = Rotation("students", (("a2", "b1"), ("a1", "b2")))
    r2 = Rotation("students", (("a1", "b2"), ("a2", "b1")))
    assert r1 == r2
    assert r1.pairs[0][0] == "a1"


def test_rotation_rejects_degenerate():
    with pytest.raises(ValueError):
        Rotation("students", (("a1", "b1"),))
    with pytest.raises(ValueError):
        Rotation("students", (("a1", "b1"), ("a1", "b2")))
    with pytest.raises(ValueError):
        Rotation("bananas", (("a1", "b1"), ("a2", "b2")))


def test_successor_requires_stable_input(ex1):
    unstable = Assignment({"1": "C", "2": "A", "3": None})
    with pytest.raises(UnstableAssignmentError):
        for a in ex1.students:
            successor(ex1, unstable, a, "students")


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_rotation_laws_random(seed):
    inst = random_market(random.Random(seed))
    # walk the student side of the stable lattice one elimination at a time
    m = gs_student(inst).assignment
    seen_pairs: set[tuple[str, str]] = set()
    for _ in range(inst.n_edges + 1):
        rots = exposed_rotations(inst, m, "students")
        if not rots:
            break
        rho = rots[0]
        for pair in rho.pairs:
            assert pair not in seen_pairs
            seen_pairs.add(pair)
        m2 = eliminate(inst, m, rho)
        assert is_stable(inst, m2)
        assert eliminate(inst, m2, sigma(rho)) == m
        m = m2


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_rotation_counts_match_across_sides(seed):
    inst = random_market(random.Random(seed))
    assert len(all_rotations(inst, "students")) == len(all_rotations(inst, "schools"))


def test_sigma_refuses_a_school_rotation():
    tau = Rotation("schools", (("b1", "a1"), ("b2", "a2")))
    with pytest.raises(ValueError) as err:
        sigma(tau)
    assert str(err.value) == "sigma takes a student-rotation"
