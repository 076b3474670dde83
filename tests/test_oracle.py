import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legalassign
from legalassign import (Assignment, OracleCapError, auxiliary_instance,
                         blocking_digraph, blocks, enumerate_assignments,
                         enumerate_stable, gs_school, gs_student, is_stable,
                         legal_edges_brute, legal_fixed_point,
                         verify_legal_property)
from legalassign.oracle import is_maximal, optimal_in

from _markets import random_market

M_STABLE = Assignment({"1": "B", "2": "A", "3": "C"})
M_LEGAL = Assignment({"1": "A", "2": "B", "3": "C"})


def test_enumerate_counts(ex1, ex2):
    # ex1: every student may also stay unmatched
    ms = enumerate_assignments(ex1)
    assert len(ms) == len(set(ms)) == 22
    full = [m for m in enumerate_assignments(ex2)
            if all(m.school_of(a) for a in ex2.students)]
    assert len(full) == 6


def test_maximal_matchings_ex1(ex1):
    maximal = [m for m in enumerate_assignments(ex1) if is_maximal(ex1, m)]
    assert len(maximal) == 5
    assert M_STABLE in maximal and M_LEGAL in maximal


def test_enumerate_stable_golden(ex1, ex9):
    assert enumerate_stable(ex1) == [M_STABLE]
    assert len(enumerate_stable(ex9)) == 10


def test_auxiliary_collapses_stability(ex9):
    aux = auxiliary_instance(ex9)
    assert len(enumerate_stable(aux)) == 1
    legal, _ = legal_fixed_point(aux)
    assert len(legal) == 10


def test_fixed_point_trace_ex1(ex1):
    legal, trace = legal_fixed_point(ex1)
    assert set(legal) == {M_STABLE, M_LEGAL}
    # levels grow until the first repeat, which is not recorded
    assert [set(level) for level in trace] == [{M_STABLE}, {M_STABLE, M_LEGAL}]


def test_fixed_point_ex2(ex2):
    legal, _ = legal_fixed_point(ex2)
    assert legal == [Assignment({"a1": "b1", "a2": "b2",
                                 "a3": "b2", "a4": "b1"})]


def test_verify_legal_property(ex1):
    good = verify_legal_property(ex1, [M_STABLE, M_LEGAL])
    assert good.ok
    assert good.internal_witness is None and good.external_witness is None

    undershoot = verify_legal_property(ex1, [M_STABLE])
    assert not undershoot.ok
    assert undershoot.external_witness == M_LEGAL

    overshoot = verify_legal_property(
        ex1, [M_STABLE, M_LEGAL, Assignment({"1": "C", "2": "B", "3": "A"})])
    assert not overshoot.ok
    assert overshoot.internal_witness is not None


def test_blocking_digraph_agrees_with_blocks(ex1):
    dg = blocking_digraph(ex1)
    for u in dg:
        for v in dg:
            assert (v in dg[u]) == blocks(ex1, u, v)
    assert all(M_STABLE not in dg[u] for u in dg)


def test_legal_edges_ex1(ex1):
    assert legal_edges_brute(ex1) == frozenset(
        {("1", "A"), ("1", "B"), ("2", "A"), ("2", "B"), ("3", "C")})


def test_cap_trips():
    rng = random.Random(5)
    inst = random_market(rng, max_students=7, max_schools=3)
    with pytest.raises(OracleCapError):
        enumerate_assignments(inst, cap=3)
    with pytest.raises(OracleCapError):
        legal_fixed_point(inst, cap=3)


def test_optimal_in_picks_lattice_ends(ex1):
    legal, _ = legal_fixed_point(ex1)
    assert optimal_in(ex1, legal, "students") == M_LEGAL
    assert optimal_in(ex1, legal, "schools") == M_STABLE


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_stable_set_sits_inside_legal(seed):
    inst = random_market(random.Random(seed))
    stable = enumerate_stable(inst)
    legal, _ = legal_fixed_point(inst)
    assert set(stable) <= set(legal)
    assert gs_student(inst).assignment in stable
    assert gs_school(inst).assignment in stable


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_fixed_point_result_verifies(seed):
    inst = random_market(random.Random(seed))
    legal, trace = legal_fixed_point(inst)
    assert verify_legal_property(inst, legal).ok
    assert set(trace[0]) == set(enumerate_stable(inst))
    assert set(trace[-1]) == set(legal)
    assert all(is_maximal(inst, m) for m in legal)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_stability_matches_model_predicate(seed):
    inst = random_market(random.Random(seed))
    stable = set(enumerate_stable(inst))
    for m in enumerate_assignments(inst):
        assert (m in stable) == is_stable(inst, m)


def _imports_oracle(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        module = "." * node.level + (node.module or "")
        if module in (".oracle", "legalassign.oracle"):
            return True
        return (module in (".", "legalassign")
                and any(alias.name == "oracle" for alias in node.names))
    if isinstance(node, ast.Import):
        return any(alias.name == "legalassign.oracle" for alias in node.names)
    return False


@pytest.mark.parametrize("module", ["model", "gs", "engine", "rotations",
                                    "rotate_remove", "eadam"])
def test_solver_modules_do_not_import_the_oracle(module):
    path = Path(legalassign.__file__).with_name(f"{module}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if _imports_oracle(node)]
