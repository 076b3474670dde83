import ast
import contextlib
import io
import random
import time
import tracemalloc
from functools import reduce
from itertools import compress, product
from operator import or_
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legalassign
from legalassign import (Assignment, ConsentSet, GenConfig, OracleCapError,
                         auxiliary_instance, cli, dominates, enumerate_assignments,
                         enumerate_stable,
                         fixture_path, generate, gs_student,
                         instance_from_latin, is_constrained_efficient, is_stable,
                         legal_fixed_point, legal_subinstance, parse_instance,
                         parse_latin, rotate_remove_consent, verify_legal_property,
                         xor_latin)
from legalassign.model import _positions
from legalassign.oracle import (DEFAULT_CAP, _Assignments, _dominating, _enumerate, _universe,
                               _Universe, _walk)

from _markets import random_consent, random_market
import _references
from _references import (assemble_instance, blocks, dominating_reference,
                         enumerate_assignments_reference, gs_school, is_blocking_pair,
                         is_constrained_efficient_reference, is_maximal, optimal_in,
                         universe_masks_reference)

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


def _masks(uni) -> tuple[list[int], list[int]]:
    """The universe's (own, blocked_by) matrices as one int per assignment,
    bit k for edge k: the reference's form."""
    def per_assignment(matrix):
        bits = np.unpackbits(matrix, axis=1, count=len(uni.assignments), bitorder="little")
        return [int.from_bytes(np.packbits(col, bitorder="little").tobytes(), "little")
                for col in bits.T]
    return per_assignment(uni.own), per_assignment(uni.blocked_by)


def test_blocking_digraph_agrees_with_blocks(ex1):
    uni = _Universe.build(ex1)
    owns, blocked = _masks(uni)
    for u, own in zip(uni.assignments, owns):
        for v, blocked_by in zip(uni.assignments, blocked):
            assert bool(own & blocked_by) == blocks(ex1, u, v)
    assert not any(own & blocked[uni.assignments.index(M_STABLE)] for own in owns)


def test_legal_edges_ex1(ex1):
    legal, _ = legal_fixed_point(ex1)
    assert frozenset().union(*(m.matched_pairs for m in legal)) == frozenset(
        {("1", "A"), ("1", "B"), ("2", "A"), ("2", "B"), ("3", "C")})


def test_cap_trips():
    rng = random.Random(5)
    inst = random_market(rng, max_students=7, max_schools=3)
    with pytest.raises(OracleCapError):
        enumerate_assignments(inst, cap=3)
    with pytest.raises(OracleCapError):
        legal_fixed_point(inst, cap=3)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_enumeration_order_and_cap(seed):
    """Students in instance order, each trying its list and then None: the
    product of the options, the first student's varying slowest, without
    the products that overfill a school."""
    inst = random_market(random.Random(seed), max_students=5, max_schools=3)
    students = inst.students
    expected = [dict(zip(students, pick))
                for pick in product(*(inst.student_prefs[a] + (None,) for a in students))
                if all(pick.count(b) <= inst.quota_of(b) for b in inst.schools)]
    assert [m.mapping for m in enumerate_assignments(inst)] == expected
    assert len(enumerate_assignments(inst, cap=len(expected))) == len(expected)
    with pytest.raises(OracleCapError, match=f"exceeds cap={len(expected) - 1} "):
        enumerate_assignments(inst, cap=len(expected) - 1)


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


def _imports(node: ast.AST, target: str) -> bool:
    """True iff the node imports the package module ``target`` or a name from it."""
    if isinstance(node, ast.ImportFrom):
        module = "." * node.level + (node.module or "")
        if module in (f".{target}", f"legalassign.{target}"):
            return True
        return (module in (".", "legalassign")
                and any(alias.name == target for alias in node.names))
    if isinstance(node, ast.Import):
        return any(alias.name == f"legalassign.{target}" for alias in node.names)
    return False


def _import_lines(module: str, target: str) -> list[int]:
    path = Path(legalassign.__file__).with_name(f"{module}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree) if _imports(node, target)]


SOLVER_MODULES = ["model", "gs", "engine", "rotations", "rotate_remove", "eadam"]


@pytest.mark.parametrize("module", SOLVER_MODULES + ["baselines"])
def test_solver_modules_do_not_import_the_oracle(module):
    assert not _import_lines(module, "oracle")


@pytest.mark.parametrize("module", SOLVER_MODULES)
def test_solver_modules_do_not_import_the_baselines(module):
    assert not _import_lines(module, "baselines")


def _named_markets():
    markets = {f"ex{k}": parse_instance(fixture_path(f"ex{k}.inst").read_text())
               for k in range(1, 10)}
    markets["latin"] = instance_from_latin(parse_latin(fixture_path("ex9.matrix").read_text()))
    return markets


NAMED = _named_markets()


def _items(assignments) -> list[tuple[tuple[str, str | None], ...]]:
    """Each assignment's (student, school) items in its own order."""
    return [tuple(m.mapping.items()) for m in assignments]


def _cap_message(enumerate_all) -> str:
    with pytest.raises(OracleCapError) as exc:
        enumerate_all()
    return str(exc.value)


def _assert_enumeration_matches_reference(inst):
    # assignments are named from option indices, so the mask tests below
    # read them through this name-level reference
    expected = enumerate_assignments_reference(inst)
    got = enumerate_assignments(inst)
    assert len(got) == len(expected)
    assert _items(got) == _items(expected)
    cap = len(expected) - 1
    assert (_cap_message(lambda: enumerate_assignments(inst, cap))
            == _cap_message(lambda: enumerate_assignments_reference(inst, cap)))


def _assert_dominating_matches_reference(inst, m):
    expected = list(dominating_reference(inst, m))
    here = tuple(_positions(inst, m))
    got = _Assignments(inst, list(_dominating(inst, here, len(expected) + 1)))
    assert _items(got) == _items(expected)
    cap = len(expected)  # m itself counts against the cap
    assert (_cap_message(lambda: list(_dominating(inst, here, cap)))
            == _cap_message(lambda: list(dominating_reference(inst, m, cap))))


REFERENCE_MARKETS = {**{f"ex{k}": NAMED[f"ex{k}"] for k in range(1, 10)},
                     "xor4": instance_from_latin(xor_latin(4))}


@pytest.mark.parametrize("name", sorted(REFERENCE_MARKETS))
def test_enumeration_matches_the_name_level_reference(name):
    inst = REFERENCE_MARKETS[name]
    _assert_enumeration_matches_reference(inst)
    for m in enumerate_assignments(inst)[::11]:
        _assert_dominating_matches_reference(inst, m)


def test_enumeration_matches_the_name_level_reference_on_random_markets():
    for seed in range(300):
        inst = random_market(random.Random(seed))
        _assert_enumeration_matches_reference(inst)
        for m in enumerate_assignments(inst)[::29]:
            _assert_dominating_matches_reference(inst, m)


def test_cap_error_comes_before_the_masks_on_a_large_market():
    # the cap is checked on option indices, before any assignment is named
    # or any mask is derived, so tripping it stays small
    inst = generate(GenConfig(1200, 10, seed=0))
    tracemalloc.start()
    try:
        with pytest.raises(OracleCapError) as exc:
            legal_fixed_point(inst, cap=500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "assignment enumeration exceeds cap=500 (upper bound about 10^1250)"
    # half of the 13.5 MB peak of keeping a name dict per assignment here
    assert peak < 6_750_000


def test_default_cap_trips_early_on_a_large_market():
    # a frontier larger than the cap proves the universe larger, so the
    # enumeration stops at the first such depth instead of storing every
    # assignment up to the cap
    inst = generate(GenConfig(1200, 10, seed=0))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(OracleCapError) as exc:
            legal_fixed_point(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5
    assert str(exc.value) == "assignment enumeration exceeds cap=1000000 (upper bound about 10^1250)"
    assert peak < 100_000_000


def _assert_rows_follow_the_walk(inst):
    # the breadth-first rows are the depth-first walk's leaves, in order,
    # and the per-depth cap check trips exactly when the universe passes it
    rows = _enumerate(inst, DEFAULT_CAP)
    assert rows.tolist() == [list(leaf) for leaf in _walk(
        inst, [len(row) + 1 for row in inst._s_pref], DEFAULT_CAP)]
    assert len(enumerate_assignments(inst, cap=len(rows))) == len(rows)
    assert (_cap_message(lambda: enumerate_assignments(inst, len(rows) - 1))
            == _cap_message(lambda: enumerate_assignments_reference(inst, len(rows) - 1)))


@pytest.mark.parametrize("name", sorted(NAMED))
def test_breadth_first_rows_follow_the_walk_on_fixtures(name):
    _assert_rows_follow_the_walk(NAMED[name])


def test_breadth_first_rows_follow_the_walk_on_random_markets():
    for seed in range(300):
        _assert_rows_follow_the_walk(random_market(random.Random(seed)))


def _assert_masks_match_reference(inst):
    uni = _Universe.build(inst)
    assert _masks(uni) == universe_masks_reference(inst, uni.assignments)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_universe_masks_match_reference_on_fixtures(name):
    _assert_masks_match_reference(NAMED[name])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_universe_masks_match_reference(seed):
    # quotas up to 3 and lists that may be empty
    _assert_masks_match_reference(random_market(random.Random(seed), max_students=6,
                                                max_quota=3))


@pytest.mark.parametrize("cfg", [
    GenConfig(6, 3, quota_lo=1, quota_hi=2, seed=5),
    GenConfig(7, 3, quota_lo=1, quota_hi=3, list_length=2, seed=6),
])
def test_universe_masks_match_reference_on_trusted_instances(cfg):
    # generated markets and legal subinstances are built from index rows
    inst = generate(cfg)
    _assert_masks_match_reference(inst)
    _assert_masks_match_reference(legal_subinstance(inst).instance)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_universe_masks_ignore_the_cross_rank_tables(seed):
    # the oracle reads only the preference lists, so a wrong cross rank
    # cannot change its answer
    inst = random_market(random.Random(seed), max_students=6, max_quota=3)
    scrambled = assemble_instance(
        inst.students, inst.schools, inst._quota, inst._s_pref, inst._b_pref,
        [[0] * len(row) for row in inst._s_pref], [[0] * len(row) for row in inst._b_pref])
    uni = _Universe.build(scrambled)
    own, blocked = universe_masks_reference(inst, uni.assignments)
    assert _masks(uni) == (own, blocked)
    # the checks built on the universe: a set is legal iff exactly its
    # members are unblocked by it
    rng = random.Random(seed)
    universe = list(uni.assignments)
    _universe.cache_clear()  # the scrambled instance is equal to the original
    for member in ([b == 0 for b in blocked], [rng.random() < 0.1 for _ in universe],
                   [bool(mask) for mask in own]):
        union = reduce(or_, compress(own, member), 0)
        legal = all((b & union == 0) == is_m for b, is_m in zip(blocked, member))
        assert verify_legal_property(scrambled, list(compress(universe, member))).ok == legal
    _universe.cache_clear()
    # constrained efficiency, with the reference reading the universe once
    with mock.patch.object(_references, "enumerate_assignments", lambda _: universe):
        for consent in (None, random_consent(rng, inst)):
            for m in rng.sample(universe, min(4, len(universe))):
                assert (is_constrained_efficient(scrambled, consent, m)
                        == is_constrained_efficient_reference(inst, consent, m))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_universe_masks_agree_with_the_edge_predicate(seed):
    inst = random_market(random.Random(seed), max_students=5)
    edges = list(inst.edges())
    uni = _Universe.build(inst)
    for m, own, blocked in zip(uni.assignments, *_masks(uni)):
        assert {e for k, e in enumerate(edges) if own >> k & 1} == m.matched_pairs
        assert [blocked >> k & 1 == 1 for k in range(len(edges))] == [
            is_blocking_pair(inst, m, a, b) for a, b in edges]


def test_constrained_efficiency_matches_reference(monkeypatch):
    # every assignment of each universe as m, so both verdicts and every
    # shape of the dominating set occur; the reference reads the universe
    # from a list made once per market instead of enumerating it per call
    verdicts = set()
    for seed in range(300):
        rng = random.Random(seed)
        inst = random_market(rng)
        universe = list(enumerate_assignments(inst))
        monkeypatch.setattr(_references, "enumerate_assignments", lambda _: universe)
        for consent in (None, random_consent(rng, inst)):
            for m in universe:
                verdict = is_constrained_efficient(inst, consent, m)
                assert verdict == is_constrained_efficient_reference(inst, consent, m)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_efficiency_cap_bounds_the_dominating_assignments(ex5):
    # nobody consents, so the assignments that dominate the outcome all
    # violate a priority and the verdict needs every one of them
    nobody = ConsentSet.of([])
    m = rotate_remove_consent(ex5, nobody).assignment
    universe = enumerate_assignments(ex5)
    dominating = [m2 for m2 in universe if dominates(ex5, m2, m)]  # m among them
    assert 2 < len(dominating) < len(universe)
    assert is_constrained_efficient(ex5, nobody, m, cap=len(dominating))
    with pytest.raises(OracleCapError, match=f"exceeds cap={len(dominating) - 1} "):
        is_constrained_efficient(ex5, nobody, m, cap=len(dominating) - 1)


@pytest.fixture
def builds(monkeypatch):
    """The instances whose universe is built while the test runs, from an
    empty memo."""
    built = []
    build = _Universe.build

    def counting(inst, cap):
        built.append(inst)
        return build(inst, cap)

    _universe.cache_clear()
    monkeypatch.setattr(_Universe, "build", counting)
    yield built
    _universe.cache_clear()


def test_fixed_point_then_verify_builds_one_universe(builds, ex9):
    legal, _ = legal_fixed_point(ex9)
    assert verify_legal_property(ex9, legal).ok
    assert builds == [ex9]


def test_memo_hits_equal_instances_and_misses_the_subinstance(builds, ex1):
    legal, _ = legal_fixed_point(ex1)
    copy = parse_instance(ex1.to_text())
    assert copy is not ex1
    assert verify_legal_property(copy, legal).ok
    assert len(builds) == 1
    sub = legal_subinstance(ex1).instance
    assert set(enumerate_stable(sub)) == set(legal)
    assert builds == [ex1, sub]


def test_smaller_cap_after_a_memo_hit_still_raises(builds, ex9):
    size = len(enumerate_assignments(ex9))
    with pytest.raises(OracleCapError) as direct:
        enumerate_assignments(ex9, cap=size - 1)
    legal_fixed_point(ex9)
    with pytest.raises(OracleCapError) as memo:
        legal_fixed_point(ex9, cap=size - 1)
    assert str(memo.value) == str(direct.value)
    assert len(builds) == 2


@pytest.mark.parametrize("argv", [
    *(["oracle", "verify", "--input", str(fixture_path(f"ex{k}.inst"))] for k in (1, 3, 9)),
    ["latin", "count", "--input", str(fixture_path("ex9.matrix"))],
])
def test_cli_builds_one_universe_per_market(builds, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert len(builds) == 1


def _reordered(m: Assignment) -> Assignment:
    return Assignment(dict(reversed(m.mapping.items())))


def _listless_left_out(inst, m: Assignment) -> Assignment:
    """m without the students that have no list, which it may leave out."""
    return Assignment({a: b for a, b in m.mapping.items() if inst.student_prefs[a]})


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_verify_reads_candidates_by_their_schools_not_their_order(seed):
    rng = random.Random(seed)
    inst = random_market(rng)
    legal, _ = legal_fixed_point(inst)
    legal_set = set(legal)
    outsiders = [m for m in enumerate_assignments(inst) if m not in legal_set]
    for candidate in (legal, legal[1:], legal + rng.sample(outsiders, min(1, len(outsiders)))):
        expected = verify_legal_property(inst, candidate)
        for rebuilt in ([_reordered(m) for m in candidate],
                        [_listless_left_out(inst, m) for m in candidate]):
            assert verify_legal_property(inst, rebuilt) == expected


@pytest.mark.parametrize("outsider", [
    Assignment({"1": "A", "2": "A", "3": None}),         # over quota
])
def test_verify_rejects_a_candidate_outside_the_universe(ex1, outsider):
    with pytest.raises(ValueError) as exc:
        verify_legal_property(ex1, [M_STABLE, outsider])
    assert str(exc.value) == ("candidate contains an assignment outside the universe: "
                              f"{outsider!r}")


# Every function that takes an assignment reads it by one set of rules;
# ``base`` is a second assignment of the same market.
READERS = {
    "is_stable": lambda inst, m, base: is_stable(inst, m),
    "dominates-first": lambda inst, m, base: dominates(inst, m, base),
    "dominates-second": lambda inst, m, base: dominates(inst, base, m),
    "verify_legal_property": lambda inst, m, base: verify_legal_property(inst, [base, m]),
    "is_constrained_efficient": lambda inst, m, base: is_constrained_efficient(inst, None, m),
}


# per fault: an assignment of ex1 with it, and the one message for it
READER_FAULTS = {
    "left-out": ({"1": "A", "2": "B"},
                 "the assignment leaves out student '3', whose list is not empty"),
    "stray": ({"1": "A", "2": "B", "3": "C", "4": "A"},
              "the assignment matches student '4', who is not in the market"),
    "unknown-school": ({"1": "Z", "2": None, "3": None}, "unknown school 'Z'"),
    "non-edge": ({"1": "C", "2": "C", "3": None}, "('2', 'C') is not an edge"),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("fault", READER_FAULTS)
def test_every_reader_refuses_a_fault_with_one_message(ex1, fault, reader):
    match, message = READER_FAULTS[fault]
    with pytest.raises(ValueError) as err:
        READERS[reader](ex1, Assignment(match), M_STABLE)
    assert str(err.value) == message


@pytest.mark.parametrize("reader", READERS)
def test_every_reader_accepts_what_equality_ignores(ex1, reader):
    # a student with no list may be left out, and a stray student mapped to
    # None is ignored, as `Assignment` equality ignores it
    listless = parse_instance("instance v1\nstudents: a1 a2\nschools: b1\na1: b1\nb1: a1\n")
    unmatched = Assignment({"a1": None, "a2": None})
    for inst, m, full, base in (
            (listless, Assignment({"a1": "b1"}), Assignment({"a1": "b1", "a2": None}), unmatched),
            (ex1, Assignment({**M_LEGAL.mapping, "4": None}), M_LEGAL, M_STABLE)):
        assert m == full
        assert READERS[reader](inst, m, base) == READERS[reader](inst, full, base)


def test_oracle_rejects_an_assignment_that_leaves_out_a_student(ex1, ex5):
    message = "the assignment leaves out student {!r}, whose list is not empty"
    with pytest.raises(ValueError) as err:
        verify_legal_property(ex1, [M_STABLE, Assignment({"1": "A", "2": "B"})])
    assert str(err.value) == message.format("3")
    m = rotate_remove_consent(ex5, None).assignment
    without_a4 = Assignment({a: b for a, b in m.mapping.items() if a != "a4"})
    for consent in (None, ConsentSet.of([])):
        with pytest.raises(ValueError) as err:
            is_constrained_efficient(ex5, consent, without_a4)
        assert str(err.value) == message.format("a4")


def test_oracle_may_leave_out_a_student_with_no_list():
    inst = parse_instance("instance v1\nstudents: a1 a2\nschools: b1\na1: b1\nb1: a1\n")
    m = Assignment({"a1": "b1"})
    assert verify_legal_property(inst, [m]).ok
    assert not verify_legal_property(inst, [Assignment({"a1": None})]).ok
    for consent in (None, ConsentSet.of([])):
        assert is_constrained_efficient(inst, consent, m)


def _package_imports(tree: ast.AST) -> list[tuple[str, str]]:
    """(module, name) for every import from within legalassign."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.name, "") for alias in node.names
                    if alias.name.split(".")[0] == "legalassign"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "legalassign":
                    continue
                module = module.partition(".")[2]
            out += [(module, alias.name) for alias in node.names]
    return out


def test_oracle_imports_only_the_model_and_consent_helpers():
    path = Path(legalassign.__file__).with_name("oracle.py")
    imports = _package_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert {module for module, _ in imports} <= {"model", "eadam"}
    # the one assignment reader, and no cross-rank reader
    assert {name for module, name in imports if module == "model"} == {
        "Assignment", "Instance", "_positions"}
    assert {name for module, name in imports if module == "eadam"} <= {
        "ConsentSet", "_consent_flags"}
