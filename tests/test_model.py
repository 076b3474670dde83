import ast
import math
import random
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legalassign import (Assignment, GenConfig, Instance, InvalidInstanceError,
                         ParseError, blocking_pairs, dominates, generate, gs_student,
                         is_stable, legal_subinstance, parse_instance,
                         reduce_one_to_one)
from legalassign import model

from _markets import random_market
from _references import blocks, is_blocking_pair, parse_instance_reference, pi, pi_inverse

M1 = Assignment({"1": "B", "2": "A", "3": "C"})
M2 = Assignment({"1": "A", "2": "B", "3": "C"})
M3 = Assignment({"1": "B", "2": None, "3": "A"})
M4 = Assignment({"1": "C", "2": "B", "3": "A"})
M5 = Assignment({"1": "C", "2": "A", "3": None})


def test_parse_counts(ex1):
    assert ex1.n_students == 3
    assert ex1.n_schools == 3
    assert ex1.n_edges == 7
    assert ex1.student_prefs["1"] == ("A", "B", "C")
    assert ex1.school_prefs["A"] == ("2", "3", "1")
    assert all(ex1.quota_of(b) == 1 for b in ex1.schools)


def test_parse_quota_brackets(ex2):
    assert ex2.quota_of("b1") == 2
    assert ex2.quota_of("b2") == 2


def test_quota_defaults_to_one():
    inst = parse_instance("instance v1\nstudents: a\nschools: b[3] c\na: b c\nb: a\nc: a\n")
    assert inst.quota_of("b") == 3
    assert inst.quota_of("c") == 1


def test_comments_and_blank_lines_ignored(ex1):
    text = "# leading\n\ninstance v1\nstudents: 1\nschools: A\n# middle\n1: A\nA: 1\n"
    inst = parse_instance(text)
    assert inst.n_edges == 1


@pytest.mark.parametrize("text, fragment", [
    ("students: a\nschools: b\n", "header"),
    ("instance v1\nstudents: a a\nschools: b\n", "duplicate student"),
    ("instance v1\nstudents: a\nschools: b b\n", "duplicate school"),
    ("instance v1\nstudents: a\nschools: a\n", None),
    ("instance v1\nstudents: a\nschools: b[0]\n", "quota"),
    # int() reads these, but to_text writes a quota in ASCII digits only
    ("instance v1\nstudents: a\nschools: b[2_0]\n", "bad quota '2_0' for school 'b'"),
    ("instance v1\nstudents: a\nschools: b[+2]\n", "bad quota '+2' for school 'b'"),
    ("instance v1\nstudents: a\nschools: b[\u0663]\n", "bad quota '\u0663' for school 'b'"),
    ("instance v1\nstudents: a\nschools: b\na: c\n", None),
    ("instance v1\nstudents: a\nschools: b\na: b b\n", None),
    ("instance v1\nstudents: a\nschools: b\na: b\n", "asymmetric"),
    ("instance v1\nstudents: a\nschools: b\nb: a\n", "asymmetric"),
    ("instance v1\nstudents: a\nstudents: e\nschools: c\n", "line 3: duplicate students: line"),
    ("instance v1\nstudents: a\nschools: c\na: c\nc: a\nstudents: e\n",
     "line 6: duplicate students: line"),
    # a roster word on a roster still heads a roster line, not a preference line
    ("instance v1\nstudents: students a\nschools: c\na: c\nc: a\nstudents: e\n",
     "line 6: duplicate students: line"),
    ("students: a\nschools: c\n", "line 1: expected header 'instance v1'"),
    ("", "line 1: missing header 'instance v1'"),
    ("# only a comment\n\n", "line 1: missing header 'instance v1'"),
    ("instance v1\nschools: c\n", "missing students: line"),
    ("instance v1\nstudents: a\n", "missing schools: line"),
])
def test_parse_rejects_malformed(text, fragment):
    with pytest.raises((ParseError, InvalidInstanceError)) as err:
        parse_instance(text)
    if fragment is not None:
        assert fragment in str(err.value)


def test_quota_rejects_bool():
    with pytest.raises(InvalidInstanceError,
                       match=r"school 'c' has quota True; quotas must be integers >= 1"):
        Instance(["a"], ["c"], {"c": True}, {"a": ["c"]}, {"c": ["a"]})


@pytest.mark.parametrize("students, schools", [
    (["a#1"], ["c"]),
    (["a"], ["c:1"]),
    (["a 1"], ["c"]),
    (["a"], ["c\u2028d"]),
    ([""], ["c"]),
    (["a"], ["b[2]"]),
    (["a]"], ["c"]),
    (["students"], ["c"]),
    (["a"], ["schools"]),
    (["a"], ["students"]),
    ([1], ["c"]),
    (["-"], ["c"]),
    (["a"], ["-"]),
])
def test_rejects_identifiers_the_format_cannot_write(students, schools):
    with pytest.raises(InvalidInstanceError, match="is not valid"):
        Instance(students, schools, {}, {}, {})


def test_a_school_named_dash_is_refused():
    # `Assignment.format` writes '-' for an unmatched student, so a school
    # named '-' would make a matched student read as unmatched
    text = "instance v1\nstudents: a1 a2\nschools: -\na1: -\n-: a1\n"
    for parse in (parse_instance, parse_instance_reference):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == (
            "school identifier '-' is not valid; identifiers are non-empty, contain no "
            "whitespace and none of '#:[]', and are not 'students', 'schools' or '-'")


def test_names_the_first_bad_identifier_deep_in_a_large_market():
    # student 140 of 150 and school 13 of 15 of a 900-edge market are bad;
    # the student comes first in roster order
    inst = generate(GenConfig(150, 15, quota_model="nyc", list_length=6, seed=12))
    assert inst.n_edges >= model._SORT_JOIN_MIN_EDGES
    rename = {inst.students[140]: "a]140", inst.schools[13]: "b]13"}

    def name(x: str) -> str:
        return rename.get(x, x)

    args = ([*map(name, inst.students)], [*map(name, inst.schools)],
            {name(b): q for b, q in inst.quota.items()},
            {name(a): [*map(name, row)] for a, row in inst.student_prefs.items()},
            {name(b): [*map(name, row)] for b, row in inst.school_prefs.items()})
    message = ("student identifier 'a]140' is not valid; identifiers are non-empty, "
               "contain no whitespace and none of '#:[]', and are not 'students', "
               "'schools' or '-'")
    with pytest.raises(InvalidInstanceError) as err:
        Instance(*args)
    assert str(err.value) == message
    text = _text("students: " + " ".join(args[0]) + "\nschools: " + " ".join(args[1]),
                 args[3], args[4])
    for parse in (parse_instance, parse_instance_reference):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message


# Students a, e and schools c, d; each case has exactly one fault, except
# the last, where the row's first fault (the repeat) is the one reported.
@pytest.mark.parametrize("s_prefs, b_prefs, message", [
    ({"a": ["c", "x"]}, {"c": ["a"]}, "student 'a' ranks unknown school 'x'"),
    ({"a": ["c"]}, {"c": ["a", "x"]}, "school 'c' ranks unknown student 'x'"),
    ({"a": ["c", "c"]}, {"c": ["a"]}, "student 'a' ranks school 'c' twice"),
    ({"a": ["c"]}, {"c": ["a", "a"]}, "school 'c' ranks student 'a' twice"),
    ({"a": ["c", "d"], "e": ["d"]}, {"c": ["a"], "d": ["e"]},
     "asymmetric adjacency: 'a' ranks 'd' but not vice versa"),
    ({"a": ["c"]}, {"c": ["a"], "d": ["e", "a"]},
     "asymmetric adjacency: 'd' ranks 'e' but not vice versa"),
    ({"a": ["c", "c", "x"]}, {"c": ["a"]}, "student 'a' ranks school 'c' twice"),
    # the school row comes first in the file, but student rows are searched first
    ({"a": ["c", "c"]}, {"c": ["a", "x"]}, "student 'a' ranks school 'c' twice"),
    # a repeat on both sides of one edge keeps the two edge counts equal
    ({"a": ["c", "c"]}, {"c": ["a", "a"]}, "student 'a' ranks school 'c' twice"),
    ({"a": ["c"], "e": ["d"]}, {"c": ["a"], "d": ["e", "e"]},
     "school 'd' ranks student 'e' twice"),
    ({"a": ["x", "c", "c"]}, {"c": ["a"]}, "student 'a' ranks unknown school 'x'"),
    ({"a": ["c", "x", "c"]}, {"c": ["a"]}, "student 'a' ranks unknown school 'x'"),
    ({"a": ["c"]}, {"c": ["a", "a", "x"]}, "school 'c' ranks student 'a' twice"),
    ({"a": ["c"]}, {"c": ["x", "a", "a"]}, "school 'c' ranks unknown student 'x'"),
    # a resolved row's repeat comes before a later row's unknown name
    ({"a": ["c"], "e": ["d", "d"]}, {"c": ["x"], "d": ["e"]},
     "student 'e' ranks school 'd' twice"),
])
def test_validation_messages(s_prefs, b_prefs, message):
    args = (["a", "e"], ["c", "d"], {}, s_prefs, b_prefs)
    text = _text("students: a e\nschools: c d", s_prefs, b_prefs)
    for cutoff in (SORT, DICT):
        with pytest.raises(InvalidInstanceError) as err:
            _build(args, cutoff)
        assert str(err.value) == message
        with pytest.raises(ParseError) as err:
            _parse(text, cutoff)
        assert str(err.value) == message
        _assert_rows_raise(args, cutoff, message)


def _text(rosters: str, s_prefs, b_prefs) -> str:
    """Instance text of unchecked name lists, school lines first, so that
    the file order of the rows is not the order they are searched in."""
    lines = ["instance v1", rosters]
    lines += [f"{b}: " + " ".join(row) for b, row in b_prefs.items()]
    lines += [f"{a}: " + " ".join(row) for a, row in s_prefs.items()]
    return "\n".join(lines) + "\n"


# Roster faults come before any row fault; a fault the line scan finds
# comes before both.
@pytest.mark.parametrize("rosters, s_prefs, b_prefs, message", [
    ("students: a a\nschools: c d", {"a": ["c", "x"]}, {"c": ["a"]},
     "duplicate student identifier"),
    ("students: a e\nschools: c d c", {"a": ["c", "c"]}, {"c": ["a"]},
     "duplicate school identifier"),
    ("students: a c\nschools: c d", {"a": ["d", "d"], "c": ["x"]}, {"d": ["a"]},
     "identifier on both sides: 'c'"),
    ("students: a e]\nschools: c d[2]", {"a": ["c", "x"]}, {"c": ["a", "a"]},
     "student identifier 'e]' is not valid; identifiers are non-empty, contain no "
     "whitespace and none of '#:[]', and are not 'students', 'schools' or '-'"),
    ("students: a a\nschools: c d", {"a": ["c"]}, {"z": ["a"]},
     "line 4: unknown identifier 'z'"),
], ids=["duplicate-student", "duplicate-school", "overlap", "invalid", "unknown-owner"])
def test_roster_faults_come_first(rosters, s_prefs, b_prefs, message):
    text = _text(rosters, s_prefs, b_prefs)
    for parse in (parse_instance, parse_instance_reference):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message


# Faults the constructor finds before any row fault, and unknown names that
# the file format cannot write.
@pytest.mark.parametrize("quota, s_prefs, b_prefs, message", [
    ({}, {"z": ["c"]}, {}, "preference list for unknown student 'z'"),
    ({}, {}, {"z": ["a"]}, "preference list for unknown school 'z'"),
    ({"z": 2}, {}, {}, "quota given for unknown school 'z'"),
    ({"z": 2}, {"y": ["c"]}, {}, "quota given for unknown school 'z'"),
    ({}, {"y": ["c"]}, {"z": ["a"]}, "preference list for unknown student 'y'"),
    ({}, {"a": ["x"]}, {"z": ["a"]}, "preference list for unknown school 'z'"),
    ({}, {"a": [0]}, {}, "student 'a' ranks unknown school 0"),
    ({}, {"a": ["c"]}, {"c": [0]}, "school 'c' ranks unknown student 0"),
    # a string is not read one character per name, and an unhashable name
    # is an unknown one
    ({}, {"a": "cd"}, {"c": ["a"], "d": ["a"]},
     "preference list of student 'a' is a string, 'cd', not a sequence of names"),
    ({}, {"a": ["c"]}, {"c": "a"},
     "preference list of school 'c' is a string, 'a', not a sequence of names"),
    ({}, {"a": [["c"]]}, {}, "student 'a' ranks unknown school ['c']"),
    ({}, {"a": ["c"]}, {"c": [["a"]]}, "school 'c' ranks unknown student ['a']"),
])
def test_constructor_fault_messages(quota, s_prefs, b_prefs, message):
    with pytest.raises(InvalidInstanceError) as err:
        Instance(["a", "e"], ["c", "d"], quota, s_prefs, b_prefs)
    assert str(err.value) == message


def test_text_round_trip(ex1, ex2, ex3):
    for inst in (ex1, ex2, ex3):
        assert parse_instance(inst.to_text()) == inst


def test_blocking_pair_table(ex1):
    # the five maximal matchings and their blocking pairs
    assert list(blocking_pairs(ex1, M1)) == []
    assert is_stable(ex1, M1)
    assert set(blocking_pairs(ex1, M2)) == {("3", "A")}
    assert is_blocking_pair(ex1, M2, "3", "A")
    assert set(blocking_pairs(ex1, M3)) == {("2", "A")}
    assert set(blocking_pairs(ex1, M4)) == {("1", "B")}
    assert set(blocking_pairs(ex1, M5)) == {("1", "B"), ("2", "B"), ("3", "C")}


def test_blocks_relation(ex1):
    assert blocks(ex1, M1, M3)          # edge 2A blocks M3
    assert not blocks(ex1, M1, M2)
    assert not blocks(ex1, M2, M1)


def test_blocking_pair_respects_quota(ex2):
    # b1 holds (a3, a4): full seat set, so only students it prefers block
    m = Assignment({"a1": "b2", "a2": "b2", "a3": "b1", "a4": "b1"})
    assert not is_blocking_pair(ex2, m, "a1", "b1")
    assert is_blocking_pair(ex2, m, "a2", "b2") is False  # a2 already at b2
    under = Assignment({"a1": None, "a2": "b2", "a3": "b1", "a4": "b1"})
    assert is_blocking_pair(ex2, under, "a1", "b2")  # b2 has a free seat


def test_dominates(ex3):
    student_opt = Assignment({"a1": "b2", "a2": "b2", "a3": "b3",
                              "a4": "b1", "a5": "b3", "a6": "b1"})
    m0 = Assignment({"a1": "b2", "a2": "b2", "a3": "b1",
                     "a4": "b1", "a5": "b3", "a6": "b3"})
    assert dominates(ex3, student_opt, m0)
    assert not dominates(ex3, m0, student_opt)
    assert dominates(ex3, m0, m0)


def test_assignment_format(ex1):
    assert M3.format(ex1) == "1 B\n2 -\n3 A\n"


def test_reduction_expands_seats(ex2):
    red = reduce_one_to_one(ex2)
    inst = red.instance
    assert inst.schools == ("b1^1", "b1^2", "b2^1", "b2^2")
    assert inst.student_prefs["a1"] == ("b1^1", "b1^2", "b2^1", "b2^2")
    assert inst.student_prefs["a2"] == ("b2^1", "b2^2", "b1^1", "b1^2")
    assert inst.school_prefs["b1^1"] == ("a3", "a4", "a2", "a1")
    assert inst.school_prefs["b2^2"] == ("a2", "a4", "a3", "a1")
    assert all(inst.quota_of(b) == 1 for b in inst.schools)


def test_reduction_pi_round_trip(ex2):
    red = reduce_one_to_one(ex2)
    m = Assignment({"a1": "b1", "a2": "b2", "a3": "b2", "a4": "b1"})
    seat = pi(red, m)
    # the i-th best admitted student takes seat i
    assert seat == Assignment({"a1": "b1^2", "a2": "b2^1", "a3": "b2^2", "a4": "b1^1"})
    assert pi_inverse(red, seat) == m


def test_reduction_preserves_stability(ex2):
    red = reduce_one_to_one(ex2)
    m = Assignment({"a1": "b1", "a2": "b2", "a3": "b2", "a4": "b1"})
    assert is_stable(ex2, m)
    assert is_stable(red.instance, pi(red, m))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_round_trip_random(seed):
    inst = random_market(random.Random(seed))
    assert parse_instance(inst.to_text()) == inst


def _writable(x: str) -> bool:
    return (x != "" and x not in ("students", "schools", "-")
            and not any(c.isspace() or c in "#:[]" for c in x))


@st.composite
def valid_instances(draw) -> Instance:
    ids = draw(st.lists(st.text(min_size=1, max_size=5).filter(_writable),
                        max_size=10, unique=True))
    k = draw(st.integers(0, len(ids)))
    students, schools = ids[:k], ids[k:]
    quota = {b: draw(st.integers(1, 10 ** 6)) for b in schools if draw(st.booleans())}
    edges = [(a, b) for a in students for b in schools if draw(st.booleans())]
    s_prefs = {a: draw(st.permutations([b for x, b in edges if x == a])) for a in students}
    b_prefs = {b: draw(st.permutations([a for a, y in edges if y == b])) for b in schools}
    return Instance(students, schools, quota, s_prefs, b_prefs)


@given(valid_instances())
@settings(max_examples=200, deadline=None)
def test_round_trip_any_valid_instance(inst):
    assert parse_instance(inst.to_text()) == inst


@given(st.text(max_size=4))
@settings(max_examples=300, deadline=None)
def test_constructor_accepts_exactly_writable_ids(name):
    try:
        inst = Instance([name], [], {}, {}, {})
    except InvalidInstanceError:
        assert not _writable(name)
    else:
        assert _writable(name)
        assert parse_instance(inst.to_text()) == inst


def _top1_text(n: int, n_schools: int = 20) -> str:
    """n students, each listing one school; school j lists students j, j + 20, ..."""
    lines = ["instance v1",
             "students: " + " ".join(f"a{i}" for i in range(n)),
             "schools: " + " ".join(f"b{j}" for j in range(n_schools))]
    lines += [f"a{i}: b{i % n_schools}" for i in range(n)]
    lines += [f"b{j}: " + " ".join(f"a{i}" for i in range(j, n, n_schools))
              for j in range(n_schools)]
    return "\n".join(lines) + "\n"


def test_parse_scales_linearly():
    sizes = (2000, 4000, 8000, 16000)
    texts = [_top1_text(n) for n in sizes]
    times = [math.inf] * len(sizes)
    for _ in range(3):  # interleaved, so a slow spell of the machine hits every size
        for k, text in enumerate(texts):
            t0 = time.perf_counter()
            parse_instance(text)
            times[k] = min(times[k], time.perf_counter() - t0)
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    assert slope < 1.4, f"parse_instance times {times} give log-log slope {slope:.2f}"


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_stability_iff_no_blocking_pair(seed):
    rng = random.Random(seed)
    inst = random_market(rng)
    # greedily build some assignment, not necessarily stable
    match: dict[str, str | None] = {}
    load: dict[str, int] = {b: 0 for b in inst.schools}
    for a in inst.students:
        opts = [b for b in inst.student_prefs[a] if load[b] < inst.quota_of(b)]
        pick = rng.choice(opts + [None]) if opts else None
        match[a] = pick
        if pick is not None:
            load[pick] += 1
    m = Assignment(match)
    assert is_stable(inst, m) == (next(blocking_pairs(inst, m), None) is None)


def _some_assignment(rng: random.Random, inst: Instance) -> Assignment:
    """Each student takes a random school with a free seat, or none."""
    match: dict[str, str | None] = {}
    load = dict.fromkeys(inst.schools, 0)
    for a in inst.students:
        opts = [b for b in inst.student_prefs[a] if load[b] < inst.quota_of(b)]
        match[a] = pick = rng.choice(opts + [None])
        if pick is not None:
            load[pick] += 1
    return Assignment(match)


def _blocking_pairs_per_edge(inst: Instance, m: Assignment) -> list[tuple[str, str]]:
    return [(a, b) for a, b in inst.edges() if is_blocking_pair(inst, m, a, b)]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_blocking_pairs_match_the_per_edge_check(seed):
    rng = random.Random(seed)
    inst = random_market(rng)
    m = _some_assignment(rng, inst)
    assert list(blocking_pairs(inst, m)) == _blocking_pairs_per_edge(inst, m)


def test_blocking_pairs_with_quotas_near_100():
    rng = random.Random(5)
    inst = generate(GenConfig(600, 4, quota_lo=90, quota_hi=110, list_length=3, seed=5))
    assert all(90 <= inst.quota_of(b) <= 110 for b in inst.schools)
    stable = gs_student(inst).assignment
    assert is_stable(inst, stable)
    assert list(blocking_pairs(inst, stable)) == []
    # serial dictatorship in a random order fills every school, so the
    # worst-member comparison decides most edges
    order = list(inst.students)
    rng.shuffle(order)
    load = dict.fromkeys(inst.schools, 0)
    match: dict[str, str | None] = dict.fromkeys(inst.students)
    for a in order:
        pick = next((b for b in inst.student_prefs[a] if load[b] < inst.quota_of(b)), None)
        if pick is not None:
            match[a] = pick
            load[pick] += 1
    assert all(load[b] == inst.quota_of(b) for b in inst.schools)
    for m in (Assignment(match), _some_assignment(rng, inst)):
        expected = _blocking_pairs_per_edge(inst, m)
        assert expected
        assert list(blocking_pairs(inst, m)) == expected
        assert not is_stable(inst, m)


def test_blocking_pairs_reject_a_school_off_an_empty_list():
    inst = Instance(["a1", "a2"], ["b1"], {}, {"a1": ["b1"]}, {"b1": ["a1"]})
    with pytest.raises(ValueError, match=r"\('a2', 'b1'\) is not an edge"):
        is_stable(inst, Assignment({"a1": "b1", "a2": "b1"}))
    # a student with an empty list may be unmatched or left out
    assert is_stable(inst, Assignment({"a1": "b1", "a2": None}))
    assert is_stable(inst, Assignment({"a1": "b1"}))
    assert list(blocking_pairs(inst, Assignment({"a1": None}))) == [("a1", "b1")]


def test_blocking_pairs_reject_an_assignment_that_leaves_out_a_student():
    inst = Instance(["a1", "a2"], ["b1"], {}, {"a1": ["b1"]}, {"b1": ["a1"]})
    message = "the assignment leaves out student 'a1', whose list is not empty"
    with pytest.raises(ValueError) as err:
        is_stable(inst, Assignment({"a2": None}))
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        list(blocking_pairs(inst, Assignment({})))
    assert str(err.value) == message


def test_dominates_rejects_an_assignment_that_leaves_out_a_student(ex1):
    without_3 = Assignment({"1": "A", "2": "B"})
    for m1, m2 in ((M2, without_3), (without_3, M2)):
        with pytest.raises(ValueError) as err:
            dominates(ex1, m1, m2)
        assert str(err.value) == "the assignment leaves out student '3', whose list is not empty"


def test_dominates_may_leave_out_a_student_with_no_list():
    inst = Instance(["a1", "a2"], ["b1"], {}, {"a1": ["b1"]}, {"b1": ["a1"]})
    matched, unmatched = Assignment({"a1": "b1"}), Assignment({"a1": None, "a2": None})
    assert dominates(inst, matched, unmatched) and not dominates(inst, unmatched, matched)


# -- the two cross-rank joins -------------------------------------------------

SORT, DICT = 0, math.inf  # cutoffs that force the sort join and the dict join

# Above the default cutoff: complete lists with quotas, and top-5 lists.
LARGE = {"complete": GenConfig(40, 40, quota_lo=1, quota_hi=3, seed=3),
         "top-5": GenConfig(200, 20, quota_model="nyc", list_length=5, seed=4)}


def _args(inst: Instance) -> tuple:
    """Constructor arguments that rebuild ``inst``."""
    return (inst.students, inst.schools, dict(inst.quota),
            {a: list(row) for a, row in inst.student_prefs.items()},
            {b: list(row) for b, row in inst.school_prefs.items()})


def _tables(inst: Instance) -> tuple:
    return inst._s_pref, inst._b_pref, inst._s_srank, inst._b_rrank


def _build(args: tuple, cutoff: float, make=Instance) -> Instance:
    with mock.patch.object(model, "_SORT_JOIN_MIN_EDGES", cutoff):
        return make(*args)


def _assert_rows_raise(args: tuple, cutoff: float, message: str) -> None:
    """The index-row builder raises ``message`` on the index rows of the
    constructor arguments ``args``, unless a list names an unknown agent,
    which index rows cannot express."""
    students, schools, quota, s_prefs, b_prefs = args
    s_index = {a: i for i, a in enumerate(students)}
    b_index = {b: j for j, b in enumerate(schools)}
    try:
        s_pref = [[b_index[b] for b in s_prefs.get(a, ())] for a in students]
        b_pref = [[s_index[a] for a in b_prefs.get(b, ())] for b in schools]
    except KeyError:
        return
    with pytest.raises(InvalidInstanceError) as err:
        _build((students, schools, quota, s_pref, b_pref), cutoff, Instance._from_rows)
    assert str(err.value) == message


def _parse(text: str, cutoff: float) -> Instance:
    with mock.patch.object(model, "_SORT_JOIN_MIN_EDGES", cutoff):
        return parse_instance(text)


def _spy(seen: list):
    """Patch the sort join to record what each call returns in ``seen``."""
    join = model._sort_join

    def record(*args):
        seen.append(join(*args))
        return seen[-1]
    return mock.patch.object(model, "_sort_join", record)


def _assert_cross_ranks(inst: Instance) -> None:
    """Each cell's cross rank points at the same edge on the other side."""
    for i, (row, cranks) in enumerate(zip(inst._s_pref, inst._s_srank)):
        for r, (j, c) in enumerate(zip(row, cranks)):
            assert inst._b_pref[j][c] == i and inst._b_rrank[j][c] == r


@given(valid_instances())
@settings(max_examples=150, deadline=None)
def test_both_joins_give_the_same_instance(inst):
    args = _args(inst)
    by_sort, by_dict = _build(args, SORT), _build(args, DICT)
    assert by_sort == by_dict == inst
    assert _tables(by_sort) == _tables(by_dict) == _tables(inst)
    _assert_cross_ranks(by_sort)
    assert (model._sort_join(inst._s_pref, inst._b_pref, inst.n_schools, inst.n_edges)
            == model._dict_join(inst._s_pref, inst._b_pref))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_both_joins_agree_on_random_markets(seed):
    inst = random_market(random.Random(seed), max_students=12, max_schools=5, max_quota=4)
    by_sort = _build(_args(inst), SORT)
    assert by_sort == inst and _tables(by_sort) == _tables(inst)


@pytest.mark.parametrize("args", [
    ([], [], {}, {}, {}),
    ([], ["c", "d"], {"d": 3}, {}, {}),
    (["a", "e"], [], {}, {"a": []}, {}),
    (["a", "e"], ["c"], {}, {"a": [], "e": []}, {"c": []}),
], ids=["empty", "no-students", "no-schools", "no-edges"])
def test_both_joins_accept_markets_without_edges(args):
    by_sort, by_dict = _build(args, SORT), _build(args, DICT)
    assert by_sort == by_dict and _tables(by_sort) == _tables(by_dict)
    assert by_sort.n_edges == 0


@pytest.mark.parametrize("name", LARGE)
def test_sort_join_above_the_cutoff(name):
    gen = generate(LARGE[name])  # built from index rows
    assert gen.n_edges >= model._SORT_JOIN_MIN_EDGES
    seen = []
    with _spy(seen):
        inst = Instance(*_args(gen))
    assert len(seen) == 1
    assert inst == gen and _tables(inst) == _tables(gen)
    assert _tables(_build(_args(gen), DICT)) == _tables(inst)
    _assert_cross_ranks(inst)
    assert parse_instance(inst.to_text()) == inst


def test_sort_join_widens_keys_past_int32():
    inst = generate(LARGE["top-5"])
    # with 2**31 schools, student * n_schools + school overflows int32
    assert (model._sort_join(inst._s_pref, inst._b_pref, 2 ** 31, inst.n_edges)
            == model._dict_join(inst._s_pref, inst._b_pref))


def _fault_cases():
    """Faults of the top-5 market, one per function.

    Each function edits the name lists in place and returns the message the
    constructor must raise.  Students a7 < a150 and schools b4 < b15 in
    roster order.
    """
    inst = generate(LARGE["top-5"])
    S, B = inst.students, inst.schools

    def not_on(row, pool):
        return next(x for x in pool if x not in row)

    def unknown_school(sp, bp):
        sp["a7"].insert(2, "zz")
        return "student 'a7' ranks unknown school 'zz'"

    def unknown_student(sp, bp):
        bp["b4"].insert(1, "zz")
        return "school 'b4' ranks unknown student 'zz'"

    def repeated_school(sp, bp):
        sp["a7"].append(sp["a7"][1])
        return f"student 'a7' ranks school {sp['a7'][1]!r} twice"

    def repeated_student(sp, bp):
        bp["b4"].append(bp["b4"][0])
        return f"school 'b4' ranks student {bp['b4'][0]!r} twice"

    def student_extra(sp, bp):  # a student cell without its school cell
        b = not_on(sp["a7"], B)
        sp["a7"].insert(1, b)
        return f"asymmetric adjacency: 'a7' ranks {b!r} but not vice versa"

    def school_extra(sp, bp):  # a school cell without its student cell
        a = not_on(bp["b4"], S)
        bp["b4"].insert(3, a)
        return f"asymmetric adjacency: 'b4' ranks {a!r} but not vice versa"

    def student_swap(sp, bp):  # equal counts: a7 swaps a school for one that
        new = sp["a7"][2] = not_on(sp["a7"], B)  # does not list it
        return f"asymmetric adjacency: 'a7' ranks {new!r} but not vice versa"

    def school_swap(sp, bp):  # equal counts: the dropped student's own cell
        old = bp["b4"][3]      # is the first fault, as student rows come first
        bp["b4"][3] = not_on(bp["b4"], S)
        return f"asymmetric adjacency: {old!r} ranks 'b4' but not vice versa"

    def student_order(sp, bp):  # faults in a150, then a7, then b4
        bp["b4"].insert(0, not_on(bp["b4"], S))
        b150 = not_on(sp["a150"], B)
        sp["a150"].append(b150)
        b7 = not_on(sp["a7"], B)
        sp["a7"].append(b7)
        return f"asymmetric adjacency: 'a7' ranks {b7!r} but not vice versa"

    def school_order(sp, bp):  # b15 then b4 rank extra students
        a15 = not_on(bp["b15"], S)
        bp["b15"].insert(0, a15)
        a4 = not_on(bp["b4"], S)
        bp["b4"].append(a4)
        return f"asymmetric adjacency: 'b4' ranks {a4!r} but not vice versa"

    def row_order(sp, bp):  # student rows are checked before school rows
        bp["b4"].append(bp["b4"][0])
        sp["a150"].append("zz")
        return "student 'a150' ranks unknown school 'zz'"

    return [unknown_school, unknown_student, repeated_school, repeated_student,
            student_extra, school_extra, student_swap, school_swap,
            student_order, school_order, row_order]


@pytest.mark.parametrize("fault", _fault_cases(), ids=lambda f: f.__name__)
def test_validation_messages_above_the_cutoff(fault):
    students, schools, quota, sp, bp = _args(generate(LARGE["top-5"]))
    assert sum(map(len, sp.values())) >= model._SORT_JOIN_MIN_EDGES
    message = fault(sp, bp)
    text = _text("students: " + " ".join(students) + "\nschools: "
                 + " ".join(f"{b}[{quota.get(b, 1)}]" for b in schools), sp, bp)
    for cutoff in (model._SORT_JOIN_MIN_EDGES, DICT):
        with pytest.raises(InvalidInstanceError) as err:
            _build((students, schools, quota, sp, bp), cutoff)
        assert str(err.value) == message
        with pytest.raises(ParseError) as err:
            _parse(text, cutoff)
        assert str(err.value) == message
        _assert_rows_raise((students, schools, quota, sp, bp), cutoff, message)


def test_equal_edge_counts_reach_the_sort_join():
    students, schools, quota, sp, bp = _args(generate(LARGE["top-5"]))
    sp["a7"][2] = next(b for b in schools if b not in sp["a7"])
    seen = []
    with _spy(seen), pytest.raises(InvalidInstanceError, match="asymmetric adjacency: 'a7'"):
        Instance(students, schools, quota, sp, bp)
    assert seen == [None]


@pytest.mark.parametrize("name", LARGE)
def test_school_ranks_are_built_on_first_use(name):
    inst = parse_instance(generate(LARGE[name]).to_text())
    assert inst.n_edges >= model._SORT_JOIN_MIN_EDGES
    assert "_b_rank" not in inst.__dict__
    b4 = inst.schools[4]
    assert inst.school_rank(b4, inst.school_prefs[b4][2]) == 2
    assert "_b_rank" in inst.__dict__
    assert all(inst.school_rank(b, a) == r
               for b, row in inst.school_prefs.items() for r, a in enumerate(row))


# The three benchmark workloads' market shapes.
@pytest.mark.parametrize("cfg", [
    GenConfig(300, 300, quota_lo=1, quota_hi=1, seed=0),
    GenConfig(2000, 20, quota_model="nyc", list_length=10, seed=1),
    GenConfig(7, 3, quota_lo=1, quota_hi=2, seed=2),
], ids=["square-complete", "tall-top10", "small-differential"])
def test_built_tables_equal_the_parsed_ones(cfg):
    inst = generate(cfg)
    for built in (inst, legal_subinstance(inst).instance):
        parsed = parse_instance(built.to_text())
        assert parsed == built
        assert _tables(parsed) == _tables(built) and parsed._quota == built._quota


_TABLES = {"_s_pref", "_b_pref", "_s_srank", "_b_rrank", "_quota", "_n_edges"}


def _builds_tables(node: ast.AST) -> bool:
    """An assignment to an instance table, or a call of some ``__new__``."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(t, ast.Attribute) and t.attr in _TABLES
                   for target in targets for t in ast.walk(target))
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Attribute):
        return node.func.attr == "__new__"
    return (isinstance(node.func, ast.Name) and node.func.id == "setattr"
            and any(isinstance(a, ast.Constant) and a.value in _TABLES for a in node.args))


@pytest.mark.parametrize("path", sorted(
    p for p in Path(model.__file__).parent.glob("*.py") if p.name != "model.py"),
    ids=lambda p: p.stem)
def test_only_the_model_builds_instance_tables(path):
    # the cross-rank layout stays behind model.py: other modules hand it rows
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if _builds_tables(node)]


def test_reduction_refuses_a_seat_name_that_is_a_student():
    inst = Instance(["b^1", "a"], ["b"], {"b": 1}, {"b^1": ["b"], "a": []}, {"b": ["b^1"]})
    with pytest.raises(InvalidInstanceError) as err:
        reduce_one_to_one(inst)
    assert str(err.value) == "seat name 'b^1' collides with a student id"


@pytest.mark.parametrize("method, x, y, message", [
    ("student_rank", "9", "A", "unknown student '9'"),
    ("student_rank", "1", "Z", "unknown school 'Z'"),
    ("student_rank", "2", "C", "('2', 'C') is not an edge"),
    ("school_rank", "Z", "1", "unknown school 'Z'"),
    ("school_rank", "C", "9", "unknown student '9'"),
    ("school_rank", "C", "2", "('2', 'C') is not an edge"),
])
def test_rank_refusals(ex1, method, x, y, message):
    with pytest.raises(ValueError) as err:
        getattr(ex1, method)(x, y)
    assert str(err.value) == message
