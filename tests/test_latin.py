from itertools import permutations

import pytest

from legalassign import (Assignment, InvalidInstanceError, auxiliary_instance,
                         enumerate_stable,
                         fixture_path, format_latin, instance_from_latin, is_stable,
                         latin_check, legal_fixed_point, parse_latin, xor_latin)

from _references import diagonal_matching, latin_stable, ranking_matrix

XOR4 = ((1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1))


def matrix_text():
    return fixture_path("ex9.matrix").read_text()


def test_latin_check():
    assert latin_check(XOR4)
    assert not latin_check(((1, 2), (1, 2)))  # repeated column value
    assert not latin_check(((1, 1), (2, 2)))  # repeated row value
    with pytest.raises(ValueError):
        latin_check(((1, 2, 3), (2, 3, 1)))   # not square


def test_parse_format_round_trip():
    sq = parse_latin(matrix_text())
    assert sq.q == XOR4
    assert format_latin(sq) == matrix_text()


def test_xor_construction():
    assert xor_latin(4).q == XOR4
    assert xor_latin(1).q == ((1,),)
    for bad in (0, 3, 6, 12):
        with pytest.raises(ValueError):
            xor_latin(bad)


def test_instance_round_trip(ex9):
    sq = parse_latin(matrix_text())
    built = instance_from_latin(sq)
    assert built.to_text() == ex9.to_text()
    assert ranking_matrix(built).q == XOR4


def test_ranking_matrix_rejects_non_latin(ex1):
    with pytest.raises(ValueError):
        ranking_matrix(ex1)


def test_diagonals():
    sq = parse_latin(matrix_text())
    assert diagonal_matching(sq, 1) == Assignment(
        {"a1": "b1", "a2": "b2", "a3": "b3", "a4": "b4"})
    assert diagonal_matching(sq, 4) == Assignment(
        {"a1": "b4", "a2": "b3", "a3": "b2", "a4": "b1"})
    with pytest.raises(ValueError):
        diagonal_matching(sq, 5)


def test_latin_stable_spot_check():
    # a1-b1, a2-b3, a3-b2, a4-b4 leaves the value 2 at (a2, b2) in between
    assert not latin_stable(XOR4, [0, 2, 1, 3])
    assert latin_stable(XOR4, [0, 1, 2, 3])


def test_latin_stable_agrees_with_instance_predicate(ex9):
    sq = parse_latin(matrix_text())
    n = sq.n
    hits = 0
    for perm in permutations(range(n)):
        m = Assignment({f"a{i + 1}": f"b{j + 1}" for i, j in enumerate(perm)})
        expect = is_stable(ex9, m)
        assert latin_stable(sq, list(perm)) == expect
        hits += expect
    assert hits == 10


def test_every_diagonal_is_stable(ex9):
    sq = parse_latin(matrix_text())
    stable = set(enumerate_stable(ex9))
    for rank in range(1, 5):
        assert diagonal_matching(sq, rank) in stable


def test_all_edges_legal(ex9):
    legal, _ = legal_fixed_point(ex9)
    assert frozenset().union(*(m.matched_pairs for m in legal)) == frozenset(ex9.edges())
    assert len(frozenset(ex9.edges())) == 16


def test_auxiliary_matches_worked_instance(ex4):
    sq = parse_latin(matrix_text())
    aux = auxiliary_instance(instance_from_latin(sq), student="a5", school="b5")
    assert aux.to_text() == ex4.to_text()


def test_auxiliary_legal_set_mirrors_stable_set(ex9):
    aux = auxiliary_instance(ex9)
    assert len(enumerate_stable(aux)) == 1
    legal, _ = legal_fixed_point(aux)
    assert len(legal) == 10
    originals = set(enumerate_stable(ex9))
    for m in legal:
        assert m.school_of("a~") == "b~"
        core = Assignment({a: m.school_of(a) for a in ex9.students})
        assert core in originals


@pytest.mark.parametrize("market, names, message", [
    ("ex2", {}, "auxiliary construction needs a one-to-one instance"),
    ("ex1", {}, "auxiliary construction needs complete lists"),
    ("ex9", {"student": "a1"}, "auxiliary agent names collide with the instance"),
    ("ex9", {"school": "b4"}, "auxiliary agent names collide with the instance"),
])
def test_auxiliary_refusals(request, market, names, message):
    with pytest.raises(InvalidInstanceError) as err:
        auxiliary_instance(request.getfixturevalue(market), **names)
    assert str(err.value) == message
