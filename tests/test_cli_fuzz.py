"""Malformed instance, consent and matrix files through ``cli.main``.

Each mutation below turns a valid file into an invalid one, so every run
must fail as a domain error: exit code 1, nothing on stdout, and exactly one
``error:`` line on stderr (an uncaught exception fails the test).

A mutation draws its choices through ``pick(seq)`` and ``between(lo, hi)``,
which hypothesis or a seeded ``random.Random`` supplies.
"""

import contextlib
import io
import math
import random
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pytest

from legalassign import GenConfig, Instance, ParseError, generate, model, parse_instance
from legalassign.cli import main

from _markets import random_market
from _references import parse_instance_reference

TOKEN_MUTATIONS = ("drop_line", "dup_line", "drop_token", "dup_token", "stray",
                   "bad_quota", "asymmetric", "swap", "late_roster", "spaced_head",
                   "no_colon")
# these keep a text's meaning, so they restyle a text that a token-level
# mutation has made invalid
RESTYLES = ("comment_after", "comment_line", "blank_line", "colon_spacing")
INSTANCE_MUTATIONS = TOKEN_MUTATIONS + RESTYLES
BAD_QUOTAS = ("0", "-1", "", "x", "1.5", "0x2", "2]", "[2")
MATRIX_MUTATIONS = ("empty", "drop_line", "dup_line", "drop_token", "dup_token",
                    "bad_token", "out_of_range", "repeat", "swap")
BAD_TOKENS = ("x", "1.5", "0x2", "#", "-", "2]")


def _hypothesis_draws(data):
    return (lambda seq: data.draw(st.sampled_from(list(seq))),
            lambda lo, hi: data.draw(st.integers(lo, hi)))


def _seeded_draws(rng: random.Random):
    return (lambda seq: rng.choice(list(seq))), rng.randint


def _mutated_instance(inst: Instance, kind: str, pick, between) -> str:
    """The instance text with one mutation of the given kind.

    A token-level kind edits the lines as ``Instance.to_text`` writes them:
    line 0 is the header, lines 1 and 2 the rosters, and every later line a
    non-empty preference list.  A restyle applies to the text of a drawn
    token-level kind.
    """
    if kind in RESTYLES:
        return _restyled(_mutated_instance(inst, pick(TOKEN_MUTATIONS), pick, between),
                         kind, pick, between)
    lines = [line.split() for line in inst.to_text().splitlines()]
    prefs = range(3, len(lines))
    if kind == "drop_line":
        del lines[pick(range(len(lines)))]
    elif kind == "dup_line":
        k = pick(range(len(lines)))
        lines.insert(between(k + 1, len(lines)), list(lines[k]))
    elif kind == "drop_token":
        # any token of a preference line, or the roster entry of an agent
        # that has one (dropping an isolated agent would leave a valid file)
        listed = {toks[0][:-1] for toks in lines[3:]}
        spots = [(k, t) for k in prefs for t in range(len(lines[k]))]
        spots += [(k, t) for k in (1, 2) for t in range(len(lines[k]))
                  if t == 0 or lines[k][t].partition("[")[0] in listed]
        k, t = pick(spots)
        del lines[k][t]
    elif kind == "dup_token":
        k = pick(range(len(lines)))
        t = pick(range(len(lines[k])))
        lines[k].insert(t, lines[k][t])
    elif kind == "stray":
        ch = pick("#:[]")
        if ch == "#":  # comments out at least one entry of a preference line
            k = pick(prefs)
            t = pick(range(1, len(lines[k])))
            lines[k][t] = "#" + lines[k][t]
        else:
            k, t = pick([(k, t) for k in (1, 2, *prefs) for t in range(1, len(lines[k]))])
            tok = lines[k][t]
            i = between(0, len(tok))
            lines[k][t] = tok[:i] + ch + tok[i:]
    elif kind == "bad_quota":
        t = pick(range(1, len(lines[2])))
        lines[2][t] = f"{lines[2][t].partition('[')[0]}[{pick(BAD_QUOTAS)}]"
    elif kind == "late_roster":  # a roster line again, after a preference line
        lines.insert(between(4, len(lines)), list(lines[pick((1, 2))]))
    elif kind == "spaced_head":  # `students : ...`, anywhere after the header
        k = pick((1, 2))
        lines.insert(between(1, len(lines)), [lines[k][0][:-1], ":", *lines[k][1:]])
    elif kind == "no_colon":  # the head without its colon, and any of its entries
        k = pick(prefs)
        lines[k] = [lines[k][0][:-1], *lines[k][1:between(1, len(lines[k]))]]
    else:  # a list names an agent that does not list its owner, appended
        k = pick(prefs)  # or (swap) in place of an entry, so that the edge
        owner, entries = lines[k][0][:-1], lines[k][1:]  # counts stay equal
        other = inst.schools if owner in inst.students else inst.students
        absent = [x for x in other if x not in entries]
        if not absent:  # a complete list: repeat an entry instead
            lines[k].append(entries[0])
        elif kind == "swap":
            lines[k][pick(range(1, len(lines[k])))] = pick(absent)
        else:
            lines[k].append(pick(absent))
    return "".join(" ".join(toks) + "\n" for toks in lines)


def _restyled(text: str, kind: str, pick, between) -> str:
    """``text`` with one change of style that keeps its meaning: a comment
    after a line or on a line of its own, a blank or whitespace-only line,
    or other spacing around the colon of a line whose head is not a roster
    word."""
    lines = text.splitlines()
    if kind == "comment_after":
        k = pick(range(len(lines)))
        lines[k] += pick((" # a: b c", "#", "\t#students: x"))
    elif kind == "comment_line":
        lines.insert(between(0, len(lines)), pick(("# a: b c", "  #", "#instance v1")))
    elif kind == "blank_line":
        lines.insert(between(0, len(lines)), pick(("", " ", "\t \u2003")))
    else:  # colon_spacing
        heads = [k for k, line in enumerate(lines)
                 if ":" in line and line.partition(":")[0].strip() not in model.SIDES]
        if heads:
            k = pick(heads)
            head, _, rest = lines[k].partition(":")
            lines[k] = head + pick((" : ", ":", " :\t")) + rest.lstrip()
    return "".join(line + "\n" for line in lines)


def _latin_rows(rng: random.Random, n: int) -> list[list[int]]:
    """A random Latin square: the cyclic one with rows, columns and ranks shuffled."""
    rows, cols, ranks = (rng.sample(range(n), n) for _ in range(3))
    return [[ranks[(rows[i] + cols[j]) % n] + 1 for j in range(n)] for i in range(n)]


def _mutated_matrix(rows: list[list[int]], kind: str, pick, between) -> str:
    """The matrix text of a Latin square of order >= 2, mutated to be invalid."""
    n = len(rows)
    lines = [[str(v) for v in row] for row in rows]
    k, t = pick(range(n)), pick(range(n))
    u = (t + between(1, n - 1)) % n  # another column of row k
    if kind == "empty":
        lines = []
    elif kind == "drop_line":
        del lines[k]
    elif kind == "dup_line":
        lines.insert(between(0, n), list(lines[k]))
    elif kind == "drop_token":
        del lines[k][t]
    elif kind == "dup_token":
        lines[k].insert(t, lines[k][t])
    elif kind == "bad_token":
        lines[k][t] = pick(BAD_TOKENS)
    elif kind == "out_of_range":
        lines[k][t] = pick(("0", "-1", str(n + 1)))
    elif kind == "repeat":  # row k holds one rank twice
        lines[k][t] = lines[k][u]
    else:  # swap: two ranks of row k trade places, so both columns repeat one
        lines[k][t], lines[k][u] = lines[k][u], lines[k][t]
    return "".join(" ".join(toks) + "\n" for toks in lines)


def _mutated_consent(inst: Instance, consenting: list[str], data) -> str:
    """A consent file that names one agent the instance has no student for."""
    kind = data.draw(st.sampled_from(("school", "stray", "unknown")))
    if kind == "school":
        bad = data.draw(st.sampled_from(inst.schools))
    elif kind == "stray":
        a = data.draw(st.sampled_from(inst.students))
        i = data.draw(st.integers(0, len(a)))
        bad = a[:i] + data.draw(st.sampled_from("#:[]")) + a[i:]
    else:
        bad = "zz" + data.draw(st.sampled_from(inst.students))
    tokens = list(consenting)
    tokens.insert(data.draw(st.integers(0, len(tokens))), bad)
    return " ".join(tokens) + "\n"


def _fails_cleanly(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert (code, out.getvalue()) == (1, ""), (argv, err.getvalue())
    assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


@given(st.integers(0, 10 ** 6), st.data())
@settings(max_examples=150, deadline=None)
def test_malformed_files_fail_with_one_error_line(tmp_path_factory, seed, data):
    rng = random.Random(seed)
    inst = random_market(rng)
    assume(inst.n_edges > 0)
    consenting = [a for a in inst.students if rng.random() < 0.5]
    work = tmp_path_factory.getbasetemp()
    good_inst, bad_inst = work / "good.inst", work / "bad.inst"
    good_consent, bad_consent = work / "good.txt", work / "bad.txt"
    pick, between = _hypothesis_draws(data)
    good_inst.write_text(inst.to_text(), encoding="utf-8")
    bad_inst.write_text(_mutated_instance(inst, pick(INSTANCE_MUTATIONS), pick, between),
                        encoding="utf-8")
    good_consent.write_text(" ".join(consenting) + "\n", encoding="utf-8")
    bad_consent.write_text(_mutated_consent(inst, consenting, data), encoding="utf-8")

    _fails_cleanly(["validate", "--input", str(bad_inst)])
    _fails_cleanly(["solve", "--mechanism", "gs", "--input", str(bad_inst)])
    _fails_cleanly(["solve", "--mechanism", "eadam-fast", "--input", str(bad_inst),
                    "--consent", str(good_consent)])
    _fails_cleanly(["solve", "--mechanism", "eadam-fast", "--input", str(good_inst),
                    "--consent", str(bad_consent)])
    for what in ("legal", "stable", "verify"):
        _fails_cleanly(["oracle", what, "--input", str(bad_inst), "--cap", "8"])


def _parsed(parse, text: str) -> tuple:
    """The instance ``parse`` gives with its cross-rank tables, or its error."""
    try:
        inst = parse(text)
    except ParseError as e:
        return ("error", str(e))
    return ("ok", inst, inst._s_srank, inst._b_rrank)


@given(st.integers(0, 10 ** 6), st.data(), st.sampled_from([0, math.inf]))
@settings(max_examples=100, deadline=None)
def test_parse_agrees_with_the_name_level_reference(seed, data, cutoff):
    inst = random_market(random.Random(seed))
    pick, between = _hypothesis_draws(data)
    texts = [inst.to_text()]
    if inst.n_edges > 0:
        texts += [_mutated_instance(inst, kind, pick, between) for kind in INSTANCE_MUTATIONS]
    with mock.patch.object(model, "_SORT_JOIN_MIN_EDGES", cutoff):
        for text in texts:
            assert _parsed(parse_instance, text) == _parsed(parse_instance_reference, text)


@given(st.integers(0, 10 ** 6), st.data())
@settings(max_examples=100, deadline=None)
def test_malformed_matrices_fail_with_one_error_line(tmp_path_factory, seed, data):
    rng = random.Random(seed)
    rows = _latin_rows(rng, rng.randint(2, 6))
    pick, between = _hypothesis_draws(data)
    bad = tmp_path_factory.getbasetemp() / "bad.matrix"
    bad.write_text(_mutated_matrix(rows, pick(MATRIX_MUTATIONS), pick, between),
                   encoding="utf-8")
    _fails_cleanly(["latin", "aux", "--input", str(bad)])
    _fails_cleanly(["latin", "count", "--input", str(bad), "--cap", "8"])


# Above the cutoff from which the constructor joins cross ranks by sorting.
LARGE_MARKETS = {"complete": GenConfig(40, 40, quota_lo=1, quota_hi=3, seed=11),
                 "top-6": GenConfig(150, 15, quota_model="nyc", list_length=6, seed=12)}


@pytest.mark.parametrize("name", LARGE_MARKETS)
def test_large_malformed_files_fail_with_one_error_line(tmp_path, name):
    cfg = LARGE_MARKETS[name]
    inst = generate(cfg)
    assert inst.n_edges >= model._SORT_JOIN_MIN_EDGES
    pick, between = _seeded_draws(random.Random(cfg.seed))
    for kind in INSTANCE_MUTATIONS:
        bad = tmp_path / f"{kind}.inst"
        text = _mutated_instance(inst, kind, pick, between)
        assert _parsed(parse_instance, text) == _parsed(parse_instance_reference, text)
        bad.write_text(text, encoding="utf-8")
        _fails_cleanly(["validate", "--input", str(bad)])
        _fails_cleanly(["solve", "--mechanism", "gs", "--input", str(bad)])
