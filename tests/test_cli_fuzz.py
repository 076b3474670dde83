"""Malformed instance and consent files through ``cli.main``.

Each mutation below turns a valid file into an invalid one, so every run
must fail as a domain error: exit code 1, nothing on stdout, and exactly one
``error:`` line on stderr (an uncaught exception fails the test).
"""

import contextlib
import io
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from legalassign import Instance
from legalassign.cli import main

from _markets import random_market

INSTANCE_MUTATIONS = ("drop_line", "dup_line", "drop_token", "dup_token",
                      "stray", "bad_quota", "asymmetric")
BAD_QUOTAS = ("0", "-1", "", "x", "1.5", "0x2", "2]", "[2")


def _mutated_instance(inst: Instance, data) -> str:
    """The instance text with one mutation that makes it invalid.

    Line 0 is the header, lines 1 and 2 the rosters, and every later line
    a non-empty preference list, as ``Instance.to_text`` writes them.
    """
    lines = [line.split() for line in inst.to_text().splitlines()]
    prefs = range(3, len(lines))
    pick = lambda seq: data.draw(st.sampled_from(list(seq)))
    kind = pick(INSTANCE_MUTATIONS)
    if kind == "drop_line":
        del lines[pick(range(len(lines)))]
    elif kind == "dup_line":
        k = pick(range(len(lines)))
        lines.insert(data.draw(st.integers(k + 1, len(lines))), list(lines[k]))
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
            i = data.draw(st.integers(0, len(tok)))
            lines[k][t] = tok[:i] + ch + tok[i:]
    elif kind == "bad_quota":
        t = pick(range(1, len(lines[2])))
        lines[2][t] = f"{lines[2][t].partition('[')[0]}[{pick(BAD_QUOTAS)}]"
    else:  # asymmetric: a list names an agent that does not list its owner
        k = pick(prefs)
        owner, entries = lines[k][0][:-1], lines[k][1:]
        other = inst.schools if owner in inst.students else inst.students
        absent = [x for x in other if x not in entries]
        lines[k].append(pick(absent) if absent else entries[0])
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
    good_inst.write_text(inst.to_text(), encoding="utf-8")
    bad_inst.write_text(_mutated_instance(inst, data), encoding="utf-8")
    good_consent.write_text(" ".join(consenting) + "\n", encoding="utf-8")
    bad_consent.write_text(_mutated_consent(inst, consenting, data), encoding="utf-8")

    _fails_cleanly(["validate", "--input", str(bad_inst)])
    _fails_cleanly(["solve", "--mechanism", "gs", "--input", str(bad_inst)])
    _fails_cleanly(["solve", "--mechanism", "eadam-fast", "--input", str(bad_inst),
                    "--consent", str(good_consent)])
    _fails_cleanly(["solve", "--mechanism", "eadam-fast", "--input", str(good_inst),
                    "--consent", str(bad_consent)])
