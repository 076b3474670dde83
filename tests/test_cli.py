import json
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legalassign import (Counters, Instance, LegalSubinstanceReport, fixture_path,
                         gs_student, legal_subinstance, parse_instance, sample_consent)
from legalassign.benchgen import CSV_COLUMNS
from legalassign.cli import main

from _markets import random_market

GOLDEN = Path(__file__).parent / "golden"


def fx(name):
    return str(fixture_path(name))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_gs(capsys, ex5):
    code, out, err = run(capsys, "solve", "--mechanism", "gs",
                         "--input", fx("ex5.inst"))
    assert code == 0
    assert out == "a1 b3\na2 b2\na3 b4\na4 b1\n"
    assert err == ""


@pytest.mark.parametrize("mechanism", ["eadam", "eadam-simplified", "eadam-fast"])
def test_solve_eadam_trio(capsys, mechanism):
    code, out, _ = run(capsys, "solve", "--mechanism", mechanism,
                       "--input", fx("ex5.inst"),
                       "--consent", fx("ex5-consent.txt"))
    assert code == 0
    assert out == "a1 b1\na2 b2\na3 b4\na4 b3\n"


def test_solve_full_consent_climbs_to_legal_optimum(capsys):
    code, out, _ = run(capsys, "solve", "--mechanism", "eadam-fast",
                       "--input", fx("ex4.inst"))
    assert code == 0
    assert out == "a1 b1\na2 b2\na3 b3\na4 b4\na5 b5\n"


def test_solve_consent_refusal(capsys):
    code, out, _ = run(capsys, "solve", "--mechanism", "eadam-fast",
                       "--input", fx("ex8.inst"),
                       "--consent", fx("ex8-consent.txt"))
    assert code == 0
    assert out == "a1 b4\na2 b3\na3 b2\na4 b1\na5 b5\n"


def test_solve_legal_extremes(capsys):
    code, hi, _ = run(capsys, "solve", "--mechanism", "legal-student-opt",
                      "--input", fx("ex3.inst"))
    assert code == 0
    assert hi == "a1 b2\na2 b2\na3 b3\na4 b1\na5 b3\na6 b1\n"
    code, lo, _ = run(capsys, "solve", "--mechanism", "legal-school-opt",
                      "--input", fx("ex3.inst"))
    assert code == 0
    assert lo == "a1 b1\na2 b2\na3 b2\na4 b1\na5 b3\na6 b3\n"


def test_solve_subgraph_report(capsys):
    code, out, err = run(capsys, "solve", "--mechanism", "legal-subgraph",
                         "--input", fx("ex1.inst"), "--counters")
    assert code == 0
    assert out == ("legal edges:\n1 A\n1 B\n2 A\n2 B\n3 C\n\n"
                   "illegal edges:\n1 C\n3 A\n\n"
                   "student-optimal:\n1 A\n2 B\n3 C\n\n"
                   "school-optimal:\n1 B\n2 A\n3 C\n")
    assert "proposals=6" in err
    assert "gs_reruns=0" in err


def test_solve_json(capsys):
    code, out, _ = run(capsys, "solve", "--mechanism", "gs",
                       "--input", fx("ex1.inst"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"mechanism": "gs",
                       "assignment": {"1": "B", "2": "A", "3": "C"}}


def test_solve_counters_block(capsys):
    _, _, err = run(capsys, "solve", "--mechanism", "gs",
                    "--input", fx("ex5.inst"), "--counters")
    lines = err.splitlines()
    assert lines[0] == "proposals=10"
    assert [l.split("=")[0] for l in lines] == [
        "proposals", "edge_scans", "rotations_eliminated",
        "edges_removed", "gs_reruns"]


#: proposals, edge_scans, rotations_eliminated, edges_removed, gs_reruns on ex5,
#: with ex5-consent.txt for the three EADAM forms
EX5_COUNTERS = {
    "gs": (10, 10, 0, 0, 0),
    "eadam": (16, 0, 0, 1, 1),
    "eadam-simplified": (21, 21, 0, 6, 2),
    "eadam-fast": (10, 19, 1, 6, 0),
    "legal-student-opt": (10, 22, 1, 3, 0),
    "legal-school-opt": (4, 10, 0, 0, 0),
    "legal-subgraph": (10, 28, 1, 3, 0),
}


@pytest.mark.parametrize("mechanism", sorted(EX5_COUNTERS))
def test_solve_counters_per_mechanism(capsys, mechanism):
    consent = (["--consent", fx("ex5-consent.txt")]
               if mechanism.startswith("eadam") else [])
    code, _, err = run(capsys, "solve", "--mechanism", mechanism,
                       "--input", fx("ex5.inst"), "--counters", *consent)
    assert code == 0
    keys = ("proposals", "edge_scans", "rotations_eliminated",
            "edges_removed", "gs_reruns")
    assert err == "".join(f"{k}={v}\n" for k, v in zip(keys, EX5_COUNTERS[mechanism]))


def test_counter_names_agree_across_outputs(capsys):
    _, _, err = run(capsys, "solve", "--mechanism", "gs",
                    "--input", fx("ex5.inst"), "--counters")
    printed = [line.split("=")[0] for line in err.splitlines()]
    start = CSV_COLUMNS.index("proposals")
    assert printed == list(CSV_COLUMNS[start:start + 5]) == list(Counters().report()) == [
        "proposals", "edge_scans", "rotations_eliminated", "edges_removed", "gs_reruns"]


def test_bench_default_runs_production_mechanisms(capsys):
    code, out, _ = run(capsys, "bench", "--students", "20", "--schools", "2")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[5] for r in rows] == ["gs", "eadam-fast", "legal-student-opt",
                                    "legal-school-opt", "legal-subgraph"]


def test_consent_flag_needs_eadam(capsys):
    code, _, err = run(capsys, "solve", "--mechanism", "gs",
                       "--input", fx("ex5.inst"),
                       "--consent", fx("ex5-consent.txt"))
    assert code == 2
    assert "apply only to" in err


def test_consent_flag_refused_before_the_input_is_read(capsys):
    code, _, err = run(capsys, "solve", "--mechanism", "gs",
                       "--input", "/nonexistent.inst", "--consent-rate", "0.5")
    assert code == 2
    assert err == ("error: --consent/--consent-rate apply only to "
                   "eadam, eadam-simplified, eadam-fast\n")


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "abc"])
def test_bench_refuses_a_timeout_that_is_not_positive(capsys, timeout):
    code, out, err = run(capsys, "bench", "--students", "4", "--schools", "2",
                         f"--timeout={timeout}")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --timeout: must be a positive number "
                        f"of seconds, got '{timeout}'\n")


@pytest.mark.parametrize("cap", ["0", "-1", "1.5", "abc"])
@pytest.mark.parametrize("argv", [("oracle", "legal", "--input", fx("ex1.inst")),
                                  ("oracle", "verify", "--input", fx("ex1.inst")),
                                  ("latin", "count", "--input", fx("ex9.matrix"))],
                         ids=["oracle-legal", "oracle-verify", "latin-count"])
def test_cap_must_be_a_positive_integer(capsys, argv, cap):
    code, out, err = run(capsys, *argv, f"--cap={cap}")
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --cap: must be a positive integer, got '{cap}'\n")


def test_oracle_legal_blocks(capsys):
    code, out, _ = run(capsys, "oracle", "legal", "--input", fx("ex1.inst"))
    assert code == 0
    assert out == "1 A\n2 B\n3 C\n\n1 B\n2 A\n3 C\n"


def test_oracle_stable_single(capsys):
    code, out, _ = run(capsys, "oracle", "stable", "--input", fx("ex1.inst"))
    assert code == 0
    assert out == "1 B\n2 A\n3 C\n"


def test_oracle_verify_ok(capsys):
    code, out, _ = run(capsys, "oracle", "verify", "--input", fx("ex1.inst"))
    assert code == 0
    assert out == "ok: 2 legal assignments, internal and external stability hold\n"


def test_oracle_cap_exit(capsys):
    code, _, err = run(capsys, "oracle", "legal", "--input", fx("ex4.inst"),
                       "--cap", "3")
    assert code == 1
    # below 10**15 the bound is exact: 6**5 for five students of degree 5
    assert err == "error: assignment enumeration exceeds cap=3 (upper bound 7776)\n"


@pytest.mark.parametrize("what", ["stable", "legal", "verify"])
def test_oracle_cap_on_a_market_deeper_than_the_recursion_limit(capsys, tmp_path, what):
    assert 1200 > sys.getrecursionlimit()
    path = tmp_path / "deep.inst"
    assert run(capsys, "gen", "--students", "1200", "--schools", "10",
               "--list-length", "3", "--seed", "1", "--output", str(path))[0] == 0
    code, out, err = run(capsys, "oracle", what, "--input", str(path), "--cap", "10")
    assert (code, out) == (1, "")
    assert err.startswith("error: assignment enumeration exceeds cap=10 ")
    assert len(err.splitlines()) == 1


def test_oracle_cap_bound_stays_short_past_the_int_string_limit(capsys, tmp_path):
    # every student has degree 3, so the bound is 4**10000, some 6021 digits
    path = tmp_path / "wide.inst"
    assert run(capsys, "gen", "--students", "10000", "--schools", "100",
               "--list-length", "3", "--seed", "1", "--output", str(path))[0] == 0
    code, out, err = run(capsys, "oracle", "stable", "--input", str(path), "--cap", "10")
    assert (code, out) == (1, "")
    assert err == "error: assignment enumeration exceeds cap=10 (upper bound about 10^6021)\n"


def test_latin_gen_matches_reference(capsys):
    code, out, _ = run(capsys, "latin", "gen", "--order", "4")
    assert code == 0
    assert out == fixture_path("ex9.matrix").read_text()


def test_latin_aux_reproduces_worked_instance(capsys, ex4):
    code, out, _ = run(capsys, "latin", "aux", "--input", fx("ex9.matrix"),
                       "--student", "a5", "--school", "b5")
    assert code == 0
    assert out == ex4.to_text()


def test_latin_count(capsys):
    code, out, _ = run(capsys, "latin", "count", "--input", fx("ex9.matrix"))
    assert code == 0
    assert out == "stable=10\nlegal=10\n"


def test_reduce_expands_quotas(capsys, ex2):
    code, out, _ = run(capsys, "reduce", "--input", fx("ex2.inst"))
    assert code == 0
    assert "b1^1" in out and "b1^2" in out
    assert "[" not in out  # all quotas are 1 after the reduction


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "--input", fx("ex3.inst"))
    assert code == 0
    assert out == "ok: 6 students, 3 schools, 18 edges\n"


def test_gen_is_deterministic(capsys):
    code, first, _ = run(capsys, "gen", "--students", "8", "--schools", "2",
                         "--seed", "3")
    assert code == 0
    code, second, _ = run(capsys, "gen", "--students", "8", "--schools", "2",
                          "--seed", "3")
    assert first == second
    assert first.splitlines()[1].startswith("students:")


def test_bench_csv(capsys):
    code, out, _ = run(capsys, "bench", "--students", "20", "--schools", "2",
                       "--seeds", "0,1", "--mechanisms", "gs",
                       "--consent-rates", "1.0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("instance_id,")
    assert len(lines) == 3


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "solve", "--mechanism", "gs",
                       "--input", fx("ex5.inst"), "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "a1 b3\na2 b2\na3 b4\na4 b1\n"


def test_parse_error_is_domain_failure(tmp_path, capsys):
    bad = tmp_path / "bad.inst"
    bad.write_text("students: a1\nschools: b1\na1: b1 b1\nb1: a1\n")
    code, _, err = run(capsys, "solve", "--mechanism", "gs",
                       "--input", str(bad))
    assert code == 1
    assert err.startswith("error:")


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "--input", "/nonexistent.inst")
    assert code == 1
    assert err.startswith("error:")


def test_usage_error_and_help(capsys):
    assert run(capsys, "solve", "--mechanism", "bogus",
               "--input", fx("ex1.inst"))[0] == 2
    assert run(capsys, "--help")[0] == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "legalassign.cli", "solve",
         "--mechanism", "gs", "--input", fx("ex1.inst")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "1 B\n2 A\n3 C\n"


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_edges_by_student_orders_by_student_then_school_index(seed):
    rng = random.Random(seed)
    inst = random_market(rng)
    keep = [bytearray(rng.random() < 0.5 for _ in row) for row in inst._b_pref]
    m = gs_student(inst).assignment
    rep = LegalSubinstanceReport(m, m, Counters(), inst, keep, [])
    si = {a: i for i, a in enumerate(inst.students)}
    bi = {b: j for j, b in enumerate(inst.schools)}
    by_index = lambda e: (si[e[0]], bi[e[1]])
    rows = list(rep.edges_by_student())
    assert [a for a, _, _ in rows] == list(inst.students)
    legal = [(a, b) for a, good, _ in rows for b in good]
    illegal = [(a, b) for a, _, bad in rows for b in bad]
    assert legal == sorted(rep.legal_edges, key=by_index)
    assert illegal == sorted(rep.illegal_edges, key=by_index)
    assert rep.legal_edges == frozenset(
        (inst.students[i], b) for b, row, flags in zip(inst.schools, inst._b_pref, keep)
        for i, flag in zip(row, flags) if flag)
    assert rep.illegal_edges == frozenset(inst.edges()) - rep.legal_edges


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("k", range(1, 10))
def test_solve_subgraph_golden(capsys, k, fmt, suffix):
    code, out, _ = run(capsys, "solve", "--mechanism", "legal-subgraph",
                       "--input", fx(f"ex{k}.inst"), "--format", fmt)
    assert code == 0
    assert out == (GOLDEN / f"ex{k}.legal-subgraph.{suffix}").read_text()


def test_solve_subgraph_writes_edges_in_index_order(tmp_path, capsys):
    # school names that sort against their index order
    inst = random_market(random.Random(4), max_students=12, max_schools=5)
    names = {b: f"s{len(inst.schools) - j}" for j, b in enumerate(inst.schools)}
    renamed = Instance(inst.students, [names[b] for b in inst.schools],
                       {names[b]: q for b, q in inst.quota.items()},
                       {a: [names[b] for b in row] for a, row in inst.student_prefs.items()},
                       {names[b]: row for b, row in inst.school_prefs.items()})
    path = tmp_path / "market.inst"
    path.write_text(renamed.to_text())
    rep = legal_subinstance(renamed)
    assert rep.legal_edges and rep.illegal_edges
    by_index = lambda e: (renamed.students.index(e[0]), renamed.schools.index(e[1]))
    lines = lambda edges: "".join(f"{a} {b}\n" for a, b in sorted(edges, key=by_index))
    code, out, _ = run(capsys, "solve", "--mechanism", "legal-subgraph", "--input", str(path))
    assert code == 0
    assert out == ("legal edges:\n" + lines(rep.legal_edges)
                   + "\nillegal edges:\n" + lines(rep.illegal_edges)
                   + "\nstudent-optimal:\n" + rep.student_optimal.format(renamed)
                   + "\nschool-optimal:\n" + rep.school_optimal.format(renamed))


def test_repeated_main_calls_carry_no_state(tmp_path, capsys):
    # the parser is built once per process; each call must still start clean
    solve = ("solve", "--mechanism", "gs", "--input", fx("ex5.inst"))
    text = "a1 b3\na2 b2\na3 b4\na4 b1\n"
    code, _, err = run(capsys, "solve", "--mechanism", "bogus", "--input", fx("ex5.inst"))
    assert code == 2 and "invalid choice" in err
    assert run(capsys, *solve) == (0, text, "")
    target = tmp_path / "out.txt"
    assert run(capsys, *solve, "--output", str(target)) == (0, "", "")
    assert target.read_text() == text
    assert run(capsys, *solve) == (0, text, "")
    code, out, _ = run(capsys, *solve, "--format", "json", "--counters")
    assert code == 0 and json.loads(out)["mechanism"] == "gs"
    assert run(capsys, *solve) == (0, text, "")
    code, out, _ = run(capsys, "validate", "--input", fx("ex3.inst"))
    assert (code, out) == (0, "ok: 6 students, 3 schools, 18 edges\n")
    assert run(capsys, *solve) == (0, text, "")


@pytest.mark.parametrize("mechanism", ["eadam", "eadam-simplified", "eadam-fast"])
def test_consent_rate_solves_like_the_sampled_consent_file(tmp_path, capsys, mechanism):
    market = tmp_path / "market.inst"
    assert run(capsys, "gen", "--students", "40", "--schools", "5", "--list-length", "3",
               "--quota-lo", "2", "--quota-hi", "4", "--seed", "1",
               "--output", str(market))[0] == 0
    inst = parse_instance(market.read_text())
    consent = sample_consent(inst, 0.5, 7).consenting
    assert 0 < len(consent) < inst.n_students
    consent_file = tmp_path / "consent.txt"
    consent_file.write_text(" ".join(sorted(consent)) + "\n")
    solve = ("solve", "--mechanism", mechanism, "--input", str(market),
             "--format", "json", "--counters")
    sampled = run(capsys, *solve, "--consent-rate", "0.5", "--seed", "7")
    assert sampled == run(capsys, *solve, "--consent", str(consent_file))
    assert sampled[0] == 0 and sampled[2].startswith("proposals=")
    assert sampled != run(capsys, *solve)  # the partial consent changes the outcome


def _without_wall_time(csv_text: str) -> list[list[str]]:
    rows = [line.split(",") for line in csv_text.splitlines()]
    k = rows[0].index("wall_time_ms")
    return [row[:k] + row[k + 1:] for row in rows]


def test_bench_output_file_holds_the_stdout_csv(tmp_path, capsys):
    bench = ("bench", "--students", "20", "--schools", "3", "--seeds", "0,1",
             "--mechanisms", "gs,legal-subgraph", "--consent-rates", "1.0")
    code, stdout_csv, _ = run(capsys, *bench)
    assert code == 0
    target = tmp_path / "bench.csv"
    assert run(capsys, *bench, "--output", str(target)) == (0, "", "")
    assert _without_wall_time(target.read_text()) == _without_wall_time(stdout_csv)
    assert len(_without_wall_time(stdout_csv)) == 5


def test_bench_rejects_a_seed_list_without_integers(capsys):
    assert run(capsys, "bench", "--students", "4", "--schools", "2", "--seeds", ",") == (
        1, "", "error: --seeds needs at least one integer\n")


def test_bench_strips_spaces_around_mechanism_names(capsys):
    code, out, _ = run(capsys, "bench", "--students", "20", "--schools", "2",
                       "--mechanisms", "gs, eadam-fast")
    assert code == 0
    assert [line.split(",")[5] for line in out.splitlines()[1:]] == ["gs", "eadam-fast"]


@pytest.mark.parametrize("flag, value, error", [
    ("--mechanisms", "gs,gs", "repeated mechanisms: ['gs']"),
    ("--consent-rates", "1,1", "repeated consent rates: [1.0]"),
    ("--consent-rates", "1,1.0", "repeated consent rates: [1.0]"),
    ("--seeds", "0,0", "repeated seeds: [0]"),
], ids=["mechanisms", "rates", "rates-by-value", "seeds"])
def test_bench_refuses_a_repeated_entry(capsys, flag, value, error):
    # a repeat would run twice and write two rows with the same key
    assert run(capsys, "bench", "--students", "6", "--schools", "2",
               flag, value) == (1, "", f"error: {error}\n")


@pytest.mark.parametrize("argv", [
    ("gen", "--students", "4", "--schools", "2", "--seed", "-1"),
    ("bench", "--students", "4", "--schools", "2", "--seeds", "-1"),
    ("solve", "--mechanism", "eadam", "--input", fx("ex5.inst"),
     "--consent-rate", "0.5", "--seed", "-1"),
], ids=["gen", "bench", "solve"])
def test_negative_seed_is_refused_by_name(capsys, argv):
    assert run(capsys, *argv) == (
        1, "", "error: seed must be a non-negative integer, got -1\n")


@pytest.mark.parametrize("mechanism", ["eadam", "eadam-simplified", "eadam-fast"])
def test_consent_file_naming_an_unknown_student_is_refused(tmp_path, capsys, mechanism):
    consent = tmp_path / "consent.txt"
    consent.write_text("a1 zz\n")
    assert run(capsys, "solve", "--mechanism", mechanism, "--input", fx("ex5.inst"),
               "--consent", str(consent)) == (
        1, "", "error: consent set names unknown students: ['zz']\n")


@pytest.mark.parametrize("argv, bom_file", [
    (("solve", "--mechanism", "gs", "--input", "{}"), "ex5.inst"),
    (("solve", "--mechanism", "eadam-fast", "--input", fx("ex5.inst"),
      "--consent", "{}"), "ex5-consent.txt"),
    (("latin", "aux", "--input", "{}"), "ex9.matrix"),
], ids=["instance", "consent", "latin-matrix"])
def test_a_utf8_byte_order_mark_is_dropped(tmp_path, capsys, argv, bom_file):
    marked = tmp_path / bom_file
    marked.write_text("\ufeff" + Path(fx(bom_file)).read_text(encoding="utf-8"),
                      encoding="utf-8")
    plain = run(capsys, *(a.format(fx(bom_file)) for a in argv))
    assert plain[0] == 0
    assert run(capsys, *(a.format(marked) for a in argv)) == plain


CLAMPED = pytest.mark.parametrize("argv", [
    ("gen", "--students", "3", "--schools", "2", "--list-length", "5"),
    ("bench", "--students", "3", "--schools", "2", "--list-length", "5",
     "--mechanisms", "gs"),
], ids=["gen", "bench"])


@CLAMPED
def test_generator_warning_is_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and out
    assert err == "warning: list length 5 exceeds 2 schools; clamping\n"


@CLAMPED
@pytest.mark.parametrize("action", ["error", "ignore"])
def test_generator_warning_is_one_line_under_any_filter(capsys, argv, action):
    # as with PYTHONWARNINGS=error or =ignore: no traceback, and no lost line
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        code, out, err = run(capsys, *argv)
    assert code == 0 and out
    assert err == "warning: list length 5 exceeds 2 schools; clamping\n"


def test_bench_takes_a_positive_timeout(capsys):
    code, out, err = run(capsys, "bench", "--students", "3", "--schools", "2",
                         "--mechanisms", "gs", "--timeout", "30")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == ",".join(CSV_COLUMNS)
