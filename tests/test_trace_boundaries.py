"""The names perfbench's spans patch still carry each mechanism's solve.

``perfbench/spans.py`` swaps library names (module globals and a few
methods) for wrappers that record a span and copy counters out of the
results.  A refactor that renames one of them, or changes how it is
called, would otherwise only show up in a traced benchmark run.  The
perfbench modules are imported here too, so that no name they import can
leave the package exports unnoticed.
"""

import contextlib
import importlib
import io
import sys
from pathlib import Path

import pytest

from legalassign import cli, enumerate_assignments, fixture_path
from legalassign.oracle import _universe

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

COMMON = {("model.parse_instance", None), ("model.format", None)}
EXPECTED = {
    "gs": {("gs.student", None)},
    "eadam-fast": {("eadam.rotate_remove_consent", None),
                   ("engine.school_side_run", "consent"), ("gs.student", None)},
    "legal-student-opt": {("rotate_remove.rotate_remove", "schools"),
                          ("engine.school_side_run", "legal"), ("gs.student", None)},
    "legal-school-opt": {("rotate_remove.rotate_remove", "students"),
                         ("engine.student_side_run", "legal"), ("gs.school", None)},
    "legal-subgraph": {("rotate_remove.legal_subinstance", None),
                       ("engine.school_side_run", "legal"),
                       ("engine.student_side_run", "legal"),
                       ("gs.student", None)},
}


@pytest.fixture(scope="module")
def perfbench_path():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def spans(perfbench_path):
    return importlib.import_module("spans")


@pytest.mark.parametrize("module", ["checks", "spans", "workloads"])
def test_perfbench_module_imports(perfbench_path, module):
    sys.modules.pop(module, None)  # import it afresh, not from an earlier test
    importlib.import_module(module)


@pytest.mark.parametrize("mechanism", sorted(EXPECTED))
def test_traced_solve_crosses_the_patched_names(spans, mechanism):
    argv = ["solve", "--mechanism", mechanism, "--input", str(fixture_path("ex5.inst"))]
    if mechanism == "eadam-fast":
        argv += ["--consent", str(fixture_path("ex5-consent.txt"))]
    tracer = spans.Tracer()
    with spans.instrument(tracer), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    tracer.settle()  # the describe hooks read the results and call arguments
    assert {(s.name, s.attrs.get("mode")) for s in tracer.spans} == COMMON | EXPECTED[mechanism]


def test_traced_round_counts_the_market_universe_once(spans, tmp_path):
    # the oracle's universe is counted through the patched enumeration
    # under the fixed point; an oracle that builds it some other way, or
    # finds it already built, would read 0 here
    workloads = importlib.import_module("workloads")
    spec = workloads.WORKLOADS["small-differential"]
    market = workloads._write_market(spec.configs(0)[0], spec.consent_rate, tmp_path, 0,
                                     workloads.NULL)
    ledger = workloads.Ledger(tmp_path, "small-differential", 0, {})
    tracer = spans.Tracer()
    _universe.cache_clear()
    workloads.market_round(1, market, None, tmp_path, tracer, ledger, True)
    assert ledger.attempted > 0 and not ledger.failures
    counts = spans.layer_counts(tracer.spans, market.n_edges)
    assert counts["oracle.universe_size"] == len(enumerate_assignments(market.inst))
