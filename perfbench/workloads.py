"""Workloads, set-up and rounds of ``legalassign solve``.

A round takes one market and runs ``cli.main`` once per production
mechanism, from the instance file on disk to an output file, then reads
every output back and checks it.  Only the ``cli.main`` calls are timed as
solves; the whole round, checks included, is one ``differential.market_s``
sample.  On ``small-differential`` a round also runs the two reference
EADAM forms and the brute-force oracle on the market.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from legalassign import (ConsentSet, GenConfig, dominates, enumerate_stable,
                         generate, is_constrained_efficient, kesten_eadam,
                         legal_fixed_point, rotate_remove_consent,
                         sample_consent, simplified_eadam,
                         verify_legal_property)
from legalassign import cli

import reference
from checks import (CROSS, MECHANISMS, SUBGRAPH, Expected, Market,
                    check_outputs, library_results)
from spans import NullTracer, instrument

SETUP_REPS = 9
SMALL_MARKETS = 300
TALL_MARKETS = 4
NULL = NullTracer()


@dataclass(frozen=True)
class Workload:
    configs: Callable[[int], list[GenConfig]]
    consent_rate: float
    #: also run the reference EADAM forms and the oracle on every market
    differential: bool


WORKLOADS = {
    "square-complete": Workload(
        lambda seed: [GenConfig(300, 300, quota_lo=1, quota_hi=1, seed=seed)],
        0.5, False),
    "tall-top10": Workload(
        lambda seed: [GenConfig(2000, 20, quota_model="nyc", list_length=10,
                                seed=seed * 10_000 + k) for k in range(TALL_MARKETS)],
        1.0, False),
    "small-differential": Workload(
        lambda seed: [GenConfig(7, 3, quota_lo=1, quota_hi=2, seed=seed * 10_000 + k)
                      for k in range(SMALL_MARKETS)],
        0.5, True),
}


@dataclass
class MarketFiles:
    cfg: GenConfig
    inst: object | None      # the generated instance; None once no longer needed
    consent: ConsentSet
    inst_path: Path
    consent_path: Path
    inst_sha: str
    consent_sha: str
    n_edges: int
    full_consent: bool


@dataclass
class Ledger:
    """Operations attempted and failed; every failure leaves a reproducer."""

    work: Path
    workload: str
    seed: int
    environment: dict
    attempted: int = 0
    failures: list[dict] = field(default_factory=list)

    def record(self, op: str, problems: list[str], market: MarketFiles) -> None:
        """Count one operation: ``setup``, a mechanism, or ``differential``."""
        self.attempted += 1
        if not problems:
            return
        bundle = self.work / "repro" / f"{len(self.failures):04d}-{op}"
        bundle.mkdir(parents=True)
        shutil.copyfile(market.inst_path, bundle / "instance.inst")
        shutil.copyfile(market.consent_path, bundle / "consent.txt")
        mechs = MECHANISMS if op == CROSS else (op,) if op in MECHANISMS else ()
        meta = {"workload": self.workload, "seed": self.seed, "op": op,
                "market_seed": market.cfg.seed, "config": vars(market.cfg),
                "argv": [solve_argv(m, "instance.inst", "consent.txt", f"out.{m}")
                         for m in mechs],
                "problems": problems, "environment": self.environment}
        (bundle / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        self.failures.append({"op": op, "problems": problems, "bundle": str(bundle)})


def solve_argv(mechanism: str, inst_path, consent_path, out_path) -> list[str]:
    argv = ["solve", "--mechanism", mechanism, "--input", str(inst_path),
            "--output", str(out_path)]
    if mechanism == "eadam-fast":
        argv += ["--consent", str(consent_path)]
    return argv


# -- set-up -----------------------------------------------------------------

def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_market(cfg: GenConfig, rate: float, work: Path, k: int, tracer) -> MarketFiles:
    with tracer.span("benchgen.generate"):
        inst = generate(cfg)
    with tracer.span("model.to_text"):
        text = inst.to_text()
    with tracer.span("benchgen.sample_consent"):
        consent = sample_consent(inst, rate, cfg.seed)
    consent_text = "".join(f"{a}\n" for a in sorted(consent.consenting))
    inst_path = work / f"m{k}.inst"
    consent_path = work / f"m{k}.consent"
    inst_path.write_text(text, encoding="utf-8")
    consent_path.write_text(consent_text, encoding="utf-8")
    return MarketFiles(cfg, inst, consent, inst_path, consent_path, _sha(text),
                       _sha(consent_text), inst.n_edges,
                       len(consent.consenting) == inst.n_students)


def fingerprint(markets: list[MarketFiles]) -> str:
    """One sha256 over the sha256 of every instance and consent file."""
    return _sha("".join(f"{m.inst_sha} {m.consent_sha}\n" for m in markets))


def set_up(name: str, seed: int, work: Path, tracer, ledger: Ledger,
           pins: dict) -> tuple[list[MarketFiles], list[tuple[float, float]]]:
    """Generate and write every file of the workload, SETUP_REPS times.

    Returns the markets and, per repetition, its seconds and the reference
    scale measured just before it.  Each repetition is an operation; it
    fails when its fingerprint differs from the first repetition's or from
    the one pinned for this seed.
    """
    wl = WORKLOADS[name]
    configs = wl.configs(seed)
    pinned = pins.get(name, {}).get(str(seed))
    times: list[tuple[float, float]] = []
    first = None
    markets: list[MarketFiles] = []
    for rep in range(SETUP_REPS):
        markets = []
        gc.collect()
        scale = reference.scale()
        t0 = time.perf_counter()
        with tracer.span("setup", call=f"setup{rep}"):
            markets = [_write_market(cfg, wl.consent_rate, work, k, tracer)
                       for k, cfg in enumerate(configs)]
        times.append((time.perf_counter() - t0, scale))
        digest = fingerprint(markets)
        first = first or digest
        problems = []
        if digest != first:
            problems.append(f"set-up is not deterministic: {digest} != {first}")
        if pinned is not None and digest != pinned:
            problems.append(f"inputs changed: fingerprint {digest}, pinned {pinned}")
        ledger.record("setup", problems, markets[0])
    return markets, times


# -- solving and checking ---------------------------------------------------

def _instrumented(tracer):
    return nullcontext() if tracer is NULL else instrument(tracer)


def solve(market: MarketFiles, mechanism: str, out_path: Path, tracer,
          call: str) -> tuple[float, str | None, list[str]]:
    """One timed ``cli.main`` call: (seconds, output text, problems)."""
    argv = solve_argv(mechanism, market.inst_path, market.consent_path, out_path)
    problems: list[str] = []
    out_path.unlink(missing_ok=True)
    gc.collect()
    with _instrumented(tracer):
        t0 = time.perf_counter()
        try:
            with tracer.span("cli.solve", call=call, mechanism=mechanism):
                code = cli.main(argv)
        except Exception:  # a traceback is a failed operation, not a crash
            code = None
            problems.append(traceback.format_exc())
        elapsed = time.perf_counter() - t0
    tracer.settle()
    if code != 0:
        problems.append(f"exit status {code}")
        return elapsed, None, problems
    return elapsed, out_path.read_text(encoding="utf-8"), problems


@dataclass
class Round:
    index: int
    traced: bool
    solve_s: dict[str, float]
    round_s: float
    #: reference.scale() measured just before the round
    scale: float = 1.0
    span_range: tuple[int, int] = (0, 0)


def prepare(market: MarketFiles) -> tuple[Market, Expected]:
    """Index the market and compute the library results the outputs must equal."""
    index = Market(market.inst)
    return index, Expected(index, library_results(market.inst, market.consent))


def market_round(r: int, market: MarketFiles, prepared, work: Path, tracer,
                 ledger: Ledger, differential: bool) -> Round:
    t0 = time.perf_counter()
    solve_s: dict[str, float] = {}
    outputs: dict[str, str] = {}
    solve_problems: dict[str, list[str]] = {}
    for mech in MECHANISMS:
        elapsed, text, problems = solve(market, mech, work / f"out.{mech}", tracer,
                                        f"r{r}.{mech}")
        solve_s[mech] = elapsed
        solve_problems[mech] = problems
        if text is not None:
            outputs[mech] = text
    try:
        if prepared is None:
            results = library_results(market.inst, market.consent)
            index = Market(market.inst)
            expected = Expected(index, results)
        else:
            index, expected = prepared
        fails = check_outputs(index, expected, outputs, market.full_consent)
        if differential:
            fails[CROSS] += reference_checks(r, market, results, tracer)
    except Exception:  # a crashing check fails the round, and the run goes on
        fails = {CROSS: [traceback.format_exc()]}
    for mech in MECHANISMS:
        ledger.record(mech, solve_problems[mech] + fails.get(mech, []), market)
    ledger.record(CROSS, fails.get(CROSS, []), market)
    return Round(r, tracer is not NULL, solve_s, time.perf_counter() - t0)


def reference_checks(r: int, market: MarketFiles, results: dict, tracer) -> list[str]:
    """The oracle cross-checks of acceptance criterion 2 on one small market."""
    inst, consent = market.inst, market.consent

    def call(name, fn, *args):
        with _instrumented(tracer), tracer.span(name, call=f"r{r}.{name}") as s:
            out = fn(*args)
        tracer.settle()
        return out, s

    kesten, s = call("eadam.kesten_eadam", kesten_eadam, inst, consent)
    s.attrs["gs_runs"] = kesten.gs_runs
    simple, s = call("eadam.simplified_eadam", simplified_eadam, inst, consent)
    s.attrs["gs_runs"] = simple.gs_runs
    (legal, _), _ = call("oracle.legal_fixed_point", legal_fixed_point, inst)
    verdict, _ = call("oracle.verify_legal_property", verify_legal_property, inst, legal)
    sub_stable, _ = call("oracle.enumerate_stable", enumerate_stable,
                         results[SUBGRAPH].instance)

    problems = []
    legal_set = set(legal)
    if not verdict.ok:
        problems.append("the oracle's legal set fails the legality property")
    if set(sub_stable) != legal_set:
        problems.append("stable set of the legal subinstance differs from the legal set")
    if results[SUBGRAPH].legal_edges != frozenset(p for m in legal for p in m.matched_pairs):
        problems.append("legal edges differ from the oracle's")
    hi, lo = results["legal-student-opt"], results["legal-school-opt"]
    if hi not in legal_set or lo not in legal_set:
        problems.append("a legal optimum is not legal")
    elif not all(dominates(inst, hi, m) and dominates(inst, m, lo) for m in legal):
        problems.append("the legal optima do not bound the legal set")
    fast = results["eadam-fast"]
    if kesten.assignment != fast or simple.assignment != fast:
        problems.append("the three EADAM forms disagree")
    if not is_constrained_efficient(inst, consent, fast):
        problems.append("eadam-fast is not constrained efficient")
    student = random.Random(market.cfg.seed ^ 0xA5).choice(inst.students)
    flipped = ConsentSet(consent.consenting ^ {student})
    if rotate_remove_consent(inst, flipped).assignment.school_of(student) != fast.school_of(student):
        problems.append(f"toggling {student}'s consent moved {student}")
    return problems


def run_rounds(name: str, markets: list[MarketFiles], seconds: float, trace: bool,
               work: Path, tracer, ledger: Ledger) -> list[Round]:
    """Rounds until ``seconds`` have passed, and at least one per market and two.

    Round r solves market r mod len(markets).  With tracing on, odd rounds
    are traced and even rounds are not, so one run yields both medians.
    """
    differential = WORKLOADS[name].differential
    prepared = None
    if not differential:
        # big markets: index each and solve it as a library once, then drop
        # the generated instances, so the rounds hold about what a CLI
        # process holds
        prepared = [prepare(m) for m in markets]
        for m in markets:
            m.inst = None
    min_rounds = max(2, len(markets))
    rounds: list[Round] = []
    # the set-up data lives for the whole run; a CLI process starts without
    # it, so keep it out of the collector's way
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        r = len(rounds)
        round_tracer = tracer if trace and r % 2 == 1 else NULL
        first = len(tracer.spans) if trace else 0
        scale = reference.scale()
        k = r % len(markets)
        rec = market_round(r, markets[k], prepared and prepared[k], work, round_tracer,
                           ledger, differential)
        rec.scale = scale
        if rec.traced:
            rec.span_range = (first, len(tracer.spans))
        rounds.append(rec)
    return rounds


def self_test(work: Path) -> list[str]:
    """Show that the checker passes honest output and counts a corrupted one.

    The corruption unmatches one matched student in the gs output, which
    frees a seat that student wants, so the output cannot be stable.
    Returns the problems found with the checker itself; empty when sound.
    """
    work.mkdir(parents=True, exist_ok=True)
    market = _write_market(GenConfig(7, 3, quota_lo=1, quota_hi=2, seed=0), 0.5,
                           work, 0, NULL)
    index, expected = prepare(market)
    outputs = {m: solve(market, m, work / f"out.{m}", NULL, "")[1] for m in MECHANISMS}
    problems = []
    honest = check_outputs(index, expected, outputs, market.full_consent)
    if any(honest.values()):
        problems.append(f"honest outputs were flagged: {honest}")
    lines = outputs["gs"].splitlines()
    victim = next(i for i, line in enumerate(lines) if not line.endswith(" -"))
    lines[victim] = lines[victim].partition(" ")[0] + " -"
    corrupted = dict(outputs, gs="\n".join(lines) + "\n")
    flagged = check_outputs(index, expected, corrupted, market.full_consent)
    if not any("blocked" in f for f in flagged["gs"]):
        problems.append("an unstable gs output was not counted as a failure")
    return problems
