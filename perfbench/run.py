"""Benchmark of ``legalassign solve``, text in to text out, per mechanism.

Run one workload from the repository root:

    python3 perfbench/run.py --workload square-complete --seed 0 --seconds 36 --trace 0

It builds nothing: it imports ``legalassign`` from ``src/`` next to this
directory and exits with status 2, printing no result, when that is
missing.  Inputs come from ``--seed``; files go to
``perfbench/runs/<workload>-s<seed>-t<trace>/``, which keeps the full
report (``result.json``), the spans of a traced run (``trace.json``) and a
reproducer bundle for each failed operation.  The last line of standard
output is the result as JSON; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"


def _args(argv, workloads: list[str]):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_commit() -> str | None:
    """The checked-out commit, read from .git when the tree is a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(legalassign) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "rng_name": legalassign.benchgen.RNG_NAME,
            "rng_version": legalassign.benchgen.RNG_VERSION,
            "legalassign": legalassign.__version__, "git_commit": _git_commit(),
            "nproc": os.cpu_count(), "platform": platform.platform()}


def summary(values: list[float]) -> dict:
    """Fastest sample, median, sample count, and the highest of p90/p99/p99.9
    with at least ten samples beyond it (None when there are too few)."""
    n = len(values)
    out = {"min": min(values), "median": statistics.median(values), "n": n, "tail": None,
           "values": values}
    for p in (99.9, 99.0, 90.0):
        if n * (1 - p / 100) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
            out["tail"] = {"p": p, "value": cut}
            break
    return out


def main(argv=None) -> int:
    if not (SRC / "legalassign" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(f"error: no legalassign sources under {SRC} or no {SPEC_PATH.name} "
              "at the repository root; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    args = _args(argv, [w["name"] for w in spec["workloads"]])

    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import legalassign
    import_s = time.perf_counter() - t_import
    import reference
    # one run of the loop can straddle a change of speed, so take the median
    import_scale = statistics.median(reference.scale() for _ in range(3))
    if Path(legalassign.__file__).resolve().parent != SRC / "legalassign":
        print(f"error: imported legalassign from {legalassign.__file__}", file=sys.stderr)
        return 2

    import spans
    import workloads as wl

    work = HERE / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(legalassign)
    pins = json.loads((HERE / "fingerprints.json").read_text())
    ledger = wl.Ledger(work, args.workload, args.seed, env)
    tracer = spans.Tracer() if args.trace else wl.NULL

    checker_problems = wl.self_test(work / "selftest")
    markets, setup_times = wl.set_up(args.workload, args.seed, work, tracer, ledger, pins)
    rounds = wl.run_rounds(args.workload, markets, args.seconds, bool(args.trace), work,
                           tracer, ledger)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env,
        "fingerprint": wl.fingerprint(markets),
        "files": [{"market_seed": m.cfg.seed, "instance_sha256": m.inst_sha,
                   "consent_sha256": m.consent_sha} for m in markets],
        "checker_self_test": checker_problems or "ok",
        "attempted": ledger.attempted, "failed": len(ledger.failures),
        "failed_ops_frac": len(ledger.failures) / ledger.attempted,
        "failures": ledger.failures,
    }
    plain = [r for r in rounds if not r.traced]
    raw = {f"solve.{m}_s": [r.solve_s[m] for r in plain] for m in wl.MECHANISMS}
    raw["differential.market_s"] = [r.round_s for r in plain]
    scales = [r.scale for r in plain]
    report["timings"] = {name: summary([t * k for t, k in zip(v, scales)])
                         for name, v in raw.items()}
    report["timings_raw"] = {k: summary(v) for k, v in raw.items()}
    # The markets of small-differential differ in cost by design (the
    # oracle grows with the market), so their median lands on whichever
    # mode is larger for the seed; the mean over markets of each market's
    # median is steady.  With one market it is the plain median.
    per_market: dict[int, list[float]] = {}
    for r in plain:
        per_market.setdefault(r.index % len(markets), []).append(r.round_s * r.scale)
    report["timings"]["differential.market_s"]["market_mean"] = statistics.fmean(
        statistics.median(v) for v in per_market.values())
    report["timings"]["setup_s"] = {
        "import_s": import_s, "import_scale": import_scale,
        "runs_s": [t for t, _ in setup_times], "run_scales": [k for _, k in setup_times]}

    if args.trace:
        metrics = _traced(report, rounds, markets, tracer, spans, wl, spec)
        (work / "trace.json").write_text(json.dumps(
            {"spans": tracer.dump(), **{k: report[k] for k in ("overhead", "accounting")}}))
    else:
        values = {k: v["median"] for k, v in report["timings"].items() if "median" in v}
        values["differential.market_s"] = report["timings"]["differential.market_s"][
            "market_mean"]
        values["setup_s"] = import_s * import_scale + statistics.median(
            t * k for t, k in setup_times)
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    report["metrics"] = metrics
    (work / "result.json").write_text(json.dumps(report, indent=2, default=str) + "\n")
    for m in markets:
        m.inst_path.unlink(missing_ok=True)
        m.consent_path.unlink(missing_ok=True)
    for out in work.glob("out.*"):
        out.unlink()
    shutil.rmtree(work / "selftest", ignore_errors=True)

    _print_report(report)
    print(json.dumps({"correct": not ledger.failures and not checker_problems,
                      "attempted": ledger.attempted, "failed": len(ledger.failures),
                      "metrics": metrics}))
    return 0


def _traced(report: dict, rounds, markets, tracer, spans, wl, spec: dict) -> dict:
    """Per-layer metrics; the tracing overhead and accounting go to ``report``."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    first_pass = max(2, len(markets))
    per_round, counts, accounts = [], [], []
    for r in traced:
        round_spans = tracer.spans[slice(*r.span_range)]
        per_round.append(spans.layer_seconds(round_spans))
        accounts.append(spans.accounting(round_spans))
        if r.index < first_pass:  # a fixed set of markets, so counts repeat exactly
            counts.append(spans.layer_counts(round_spans,
                                             markets[r.index % len(markets)].n_edges))
    setup = [spans.layer_seconds([s for s in tracer.spans if s.call == f"setup{k}"])
             for k in range(wl.SETUP_REPS)]

    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if m["unit"] != "s":
            value = statistics.fmean(c.get(name, 0.0) for c in counts)
        else:
            rows = setup if name in spans.SETUP_LAYERS else per_round
            value = statistics.median(row.get(name, 0.0) for row in rows)
        metrics[name] = {"value": value, "unit": m["unit"]}

    report["overhead"], report["accounting"] = {}, {}
    for mech in wl.MECHANISMS:
        with_spans = statistics.median(r.solve_s[mech] * r.scale for r in traced)
        without = statistics.median(r.solve_s[mech] * r.scale for r in plain)
        report["overhead"][f"solve.{mech}_s"] = {
            "traced_median": with_spans, "untraced_median": without,
            "overhead_s": with_spans - without}
        parts = [acc[f"r{r.index}.{mech}"] for r, acc in zip(traced, accounts)]
        report["accounting"][mech] = {
            "wall_s": statistics.median(r.solve_s[mech] for r in traced),
            "self_s": {k: statistics.median(p.get(k, 0.0) for p in parts)
                       for k in sorted(set().union(*parts))},
            "covered_share": statistics.median(
                sum(p.values()) / r.solve_s[mech] for r, p in zip(traced, parts)),
        }
    return metrics


def _print_report(report: dict) -> None:
    env = report["environment"]
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"inputs fingerprint {report['fingerprint']}")
    print(f"checker self-test: {report['checker_self_test']}")
    print(f"operations: {report['attempted']} attempted, {report['failed']} failed, "
          f"failed_ops_frac={report['failed_ops_frac']}")
    for f in report["failures"]:
        print(f"  failed {f['op']}: {f['problems'][0].splitlines()[-1]} -> {f['bundle']}")
    print("timings in reference seconds (raw wall median in brackets):")
    for name, t in report["timings"].items():
        if "median" in t:
            tail = "none (too few samples)" if t["tail"] is None else \
                f"p{t['tail']['p']:g}={t['tail']['value']:.6f}"
            print(f"  {name}: median={t['median']:.6f} s n={t['n']} tail {tail} "
                  f"min={t['min']:.6f} s (raw {report['timings_raw'][name]['median']:.6f} s)")
    for name, m in report["metrics"].items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    for name, o in report.get("overhead", {}).items():
        print(f"tracing overhead {name}: {o['overhead_s']:+.6f} s "
              f"(traced {o['traced_median']:.6f}, untraced {o['untraced_median']:.6f})")
    for mech, a in report.get("accounting", {}).items():
        print(f"accounting {mech}: self times cover {a['covered_share']:.4f} "
              f"of the traced wall {a['wall_s']:.6f} s")


if __name__ == "__main__":
    sys.exit(main())
