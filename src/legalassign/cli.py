"""Command-line front end.

One executable, seven subcommands:

  solve     run a mechanism on an instance file
  oracle    brute-force enumeration: stable set, legal set, legality check
  latin     Latin ranking matrices: generate, auxiliary market, counts
  gen       emit a random market in the instance file format
  bench     run the benchmark harness and emit CSV
  reduce    expand school quotas into unit-capacity seats
  validate  parse an instance file and report its size

Exit status: 0 on success, 1 on a domain error (bad file, cap exceeded,
benchmark failure), 2 on a usage error.  All output is deterministic and
sorted so golden-file tests are byte-stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path
from typing import Sequence

from .benchgen import (CONSENT_MECHANISMS, MECHANISMS, PRODUCTION_MECHANISMS,
                       QUOTA_MODELS, UNIFORM, BenchError, GenConfig, PlanCell,
                       _repeated, _run_one, generate, run_bench, sample_consent,
                       write_csv)
from .eadam import ConsentSet
from .gs import Counters
from .latin import (auxiliary_instance, format_latin, instance_from_latin,
                    parse_latin, xor_latin)
from .model import Instance, parse_instance, reduce_one_to_one
from .oracle import (DEFAULT_CAP, OracleCapError, enumerate_stable,
                     legal_fixed_point, verify_legal_property)
from .rotate_remove import legal_subinstance

_DOMAIN_ERRORS = (ValueError, OSError, OracleCapError, BenchError)


def _read(path: str) -> str:
    """The file's text; a leading UTF-8 byte-order mark is dropped."""
    return Path(path).read_text(encoding="utf-8-sig")


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _assignment_json(inst: Instance, m) -> dict:
    return {a: m.school_of(a) for a in inst.students}


def _edge_lines(a: str, schools: list[str]) -> str:
    """One ``a b`` line per school, built with a single join."""
    return f"{a} " + f"\n{a} ".join(schools) + "\n" if schools else ""


def _print_counters(counters: Counters) -> None:
    for key, value in counters.report().items():
        print(f"{key}={value}", file=sys.stderr)


# ---------------------------------------------------------------- solve

def _parse_consent(args, inst: Instance) -> ConsentSet | None:
    if args.consent is not None:
        return ConsentSet.of(_read(args.consent).split())
    if args.consent_rate is not None:
        return sample_consent(inst, args.consent_rate, args.seed)
    return None  # no flag: everyone consents


def _cmd_solve(args) -> int:
    if ((args.consent is not None or args.consent_rate is not None)
            and args.mechanism not in CONSENT_MECHANISMS):
        print("error: --consent/--consent-rate apply only to "
              + ", ".join(CONSENT_MECHANISMS), file=sys.stderr)
        return 2
    inst = parse_instance(_read(args.input))
    consent = _parse_consent(args, inst)

    if args.mechanism == "legal-subgraph":
        rep = legal_subinstance(inst)
        counters = rep.counters
        if args.format == "json":
            legal: list[list[str]] = []
            illegal: list[list[str]] = []
            for a, good, bad in rep.edges_by_student():
                legal += [[a, b] for b in good]
                illegal += [[a, b] for b in bad]
            text = json.dumps({
                "mechanism": args.mechanism,
                "legal_edges": legal,
                "illegal_edges": illegal,
                "student_optimal": _assignment_json(inst, rep.student_optimal),
                "school_optimal": _assignment_json(inst, rep.school_optimal),
            }, indent=2) + "\n"
        else:
            parts = ["legal edges:\n"]
            tail = ["\nillegal edges:\n"]
            for a, good, bad in rep.edges_by_student():
                parts.append(_edge_lines(a, good))
                tail.append(_edge_lines(a, bad))
            parts += tail
            parts.append("\nstudent-optimal:\n")
            parts.append(rep.student_optimal.format(inst))
            parts.append("\nschool-optimal:\n")
            parts.append(rep.school_optimal.format(inst))
            text = "".join(parts)
    else:
        assignment, counters = _run_one(args.mechanism, inst, consent)
        if args.format == "json":
            text = json.dumps({
                "mechanism": args.mechanism,
                "assignment": _assignment_json(inst, assignment),
            }, indent=2) + "\n"
        else:
            text = assignment.format(inst)

    _emit(text, args.output)
    if args.counters:
        _print_counters(counters)
    return 0


# ---------------------------------------------------------------- oracle

def _cmd_oracle(args) -> int:
    inst = parse_instance(_read(args.input))
    if args.what == "stable":
        assignments = enumerate_stable(inst, args.cap)
    else:
        assignments, _ = legal_fixed_point(inst, args.cap)

    if args.what == "verify":
        check = verify_legal_property(inst, assignments, args.cap)
        if check.internal_witness is not None:
            blocker, blocked = check.internal_witness
            print("error: internal stability violated; a member blocks a member",
                  file=sys.stderr)
            sys.stderr.write(blocker.format(inst) + "\n" + blocked.format(inst))
            return 1
        if check.external_witness is not None:
            print("error: external stability violated; an outsider is unblocked",
                  file=sys.stderr)
            sys.stderr.write(check.external_witness.format(inst))
            return 1
        _emit(f"ok: {len(assignments)} legal assignments, "
              "internal and external stability hold\n", args.output)
        return 0

    # deterministic block order: lexicographic in each student's school
    blocks = sorted(assignments,
                    key=lambda m: tuple(m.school_of(a) or "" for a in inst.students))
    _emit("\n".join(m.format(inst) for m in blocks), args.output)
    return 0


# ---------------------------------------------------------------- latin

def _cmd_latin_gen(args) -> int:
    _emit(format_latin(xor_latin(args.order)), args.output)
    return 0


def _cmd_latin_aux(args) -> int:
    inst = instance_from_latin(parse_latin(_read(args.input)))
    aux = auxiliary_instance(inst, student=args.student, school=args.school)
    _emit(aux.to_text(), args.output)
    return 0


def _cmd_latin_count(args) -> int:
    inst = instance_from_latin(parse_latin(_read(args.input)))
    stable = enumerate_stable(inst, args.cap)
    legal, _ = legal_fixed_point(inst, args.cap)
    _emit(f"stable={len(stable)}\nlegal={len(legal)}\n", args.output)
    return 0


# ---------------------------------------------------------------- gen / bench

def _warnings_as_lines(cmd):
    """Run cmd printing each warning as one ``warning: ...`` line on stderr."""
    def run(args) -> int:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            return cmd(args)
    return run


def _market_config(args, seed: int) -> GenConfig:
    return GenConfig(n_students=args.students, n_schools=args.schools,
                     quota_model=args.quota_model, quota_lo=args.quota_lo,
                     quota_hi=args.quota_hi, list_length=args.list_length,
                     seed=seed)


@_warnings_as_lines
def _cmd_gen(args) -> int:
    _emit(generate(_market_config(args, args.seed)).to_text(), args.output)
    return 0


@_warnings_as_lines
def _cmd_bench(args) -> int:
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        raise ValueError("--seeds needs at least one integer")
    if repeated := _repeated(seeds):
        raise ValueError(f"repeated seeds: {repeated}")
    mechanisms = tuple(m.strip() for m in args.mechanisms.split(",") if m.strip())
    rates = tuple(float(r) for r in args.consent_rates.split(",") if r.strip())
    plan = [PlanCell(_market_config(args, s), mechanisms, rates, args.repetitions)
            for s in seeds]
    records = run_bench(plan, timeout_s=args.timeout, repro_dir=args.repro_dir)
    if args.output is None:
        write_csv(records, sys.stdout)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            write_csv(records, fh)
    return 0


# ---------------------------------------------------------------- reduce / validate

def _cmd_reduce(args) -> int:
    _emit(reduce_one_to_one(parse_instance(_read(args.input))).instance.to_text(),
          args.output)
    return 0


def _cmd_validate(args) -> int:
    inst = parse_instance(_read(args.input))
    print(f"ok: {inst.n_students} students, {inst.n_schools} schools, "
          f"{inst.n_edges} edges")
    return 0


# ---------------------------------------------------------------- parser

def _add_market_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--students", type=int, required=True)
    p.add_argument("--schools", type=int, required=True)
    p.add_argument("--list-length", type=int, default=None, metavar="K",
                   help="truncate student lists to their top K (default: complete)")
    p.add_argument("--quota-model", choices=QUOTA_MODELS, default=UNIFORM)
    p.add_argument("--quota-lo", type=int, default=50)
    p.add_argument("--quota-hi", type=int, default=150)


def _positive_seconds(text: str) -> float:
    """A number of seconds above 0; nan and non-numbers are refused too."""
    try:
        if (seconds := float(text)) > 0:
            return seconds
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive number of seconds, got {text!r}")


def _positive_int(text: str) -> int:
    """An integer above 0."""
    try:
        if (n := int(text)) > 0:
            return n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="legalassign",
        description="Stable, legal, and consent-constrained school assignment.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("solve", help="run a mechanism on an instance file")
    sp.add_argument("--mechanism", required=True, choices=MECHANISMS)
    sp.add_argument("--input", required=True, metavar="FILE")
    consent = sp.add_mutually_exclusive_group()
    consent.add_argument("--consent", metavar="FILE",
                         help="whitespace-separated names of consenting students "
                              "(default: everyone consents)")
    consent.add_argument("--consent-rate", type=float, metavar="P",
                         help="sample consent as independent Bernoulli(P) draws")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for --consent-rate sampling")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--counters", action="store_true",
                    help="append the counter block to stderr as key=value lines")
    sp.add_argument("--output", metavar="FILE")
    sp.set_defaults(func=_cmd_solve)

    op = sub.add_parser("oracle", help="brute-force enumeration and checks")
    op.add_argument("what", choices=("legal", "stable", "verify"))
    op.add_argument("--input", required=True, metavar="FILE")
    op.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP,
                    help="abort if the assignment universe exceeds this size")
    op.add_argument("--output", metavar="FILE")
    op.set_defaults(func=_cmd_oracle)

    lp = sub.add_parser("latin", help="Latin ranking-matrix markets")
    lsub = lp.add_subparsers(dest="action", required=True, metavar="action")
    lg = lsub.add_parser("gen", help="emit a Latin ranking matrix")
    lg.add_argument("--order", type=int, required=True)
    lg.add_argument("--output", metavar="FILE")
    lg.set_defaults(func=_cmd_latin_gen)
    la = lsub.add_parser("aux", help="augmented market with one forced student")
    la.add_argument("--input", required=True, metavar="FILE",
                    help="matrix file: n lines of n ranks")
    la.add_argument("--student", default="a~", help="name of the added student")
    la.add_argument("--school", default="b~", help="name of the added school")
    la.add_argument("--output", metavar="FILE")
    la.set_defaults(func=_cmd_latin_aux)
    lc = lsub.add_parser("count", help="count stable and legal assignments")
    lc.add_argument("--input", required=True, metavar="FILE")
    lc.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    lc.add_argument("--output", metavar="FILE")
    lc.set_defaults(func=_cmd_latin_count)

    gp = sub.add_parser("gen", help="emit a random market instance")
    _add_market_flags(gp)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--output", metavar="FILE")
    gp.set_defaults(func=_cmd_gen)

    bp = sub.add_parser("bench", help="run the benchmark harness, emit CSV")
    _add_market_flags(bp)
    bp.add_argument("--seeds", default="0",
                    help="comma-separated instance seeds (one plan cell each)")
    bp.add_argument("--mechanisms", default=",".join(PRODUCTION_MECHANISMS),
                    help="comma-separated subset of: " + ", ".join(MECHANISMS)
                         + " (default: " + ", ".join(PRODUCTION_MECHANISMS) + ")")
    bp.add_argument("--consent-rates", default="1.0",
                    help="comma-separated consent rates in [0, 1]")
    bp.add_argument("--repetitions", type=int, default=1)
    bp.add_argument("--timeout", type=_positive_seconds, default=None, metavar="SECONDS",
                    help="after each run returns, fail with exit status 1 if it "
                         "took longer than this; a stuck run is not stopped")
    bp.add_argument("--repro-dir", default=None, metavar="DIR",
                    help="where to write reproducer bundles on equality failures")
    bp.add_argument("--output", metavar="FILE", help="CSV path (default stdout)")
    bp.set_defaults(func=_cmd_bench)

    rp = sub.add_parser("reduce", help="expand quotas into unit-capacity seats")
    rp.add_argument("--input", required=True, metavar="FILE")
    rp.add_argument("--output", metavar="FILE")
    rp.set_defaults(func=_cmd_reduce)

    vp = sub.add_parser("validate", help="parse an instance file and report size")
    vp.add_argument("--input", required=True, metavar="FILE")
    vp.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage error, 0 on --help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
