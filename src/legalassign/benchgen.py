"""A random market generator and an instrumented benchmark harness.

``generate`` is the one generator entry point.  It gives complete
bipartite markets with uniform permutation preferences, or, with a list
length, truncated markets where students rank only a top-k sample; quotas
are uniform in given bounds or sized to the student/school ratio.  It
hands its index rows to the checks and cross-rank join that a parsed file
goes through, so generated markets are validated like any other.  The
harness runs a set of mechanisms over a plan of generated instances,
verifies the mechanism outputs agree where they must, and emits one CSV
row per (instance, mechanism, consent rate, repetition).
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
import warnings
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, fields
from typing import IO, NamedTuple

import numpy as np

from .baselines import kesten_eadam, simplified_eadam
from .eadam import ConsentSet, rotate_remove_consent
from .gs import Counters, gs_student
from .model import SCHOOLS, STUDENTS, Assignment, Instance, InvalidInstanceError
from .rotate_remove import legal_subinstance, rotate_remove

UNIFORM = "uniform"
NYC = "nyc"
QUOTA_MODELS = (UNIFORM, NYC)

#: Counter-based PRNG; recorded per record so runs are replayable elsewhere.
RNG_NAME = "philox4x64-10"
RNG_VERSION = f"numpy-{np.__version__}"

# Disjoint sub-streams of one seed.
_STREAM_INSTANCE = 1
_STREAM_CONSENT = 2


class Mechanism(NamedTuple):
    #: (instance, consent) -> (output, counters)
    run: Callable[[Instance, ConsentSet | None], tuple[object, Counters]]
    #: reads the consent set; all such forms must give the same assignment
    consent: bool = False
    #: a readable baseline that re-runs deferred acceptance many times, so it
    #: is run only when named
    reference: bool = False


def _assigned(res) -> tuple[Assignment, Counters]:
    return res.assignment, res.counters


def _reported(rep) -> tuple[object, Counters]:
    return rep, rep.counters


# The solvers are looked up as module globals at call time, so a caller
# may swap one out (the benchmark's tracer does).
_TABLE = {
    "gs": Mechanism(lambda inst, consent: _assigned(gs_student(inst))),
    "eadam": Mechanism(lambda inst, consent: _assigned(kesten_eadam(inst, consent)),
                       consent=True, reference=True),
    "eadam-simplified": Mechanism(
        lambda inst, consent: _assigned(simplified_eadam(inst, consent)),
        consent=True, reference=True),
    "eadam-fast": Mechanism(
        lambda inst, consent: _assigned(rotate_remove_consent(inst, consent)),
        consent=True),
    "legal-student-opt": Mechanism(
        lambda inst, consent: _assigned(rotate_remove(inst, SCHOOLS))),
    "legal-school-opt": Mechanism(
        lambda inst, consent: _assigned(rotate_remove(inst, STUDENTS))),
    "legal-subgraph": Mechanism(
        lambda inst, consent: _reported(legal_subinstance(inst))),
}

MECHANISMS = tuple(_TABLE)
#: The forms that take a consent set; their outputs must coincide on every input.
CONSENT_MECHANISMS = tuple(m for m, e in _TABLE.items() if e.consent)
#: What a plan cell runs by default: every mechanism but the reference forms.
PRODUCTION_MECHANISMS = tuple(m for m, e in _TABLE.items() if not e.reference)


class BenchError(RuntimeError):
    pass


class MechanismTimeout(BenchError):
    """A solver exceeded the configured time budget (checked after the run;
    solvers are not preempted mid-flight)."""

    def __init__(self, mechanism: str, instance_id: str, elapsed_s: float):
        super().__init__(f"{mechanism} on {instance_id} took {elapsed_s:.1f}s")
        self.mechanism = mechanism
        self.instance_id = instance_id
        self.elapsed_s = elapsed_s


class EqualityViolation(BenchError):
    """Two mechanisms that must agree produced different assignments.  The
    offending instance, consent set, and seed are written out for replay."""

    def __init__(self, message: str, bundle_dir: str):
        super().__init__(f"{message} (reproducer written to {bundle_dir})")
        self.bundle_dir = bundle_dir


@dataclass(frozen=True)
class GenConfig:
    """Shape of one random market.

    quota_model picks how seats are drawn: "uniform" uses [quota_lo,
    quota_hi], "nyc" uses ceil(0.5*mu)..ceil(1.5*mu) with mu the mean
    number of students per school.  list_length=None means complete
    preference lists; an integer truncates each student to a top-k sample.
    """

    n_students: int
    n_schools: int
    quota_model: str = UNIFORM
    quota_lo: int = 50
    quota_hi: int = 150
    list_length: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_students < 1 or self.n_schools < 1:
            raise InvalidInstanceError("need at least one agent on each side")
        if self.quota_model not in QUOTA_MODELS:
            raise InvalidInstanceError(f"unknown quota model: {self.quota_model!r}")
        if self.quota_model == UNIFORM and not 0 < self.quota_lo <= self.quota_hi:
            raise InvalidInstanceError("quota bounds must be positive and ordered")
        if self.list_length is not None and self.list_length < 1:
            raise InvalidInstanceError("list truncation must keep at least one school")

    def quota_bounds(self) -> tuple[int, int]:
        if self.quota_model == NYC:
            mu = math.ceil(self.n_students / self.n_schools)
            return math.ceil(0.5 * mu), math.ceil(1.5 * mu)
        return self.quota_lo, self.quota_hi


def _rng(seed: int, stream: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def generate(cfg: GenConfig) -> Instance:
    """The random market of cfg: students a1.., schools b1...

    Complete lists are independent uniform permutations of the other side.
    Truncated lists: each student ranks a uniform top-k sample of the
    schools, and each school ranks exactly the students that listed it, in
    uniform random order.  Quotas are drawn last, per quota_model.  The
    index rows pass the checks and cross-rank join of a parsed file.
    """
    n_a, n_b, k = cfg.n_students, cfg.n_schools, cfg.list_length
    if k is not None and k > n_b:
        warnings.warn(f"list length {k} exceeds {n_b} schools; clamping",
                      RuntimeWarning, stacklevel=2)
        k = n_b
    rng = _rng(cfg.seed, _STREAM_INSTANCE)
    if k is None:
        s_pref = rng.permuted(np.tile(np.arange(n_b), (n_a, 1)), axis=1).tolist()
        b_pref = rng.permuted(np.tile(np.arange(n_a), (n_b, 1)), axis=1).tolist()
    else:
        s_pref = [rng.choice(n_b, size=k, replace=False).tolist() for _ in range(n_a)]
        listers: list[list[int]] = [[] for _ in range(n_b)]
        for a, row in enumerate(s_pref):
            for b in row:
                listers[b].append(a)
        b_pref = [[row[i] for i in rng.permutation(len(row))] for row in listers]
    schools = [f"b{j + 1}" for j in range(n_b)]
    lo, hi = cfg.quota_bounds()
    quota = dict(zip(schools, rng.integers(lo, hi + 1, size=n_b).tolist()))
    return Instance._from_rows([f"a{i + 1}" for i in range(n_a)], schools, quota,
                               s_pref, b_pref)


def sample_consent(inst: Instance, rate: float, seed: int) -> ConsentSet:
    """Independent Bernoulli(rate) draw per student.  One uniform variate is
    drawn per student regardless of rate, so consent sets for the same seed
    are nested as the rate grows."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"consent rate must lie in [0, 1], got {rate}")
    rng = _rng(seed, _STREAM_CONSENT)
    draws = rng.random(inst.n_students)
    return ConsentSet.of(a for a, u in zip(inst.students, draws) if u < rate)


@dataclass(frozen=True)
class BenchRecord:
    instance_id: str
    n_students: int
    n_schools: int
    n_edges: int
    quota_model: str
    mechanism: str
    consent_rate: float
    seed: int
    repetition: int
    wall_time_ms: float
    proposals: int
    edge_scans: int
    rotations_eliminated: int
    edges_removed: int
    gs_reruns: int
    rng_name: str = RNG_NAME
    rng_version: str = RNG_VERSION

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism: {self.mechanism!r}")
        if min(getattr(self, f) for f in _COUNT_COLUMNS) < 0:
            raise ValueError("counters must be non-negative")

    def csv_row(self) -> list[str]:
        return [format(getattr(self, f), _CSV_FORMATS.get(f, "")) for f in CSV_COLUMNS]


CSV_COLUMNS = tuple(f.name for f in fields(BenchRecord))
_COUNT_COLUMNS = tuple(Counters().report())
_CSV_FORMATS = {"consent_rate": "g", "wall_time_ms": ".3f"}


@dataclass(frozen=True)
class PlanCell:
    """One benchmark cell: a market shape, the mechanisms to run on it, the
    consent rates to sample, and how many times to re-time each run."""

    config: GenConfig
    mechanisms: tuple[str, ...] = PRODUCTION_MECHANISMS
    consent_rates: tuple[float, ...] = (1.0,)
    repetitions: int = 1

    def __post_init__(self) -> None:
        unknown = [m for m in self.mechanisms if m not in MECHANISMS]
        if unknown:
            raise ValueError(f"unknown mechanisms: {unknown}")
        if not self.mechanisms:
            raise ValueError("cell lists no mechanisms")
        if repeated := _repeated(self.mechanisms):
            raise ValueError(f"repeated mechanisms: {repeated}")
        if any(not 0.0 <= r <= 1.0 for r in self.consent_rates):
            raise ValueError("consent rates must lie in [0, 1]")
        if not self.consent_rates:
            raise ValueError("cell lists no consent rates")
        if repeated := _repeated(self.consent_rates):
            raise ValueError(f"repeated consent rates: {repeated}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")


def _repeated(values: Sequence) -> list:
    """The values listed more than once, compared by value, so that the
    rates 1 and 1.0 are one rate."""
    return [v for v, n in Counter(values).items() if n > 1]


def instance_id(cfg: GenConfig) -> str:
    lists = "complete" if cfg.list_length is None else f"top{cfg.list_length}"
    return (f"{lists}-{cfg.n_students}x{cfg.n_schools}-"
            f"{cfg.quota_model}-s{cfg.seed}")


def _run_one(mechanism: str, inst: Instance, consent: ConsentSet | None,
             ) -> tuple[object, Counters]:
    """Run one mechanism; return its output and its counters."""
    if mechanism not in _TABLE:
        raise ValueError(f"unknown mechanism: {mechanism!r}")
    return _TABLE[mechanism].run(inst, consent)


def _write_reproducer(base_dir: str | None, iid: str, inst: Instance,
                      consent: ConsentSet, cfg: GenConfig, rate: float,
                      disagreement: dict[str, object]) -> str:
    root = base_dir if base_dir is not None else os.getcwd()
    bundle = os.path.join(root, f"bench-repro-{iid}-r{rate:g}")
    os.makedirs(bundle, exist_ok=True)
    with open(os.path.join(bundle, "instance.inst"), "w") as fh:
        fh.write(inst.to_text())
    with open(os.path.join(bundle, "consent.txt"), "w") as fh:
        fh.write("\n".join(sorted(consent.consenting)) + "\n")
    meta = {
        "instance_id": iid,
        "seed": cfg.seed,
        "consent_rate": rate,
        "rng": f"{RNG_NAME}/{RNG_VERSION}",
        "config": {
            "n_students": cfg.n_students,
            "n_schools": cfg.n_schools,
            "quota_model": cfg.quota_model,
            "quota_lo": cfg.quota_lo,
            "quota_hi": cfg.quota_hi,
            "list_length": cfg.list_length,
        },
        "disagreement": disagreement,
    }
    with open(os.path.join(bundle, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return bundle


def _check_agreement(outputs: dict[str, object], inst: Instance,
                     consent: ConsentSet, cfg: GenConfig, rate: float,
                     iid: str, repro_dir: str | None) -> None:
    ran = [m for m in CONSENT_MECHANISMS if m in outputs]
    if len(ran) < 2:
        return
    baseline = outputs[ran[0]]
    for m in ran[1:]:
        if outputs[m] == baseline:
            continue
        assert isinstance(baseline, Assignment)
        other = outputs[m]
        assert isinstance(other, Assignment)
        diff = {a: [baseline[a], other[a]]
                for a in inst.students if baseline[a] != other[a]}
        bundle = _write_reproducer(
            repro_dir, iid, inst, consent, cfg, rate,
            {"mechanisms": [ran[0], m], "differing_students": diff})
        raise EqualityViolation(
            f"{ran[0]} and {m} disagree on {iid} at consent rate {rate:g}",
            bundle)


def run_bench(plan: Sequence[PlanCell], *, timeout_s: float | None = None,
              repro_dir: str | None = None) -> list[BenchRecord]:
    """Execute a benchmark plan.

    Per cell: generate the instance once, then for each consent rate sample
    a consent set and run every mechanism `repetitions` times.  Only the
    solver is timed; generation, consent sampling, and verification are
    not.  Outputs of the repeat runs are identical by determinism, so the
    cross-mechanism agreement check runs on the first repetition only.
    Records come back sorted by (instance, rate, mechanism, repetition).
    """
    if not plan:
        raise ValueError("empty benchmark plan")
    mech_order = {m: i for i, m in enumerate(MECHANISMS)}
    records: list[BenchRecord] = []
    for cell in plan:
        cfg = cell.config
        inst = generate(cfg)
        iid = instance_id(cfg)
        for rate in cell.consent_rates:
            consent = sample_consent(inst, rate, cfg.seed)
            outputs: dict[str, object] = {}
            for rep in range(cell.repetitions):
                for mech in cell.mechanisms:
                    t0 = time.perf_counter()
                    out, counters = _run_one(mech, inst, consent)
                    elapsed = time.perf_counter() - t0
                    if timeout_s is not None and elapsed > timeout_s:
                        raise MechanismTimeout(mech, iid, elapsed)
                    if rep == 0:
                        outputs[mech] = out
                    records.append(BenchRecord(
                        iid, inst.n_students, inst.n_schools, inst.n_edges,
                        cfg.quota_model, mech, rate, cfg.seed, rep,
                        elapsed * 1000.0, **counters.report()))
            _check_agreement(outputs, inst, consent, cfg, rate, iid, repro_dir)
    records.sort(key=lambda r: (r.instance_id, r.consent_rate,
                                mech_order[r.mechanism], r.repetition))
    return records


def write_csv(records: Iterable[BenchRecord], out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.csv_row())
