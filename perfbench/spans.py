"""Spans around the calls into each legalassign layer, recorded from outside.

``instrument(tracer)`` swaps the names through which the ``solve`` path
reaches each layer (a module global its caller looks up, or a method on a
class) for wrappers that record a span, and restores them on exit.  The
library is not modified, and with tracing off nothing is swapped.

A span has a name, a start and an end (``perf_counter_ns``), the span that
caused it, and the id of the call it belongs to: every span of one
``cli.main`` call shares that id.  Wrappers also copy counters out of the
result objects into the span's attributes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    call: str
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Keeps every span in memory; ``dump`` hands them out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._pending: list[tuple] = []
        self._call = ""

    @contextlib.contextmanager
    def span(self, name: str, call: str | None = None, **attrs):
        """Open a span; passing ``call`` starts a new root with that id."""
        if call is not None:
            self._call = call
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), self._call, name, parent,
                 time.perf_counter_ns(), attrs=dict(attrs))
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def hold(self, s: Span, describe, args, kwargs, result) -> None:
        """Keep a result until ``settle`` copies its counters into ``s``."""
        self._pending.append((s, describe, args, kwargs, result))

    def settle(self) -> None:
        """Copy counters out of the held results, outside any timed region."""
        for s, describe, args, kwargs, result in self._pending:
            s.attrs.update(describe(args, kwargs, result))
        self._pending.clear()

    def dump(self) -> list[dict]:
        fields = ("id", "call", "name", "parent", "start_ns", "end_ns", "attrs")
        return [{f: getattr(s, f) for f in fields} for s in self.spans]


class NullTracer:
    """Tracing off: ``span`` costs one context manager and records nothing."""

    @contextlib.contextmanager
    def span(self, name: str, call: str | None = None, **attrs):
        yield Span(-1, "", name, None, 0, attrs=dict(attrs))

    def settle(self) -> None:
        pass


# -- what each wrapper copies out of the result object --------------------

def _gs_result(args, kwargs, res) -> dict:
    return {"proposals": res.counters.proposals,
            "cells_scanned": res.counters.cells_scanned}


def _gs_arrays(args, kwargs, res) -> dict:
    counters = res[1]
    return {"proposals": counters.proposals,
            "cells_scanned": counters.cells_scanned}


def _engine_run(args, kwargs, run) -> dict:
    c = run.counters
    out = {"mode": kwargs.get("mode", "legal"), "edge_scans": c.edge_scans,
           "rotations": c.rotations_eliminated, "edges_removed": c.edges_removed}
    if out["mode"] == "consent":
        out["sealed"] = _sealed(args[0].students, kwargs["consenting"], run.removed_edges)
    return out


def _sealed(students, consenting, removed) -> int:
    """Edges removed by the nonconsent cascade rather than at a sink.

    The walk records a sink deletion (a, b) and, when a did not consent,
    then seals b's list below a: the removals right after it at school b.
    A sealed school is a sink, so the next removal is at another school.
    """
    index = {a: i for i, a in enumerate(students)}
    sealed = i = 0
    while i < len(removed):
        a, b = removed[i]
        i += 1
        if not consenting[index[a]]:
            while i < len(removed) and removed[i][1] == b:
                sealed += 1
                i += 1
    return sealed


def _side(args, kwargs, run) -> dict:
    return {"mode": args[1] if len(args) > 1 else kwargs.get("side", "schools")}


def _subinstance(args, kwargs, rep) -> dict:
    return {"illegal_edges": len(rep.illegal_edges)}


def _universe(args, kwargs, assignments) -> dict:
    return {"size": len(assignments)}


def _patch_table() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, describe) for every traced boundary.

    Names are patched where the caller looks them up: ``cli`` and
    ``benchgen._run_one`` for the mechanism calls, ``rotate_remove`` and
    ``eadam`` for the walks, ``engine`` for the deferred-acceptance runs
    that start each walk.
    """
    # import_module, because the package rebinds ``rotate_remove`` to the function
    benchgen, cli, eadam, engine, model, oracle, rr = (
        importlib.import_module(f"legalassign.{m}")
        for m in ("benchgen", "cli", "eadam", "engine", "model", "oracle", "rotate_remove"))
    return [
        (cli, "parse_instance", "model.parse_instance", None),
        (model.Instance, "__init__", "model.instance_build", None),
        (model.Assignment, "format", "model.format", None),
        (cli, "legal_subinstance", "rotate_remove.legal_subinstance", _subinstance),
        (benchgen, "gs_student", "gs.student", _gs_result),
        (benchgen, "rotate_remove", "rotate_remove.rotate_remove", _side),
        (benchgen, "rotate_remove_consent", "eadam.rotate_remove_consent", None),
        (rr, "school_side_run", "engine.school_side_run", _engine_run),
        (rr, "student_side_run", "engine.student_side_run", _engine_run),
        (eadam, "school_side_run", "engine.school_side_run", _engine_run),
        (engine, "_gs_student_arrays", "gs.student", _gs_arrays),
        (engine, "_gs_school_arrays", "gs.school", _gs_arrays),
        (oracle, "enumerate_assignments", "oracle.enumerate_assignments", _universe),
    ]


def _wrap(tracer: Tracer, fn, name: str, describe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            out = fn(*args, **kwargs)
        if describe is not None:
            tracer.hold(s, describe, args, kwargs, out)
        return out
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every traced boundary through ``tracer`` for the duration."""
    saved = []
    try:
        for owner, attr, name, describe in _patch_table():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, describe))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- from spans to per-layer metrics ----------------------------------------

#: Layers measured by self time: (span name, mode) -> metric.  The thin
#: mechanism wrappers count towards the walk they dispatch to.
SELF_LAYERS = {
    ("model.parse_instance", None): "model.parse_instance_s",
    ("model.instance_build", None): "model.instance_build_s",
    ("model.format", None): "model.format_s",
    ("gs.student", None): "gs.student_s",
    ("gs.school", None): "gs.school_s",
    ("engine.school_side_run", "legal"): "engine.school_walk_s",
    ("rotate_remove.rotate_remove", "schools"): "engine.school_walk_s",
    ("engine.student_side_run", "legal"): "engine.student_walk_s",
    ("rotate_remove.rotate_remove", "students"): "engine.student_walk_s",
    ("engine.school_side_run", "consent"): "eadam.fast_walk_s",
    ("eadam.rotate_remove_consent", None): "eadam.fast_walk_s",
    ("engine.student_side_run", "enumerate"): "rotations.all_rotations_s",
}

#: Layers timed during set-up rather than in the rounds.
SETUP_LAYERS = {"benchgen.generate_s", "benchgen.sample_consent_s", "model.to_text_s"}

#: Layers measured by the whole duration of their span.
INCLUSIVE_LAYERS = {
    "benchgen.generate": "benchgen.generate_s",
    "benchgen.sample_consent": "benchgen.sample_consent_s",
    "model.to_text": "model.to_text_s",
    "rotate_remove.legal_subinstance": "rotate_remove.legal_subinstance_s",
    "eadam.kesten_eadam": "eadam.kesten_s",
    "eadam.simplified_eadam": "eadam.simplified_s",
    "oracle.legal_fixed_point": "oracle.legal_fixed_point_s",
    "oracle.verify_legal_property": "oracle.verify_s",
    "oracle.enumerate_stable": "oracle.enumerate_stable_s",
}


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the part its direct children cover."""
    child = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.dur_ns
    return {s.id: s.dur_ns - child[s.id] for s in spans}


def _key(s: Span) -> tuple[str, str | None]:
    return s.name, s.attrs.get("mode")


def layer_seconds(spans: list[Span]) -> dict[str, float]:
    """Per-layer seconds summed over ``spans`` (one round's worth)."""
    own = self_times(spans)
    walks = defaultdict(int)  # legal_subinstance span id -> its walks' time
    for s in spans:
        if s.name.startswith("engine.") and s.parent is not None:
            walks[s.parent] += s.dur_ns
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if _key(s) in SELF_LAYERS:
            out[SELF_LAYERS[_key(s)]] += own[s.id] / 1e9
        if s.name in INCLUSIVE_LAYERS:
            out[INCLUSIVE_LAYERS[s.name]] += s.dur_ns / 1e9
        if s.name == "cli.solve":
            out[f"cli.{s.attrs['mechanism']}.self_s"] += own[s.id] / 1e9
        if s.name == "rotate_remove.legal_subinstance":
            # without its two walks and the enumeration: the tuple work and the rebuild
            out["rotate_remove.self_s"] += (s.dur_ns - walks[s.id]) / 1e9
    return dict(out)


def accounting(spans: list[Span]) -> dict[str, dict[str, float]]:
    """For each ``cli.solve`` root: exclusive self seconds by span kind.

    The parts add up to the root's duration, which is how the per-layer
    self times are shown to cover the traced wall time of each solve.
    """
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    roots = {s.id: s for s in spans if s.name == "cli.solve"}
    root_of: dict[int, int] = {}
    for s in spans:  # spans are stored in start order, parents first
        if s.id in roots:
            root_of[s.id] = s.id
        elif s.parent is not None and s.parent in root_of:
            root_of[s.id] = root_of[s.parent]
    for s in spans:
        r = root_of.get(s.id)
        if r is None:
            continue
        label = s.name if s.attrs.get("mode") is None else f"{s.name}[{s.attrs['mode']}]"
        parts = out.setdefault(roots[r].call, {})
        parts[label] = parts.get(label, 0.0) + own[s.id] / 1e9
    return out


#: Counters copied from result objects: (metric, mechanism of the solve call
#: or None for any call, span name, mode, attribute).
COUNTS = (
    ("gs.proposals", "gs", "gs.student", None, "proposals"),
    ("gs.cells_scanned", "gs", "gs.student", None, "cells_scanned"),
    ("engine.school_scans", "legal-student-opt", "engine.school_side_run", "legal", "edge_scans"),
    ("engine.student_scans", "legal-school-opt", "engine.student_side_run", "legal", "edge_scans"),
    ("engine.rotations_eliminated", "legal-student-opt", "engine.school_side_run", "legal", "rotations"),
    ("engine.rotations_eliminated", "legal-school-opt", "engine.student_side_run", "legal", "rotations"),
    ("engine.edges_removed", "legal-student-opt", "engine.school_side_run", "legal", "edges_removed"),
    ("engine.edges_removed", "legal-school-opt", "engine.student_side_run", "legal", "edges_removed"),
    ("eadam.sealed_edges", "eadam-fast", "engine.school_side_run", "consent", "sealed"),
    ("rotations.count", "legal-subgraph", "engine.student_side_run", "enumerate", "rotations"),
    ("rotate_remove.illegal_edges", None, "rotate_remove.legal_subinstance", None, "illegal_edges"),
    ("eadam.kesten_gs_runs", None, "eadam.kesten_eadam", None, "gs_runs"),
    ("eadam.simplified_gs_runs", None, "eadam.simplified_eadam", None, "gs_runs"),
    ("oracle.universe_size", None, "oracle.enumerate_assignments", None, "size"),
)


def layer_counts(spans: list[Span], n_edges: int) -> dict[str, float]:
    """Counters of one round, with the scan counts per preference-list edge."""
    by_id = {s.id: s for s in spans}
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        mech = s.call.rpartition(".")[2]
        for metric, want_mech, name, mode, attr in COUNTS:
            if s.name != name or s.attrs.get("mode") != mode:
                continue
            if want_mech is not None and mech != want_mech:
                continue
            if name == "oracle.enumerate_assignments" and (
                    s.parent is None or by_id[s.parent].name != "oracle.legal_fixed_point"):
                continue  # the universe is counted once, by the fixed point
            out[metric] += s.attrs[attr]
    per_edge = max(n_edges, 1)
    out["gs.cells_per_edge"] = out["gs.cells_scanned"] / per_edge
    out["engine.school_scans_per_edge"] = out.pop("engine.school_scans") / per_edge
    out["engine.student_scans_per_edge"] = out.pop("engine.student_scans") / per_edge
    return dict(out)


