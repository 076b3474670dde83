"""Linear-time checks of the text that ``legalassign solve`` writes.

The checks read only the instance's public views and the CLI's output
text, so they share no code with the solvers they check.  An edge (a, b)
is numbered by its key ``a * n_schools + b``; the ranks on both sides sit
in numpy arrays sorted by key, and each check is a few vectorised passes
over the edges.  Stability uses each school's worst-member rank, so it
costs O(|E|), unlike ``model.is_stable``, which is O(|E| * quota).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from legalassign import (gs_student, legal_subinstance, rotate_remove,
                         rotate_remove_consent)

MECHANISMS = ("gs", "eadam-fast", "legal-student-opt", "legal-school-opt",
              "legal-subgraph")
ASSIGNMENT_MECHANISMS = MECHANISMS[:4]
SUBGRAPH = "legal-subgraph"
#: Failures that involve more than one mechanism's output.
CROSS = "differential"


class CheckFailure(ValueError):
    """An output failed a check; the message says which and how."""


class Market:
    """Index-level view of one instance, built from its public views."""

    def __init__(self, inst) -> None:
        self.students = inst.students
        self.schools = inst.schools
        self.s_idx = {a: i for i, a in enumerate(self.students)}
        self.b_idx = {b: j for j, b in enumerate(self.schools)}
        n_a, n_b = len(self.students), len(self.schools)
        self.n_b = n_b
        self.quota = np.array([inst.quota[b] for b in self.schools], dtype=np.int64)

        s_rows = [[self.b_idx[b] for b in inst.student_prefs[a]] for a in self.students]
        b_rows = [[self.s_idx[a] for a in inst.school_prefs[b]] for b in self.schools]
        self.deg = np.array([len(r) for r in s_rows], dtype=np.int64)
        s_a, s_b, s_r = _flatten(s_rows)
        b_b, b_a, b_r = _flatten(b_rows)
        key_s = s_a * n_b + s_b
        key_b = b_a * n_b + b_b
        o_s = np.argsort(key_s, kind="stable")
        o_b = np.argsort(key_b, kind="stable")
        self.key = key_s[o_s]
        if not np.array_equal(self.key, key_b[o_b]):
            raise CheckFailure("instance adjacency is not symmetric")
        if self.key.size and not np.all(np.diff(self.key) > 0):
            raise CheckFailure("instance lists an edge twice")
        self.ea, self.eb = s_a[o_s], s_b[o_s]
        self.ra = s_r[o_s]     # rank of b on a's list
        self.rb = b_r[o_b]     # rank of a on b's list
        self.n_a = n_a

    @property
    def n_edges(self) -> int:
        return int(self.key.size)

    def edge_positions(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        keys = a * self.n_b + b
        pos = np.searchsorted(self.key, keys)
        pos_c = np.minimum(pos, max(self.key.size - 1, 0))
        if self.key.size == 0 or not np.array_equal(self.key[pos_c], keys):
            raise CheckFailure("assignment uses a pair that is not an edge")
        return pos_c

    def own_rank(self, match: np.ndarray) -> np.ndarray:
        """Each student's rank of their school; the list length if unmatched."""
        rank = self.deg.copy()
        on = np.nonzero(match >= 0)[0]
        rank[on] = self.ra[self.edge_positions(on, match[on])]
        return rank

    def blocking_edges(self, match: np.ndarray, legal: np.ndarray | None = None) -> int:
        """How many edges block ``match``, within ``legal`` when given.

        Restricting to a subset of edges keeps every list's relative order,
        so the original ranks decide blocking in the subinstance too.
        """
        on = np.nonzero(match >= 0)[0]
        pos = self.edge_positions(on, match[on])
        if legal is not None and not np.all(legal[pos]):
            raise CheckFailure("assignment uses an edge outside the subinstance")
        fill = np.bincount(match[on], minlength=self.n_b)
        if np.any(fill > self.quota):
            raise CheckFailure("a school is over quota")
        worst = np.full(self.n_b, -1, dtype=np.int64)
        np.maximum.at(worst, self.eb[pos], self.rb[pos])
        mine = self.deg.copy()
        mine[on] = self.ra[pos]
        eb = self.eb
        block = (self.ra < mine[self.ea]) & ((fill[eb] < self.quota[eb]) | (self.rb < worst[eb]))
        if legal is not None:
            block &= legal
        return int(np.count_nonzero(block))

    # -- reading CLI output back -------------------------------------------

    def read_assignment(self, text: str) -> np.ndarray:
        """Parse ``student school`` lines, one per student in instance order."""
        lines = text.splitlines()
        if len(lines) != self.n_a:
            raise CheckFailure(f"{len(lines)} assignment lines for {self.n_a} students")
        match = np.empty(self.n_a, dtype=np.int64)
        for i, line in enumerate(lines):
            a, _, b = line.partition(" ")
            if a != self.students[i]:
                raise CheckFailure(f"line {i + 1} names {a!r}, expected {self.students[i]!r}")
            match[i] = -1 if b == "-" else self._school(b)
        return match

    def read_edges(self, text: str) -> np.ndarray:
        """Sorted keys of ``student school`` lines; rejects repeats."""
        tokens = text.split()
        if len(tokens) % 2 or len(tokens) != 2 * text.count("\n"):
            raise CheckFailure("edge lines must hold exactly two names")
        try:
            a = np.fromiter(map(self.s_idx.__getitem__, tokens[0::2]), np.int64, len(tokens) // 2)
            b = np.fromiter(map(self.b_idx.__getitem__, tokens[1::2]), np.int64, len(tokens) // 2)
        except KeyError as exc:
            raise CheckFailure(f"unknown agent {exc.args[0]!r} in edge list") from None
        keys = np.sort(a * self.n_b + b)
        if keys.size and not np.all(np.diff(keys) > 0):
            raise CheckFailure("edge listed twice")
        return keys

    def read_subgraph(self, text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(legal keys, illegal keys, student-optimal, school-optimal)."""
        heads = ("legal edges:\n", "\nillegal edges:\n", "\nstudent-optimal:\n",
                 "\nschool-optimal:\n")
        cuts = []
        at = 0
        for head in heads:
            at = text.find(head, at)
            if at < 0:
                raise CheckFailure(f"missing section {head.strip()!r}")
            cuts.append((at, at + len(head)))
        ends = [start for start, _ in cuts[1:]] + [len(text)]
        bodies = [text[body:end] for (_, body), end in zip(cuts, ends)]
        return (self.read_edges(bodies[0]), self.read_edges(bodies[1]),
                self.read_assignment(bodies[2]), self.read_assignment(bodies[3]))

    def _school(self, b: str) -> int:
        try:
            return self.b_idx[b]
        except KeyError:
            raise CheckFailure(f"unknown school {b!r}") from None

    # -- library results in the same form ----------------------------------

    def match_of(self, assignment) -> np.ndarray:
        return np.array([-1 if (b := assignment.school_of(a)) is None else self.b_idx[b]
                         for a in self.students], dtype=np.int64)

    def keys_of(self, edges) -> np.ndarray:
        return np.sort(np.array([self.s_idx[a] * self.n_b + self.b_idx[b] for a, b in edges],
                                dtype=np.int64))


def _flatten(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner, listed agent, rank) for every cell of every row."""
    lens = np.array([len(r) for r in rows], dtype=np.int64)
    total = int(lens.sum())
    owner = np.repeat(np.arange(len(rows), dtype=np.int64), lens)
    listed = np.fromiter(chain.from_iterable(rows), np.int64, total)
    starts = np.repeat(np.cumsum(lens) - lens, lens)
    return owner, listed, np.arange(total, dtype=np.int64) - starts


class Expected:
    """Library results for one market, in the checker's index form."""

    def __init__(self, market: Market, results: dict) -> None:
        self.match = {m: market.match_of(results[m]) for m in ASSIGNMENT_MECHANISMS}
        rep = results[SUBGRAPH]
        self.legal = market.keys_of(rep.legal_edges)
        self.illegal = market.keys_of(rep.illegal_edges)
        self.sub_student = market.match_of(rep.student_optimal)
        self.sub_school = market.match_of(rep.school_optimal)


def check_outputs(market: Market, expected: Expected, outputs: dict[str, str],
                  full_consent: bool) -> dict[str, list[str]]:
    """Every output check for one market; failures keyed by mechanism.

    ``outputs`` holds the text each mechanism's solve wrote; a mechanism
    missing from it already failed and is skipped.  Failures that involve
    several outputs are keyed by ``CROSS``.
    """
    fails: dict[str, list[str]] = {m: [] for m in (*MECHANISMS, CROSS)}
    got: dict[str, np.ndarray] = {}
    for mech in ASSIGNMENT_MECHANISMS:
        if mech not in outputs:
            continue
        try:
            got[mech] = market.read_assignment(outputs[mech])
        except CheckFailure as exc:
            fails[mech].append(f"unreadable output: {exc}")
            continue
        if not np.array_equal(got[mech], expected.match[mech]):
            fails[mech].append("output differs from the library result")

    rank: dict[str, np.ndarray] = {}
    for mech, match in got.items():
        try:
            rank[mech] = market.own_rank(match)
            if mech == "gs" and (n := market.blocking_edges(match)):
                fails[mech].append(f"gs output is blocked by {n} edges")
        except CheckFailure as exc:
            fails[mech].append(str(exc))

    # Students weakly improve along each pair.  EADAM with partial consent
    # need not lie below the student-optimal legal assignment (a student
    # can do better under either one), so that pair is compared only under
    # full consent, where the two must be equal.
    for lo, hi in (("legal-school-opt", "gs"), ("gs", "legal-student-opt"), ("gs", "eadam-fast")):
        if lo in rank and hi in rank and (worse := int(np.count_nonzero(rank[hi] > rank[lo]))):
            fails[CROSS].append(f"{worse} students prefer {lo} to {hi}")
    if full_consent and "eadam-fast" in got and "legal-student-opt" in got:
        if not np.array_equal(got["eadam-fast"], got["legal-student-opt"]):
            fails[CROSS].append("eadam-fast differs from legal-student-opt under full consent")

    if SUBGRAPH in outputs:
        _check_subgraph(market, expected, outputs[SUBGRAPH], got, fails)
    return fails


def _check_subgraph(market: Market, expected: Expected, text: str,
                    got: dict[str, np.ndarray], fails: dict[str, list[str]]) -> None:
    own = fails[SUBGRAPH]
    try:
        legal, illegal, top, bottom = market.read_subgraph(text)
    except CheckFailure as exc:
        own.append(f"unreadable output: {exc}")
        return
    if not (np.array_equal(legal, expected.legal) and np.array_equal(illegal, expected.illegal)
            and np.array_equal(top, expected.sub_student)
            and np.array_equal(bottom, expected.sub_school)):
        own.append("output differs from the library result")
    if not np.array_equal(np.sort(np.concatenate([legal, illegal])), market.key):
        own.append("legal and illegal edges do not partition the edges")
    mask = np.zeros(market.n_edges, dtype=bool)
    mask[np.minimum(np.searchsorted(market.key, legal), max(market.n_edges - 1, 0))] = True
    for name, m in (("student-optimal", top), ("school-optimal", bottom)):
        try:
            n = market.blocking_edges(m, legal=mask)
            if n:
                own.append(f"{name} is blocked by {n} edges of the subinstance")
        except CheckFailure as exc:
            own.append(f"{name}: {exc}")
    for name, m, mech in (("student-optimal", top, "legal-student-opt"),
                          ("school-optimal", bottom, "legal-school-opt")):
        if mech in got and not np.array_equal(m, got[mech]):
            fails[CROSS].append(f"legal-subgraph {name} differs from {mech}")


def library_results(inst, consent) -> dict:
    """What each production mechanism returns when called as a library."""
    return {
        "gs": gs_student(inst).assignment,
        "eadam-fast": rotate_remove_consent(inst, consent).assignment,
        "legal-student-opt": rotate_remove(inst, "schools").assignment,
        "legal-school-opt": rotate_remove(inst, "students").assignment,
        SUBGRAPH: legal_subinstance(inst),
    }
