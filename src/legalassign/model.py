"""Core market model: instances, assignments, blocking, dominance, reduction.

An instance is a bipartite market between students and schools.  Every agent
ranks a subset of the other side (strict order, most preferred first), school
``b`` additionally has a seat quota ``q_b >= 1``.  Adjacency is symmetric:
``b`` appears on ``a``'s list iff ``a`` appears on ``b``'s.  Being unmatched
is always an agent's least preferred outcome.

Each job is done in one place: `_resolve` turns a row of names into agent
indices for the constructor and the parser alike, `_school_worst`
gives each school's fill and worst member to `blocking_pairs` and the walks,
and `_positions` reads an assignment into list positions for
`blocking_pairs`, `dominates` and the oracle.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Container, Iterator, Mapping, NoReturn, Sequence

import numpy as np

STUDENTS = "students"
SCHOOLS = "schools"

SIDES = (STUDENTS, SCHOOLS)


class InvalidInstanceError(ValueError):
    """Raised when instance data violates a structural invariant."""


class ParseError(ValueError):
    """Raised on malformed instance text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def _check_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


#: An identifier is what the file format can write back: one non-empty token
#: with none of these characters (whitespace, the comment mark, the name
#: separator and the quota brackets), and none of these words (the roster
#: heads, and the mark `Assignment.format` writes for an unmatched student).
_NOT_IN_IDENTIFIER = re.compile(r"[\s#:\[\]]")
_RESERVED = (*SIDES, "-")


def _resolve(owner: str, names: Sequence[str], index: Mapping[str, int],
             unresolved: set[str]) -> list:
    """The index row of ``owner``'s names; if one is unknown (or cannot be
    a key), the names themselves, with ``owner`` added to ``unresolved``."""
    try:
        return list(map(index.__getitem__, names))
    except (KeyError, TypeError):
        unresolved.add(owner)
        return list(names)


#: Edge count from which `Instance` joins the cross ranks by sorting.  Below
#: it the dict join is faster, as numpy's fixed cost per call outweighs its
#: per-edge gain (the measurement is in CHANGES.md).
_SORT_JOIN_MIN_EDGES = 512


def _dict_join(s_pref: list[list[int]], b_pref: list[list[int]]):
    """Cross ranks through one rank dict per school, or None on a repeat or
    an asymmetry.

    The two sides hold equally many cells, and each student cell that its
    school lists fills one school cell.  The join holds exactly when every
    school cell is filled: a repeated school leaves its first cell unfilled,
    and a repeated student fills one cell twice and so leaves another one
    unfilled.
    """
    b_rank = [dict(zip(row, range(len(row)))) for row in b_pref]
    s_srank = []
    b_rrank: list[list] = [[None] * len(row) for row in b_pref]
    for i, row in enumerate(s_pref):
        cranks = []
        for r, j in enumerate(row):
            c = b_rank[j].get(i)
            if c is None:
                return None
            b_rrank[j][c] = r
            cranks.append(c)
        s_srank.append(cranks)
    if any(None in row for row in b_rrank):
        return None
    return s_srank, b_rrank


def _cells(rows: list[list[int]], n_cells: int, dtype) -> tuple[np.ndarray, ...]:
    """Owner, listed agent and in-row position of every cell, row by row."""
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    owner = np.repeat(np.arange(len(rows), dtype=dtype), lens)
    listed = np.fromiter(chain.from_iterable(rows), dtype=dtype, count=n_cells)
    starts = np.cumsum(lens) - lens
    pos = np.arange(n_cells, dtype=dtype) - np.repeat(starts.astype(dtype), lens)
    return owner, listed, pos


def _split(flat: np.ndarray, rows: list[list[int]]) -> list[list[int]]:
    """The values of ``flat`` as lists as long as ``rows``.

    Rows of one length, as in complete and top-k lists, come out of one
    ``tolist`` of ``flat`` reshaped, with no Python loop per row.  Other
    rows are slices of ``flat.tolist()`` cut in a loop, which CPython runs
    faster than ``map(slice, ...)``: that builds each slice through a type
    call."""
    n = len(rows)
    if n and len(flat) == n * min(map(len, rows)):
        return flat.reshape(n, len(flat) // n).tolist()
    flat = flat.tolist()
    out, k = [], 0
    for row in rows:
        e = k + len(row)
        out.append(flat[k:e])
        k = e
    return out


def _sort_join(s_pref: list[list[int]], b_pref: list[list[int]],
               n_schools: int, n_edges: int):
    """Cross ranks by one sort of each side's cells, or None on a repeat or
    an asymmetry.

    Every cell is keyed by ``student * n_schools + school``, and both sides
    hold ``n_edges`` cells.  A row repeats an agent exactly when two equal
    keys sit next to each other once sorted.  With no repeat, the two sides
    hold the same edges exactly when their sorted keys are equal.  The k-th
    sorted student cell and the k-th sorted school cell are then the same
    edge, so each takes the other's in-row position as its cross rank.
    """
    dtype = np.int32 if len(s_pref) * n_schools < 2 ** 31 else np.int64
    s_owner, s_listed, s_pos = _cells(s_pref, n_edges, dtype)
    b_owner, b_listed, b_pos = _cells(b_pref, n_edges, dtype)
    s_key = s_owner * n_schools + s_listed
    b_key = b_listed * n_schools + b_owner
    s_perm, b_perm = np.argsort(s_key), np.argsort(b_key)
    keys = s_key[s_perm]
    if not np.array_equal(keys, b_key[b_perm]) or (keys[1:] == keys[:-1]).any():
        return None
    s_srank = np.empty(n_edges, dtype)
    s_srank[s_perm] = b_pos[b_perm]
    b_rrank = np.empty(n_edges, dtype)
    b_rrank[b_perm] = s_pos[s_perm]
    return _split(s_srank, s_pref), _split(b_rrank, b_pref)


class Instance:
    """Immutable one-to-many market.

    Every construction, from name lists, from a file or from index rows,
    validates all structural invariants at index level: it checks the
    rosters and quotas, resolves each row to agent indices (one resolver
    serves the constructor and the parser), then joins the two sides'
    cells into cross ranks, which also finds a repeated agent and checks
    that adjacency is symmetric.  On a fault, one ordered search over the
    rows raises the first one; it resolves only rows that kept a name.
    Identifiers are opaque strings that the file format can write back:
    non-empty, free of whitespace and of the characters ``#:[]``, and
    neither ``students`` nor ``schools``.  Internally agents are densely
    indexed and every preference cell carries the cross rank of the owner on
    the listed agent's list, so solver comparisons are plain integer
    comparisons.
    """

    __slots__ = (
        "_students", "_schools", "_quota", "_s_index", "_b_index",
        "_s_pref", "_b_pref", "_s_srank", "_b_rrank", "_n_edges",
        "__dict__",  # cached_property storage
    )

    def __init__(
        self,
        students: Sequence[str],
        schools: Sequence[str],
        quota: Mapping[str, int],
        student_prefs: Mapping[str, Sequence[str]],
        school_prefs: Mapping[str, Sequence[str]],
    ):
        self._set_rosters(students, schools)
        self._check_rosters(quota)
        for kind, prefs, index in (("student", student_prefs, self._s_index),
                                   ("school", school_prefs, self._b_index)):
            for x, row in prefs.items():
                if x not in index:
                    raise InvalidInstanceError(f"preference list for unknown {kind} {x!r}")
                if isinstance(row, str):
                    raise InvalidInstanceError(
                        f"preference list of {kind} {x!r} is a string, {row!r}, "
                        "not a sequence of names")
        unresolved: set[str] = set()
        self._set_rows(
            [_resolve(a, student_prefs.get(a, ()), self._b_index, unresolved)
             for a in self._students],
            [_resolve(b, school_prefs.get(b, ()), self._s_index, unresolved)
             for b in self._schools], unresolved)

    @classmethod
    def _from_rows(cls, students: Sequence[str], schools: Sequence[str],
                   quota: Mapping[str, int], s_pref: list[list[int]],
                   b_pref: list[list[int]]) -> Instance:
        """An instance of index rows, with the checks and join of a parsed
        file.  Each row holds indices into the other side's roster."""
        inst = cls.__new__(cls)
        inst._set_rosters(students, schools)
        inst._check_rosters(quota)
        inst._set_rows(s_pref, b_pref)
        return inst

    def _set_rosters(self, students: Sequence[str], schools: Sequence[str]) -> None:
        """Store the rosters and their indices, unchecked."""
        self._students = tuple(students)
        self._schools = tuple(schools)
        self._s_index = dict(zip(self._students, range(len(self._students))))
        self._b_index = dict(zip(self._schools, range(len(self._schools))))

    def _check_rosters(self, quota: Mapping[str, int]) -> None:
        """Check the stored rosters, then check and store the quotas.

        The order is: duplicates, overlap, identifiers, quotas.  The
        identifiers are decided in one pass: one search for a forbidden
        character over the joined rosters (the join raises TypeError on a
        non-``str``), and dict lookups for the empty name and the reserved
        words.  Only on a fault does the loop over the identifiers run, to
        name the first bad one in roster order."""
        s_index, b_index = self._s_index, self._b_index
        if len(s_index) != len(self._students):
            raise InvalidInstanceError("duplicate student identifier")
        if len(b_index) != len(self._schools):
            raise InvalidInstanceError("duplicate school identifier")
        overlap = s_index.keys() & b_index.keys()
        if overlap:
            raise InvalidInstanceError(f"identifier on both sides: {sorted(overlap)[0]!r}")
        try:
            valid = (_NOT_IN_IDENTIFIER.search("".join(self._students + self._schools)) is None
                     and not any(x in s_index or x in b_index for x in ("", *_RESERVED)))
        except TypeError:  # a non-str identifier
            valid = False
        if not valid:
            for kind, ids in (("student", self._students), ("school", self._schools)):
                for x in ids:
                    if (not isinstance(x, str) or not x or x in _RESERVED
                            or _NOT_IN_IDENTIFIER.search(x)):
                        raise InvalidInstanceError(
                            f"{kind} identifier {x!r} is not valid; identifiers are non-empty, "
                            "contain no whitespace and none of '#:[]', and are not "
                            f"{STUDENTS!r}, {SCHOOLS!r} or '-'")

        quotas = []
        for b in self._schools:
            q = quota.get(b, 1)
            if isinstance(q, bool) or not isinstance(q, int) or q < 1:
                raise InvalidInstanceError(f"school {b!r} has quota {q!r}; quotas must be integers >= 1")
            quotas.append(q)
        for b in quota:
            if b not in b_index:
                raise InvalidInstanceError(f"quota given for unknown school {b!r}")
        self._quota = tuple(quotas)

    def _set_rows(self, s_pref: list[list], b_pref: list[list],
                  unresolved: Container[str] = ()) -> None:
        """Join the index rows into cross ranks and store them.  The row of
        an owner in ``unresolved`` kept its names.  On such a row, a repeat
        or an asymmetry, the fault finder raises the first fault."""
        n_edges = sum(map(len, s_pref))
        joined = None
        if not unresolved and sum(map(len, b_pref)) == n_edges:
            joined = (_sort_join(s_pref, b_pref, len(self._schools), n_edges)
                      if n_edges >= _SORT_JOIN_MIN_EDGES else _dict_join(s_pref, b_pref))
        if joined is None:
            self._raise_first_fault(s_pref, b_pref, unresolved)
        self._s_pref = s_pref
        self._b_pref = b_pref
        self._s_srank, self._b_rrank = joined
        self._n_edges = n_edges

    def _raise_first_fault(self, s_pref: list[list], b_pref: list[list],
                           unresolved: Container[str]) -> NoReturn:
        """Raise for the first fault of rows that ``_set_rows`` refused.

        Student rows are searched in roster order, then school rows: the
        first unknown or repeated name of the first such row.  Only the rows
        of owners in ``unresolved`` hold names, and only they are resolved.
        Then the first student cell whose school does not list it, then the
        first such school cell.
        """
        sides = (("student", self._students, s_pref, self._b_index, self._schools, "school"),
                 ("school", self._schools, b_pref, self._s_index, self._students, "student"))
        rows = []
        for kind, owners, given, index, others, listed in sides:
            side = []
            for x, cells in zip(owners, given):
                named = x in unresolved
                row, seen = [], set()
                for y in cells:
                    try:
                        k = index.get(y) if named else y
                    except TypeError:  # unhashable, so unknown
                        k = None
                    if k is None:
                        raise InvalidInstanceError(f"{kind} {x!r} ranks unknown {listed} {y!r}")
                    if k in seen:
                        raise InvalidInstanceError(f"{kind} {x!r} ranks {listed} {others[k]!r} twice")
                    seen.add(k)
                    row.append(k)
                side.append(row)
            rows.append(side)
        s_pref, b_pref = rows
        for owners, others, own, mirror in ((self._students, self._schools, s_pref, b_pref),
                                            (self._schools, self._students, b_pref, s_pref)):
            listers = [set(row) for row in mirror]
            for k, row in enumerate(own):
                for x in row:
                    if k not in listers[x]:
                        raise InvalidInstanceError(
                            f"asymmetric adjacency: {owners[k]!r} ranks {others[x]!r} "
                            "but not vice versa")
        raise AssertionError("rows have no fault")

    # -- public views ------------------------------------------------------

    @property
    def students(self) -> tuple[str, ...]:
        return self._students

    @property
    def schools(self) -> tuple[str, ...]:
        return self._schools

    @property
    def n_students(self) -> int:
        return len(self._students)

    @property
    def n_schools(self) -> int:
        return len(self._schools)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    @cached_property
    def quota(self) -> Mapping[str, int]:
        return {b: q for b, q in zip(self._schools, self._quota)}

    def quota_of(self, b: str) -> int:
        return self._quota[self._school_idx(b)]

    @cached_property
    def student_prefs(self) -> Mapping[str, tuple[str, ...]]:
        return {a: tuple(self._schools[j] for j in row)
                for a, row in zip(self._students, self._s_pref)}

    @cached_property
    def school_prefs(self) -> Mapping[str, tuple[str, ...]]:
        return {b: tuple(self._students[i] for i in row)
                for b, row in zip(self._schools, self._b_pref)}

    @cached_property
    def _s_rank(self) -> list[dict[int, int]]:
        return [{j: r for r, j in enumerate(row)} for row in self._s_pref]

    @cached_property
    def _b_rank(self) -> list[dict[int, int]]:
        return [{i: r for r, i in enumerate(row)} for row in self._b_pref]

    def _student_idx(self, a: str) -> int:
        try:
            return self._s_index[a]
        except KeyError:
            raise ValueError(f"unknown student {a!r}") from None

    def _school_idx(self, b: str) -> int:
        try:
            return self._b_index[b]
        except KeyError:
            raise ValueError(f"unknown school {b!r}") from None

    def edges(self) -> Iterator[tuple[str, str]]:
        for a, row in zip(self._students, self._s_pref):
            for j in row:
                yield (a, self._schools[j])

    def student_rank(self, a: str, b: str) -> int:
        """0-based rank of school b on a's list; raises on a non-edge."""
        r = self._s_rank[self._student_idx(a)].get(self._school_idx(b))
        if r is None:
            raise ValueError(f"({a!r}, {b!r}) is not an edge")
        return r

    def school_rank(self, b: str, a: str) -> int:
        """0-based rank of student a on b's list; raises on a non-edge."""
        r = self._b_rank[self._school_idx(b)].get(self._student_idx(a))
        if r is None:
            raise ValueError(f"({a!r}, {b!r}) is not an edge")
        return r

    def to_text(self) -> str:
        """Serialize in the instance file format; round-trips via parse_instance."""
        lines = ["instance v1"]
        lines.append("students: " + " ".join(self._students))
        lines.append("schools: " + " ".join(
            b if q == 1 else f"{b}[{q}]" for b, q in zip(self._schools, self._quota)))
        for a, row in zip(self._students, self._s_pref):
            if row:
                lines.append(f"{a}: " + " ".join(self._schools[j] for j in row))
        for b, row in zip(self._schools, self._b_pref):
            if row:
                lines.append(f"{b}: " + " ".join(self._students[i] for i in row))
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (f"Instance({self.n_students} students, {self.n_schools} schools, "
                f"{self.n_edges} edges)")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (self._students == other._students and self._schools == other._schools
                and self._quota == other._quota and self._s_pref == other._s_pref
                and self._b_pref == other._b_pref)

    def __hash__(self) -> int:
        return hash((self._students, self._schools, self._quota))


class Assignment:
    """Immutable student-to-school matching.

    Maps every student to a school or to ``None`` (unmatched).  Equality and
    hashing go by the set of matched pairs, so assignments built from
    different student orders compare equal.
    """

    __slots__ = ("_match", "_pairs", "_by_school")

    def __init__(self, match: Mapping[str, str | None]):
        self._match = dict(match)
        self._pairs: frozenset[tuple[str, str]] | None = None
        self._by_school: dict[str, frozenset[str]] | None = None

    def school_of(self, a: str) -> str | None:
        return self._match[a]

    def __getitem__(self, a: str) -> str | None:
        return self._match[a]

    def __contains__(self, a: str) -> bool:
        return a in self._match

    @property
    def mapping(self) -> Mapping[str, str | None]:
        return dict(self._match)

    @property
    def matched_pairs(self) -> frozenset[tuple[str, str]]:
        if self._pairs is None:
            self._pairs = frozenset((a, b) for a, b in self._match.items() if b is not None)
        return self._pairs

    def students_of(self, b: str) -> frozenset[str]:
        if self._by_school is None:
            by: dict[str, set[str]] = {}
            for a, s in self._match.items():
                if s is not None:
                    by.setdefault(s, set()).add(a)
            self._by_school = {s: frozenset(v) for s, v in by.items()}
        return self._by_school.get(b, frozenset())

    def format(self, inst: Instance) -> str:
        """One `student school` line per student in instance order; `-` if unmatched."""
        return "\n".join(
            f"{a} {self._match.get(a) or '-'}" for a in inst.students) + "\n"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self.matched_pairs == other.matched_pairs

    def __hash__(self) -> int:
        return hash(self.matched_pairs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}-{b}" for a, b in sorted(self.matched_pairs))
        return f"Assignment({{{inner}}})"


# -- blocking and dominance -------------------------------------------------

def _school_worst(inst: Instance, match_school: list[int],
                  match_pos: list[int]) -> tuple[list[int], list[int]]:
    """Each school's fill and its worst member's position on its own list
    (-1 if none), given each student's school (-1 if none) and list position."""
    fill = [0] * inst.n_schools
    worst = [-1] * inst.n_schools
    s_srank = inst._s_srank
    for a, b in enumerate(match_school):
        if b >= 0:
            fill[b] += 1
            r = s_srank[a][match_pos[a]]
            if r > worst[b]:
                worst[b] = r
    return fill, worst


def _positions(inst: Instance, m: Assignment) -> list[int]:
    """Each student's position on its own list in m, in roster order, or
    the list's length when it is unmatched: the one reader of an
    assignment into indices, for `blocking_pairs`, `dominates` and the
    oracle.  It reads only the student lists and the roster indices.

    m may leave out a student with no list, and may map a student the
    market does not have to None.  Any other fault raises ValueError, the
    first in roster order: a left-out student with a list, an unknown
    school, a school off the student's list; then a student the market
    does not have, matched to a school."""
    match, b_index = m._match, inst._b_index
    out = []
    for a, row in zip(inst._students, inst._s_pref):
        b = match.get(a)
        if b is None:
            if row and a not in match:
                raise ValueError(f"the assignment leaves out student {a!r}, "
                                 "whose list is not empty")
            out.append(len(row))
            continue
        j = b_index.get(b)
        if j is None:
            raise ValueError(f"unknown school {b!r}")
        try:
            out.append(row.index(j))
        except ValueError:
            raise ValueError(f"({a!r}, {b!r}) is not an edge") from None
    s_index = inst._s_index
    if not match.keys() <= s_index.keys():
        for a, b in match.items():
            if b is not None and a not in s_index:
                raise ValueError(f"the assignment matches student {a!r}, "
                                 "who is not in the market")
    return out


def blocking_pairs(inst: Instance, m: Assignment) -> Iterator[tuple[str, str]]:
    """All edges that block m, in instance edge order.

    Index-level, in O(|E|) whatever the quotas: `_positions` finds each
    student's position on its own list, and `_school_worst`, the walks'
    pass, gives each school's fill and worst member.  An edge above a
    student's position blocks when the school has a free seat or ranks the
    student above its worst member.  m is read by `_positions`' rules.
    """
    pos = _positions(inst, m)
    match_school = [row[p] if p < len(row) else -1 for row, p in zip(inst._s_pref, pos)]
    fill, worst = _school_worst(inst, match_school, pos)
    quota, schools = inst._quota, inst._schools
    for a, row, cranks, cut in zip(inst._students, inst._s_pref, inst._s_srank, pos):
        for j, c in zip(row[:cut], cranks[:cut]):
            if fill[j] < quota[j] or c < worst[j]:
                yield (a, schools[j])


def is_stable(inst: Instance, m: Assignment) -> bool:
    return next(blocking_pairs(inst, m), None) is None


def dominates(inst: Instance, m1: Assignment, m2: Assignment) -> bool:
    """True iff every student weakly prefers its m1 school to its m2 school.
    Both are read by `_positions`' rules, m1 first."""
    return all(map(int.__le__, _positions(inst, m1), _positions(inst, m2)))


# -- instance file format ----------------------------------------------------

def parse_instance(text: str) -> Instance:
    """Parse the `instance v1` text format.

    Blank lines and `#` comments are ignored.  After the header come the
    `students:` and `schools:` rosters (quotas as `b[q]`, default 1), then one
    preference line per agent, most preferred first.  Agents without a line
    have an empty list.

    A preference line pays per entry, not per line: once the rosters are
    fixed, a line whose head before the first `:` names a known agent
    (other than `students` or `schools`) has its comment cut, if it has
    one, and its entries go straight to the constructor's resolver.  Every
    other line (header, rosters, blank or comment-only lines, a head that
    is unknown, reserved or has no colon) takes the generic dispatch, which
    closes the rosters at the first preference line.  The rows go to the
    same checks and join as in `Instance`: a line with an unknown name
    keeps its names, and on any fault the fault finder resolves only those
    lines and raises the first fault.
    """
    students: list[str] | None = None
    schools: list[str] | None = None
    quota: dict[str, int] = {}
    inst = Instance.__new__(Instance)
    s_index: dict[str, int] = {}  # both set at the first preference line
    b_index: dict[str, int] = {}
    # per agent: its index row, or its name row if it names an unknown
    # agent (the owner is then in ``unresolved``), or None without a line;
    # None until the first preference line
    s_rows: list[list | None] | None = None
    b_rows: list[list | None] | None = None
    unresolved: set[str] = set()
    header_seen = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        name, colon, rest = raw.partition(":")
        name = name.strip()
        if not colon or name in SIDES or (name not in s_index and name not in b_index):
            line = raw.strip()
            if not line:
                continue
            if not header_seen:
                if line != "instance v1":
                    raise ParseError("expected header 'instance v1'", lineno)
                header_seen = True
                continue
            if line.startswith("students:"):
                if students is not None:
                    raise ParseError("duplicate students: line", lineno)
                students = line[len("students:"):].split()
                continue
            if line.startswith("schools:"):
                if schools is not None:
                    raise ParseError("duplicate schools: line", lineno)
                schools = []
                for tok in line[len("schools:"):].split():
                    if tok.endswith("]") and "[" in tok:
                        name, _, qpart = tok.partition("[")
                        qtext = qpart[:-1]
                        try:
                            if not (qtext.isascii() and qtext.isdigit()):  # only what to_text writes
                                raise ValueError
                            q = int(qtext)  # which also refuses a number of thousands of digits
                        except ValueError:
                            raise ParseError(f"bad quota {qtext!r} for school {name!r}",
                                             lineno) from None
                        if q < 1:
                            raise ParseError(f"school {name!r} has quota {q}; must be >= 1",
                                             lineno)
                        schools.append(name)
                        quota[name] = q
                    else:
                        schools.append(tok)
                continue
            if not colon:
                raise ParseError(f"cannot parse {line!r}", lineno)
            if s_rows is None:
                if students is None or schools is None:
                    raise ParseError("preference line before students:/schools: rosters", lineno)
                inst._set_rosters(students, schools)
                s_index, b_index = inst._s_index, inst._b_index
                s_rows = [None] * len(students)
                b_rows = [None] * len(schools)
        # the one branch for preference lines
        k = s_index.get(name)
        if k is not None:
            rows, index = s_rows, b_index
        elif (k := b_index.get(name)) is not None:
            rows, index = b_rows, s_index
        else:
            raise ParseError(f"unknown identifier {name!r}", lineno)
        if rows[k] is not None:
            raise ParseError(f"duplicate preference line for {name!r}", lineno)
        rows[k] = _resolve(name, rest.split(), index, unresolved)

    if not header_seen:
        raise ParseError("missing header 'instance v1'", 1)
    if students is None:
        raise ParseError("missing students: line")
    if schools is None:
        raise ParseError("missing schools: line")
    if s_rows is None:
        inst._set_rosters(students, schools)
        s_rows, b_rows = [None] * len(students), [None] * len(schools)
    try:
        inst._check_rosters(quota)
        inst._set_rows([[] if row is None else row for row in s_rows],
                       [[] if row is None else row for row in b_rows], unresolved)
    except InvalidInstanceError as e:
        raise ParseError(str(e)) from e
    return inst


# -- one-to-one reduction ----------------------------------------------------

@dataclass(frozen=True)
class OneToOneReduction:
    """A quota-1 copy of a market where school b becomes seats b^1..b^q.

    Seats replace b in every student's list in seat order and inherit b's
    preference list.  ``seat_school`` and ``school_seats`` map between seats
    and schools.  Giving the i-th best student of b seat b^i maps the stable
    assignments of the original market one to one onto those of the copy;
    legal sets in general do not correspond.
    """

    original: Instance
    instance: Instance
    seat_school: Mapping[str, str]
    school_seats: Mapping[str, tuple[str, ...]]


def reduce_one_to_one(inst: Instance) -> OneToOneReduction:
    """Expand each school into unit-quota seats (seat names `b^i`)."""
    seat_school: dict[str, str] = {}
    school_seats: dict[str, tuple[str, ...]] = {}
    seats_order: list[str] = []
    taken = set(inst.students)
    for b in inst.schools:
        q = inst.quota_of(b)
        seats = tuple(f"{b}^{k}" for k in range(1, q + 1))
        for s in seats:
            if s in taken:
                raise InvalidInstanceError(f"seat name {s!r} collides with a student id")
            seat_school[s] = b
        school_seats[b] = seats
        seats_order.extend(seats)
    s_prefs = {}
    for a in inst.students:
        row: list[str] = []
        for b in inst.student_prefs[a]:
            row.extend(school_seats[b])
        s_prefs[a] = row
    b_prefs = {s: list(inst.school_prefs[seat_school[s]]) for s in seats_order}
    reduced = Instance(inst.students, seats_order, {s: 1 for s in seats_order},
                       s_prefs, b_prefs)
    return OneToOneReduction(inst, reduced, seat_school, school_seats)
