"""Latin ranking matrices and the one-stable/many-legal construction.

An n-by-n matrix whose rows and columns are permutations of 1..n defines a
one-to-one instance with complete lists: Q(a, b) is b's rank for a and
n+1-Q(a, b) is a's rank for b.  Every rank-i diagonal {ab : Q(a,b) = i} is a
stable matching, every edge is legal, and appending one extra student and
school squeezes the stable set down to a single matching while the legal set
keeps the original instance's full stable set.

This module builds the matrices and their markets.  Reading the matrix
back from a market, the stability test on the matrix alone and the rank
diagonals are test references in ``tests/_references.py``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import Instance, InvalidInstanceError

__all__ = [
    "LatinSquare", "latin_check", "instance_from_latin", "auxiliary_instance",
    "xor_latin", "parse_latin", "format_latin",
]


def latin_check(q: Sequence[Sequence[int]]) -> bool:
    """True iff every row and every column is a permutation of 1..n."""
    n = len(q)
    if any(len(row) != n for row in q):
        raise ValueError("matrix is not square")
    want = set(range(1, n + 1))
    return (all(set(row) == want for row in q)
            and all({q[i][j] for i in range(n)} == want for j in range(n)))


@dataclass(frozen=True)
class LatinSquare:
    q: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.q)
        object.__setattr__(self, "q", rows)
        if not latin_check(rows):
            raise ValueError("rows and columns must be permutations of 1..n")

    @property
    def n(self) -> int:
        return len(self.q)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.q[ij[0]][ij[1]]


def _as_square(q: LatinSquare | Sequence[Sequence[int]]) -> LatinSquare:
    return q if isinstance(q, LatinSquare) else LatinSquare(tuple(map(tuple, q)))


def instance_from_latin(q: LatinSquare | Sequence[Sequence[int]]) -> Instance:
    """The instance a Latin ranking matrix encodes: students a1..an, schools
    b1..bn, all quotas 1, complete lists ranked by Q and its reversal."""
    sq = _as_square(q)
    n = sq.n
    students = [f"a{i}" for i in range(1, n + 1)]
    schools = [f"b{j}" for j in range(1, n + 1)]
    sp: dict[str, list[str]] = {}
    bp: dict[str, list[str]] = {}
    for i, a in enumerate(students):
        row = [None] * n
        for j in range(n):
            row[sq.q[i][j] - 1] = schools[j]
        sp[a] = row
    for j, b in enumerate(schools):
        col = [None] * n
        for i in range(n):
            col[n - sq.q[i][j]] = students[i]
        bp[b] = col
    return Instance(students, schools, {b: 1 for b in schools}, sp, bp)


def auxiliary_instance(inst: Instance, student: str = "a~",
                       school: str = "b~") -> Instance:
    """One extra student and school that every original school slots second
    and every original student ranks last: the result has a unique stable
    assignment, while its legal assignments are the original instance's
    stable assignments plus the new pair.

    The construction leaves the newcomers' rankings of the originals free;
    they are fixed here (the new student ranks schools in descending index
    order, the new school ranks students in ascending index order) so the
    order-4 matrix reproduces a fixed reference instance.
    """
    n = inst.n_students
    if inst.n_schools != n or any(v != 1 for v in inst.quota.values()):
        raise InvalidInstanceError("auxiliary construction needs a one-to-one instance")
    if any(len(row) != n for row in inst._s_pref):
        raise InvalidInstanceError("auxiliary construction needs complete lists")
    if student in inst._s_index or school in inst._b_index:
        raise InvalidInstanceError("auxiliary agent names collide with the instance")
    students = list(inst.students) + [student]
    schools = list(inst.schools) + [school]
    sp = {a: list(row) + [school] for a, row in inst.student_prefs.items()}
    sp[student] = list(reversed(inst.schools)) + [school]
    bp = {}
    for b, row in inst.school_prefs.items():
        bp[b] = [row[0], student] + list(row[1:])
    bp[school] = [student] + list(inst.students)
    return Instance(students, schools, {b: 1 for b in schools}, sp, bp)


def xor_latin(n: int) -> LatinSquare:
    """Q(i, j) = ((i-1) xor (j-1)) + 1; defined for n a power of two.
    The order-4 member is the worked reference matrix."""
    if n < 1 or n & (n - 1):
        raise ValueError("order must be a power of two")
    return LatinSquare(tuple(tuple(((i ^ j) + 1) for j in range(n))
                             for i in range(n)))


def parse_latin(text: str) -> LatinSquare:
    """n lines of n whitespace-separated ranks."""
    rows = [tuple(int(v) for v in line.split())
            for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty matrix")
    return LatinSquare(tuple(rows))


def format_latin(q: LatinSquare | Sequence[Sequence[int]]) -> str:
    sq = _as_square(q)
    return "\n".join(" ".join(str(v) for v in row) for row in sq.q) + "\n"
