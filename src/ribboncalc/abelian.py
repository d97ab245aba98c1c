"""Finitely generated abelian groups, exact integer Smith normal form and
exact signature.

All arithmetic is over Python ints, so there is no overflow or precision
concern, and every intermediate value is an integer.  The Smith form here
is the canonical homology oracle for the rest of the package: first
homology groups of surgered boundaries are cokernels of integer linking
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group in canonical form.

    ``torsion`` is the chain of invariant factors d1 | d2 | ... with every
    entry >= 2.  Two groups are isomorphic iff the dataclasses are equal.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in self.torsion:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _smallest(a: list[list[int]]) -> tuple[int, int] | None:
    """Position of a nonzero entry of least magnitude, or None if a is 0."""
    best, where = 0, None
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x and (where is None or abs(x) < best):
                best, where = abs(x), (i, j)
                if best == 1:
                    return where
    return where


def smith_invariants(matrix: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form, as nonnegative ints d1 | d2 | ...

    Zero entries (rank deficiency) are kept at the end of the list.  The
    input is not modified.

    Each step pivots on a nonzero entry of least magnitude in the trailing
    block.  A row pass reduces the pivot column modulo the pivot and a
    column pass does the same to the pivot row; after either pass the
    smallest nonzero remainder, if any, becomes the new pivot, so the pivot
    strictly shrinks and the entries stay small.  Once row and column are
    clear, a row the pivot does not divide is added to the pivot row and
    the step goes on; otherwise (at once for a unit pivot) the pivot is
    recorded and its row and column are dropped.  Each recorded pivot
    divides every later one, so the diagonal is already a divisibility
    chain.
    """
    a = [list(map(int, row)) for row in matrix]
    cols = len(a[0]) if a else 0
    for row in a:
        if len(row) != cols:
            raise ValueError("matrix rows have unequal lengths")
    diag: list[int] = []
    while a and a[0]:
        where = _smallest(a)
        if where is None:
            break
        i, j = where
        a[0], a[i] = a[i], a[0]
        if j:
            for row in a:
                row[0], row[j] = row[j], row[0]
        while True:
            top = a[0]
            p = top[0]
            # Row pass: reduce the pivot column below the pivot.
            for k in range(1, len(a)):
                q = a[k][0] // p
                if q:
                    a[k] = [x - q * y for x, y in zip(a[k], top)]
            rest = [k for k in range(1, len(a)) if a[k][0]]
            if rest:
                k = min(rest, key=lambda k: abs(a[k][0]))
                a[0], a[k] = a[k], a[0]
                continue
            if p in (1, -1):
                break  # a unit clears its row and divides every entry
            # Column pass: the pivot column is clear below the pivot, so
            # reducing the pivot row changes no other row.
            for c in range(1, len(top)):
                top[c] %= p
            rest = [c for c in range(1, len(top)) if top[c]]
            if rest:
                c = min(rest, key=lambda c: abs(top[c]))
                for row in a:
                    row[0], row[c] = row[c], row[0]
                continue
            offender = next((row for row in a[1:]
                             if any(x % p for x in row)), None)
            if offender is None:
                break
            a[0] = [x + y for x, y in zip(top, offender)]
        diag.append(abs(p))
        a = [row[1:] for row in a[1:]]
    return diag + [0] * (min(len(matrix), cols) - len(diag))


def cokernel(matrix: list[list[int]], generators: int | None = None) -> AbelianGroup:
    """Cokernel of an integer matrix acting on Z^generators by columns.

    ``generators`` defaults to the number of rows, i.e. the matrix columns
    are relations among the row generators.
    """
    rows = len(matrix)
    if generators is None:
        generators = rows
    if rows == 0:
        return AbelianGroup(free_rank=generators)
    diag = smith_invariants(matrix)
    rank = sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d > 1)
    return AbelianGroup(free_rank=generators - rank, torsion=torsion)


def _torsion_sum(chains) -> tuple[int, ...]:
    """Invariant factors of the direct sum of groups with these torsion
    chains.  Z/a + Z/b is Z/gcd + Z/lcm, so one pass of such exchanges over
    all pairs i < j leaves each entry dividing every later one; the 1s it
    makes are dropped.  Integer-only, no factoring."""
    t = [x for chain in chains for x in chain]
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            g = gcd(t[i], t[j])
            t[i], t[j] = g, t[i] // g * t[j]
    return tuple(x for x in t if x > 1)


def symmetric_signature(matrix: list[list[int]]) -> int:
    """Signature of a symmetric integer matrix, computed exactly.

    Fraction-free (Bareiss) congruence elimination over the integers.  With
    ``prev`` the previous pivot (1 at first), the trailing block is always
    ``prev`` times the Schur complement of the eliminated rows, and its
    entries are minors of a matrix congruent to the input.  A nonzero
    diagonal entry p of the block is a pivot: the complement's pivot is
    p / prev, so it adds sign(p) * sign(prev), and the rest of the block
    becomes (p*a[i][j] - a[i][k]*a[k][j]) / prev, an exact division.  When
    the whole diagonal is zero but some entry b = a[i0][j0] is not, adding
    row and column j0 to row and column i0 is a unimodular congruence that
    makes a[i0][i0] = 2b, the next pivot.  A zero block adds nothing.
    """
    n = len(matrix)
    a = [list(map(int, row)) for row in matrix]
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValueError("matrix is not square")
        for j in range(i):
            if row[j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    sig, prev = 0, 1
    while a:
        k = next((k for k, row in enumerate(a) if row[k]), None)
        if k is None:
            k, j0 = next(((i, j) for i, row in enumerate(a)
                          for j, x in enumerate(row) if x), (None, None))
            if k is None:
                break  # remaining block is zero
            a[k] = [x + y for x, y in zip(a[k], a[j0])]
            for row in a:
                row[k] += row[j0]
        p = a[k][k]
        sig += 1 if (p > 0) == (prev > 0) else -1
        del a[k]
        u = [row.pop(k) for row in a]
        a = [[(p * x - ui * y) // prev for x, y in zip(row, u)]
             for row, ui in zip(a, u)]
        prev = p
    return sig
