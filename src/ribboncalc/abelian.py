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

    Uses congruence elimination over the integers.  A nonzero diagonal
    entry p = a[k][k] is a pivot: it contributes sign(p), and the remaining
    block becomes sign(p)*(p*a[i][j] - a[i][k]*a[k][j]), which is |p| times
    the Schur complement.  When the remaining diagonal vanishes, a nonzero
    entry b at (i0, j0) spans a hyperbolic plane contributing 0, and the
    remaining block becomes sign(b)*(b*a[i][j] - a[i][i0]*a[j0][j]
    - a[i][j0]*a[i0][j]), which is |b| times the Schur complement.  After
    each step the block is divided by the gcd of its entries.  Positive
    scaling keeps the inertia (Sylvester's law), and the block stays a
    primitive multiple of a matrix of minors of the input, so its entries
    stay as small as in Bareiss elimination.
    """
    n = len(matrix)
    a = [list(map(int, row)) for row in matrix]
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValueError("matrix is not square")
        for j in range(i):
            if row[j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    sig = 0
    while a:
        piv = next((k for k, row in enumerate(a) if row[k]), None)
        if piv is not None:
            p = a[piv][piv]
            s = 1 if p > 0 else -1
            sig += s
            del a[piv]
            u = [row.pop(piv) for row in a]
            su = [s * x for x in u]
            p = abs(p)
            a = [[p * x - ui * y for x, y in zip(row, su)]
                 for row, ui in zip(a, u)]
        else:
            i0, j0 = next(((i, j) for i, row in enumerate(a)
                           for j, x in enumerate(row) if x), (None, None))
            if i0 is None:
                break  # remaining block is zero
            b = a[i0][j0]
            s = 1 if b > 0 else -1
            keep = [k for k in range(len(a)) if k != i0 and k != j0]
            u = [a[k][i0] for k in keep]
            w = [a[k][j0] for k in keep]
            su = [s * x for x in u]
            sw = [s * x for x in w]
            b = abs(b)
            a = [[b * a[i][j] - ui * y - wi * z
                  for j, y, z in zip(keep, sw, su)]
                 for i, ui, wi in zip(keep, u, w)]
        g = 0
        for row in a:
            g = gcd(g, *row)
            if g == 1:
                break
        if g == 0:
            break  # remaining block is zero
        if g > 1:
            a = [[x // g for x in row] for row in a]
    return sig
