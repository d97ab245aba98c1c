"""Exact integer linear algebra, checked against sympy's Smith form."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, QQ, ZZ
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form
from sympy.polys.matrices import DomainMatrix

from ribboncalc import (AbelianGroup, cokernel, smith_invariants,
                        symmetric_signature)
from ribboncalc.abelian import _torsion_sum


def sympy_invariants(m):
    sm = smith_normal_form(Matrix(m))
    return sorted(abs(sm[i, j]) for i in range(sm.rows)
                  for j in range(sm.cols) if sm[i, j] != 0)


def sympy_invariants_nonsingular(m):
    """sympy's Smith form of a nonsingular square matrix, sized for n = 60.

    sympy's Smith form of a dense n = 60 matrix runs for minutes, while its
    Hermite form modulo the determinant takes well under a second.  A unit
    pivot of that Hermite form heads an otherwise zero row, so it splits
    off as an invariant factor 1; sympy's Smith form is taken of the rest.
    """
    n = len(m)
    det = DomainMatrix.from_list(m, ZZ).det()
    assert det != 0
    h = hermite_normal_form(Matrix(m), D=abs(det))
    units = [i for i in range(n) if h[i, i] == 1]
    assert all(h[i, j] == 0 for i in units for j in range(n) if j != i)
    core = [i for i in range(n) if h[i, i] != 1]
    if not core:
        return [1] * n
    return [1] * len(units) + sympy_invariants(
        [[h[i, j] for j in core] for i in core])


def fraction_signature(matrix):
    """Reference oracle: symmetric Gaussian reduction over the rationals."""
    n = len(matrix)
    a = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    active = list(range(n))
    pos = neg = 0
    while active:
        piv = next((i for i in active if a[i][i] != 0), None)
        if piv is not None:
            p = a[piv][piv]
            if p > 0:
                pos += 1
            else:
                neg += 1
            rest = [i for i in active if i != piv]
            for i in rest:
                for j in rest:
                    a[i][j] -= a[i][piv] * a[piv][j] / p
            active = rest
            continue
        pair = next(((i, j) for i in active for j in active
                     if i != j and a[i][j] != 0), None)
        if pair is None:
            break  # remaining block is zero
        i0, j0 = pair
        b = a[i0][j0]
        pos += 1
        neg += 1
        rest = [i for i in active if i not in (i0, j0)]
        for i in rest:
            for j in rest:
                a[i][j] -= (a[i][i0] * a[j0][j] + a[i][j0] * a[i0][j]) / b
        active = rest
    return pos - neg


def random_symmetric(rng, n, bound, density=1.0, zero_diagonal=False):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i != j or not zero_diagonal) and rng.random() < density:
                m[i][j] = m[j][i] = rng.randint(-bound, bound)
    return m


def eigenvalue_signature(m):
    """Float eigenvalue signs, with the zero count pinned by the exact
    rational rank so borderline signs cannot flip the answer."""
    import numpy
    eigs = sorted(numpy.linalg.eigvalsh(numpy.array(m, dtype=float)), key=abs)
    zeros = len(m) - DomainMatrix.from_list(m, ZZ).convert_to(QQ).rank()
    nonzero = eigs[zeros:]
    return sum(1 for v in nonzero if v > 0) - sum(1 for v in nonzero if v < 0)


def charpoly_signature(m):
    """sympy's exact characteristic polynomial read by Descartes' rule of
    signs: the eigenvalues of a symmetric matrix are real, so the sign
    changes of p(x) count the positive ones and those of p(-x) the
    negative ones."""
    coeffs = DomainMatrix.from_list(m, ZZ).charpoly()
    n = len(coeffs) - 1

    def changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(coeffs) - changes(
        [c * (-1) ** (n - k) for k, c in enumerate(coeffs)])


def shuffled_block_sum(rng, blocks):
    """The block sum of ``blocks``, rows and columns permuted alike."""
    n = sum(map(len, blocks))
    m = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[at + i][at:at + len(b)] = row
        at += len(b)
    order = rng.sample(range(n), n)
    return [[m[i][j] for j in order] for i in order]


def elapsed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


matrices = st.integers(1, 5).flatmap(
    lambda rows: st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


class TestSmithInvariants:
    def test_zero_matrix(self):
        assert smith_invariants([[0, 0], [0, 0]]) == [0, 0]

    def test_identity(self):
        assert smith_invariants([[1, 0], [0, 1]]) == [1, 1]

    def test_hopf_pair(self):
        assert smith_invariants([[0, 1], [1, 0]]) == [1, 1]

    def test_order_two_torsion(self):
        assert smith_invariants([[1, 1], [1, -1]]) == [1, 2]

    def test_divisibility_chain(self):
        diag = [d for d in smith_invariants([[2, 0], [0, 3]]) if d]
        assert diag == [1, 6]

    def test_rectangular(self):
        assert smith_invariants([[2, 4, 4]]) == [2]

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            smith_invariants([[1, 2], [3]])

    @given(matrices)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_sympy(self, m):
        mine = sorted(d for d in smith_invariants(m) if d)
        assert mine == sympy_invariants(m)

    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_chain_divides(self, m):
        diag = [d for d in smith_invariants(m) if d]
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))

    def test_input_not_mutated(self):
        m = [[4, 6], [2, 8]]
        keep = [row[:] for row in m]
        smith_invariants(m)
        assert m == keep

    def test_dense_n60_against_sympy(self):
        # A first-nonzero pivot blows up on these: over 80 s at n = 56.
        rng = random.Random(60)
        for m in (random_symmetric(rng, 60, 3),
                  [[rng.randint(-3, 3) for _ in range(60)]
                   for _ in range(60)]):
            diag, seconds = elapsed(smith_invariants, m)
            assert seconds < 1.0
            assert sorted(diag) == sympy_invariants_nonsingular(m)

    def test_n60_with_torsion_against_sympy(self):
        # U * diag * V with unimodular U, V has a long divisibility chain.
        rng = random.Random(61)
        n = 60
        m = [[0] * n for _ in range(n)]
        for i, d in enumerate([1] * 48 + [2, 2, 4, 4, 12, 12, 24, 24, 72,
                                          144, 144, 720]):
            m[i][i] = d
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            i, j = rng.sample(range(n), 2)
            for row in m:
                row[i] += c * row[j]
        diag, seconds = elapsed(smith_invariants, m)
        assert seconds < 1.0
        assert diag == [1] * 48 + [2, 2, 4, 4, 12, 12, 24, 24, 72, 144, 144,
                                   720]
        assert sorted(diag) == sympy_invariants_nonsingular(m)

    def test_rank_deficient_n60(self):
        rng = random.Random(62)
        b = [[rng.randint(-2, 2) for _ in range(40)] for _ in range(60)]
        m = [[sum(x * y for x, y in zip(r, s)) for s in b] for r in b]
        diag, seconds = elapsed(smith_invariants, m)
        assert seconds < 1.0
        rank = DomainMatrix.from_list(m, ZZ).convert_to(QQ).rank()
        assert diag.count(0) == 60 - rank and diag[rank:] == [0] * (60 - rank)
        assert all(y % x == 0 for x, y in zip(diag[:rank], diag[1:rank]))


class TestAbelianGroup:
    def test_canonical_str(self):
        assert str(AbelianGroup(0)) == "0"
        assert str(AbelianGroup(1)) == "Z"
        assert str(AbelianGroup(2, (2, 6))) == "Z^2 + Z/2 + Z/6"

    def test_rejects_broken_chain(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, (4, 6))

    def test_rejects_unit_factor(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))

    def test_rejects_negative_free_rank(self):
        with pytest.raises(ValueError, match="free rank must be nonnegative"):
            AbelianGroup(-1)

    def test_equality_is_isomorphism(self):
        assert AbelianGroup(1, (2,)) == AbelianGroup(1, (2,))
        assert AbelianGroup(1) != AbelianGroup(0, (2,))


def factored_invariants(orders):
    """Invariant factors of the sum of cyclic groups Z/d, prime by prime:
    the largest power of each prime goes to the largest factor."""
    from sympy import factorint
    powers: dict[int, list[int]] = {}
    for d in orders:
        for p, e in factorint(d).items():
            powers.setdefault(p, []).append(p ** e)
    width = max((len(v) for v in powers.values()), default=0)
    out = [1] * width
    for qs in powers.values():
        for k, q in enumerate(sorted(qs, reverse=True)):
            out[width - 1 - k] *= q
    return tuple(out)


class TestTorsionSum:
    @pytest.mark.parametrize("diagonal, want", [
        ([4, 6], (2, 12)), ([2, 3, 5], (30,)), ([-7, 7, 2], (7, 14)),
        ([1, 1], ())])
    def test_cyclic_summands(self, diagonal, want):
        assert _torsion_sum(cokernel([[d]]).torsion for d in diagonal) == want

    def test_chains_stay_chains(self):
        assert _torsion_sum([(2, 4), (2, 12), ()]) == (2, 2, 4, 12)
        assert _torsion_sum([(6,), (2, 4)]) == (2, 2, 12)

    def test_against_prime_powers(self):
        rng = random.Random(5)
        for _ in range(300):
            chains = [cokernel(random_symmetric(rng, rng.randint(1, 4), 6)
                               ).torsion for _ in range(rng.randint(0, 5))]
            got = _torsion_sum(chains)
            assert got == factored_invariants(
                [d for chain in chains for d in chain])
            AbelianGroup(0, got)  # a divisibility chain of factors >= 2


class TestCokernel:
    def test_surgery_on_unknot(self):
        assert cokernel([[0]]) == AbelianGroup(1)

    def test_unimodular(self):
        assert cokernel([[1, 0], [3, 1]]) == AbelianGroup(0)

    def test_lens_space(self):
        assert cokernel([[5]]) == AbelianGroup(0, (5,))

    def test_empty_relations(self):
        assert cokernel([], generators=3) == AbelianGroup(3)

    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_free_rank_is_corank(self, m):
        group = cokernel(m)
        rank = Matrix(m).rank()
        assert group.free_rank == len(m) - rank


class TestSymmetricSignature:
    def test_empty(self):
        assert symmetric_signature([]) == 0

    def test_diagonal(self):
        assert symmetric_signature([[3, 0], [0, -2]]) == 0
        assert symmetric_signature([[1, 0], [0, 2]]) == 2

    def test_hyperbolic_pair(self):
        assert symmetric_signature([[0, 1], [1, 0]]) == 0

    def test_e8_like_positive_definite(self):
        m = [[2, 1], [1, 2]]
        assert symmetric_signature(m) == 2

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_signature([[0, 1], [2, 0]])

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_eigenvalue_signs(self, m):
        n = len(m)
        sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        mine = symmetric_signature(sym)
        # Reference: float eigenvalues, with the zero count pinned by the
        # exact integer rank so borderline signs cannot flip the answer.
        import numpy
        eigs = sorted(numpy.linalg.eigvalsh(numpy.array(sym, dtype=float)),
                      key=abs)
        zeros = n - Matrix(sym).rank()
        nonzero = eigs[zeros:]
        ref = sum(1 for v in nonzero if v > 0) - sum(
            1 for v in nonzero if v < 0)
        assert mine == ref

    def test_exactness_beyond_floats(self):
        # A matrix whose tiny determinant defeats float eigenvalue signs.
        big = 10 ** 12
        m = [[big, big - 1], [big - 1, big - 2]]
        # det = -1 < 0, trace > 0: signature must be 0.
        assert symmetric_signature(m) == 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetric_signature([[1, 0], [0]])

    def test_agrees_with_rational_reduction(self):
        rng = random.Random(4)
        for k in range(1500):
            n = rng.randint(1, 9)
            m = random_symmetric(rng, n, rng.choice((1, 3, 50, 10 ** 9)),
                                 density=rng.choice((0.3, 0.7, 1.0)),
                                 zero_diagonal=k % 3 == 0)
            assert symmetric_signature(m) == fraction_signature(m), m

    def test_hyperbolic_steps_against_rational_reduction(self):
        # Zero diagonals throughout, so every step takes a hyperbolic pair;
        # a zero-diagonal block after a diagonal pivot does the same midway.
        rng = random.Random(5)
        for n in range(2, 12):
            for _ in range(20):
                m = random_symmetric(rng, n, 4, density=0.6,
                                     zero_diagonal=True)
                assert symmetric_signature(m) == fraction_signature(m)
        m = [[1, 1, 1], [1, 1, 1], [1, 1, 0]]
        assert symmetric_signature(m) == fraction_signature(m) == 0

    def test_block_sums_against_fractions_and_sympy(self):
        # Blocks of every kind interleaved, up to n = 60: dense and sparse,
        # all-zero diagonals (each pivot made by a congruence), and rank
        # deficient ones (the elimination stops at a zero block).
        rng = random.Random(19)
        cases = []
        for n in list(range(1, 13)) * 3 + [20, 30, 40, 60]:
            blocks = []
            while sum(map(len, blocks)) < n:
                size = min(n - sum(map(len, blocks)), rng.randint(1, 12))
                kind = rng.randrange(3)
                if kind == 2:  # rank at most 2
                    u = [rng.randint(-2, 2) for _ in range(size)]
                    v = [rng.randint(-2, 2) for _ in range(size)]
                    blocks.append([[x * y - z * w for y, w in zip(u, v)]
                                   for x, z in zip(u, v)])
                else:
                    blocks.append(random_symmetric(
                        rng, size, rng.choice((1, 3, 9)),
                        density=rng.choice((0.4, 1.0)),
                        zero_diagonal=kind == 1))
            cases.append(shuffled_block_sum(rng, blocks))
        cases.append(random_symmetric(rng, 60, 3, zero_diagonal=True))
        for m in cases:
            sig = symmetric_signature(m)
            assert sig == charpoly_signature(m), m
            assert sig == fraction_signature(m), m

    def test_n60_against_eigenvalues(self):
        rng = random.Random(63)
        b = [[rng.randint(-2, 2) for _ in range(45)] for _ in range(60)]
        cases = [random_symmetric(rng, 60, 3),
                 random_symmetric(rng, 60, 3, zero_diagonal=True),
                 random_symmetric(rng, 60, 5, density=0.1),
                 # rank 45 with both signs: B diag(+-1) B^T
                 [[sum(x * y * (1 if k % 3 else -1)
                       for k, (x, y) in enumerate(zip(r, s)))
                   for s in b] for r in b]]
        for m in cases:
            sig, seconds = elapsed(symmetric_signature, m)
            assert seconds < 1.0
            assert sig == eigenvalue_signature(m)
