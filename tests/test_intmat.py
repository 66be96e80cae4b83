import random
import tracemalloc
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plumbcalc.intmat as intmat
from plumbcalc.errors import DomainError
from plumbcalc.intmat import (
    _SPARSE_MIN,
    AbelianGroupDesc,
    IntMatrix,
    abelian_group_of,
    det,
    format_matrix_text,
    is_perfect_square,
    parse_matrix_text,
    rank,
    signature,
    smith_diagonal,
    snf,
    _bareiss,
    _sparse_minors,
    _sparse_rows,
)

from conftest import (
    E8_ROWS,
    HYPERBOLIC_PLANE_ROWS,
    best_cpu_seconds,
    cofactor_det,
    median_cpu_ratio,
    random_unimodular,
    reference_hermite,
)
from test_crosschecks import _signature_by_charpoly


def mat(rows):
    return IntMatrix.from_rows(rows)


@st.composite
def matrices(draw, max_dim=5, bound=5, square=False):
    n = draw(st.integers(1, max_dim))
    m = n if square else draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(st.integers(-bound, bound), min_size=n * m, max_size=n * m)
    )
    return IntMatrix(n, m, tuple(entries))


@st.composite
def symmetric_matrices(draw, max_dim=5, bound=4):
    n = draw(st.integers(1, max_dim))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = draw(st.integers(-bound, bound))
            rows[i][j] = rows[j][i] = x
    return IntMatrix.from_rows(rows)


class TestDet:
    def test_identity(self):
        assert det(IntMatrix.identity(3)) == 1

    def test_negative_cycle_three(self):
        # frozen via the cofactor oracle
        rows = [[-2, 1, -1], [1, -2, 1], [-1, 1, -2]]
        assert cofactor_det(rows) == -4
        assert det(mat(rows)) == -4

    def test_two_by_two(self):
        assert det(mat([[-2, 2], [2, -3]])) == 2

    def test_empty(self):
        assert det(IntMatrix(0, 0, ())) == 1

    def test_non_square_rejected(self):
        with pytest.raises(DomainError) as err:
            det(IntMatrix(1, 2, (1, 2)))
        assert err.value.code == "non-square"

    @settings(max_examples=200)
    @given(matrices(square=True))
    def test_matches_cofactor_expansion(self, m):
        assert det(m) == cofactor_det(m.to_rows())

    def test_no_overflow_for_huge_entries(self):
        big = 10**50
        m = mat([[big, 1], [1, big]])
        assert det(m) == big * big - 1


class TestSNF:
    def test_zero_one_by_one(self):
        assert snf(mat([[0]])).diagonal() == (0,)

    def test_already_diagonal(self):
        assert snf(mat([[2, 0], [0, 4]])).diagonal() == (2, 4)

    def test_two_by_two_reduction(self):
        assert snf(mat([[2, 1], [1, 2]])).diagonal() == (1, 3)

    def _check_invariants(self, m):
        res = snf(m)
        assert (res.u @ m @ res.v) == res.d
        assert abs(det(res.u)) == 1
        assert abs(det(res.v)) == 1
        diag = res.diagonal()
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x]
        assert all(nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1))
        # zeros only at the end
        assert list(diag) == nonzero + [0] * (len(diag) - len(nonzero))
        # off-diagonal of d is zero
        assert all(
            res.d.at(i, j) == 0
            for i in range(m.rows)
            for j in range(m.cols)
            if i != j
        )

    @settings(max_examples=200)
    @given(matrices())
    def test_certificate_and_divisor_chain(self, m):
        self._check_invariants(m)

    @settings(max_examples=150)
    @given(matrices(square=True))
    def test_det_is_product_of_invariant_factors(self, m):
        d = det(m)
        prod = 1
        for x in smith_diagonal(m):
            prod *= x
        assert abs(d) == prod

    @pytest.mark.parametrize("shape", [(0, 10**6), (10**6, 0)])
    def test_certificates_past_the_cap_are_refused(self, shape):
        # no entries, yet a 10^6-square identity for v or u
        m = IntMatrix(*shape, ())
        tracemalloc.start()
        try:
            with pytest.raises(DomainError) as err:
                snf(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.code == "too-large"
        assert peak < 10**6

    def test_smith_diagonal_agrees_with_snf(self):
        rng = random.Random(7)
        for _ in range(50):
            n, m_ = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) for _ in range(m_)] for _ in range(n)]
            matrix = mat(rows)
            assert smith_diagonal(matrix) == snf(matrix).diagonal()


class TestAbelianGroup:
    def test_zero_matrix(self):
        assert abelian_group_of(mat([[0]])) == AbelianGroupDesc(1, ())

    def test_rank_one(self):
        assert abelian_group_of(mat([[-1, 1], [1, -1]])) == AbelianGroupDesc(1, ())

    def test_torsion_four(self):
        m = mat([[-2, 1, -1], [1, -2, 1], [-1, 1, -2]])
        assert abelian_group_of(m) == AbelianGroupDesc(0, (4,))
        assert smith_diagonal(m) == (1, 1, 4)

    def test_describe(self):
        assert AbelianGroupDesc(0, ()).describe() == "0"
        assert AbelianGroupDesc(1, ()).describe() == "Z"
        assert AbelianGroupDesc(1, (4,)).describe() == "Z+Z/4"
        assert AbelianGroupDesc(2, (2, 2)).describe() == "Z^2+Z/2+Z/2"

    def test_divisor_chain_enforced(self):
        with pytest.raises(DomainError):
            AbelianGroupDesc(0, (4, 2))

    @pytest.mark.parametrize("shape, free", [((10**6, 0), 10**6), ((0, 10**6), 0)])
    def test_a_zero_dimension_builds_nothing(self, shape, free):
        # rank 0 and Z^rows follow from the shape; no row or minor is built
        m = IntMatrix(*shape, ())
        tracemalloc.start()
        try:
            group, r = abelian_group_of(m), rank(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (group, r) == (AbelianGroupDesc(free, ()), 0)
        assert peak < 2**20


class TestSignature:
    def test_identity(self):
        assert signature(IntMatrix.identity(3)) == 3

    def test_hyperbolic_plane(self):
        assert signature(mat(HYPERBOLIC_PLANE_ROWS)) == 0

    def test_e8_is_positive_definite(self, e8):
        # Sylvester oracle: all leading principal minors positive
        rows = e8.to_rows()
        minors = [det(mat([r[:k] for r in rows[:k]])) for k in range(1, 9)]
        assert minors == [2, 3, 4, 5, 6, 7, 8, 1]
        assert all(m > 0 for m in minors)
        assert signature(e8) == 8

    def test_zero_matrix(self):
        assert signature(mat([[0, 0], [0, 0]])) == 0

    def test_non_symmetric_rejected(self):
        with pytest.raises(DomainError) as err:
            signature(mat([[0, 1], [2, 0]]))
        assert err.value.code == "non-symmetric"

    @settings(max_examples=60, deadline=None)
    @given(symmetric_matrices(max_dim=4), st.integers(0, 2**30))
    def test_congruence_invariance(self, m, seed):
        p = random_unimodular(random.Random(seed), m.rows)
        assert signature(p.transpose() @ m @ p) == signature(m)

    @settings(max_examples=80)
    @given(symmetric_matrices())
    def test_parity_and_nullity_bounds(self, m):
        sig = signature(m)
        r = rank(m)
        nullity = m.rows - r
        assert (sig - r) % 2 == 0
        assert abs(sig) + nullity <= m.rows
        assert abs(sig) <= r


class TestPerfectSquare:
    def test_examples(self):
        assert is_perfect_square(4)
        assert is_perfect_square(0)
        assert not is_perfect_square(320)  # 17^2 = 289 < 320 < 324 = 18^2
        assert not is_perfect_square(-4)

    @given(st.integers(0, 10**40))
    def test_squares_recognized(self, s):
        assert is_perfect_square(s * s)
        if s > 1:
            assert not is_perfect_square(s * s - 1) or s * s - 1 in (0, 1)


class TestTextFormat:
    def test_roundtrip(self):
        m = mat([[1, -2, 3], [4, 5, -6]])
        assert parse_matrix_text(format_matrix_text(m)) == m

    def test_header_and_count_errors(self):
        with pytest.raises(DomainError):
            parse_matrix_text("2")
        with pytest.raises(DomainError):
            parse_matrix_text("2 2 1 2 3")
        with pytest.raises(DomainError):
            parse_matrix_text("1 1 x")


def _bits(m: IntMatrix) -> int:
    return max((abs(x).bit_length() for x in m.entries), default=0)


def _certificate_bound_bits(m: IntMatrix) -> int:
    """Twice the bit length of the Hadamard bound (sqrt(k) B)^k, k the smaller
    dimension and B the largest entry: a polynomial in k and log B."""
    k = min(m.rows, m.cols)
    return 2 * k * (_bits(m) + k.bit_length())


def _random_dense(rng, n, m, bound=9):
    return IntMatrix.from_rows([[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)])


def _singular_symmetric(rng, n):
    """P^T diag(+-1, ..., 0) P with P unimodular: rank n - 1, dense entries."""
    p = random_unimodular(rng, n, steps=4 * n)
    d = [rng.choice((1, -1)) for _ in range(n)]
    d[rng.randrange(n)] = 0
    diag = IntMatrix.from_rows([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return p.transpose() @ diag @ p


def _dense_cases():
    rng = random.Random(2006)
    cases = [_random_dense(rng, n, n) for n in range(6, 13)]
    cases += [_singular_symmetric(rng, n) for n in (8, 10, 12)]
    cases += [_random_dense(rng, 6, 9), _random_dense(rng, 9, 6)]
    return cases


class TestDenseSmithAgainstOracles:
    """Dense, singular and non-square inputs, on which Smith elimination
    without reduction grew without bound; answers are checked against sympy
    and the certificates against a polynomial bound on their size."""

    @pytest.mark.parametrize("m", _dense_cases(), ids=lambda m: f"{m.rows}x{m.cols}")
    def test_snf_certificate_and_growth(self, m):
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import smith_normal_form

        res = snf(m)
        reference = smith_normal_form(Matrix(m.to_rows()), domain=ZZ)
        k = min(m.rows, m.cols)
        theirs = [abs(reference[i, i]) for i in range(k) if reference[i, i]]
        assert [x for x in res.diagonal() if x] == theirs
        assert smith_diagonal(m) == res.diagonal()
        TestSNF()._check_invariants(m)
        assert abs(Matrix(res.u.to_rows()).det()) == 1
        assert abs(Matrix(res.v.to_rows()).det()) == 1
        assert max(_bits(res.u), _bits(res.v)) <= _certificate_bound_bits(m)

    @pytest.mark.parametrize("m", _dense_cases(), ids=lambda m: f"{m.rows}x{m.cols}")
    def test_group_rank_and_det(self, m):
        from sympy import Matrix

        assert rank(m) == Matrix(m.to_rows()).rank()
        group = abelian_group_of(m)
        assert group.free_rank == m.rows - rank(m)
        if m.is_square:
            assert det(m) == Matrix(m.to_rows()).det()
            if det(m):
                assert group.torsion_order == abs(det(m))

    def test_singular_symmetric_factors_are_units(self):
        rng = random.Random(2007)
        for n in (6, 9):
            m = _singular_symmetric(rng, n)
            assert smith_diagonal(m) == (1,) * (n - 1) + (0,)
            assert abelian_group_of(m) == AbelianGroupDesc(1, ())


class TestGrowthFallbacks:
    """A dense random 20x20, on which :func:`snf` needs Hermite passes and
    :func:`smith_diagonal` runs none, and small singular, rank-1 and zero
    inputs against sympy."""

    def test_dense_certificates_take_hermite_passes(self, monkeypatch):
        rng = random.Random(0)
        m = IntMatrix(20, 20, tuple(rng.randint(-9, 9) for _ in range(400)))
        calls, hermite = [], intmat._hermite

        def counted(w, c):
            calls.append(len(w))
            hermite(w, c)

        monkeypatch.setattr(intmat, "_hermite", counted)
        diag = smith_diagonal(m)
        assert calls == []
        assert snf(m).diagonal() == diag
        assert calls
        TestSNF()._check_invariants(m)

    def test_fallbacks_agree_with_sympy(self):
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import smith_normal_form

        rng = random.Random(2011)
        cases = _dense_cases() + [
            mat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]),
            mat([[0, 0], [0, 0]]),
            mat([[0, 3], [0, 0]]),
            _random_dense(rng, 3, 5, bound=4),
            mat([[0, 10, 0], [0, -2, 0], [0, -2, 0], [0, 6, 0]]),
        ]
        for m in cases:
            reference = smith_normal_form(Matrix(m.to_rows()), domain=ZZ)
            k = min(m.rows, m.cols)
            theirs = [abs(reference[i, i]) for i in range(k) if reference[i, i]]
            diag = smith_diagonal(m)
            assert [x for x in diag if x] == theirs, m
            assert snf(m).diagonal() == diag, m
            TestSNF()._check_invariants(m)


def _hermite_blocks(rng):
    """Seeded blocks of each shape ``_hermite`` meets, by kind: square and
    nonsingular, singular (two rows repeat others), wide and tall."""
    blocks = {"nonsingular": [], "singular": [], "wide": [], "tall": []}
    for n in range(1, 13):
        for bound in (9, 99):
            m = _random_dense(rng, n, n, bound)
            if det(m):
                blocks["nonsingular"].append(m.to_rows())
            rows = _random_dense(rng, n, n + 1, bound).to_rows()
            blocks["singular"].append(rows + [[x - y for x, y in zip(rows[0], rows[-1])]]
                                      + [rows[n // 2]])
            blocks["wide"].append(_random_dense(rng, n, n + 3, bound).to_rows())
            blocks["tall"].append(_random_dense(rng, n + 3, n, bound).to_rows())
    return blocks


class TestHermite:
    """The row Hermite pass of :func:`snf`, whose pivot clashes with a Euclid
    chain of three or more quotients take one Bezout step, against the pass
    that runs every chain (``reference_hermite``).  The Hermite form of a
    row lattice is unique, and so is U = H W^-1 on a nonsingular W."""

    BLOCKS = _hermite_blocks(random.Random(2029))

    @pytest.mark.parametrize("kind", BLOCKS)
    def test_form_matches_the_euclid_pass(self, monkeypatch, kind):
        steps, bezout = [], intmat._bezout
        monkeypatch.setattr(intmat, "_bezout", lambda p, y: steps.append(p) or bezout(p, y))
        for rows in self.BLOCKS[kind]:
            identity = IntMatrix.identity(len(rows)).to_rows()
            for companion in (identity, [[] for _ in rows]):  # none, as for snf's kernels
                w, c = [r[:] for r in rows], [r[:] for r in companion]
                ref_w, ref_c = [r[:] for r in rows], [r[:] for r in companion]
                intmat._hermite(w, c)
                reference_hermite(ref_w, ref_c)
                assert w == ref_w
                if kind == "nonsingular":
                    assert c == ref_c
        assert steps  # the Bezout step ran

    @pytest.mark.parametrize("kind", BLOCKS)
    def test_companion_carries_the_row_operations(self, kind):
        for rows in self.BLOCKS[kind]:
            w, c = [r[:] for r in rows], IntMatrix.identity(len(rows)).to_rows()
            intmat._hermite(w, c)
            assert mat(c) @ mat(rows) == mat(w)
            assert abs(_sympy_det(mat(c))) == 1

    def test_snf_cpu_ratio_to_det_on_a_dense_40x40(self):
        # with a Euclid chain at every clash of the Hermite pass this took
        # 6.4-6.9 times det, with one Bezout step on the long chains 4.1-4.7
        m = _random_dense(random.Random(2024), 40, 40)
        assert median_cpu_ratio(lambda: snf(m), lambda: det(m)) < 5.5


def _lu(rng, n, c=1):
    """A dense unimodular L U, off-diagonal entries of L and U in -c..c."""
    lower = [[int(i == j) if j >= i else rng.randint(-c, c) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) if j <= i else rng.randint(-c, c) for j in range(n)] for i in range(n)]
    return mat(lower) @ mat(upper)


def _diagonal(d):
    n = len(d)
    return IntMatrix(n, n, tuple(d[i] if i == j else 0 for i in range(n) for j in range(n)))


def _dense_kind(rng, kind, n):
    """Dense inputs of the three kinds: random entries -9..9, U diag(d) V
    with the divisor chain d = 1, ..., 1, a, ab, abc, and P^T diag(+-1, 0) P."""
    if kind == "random":
        return _random_dense(rng, n, n)
    if kind == "udv":
        d = [1] * n
        for i in range(n - 3, n):
            d[i] = d[i - 1] * rng.choice((1, 2, 3))
        return _lu(rng, n) @ _diagonal(d) @ _lu(rng, n)
    p, d = _lu(rng, n), [rng.choice((1, -1)) for _ in range(n)]
    d[rng.randrange(n)] = 0
    return p.transpose() @ _diagonal(d) @ p


KINDS = ("random", "udv", "sym")


def _is_dense(m):
    return 2 * m.entries.count(0) < len(m.entries)


def _count_smith_mod(monkeypatch, events):
    """Record each ``_smith_mod`` call as ``"mod"`` in ``events``."""
    smith_mod = intmat._smith_mod

    def counted(a, d):
        events.append("mod")
        return smith_mod(a, d)

    monkeypatch.setattr(intmat, "_smith_mod", counted)


def _smith_events(monkeypatch):
    """Record ``_hermite`` calls and ``_axpy`` row operations in call order."""
    events, hermite, axpy = [], intmat._hermite, intmat._axpy

    def counted_hermite(w, c):
        events.append("hermite")
        hermite(w, c)

    def counted_axpy(dst, src, c):
        events.append("axpy")
        axpy(dst, src, c)

    monkeypatch.setattr(intmat, "_hermite", counted_hermite)
    monkeypatch.setattr(intmat, "_axpy", counted_axpy)
    return events


def _path_form(n):
    """The intersection form of a path of n vertices of weight -2."""
    return IntMatrix.from_rows([[-2 if i == j else int(abs(i - j) == 1) for j in range(n)]
                                for i in range(n)])


def _sympy_det(m):
    """det by sympy's integer matrices, which take a 100 x 100 in well under
    a second, unlike ``Matrix.det``."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix([[ZZ(x) for x in row] for row in m.to_rows()], (m.rows, m.cols), ZZ).det()


def _signed_permutation(rng, m):
    perm = list(range(m.rows))
    rng.shuffle(perm)
    p = mat([[rng.choice((1, -1)) * (j == perm[i]) for j in range(m.rows)] for i in range(m.rows)])
    return p.transpose() @ m @ p


# E8 and hyperbolic sums for each size of ``test_certificate_size``
E8_SUMS = {12: [(1, 2)], 16: [(2, 0)], 20: [(2, 2)], 28: [(3, 0), (3, 2)], 40: [(4, 1), (5, 0)]}


class TestDenseStart:
    """:func:`snf` takes one route on every input: unit pivots, then Hermite
    passes on what they leave.  Its certificates are bounded by
    2k(bits(B) + bits(k)) bits on every kind of input, dense and sparse."""

    @pytest.mark.parametrize("n", (12, 16, 20, 28, 40))
    def test_certificate_size(self, n):
        rng = random.Random(2015 + n)
        e8, h = E8_ROWS, HYPERBOLIC_PLANE_ROWS
        cases = [_dense_kind(rng, kind, n) for kind in KINDS]
        cases += [_signed_permutation(rng, _block_sum(*[e8] * b, *[h] * p)) for b, p in E8_SUMS[n]]
        if n == 12:  # small dense kinds, one wide and one tall random
            cases += [_dense_kind(rng, kind, k) for kind in KINDS for k in range(6, 16)]
            cases += [_random_dense(rng, n, n + 5), _random_dense(rng, n + 5, n)]
            # kernels of three rows, which pass the bound unless put in Hermite form
            for k in range(2, 8):
                cases += [_random_dense(rng, k, k + 3, bound=99)]
                cases += [_random_dense(rng, k + 3, k, bound=99)]
        if n in (20, 40):  # +-1 entries, and L U with larger multipliers
            cases += [_random_dense(rng, n, n, bound=1)]
            cases += [_lu(rng, n, 2), _lu(rng, n, 3)]
        if n == 40:
            cases += [_random_dense(random.Random(2014), n, n), _path_form(n), _path_form(100)]
        for m in cases:
            res = snf(m)
            assert res.u @ m @ res.v == res.d
            assert res.diagonal() == smith_diagonal(m)
            assert abs(_sympy_det(res.u)) == abs(_sympy_det(res.v)) == 1
            assert max(_bits(res.u), _bits(res.v)) <= _certificate_bound_bits(m), (m.rows, m.cols)

    @pytest.mark.parametrize("n", (2, 40, 100))
    def test_path_form_takes_only_unit_pivots(self, monkeypatch, n):
        events = _smith_events(monkeypatch)
        assert snf(_path_form(n)).diagonal() == (1,) * (n - 1) + (n + 1,)
        assert "hermite" not in events and events


def _lower_ones(n):
    return IntMatrix.from_rows([[int(j <= i) for j in range(n)] for i in range(n)])


def _mod_det_kind(rng, kind, n):
    """Dense nonsingular inputs and their invariant factors where known by
    construction (else None): random, U diag(d) V, twice a unimodular matrix
    (no unit pivot anywhere), prime-power torsion U diag(1, ..., p, p^2, p^3) V,
    L diag(2, ..., 2, 6, 12) L^T with L lower all-ones (whole columns of equal
    entries, so a pivot meets its own value) and a unimodular L U."""
    if kind in ("random", "udv"):
        return _dense_kind(rng, kind, n), None
    if kind == "twice-unimodular":
        return IntMatrix(n, n, tuple(2 * x for x in _lu(rng, n).entries)), (2,) * n
    if kind in ("prime-2", "prime-3"):
        p = int(kind[-1])
        d = (1,) * (n - 3) + (p, p * p, p ** 3)
        return _lu(rng, n) @ _diagonal(d) @ _lu(rng, n), d
    if kind == "repeated":
        d = (2,) * (n - 2) + (6, 12)
        low = _lower_ones(n)
        return low @ _diagonal(d) @ low.transpose(), d
    return _lu(rng, n), (1,) * n


MOD_DET_KINDS = ("random", "udv", "twice-unimodular", "prime-2", "prime-3", "repeated", "unimodular")


class TestModularSmith:
    """``smith_diagonal`` of every input eliminates modulo the absolute value
    of a nonzero largest minor from one Bareiss pass, |det| on a nonsingular
    square input: the same factors as the certificate path of :func:`snf`."""

    @pytest.mark.parametrize("kind", MOD_DET_KINDS)
    def test_same_factors_as_the_smallest_pivot_and_snf(self, monkeypatch, kind):
        rng, events = random.Random(2016), []
        _count_smith_mod(monkeypatch, events)
        for n in (16, 20, 28, 40):
            m, known = _mod_det_kind(rng, kind, n)
            events.clear()
            diag = smith_diagonal(m)
            assert events == ["mod"] * (abs(det(m)) > 1), (kind, n)  # none over Z/1
            res = snf(m)
            assert res.u @ m @ res.v == res.d
            assert abs(det(res.u)) == abs(det(res.v)) == 1
            assert res.diagonal() == diag
            assert known is None or diag == known, (kind, n)
            assert abelian_group_of(m).torsion_order == abs(det(m))

    def test_helper_on_small_inputs(self):
        """Called with |det| directly, the helper gives the factors of
        :func:`smith_diagonal` on small inputs too: on a 4x4
        U diag(1, 2, 8, 12) V (|det| = 192) and on every kind from 4 to 15
        rows."""
        rng = random.Random(2018)
        m = _lu(rng, 4) @ _diagonal((1, 2, 8, 12)) @ _lu(rng, 4)
        assert intmat._smith_mod(m.to_rows(), 192) == (1, 2, 4, 24) == smith_diagonal(m)
        for n in range(4, 16):
            for kind in MOD_DET_KINDS:
                m = _mod_det_kind(rng, kind, n)[0]
                if det(m):
                    assert intmat._smith_mod(m.to_rows(), abs(det(m))) == smith_diagonal(m)

    def test_helper_is_snf_modulo_every_small_d(self):
        """Over Z/d the helper's factors are gcd(f, d) for the factors f of
        :func:`snf`, for every d in 2..64, on seeded matrices of 0-5 rows and
        columns with entries -20..20 and some zero rows.  Many pivot columns
        hold units mod d other than +-1, which the gcd sweeps must take to 1."""
        rng, units = random.Random(2028), 0
        for _ in range(400):
            nr, nc = rng.randint(0, 5), rng.randint(0, 5)
            a = [[0] * nc if rng.random() < 0.2 else [rng.randint(-20, 20) for _ in range(nc)]
                 for _ in range(nr)]
            factors = snf(IntMatrix(nr, nc, tuple(x for r in a for x in r))).diagonal()
            for d in range(2, 65):
                assert intmat._smith_mod(a, d) == tuple(gcd(f, d) for f in factors), (a, d)
                units += any(gcd(x, d) == 1 and x % d not in (1, d - 1) for r in a for x in r)
        assert units > 10000  # of the 400 * 63 checks

    def test_unit_minor_takes_no_modular_pass(self, monkeypatch):
        """A Bareiss minor of +-1 makes every factor 1 with no elimination:
        on E8 + H and on a 6x6 that ``attach_two_handle`` borders (det -1)."""
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import smith_normal_form

        from plumbcalc.obstruct import KnotClass, SurgeryPresentation, attach_two_handle

        p = _lu(random.Random(2019), 5)
        linking = p.transpose() @ _diagonal((1, -1, 1, -1, 0)) @ p
        kappa = (p.transpose() @ mat([[0], [0], [0], [0], [1]])).entries
        bordered = attach_two_handle(SurgeryPresentation(linking), KnotClass(kappa, 2))[0].linking
        events = []
        _count_smith_mod(monkeypatch, events)
        for m in (_block_sum(E8_ROWS, HYPERBOLIC_PLANE_ROWS), bordered):
            assert abs(det(m)) == 1
            reference = smith_normal_form(Matrix(m.rows, m.cols, list(m.entries)), domain=ZZ)
            assert smith_diagonal(m) == tuple(abs(reference[i, i]) for i in range(m.rows))
        assert events == []

    def test_singular_sparse_and_non_square_inputs_take_one_modular_pass(self, monkeypatch):
        rng = random.Random(2017)
        events = []
        _count_smith_mod(monkeypatch, events)
        e8, h = E8_ROWS, HYPERBOLIC_PLANE_ROWS
        for n in (16, 20, 28, 40):
            sym = _dense_kind(rng, "sym", n)
            rows = _random_dense(rng, n - 1, n).to_rows()
            low_rank = mat(rows + [[x - y for x, y in zip(rows[0], rows[1])]])
            wide = _random_dense(rng, n, n + 3)
            sparse = _block_sum(*[e8] * (n // 8), *[h] * (n % 8 // 2))
            assert _is_dense(sym) and _is_dense(low_rank) and _is_dense(wide)
            assert not _is_dense(sparse)
            cases = [(sym, (1,) * (n - 1) + (0,)), (low_rank, None), (wide, None),
                     (sparse, (1,) * n)]
            for m, known in cases:
                events.clear()
                diag = smith_diagonal(m)
                unit = abs(_bareiss(m.to_rows())[0][-1]) == 1  # nothing to eliminate over Z/1
                assert events == ["mod"] * (not unit), n
                assert diag == (known or snf(m).diagonal()), n

    def test_nonsingular_square_inputs_pass_the_gcd_of_the_last_two_minors(self, monkeypatch):
        rng, moduli, skipped = random.Random(2023), [], 0
        _record_moduli(monkeypatch, moduli)
        cases = [_mod_det_kind(rng, kind, n)[0] for kind in MOD_DET_KINDS for n in (4, 9, 16, 28)]
        cases += [_random_dense(random.Random(seed), 40, 40) for seed in range(2023, 2029)]
        for m in cases:
            minors = _bareiss(m.to_rows())[0]
            assert len(minors) == m.rows + 1
            g = gcd(minors[-2], minors[-1])
            moduli.clear()
            assert smith_diagonal(m) == snf(m).diagonal()
            assert moduli == [g] * (g > 1), (m.rows, g)
            skipped += g == 1 < abs(minors[-1])  # |det| > 1 and still no pass
        assert skipped >= 3

    def test_singular_and_non_square_inputs_pass_the_largest_minor(self, monkeypatch):
        rng, moduli = random.Random(2024), []
        _record_moduli(monkeypatch, moduli)
        for n in (4, 9, 16, 28):
            rows = _random_dense(rng, n - 1, n).to_rows()
            low_rank = mat(rows + [[x + 2 * y for x, y in zip(rows[0], rows[1])]])
            for m in (_dense_kind(rng, "sym", n), low_rank, _random_dense(rng, n, n + 3),
                      _random_dense(rng, n + 3, n), _random_dense(rng, n, n + 1, bound=1)):
                d = abs(_bareiss(m.to_rows())[0][-1])
                moduli.clear()
                assert smith_diagonal(m) == snf(m).diagonal()
                assert moduli == [d] * (d > 1), (m.rows, m.cols)

    def test_cpu_ratio_to_det_on_a_dense_40x40(self):
        # one Bareiss pass, then elimination modulo gcd(D_39, D_40) = 2;
        # modulo the 178-bit |det| this took about 3.3 times det
        m = _random_dense(random.Random(2024), 40, 40)
        assert median_cpu_ratio(lambda: smith_diagonal(m), lambda: det(m)) < 2


def _record_moduli(monkeypatch, moduli):
    """Record the modulus of each ``_smith_mod`` call in ``moduli``."""
    smith_mod = intmat._smith_mod

    def recorded(a, d):
        moduli.append(d)
        return smith_mod(a, d)

    monkeypatch.setattr(intmat, "_smith_mod", recorded)


def _full_rank_pool(kind):
    """Square nonsingular inputs and their invariant factors where known by
    construction (else None), each also with its first row negated: seeded
    random ones of 2-12 rows (entries -9..9), U diag(d) V with d a chain of
    powers of one prime, every 1 x 1 with entry 1..12 and every 2 x 2 with
    entries -2..2."""
    rng = random.Random(2025)
    if kind == "random":
        cases = [(_random_dense(rng, n, n), None) for n in range(2, 13) for _ in range(12)]
    elif kind == "prime-power":
        cases = []
        for p, n in product((2, 3, 5), (2, 4, 7, 10)):
            d = tuple(p ** e for e in sorted(rng.randint(0, 3) for _ in range(n)))
            cases.append((_lu(rng, n) @ _diagonal(d) @ _lu(rng, n), d))
    elif kind == "1x1":
        cases = [(mat([[x]]), (x,)) for x in range(1, 13)]
    else:
        cases = [(mat([[a, b], [c, e]]), None) for a, b, c, e in product(range(-2, 3), repeat=4)]
    cases = [(m, known) for m, known in cases if det(m)]
    return cases + [(IntMatrix(m.rows, m.cols, tuple(-x for x in m.entries[:m.cols])
                               + m.entries[m.cols:]), known) for m, known in cases]


class TestLastTwoMinors:
    """On a nonsingular square input ``smith_diagonal`` eliminates modulo
    g = gcd(D_(n-1), D_n) and divides |det| by d_1 ... d_(n-1) for the last
    factor.  Checked against sympy and :func:`snf` where the minors share a
    factor that d_1 ... d_(n-1) does not (g > d_(n-1)), where g = d_(n-1),
    where g = 1, and on prime-power chains and negative determinants."""

    @pytest.mark.parametrize("kind", ("random", "prime-power", "1x1", "2x2"))
    def test_against_sympy_and_snf(self, kind):
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import smith_normal_form

        seen = set()
        for m, known in _full_rank_pool(kind):
            reference = smith_normal_form(Matrix(m.to_rows()), domain=ZZ)
            theirs = tuple(sorted(int(abs(reference[i, i])) for i in range(m.rows)))
            assert smith_diagonal(m) == theirs == snf(m).diagonal(), m
            assert known is None or theirs == known, m
            minors = _bareiss(m.to_rows())[0]
            g, last = gcd(minors[-2], minors[-1]), theirs[-2] if m.rows > 1 else 1
            seen.add("g=1" if g == 1 else "g=d" if g == last else "g>d")
            seen.add("negative" if det(m) < 0 else "positive")
        wanted = {"random": {"g=1", "g=d", "g>d"}, "prime-power": {"g=d", "g>d"},
                  "1x1": {"g=1"}, "2x2": {"g=1", "g=d", "g>d"}}[kind]
        assert wanted | {"negative", "positive"} <= seen


def _block_sum(*blocks):
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    o = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[o + i][o:o + len(row)] = row
        o += len(b)
    return IntMatrix.from_rows(rows)


class TestBareissRankAndSignature:
    def test_e8_e8_hyperbolic(self, e8):
        m = _block_sum(e8.to_rows(), e8.to_rows(), HYPERBOLIC_PLANE_ROWS)
        assert rank(m) == 18
        assert signature(m) == 16
        assert det(m) == -1
        p = random_unimodular(random.Random(2008), 18, steps=60)
        congruent = p.transpose() @ m @ p
        assert signature(congruent) == 16
        assert rank(congruent) == 18

    def test_negative_e8_e8_hyperbolic(self, e8):
        neg = [[-x for x in row] for row in e8.to_rows()]
        m = _block_sum(neg, HYPERBOLIC_PLANE_ROWS, neg)
        assert signature(m) == -16
        assert rank(m) == 18

    def test_zero_diagonal_forms(self):
        from sympy import Matrix

        triangle = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]  # eigenvalues 2, -1, -1
        assert signature(mat(triangle)) == -1
        assert rank(mat(triangle)) == 3
        hyperbolics = _block_sum(HYPERBOLIC_PLANE_ROWS, HYPERBOLIC_PLANE_ROWS, [[0]])
        assert signature(hyperbolics) == 0
        assert rank(hyperbolics) == 4
        rng = random.Random(2009)
        for _ in range(40):
            n = rng.randint(2, 8)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.choice((0, 0, 1, -1, 2, -3))
            assert signature(mat(rows)) == _signature_by_charpoly(rows), rows
            assert rank(mat(rows)) == Matrix(rows).rank(), rows

    def test_rank_of_non_square(self):
        from sympy import Matrix

        rng = random.Random(2010)
        for n, m in ((6, 9), (9, 6), (1, 7), (7, 1)):
            a = _random_dense(rng, n, m, bound=3)
            assert rank(a) == Matrix(a.to_rows()).rank()
            low = IntMatrix.from_rows([[2 * x for x in a.to_rows()[0]]] + a.to_rows()[:1])
            assert rank(low) == 1


def _form(weights, edges):
    """The plumbing form of a graph: weights on the diagonal, each edge
    ``(u, v, sign)`` adding its sign to both (u, v) entries, or twice it to
    the diagonal when ``u == v``."""
    n = len(weights)
    q = [0] * (n * n)
    q[::n + 1] = weights
    for u, v, s in edges:
        q[u * n + v] += s
        q[v * n + u] += s
    return IntMatrix(n, n, tuple(q))


def _cycle(n, weight):
    return _form([weight] * n, [(i, (i + 1) % n, 1) for i in range(n)])


def _sylvester(minors):
    return sum((x * y > 0) - (x * y < 0) for x, y in zip(minors, minors[1:]))


def _kernel(m):
    """``_sparse_minors`` on ``m`` whatever its size."""
    return _sparse_minors([{j: x for j, x in enumerate(r) if x} for r in m.to_rows()])


def _oracle(m):
    """(rank, det, signature) by dense Bareiss."""
    minors, sign = _bareiss(m.to_rows())
    sym = _bareiss(m.to_rows(), symmetric=True)[0]
    assert len(sym) == len(minors)
    return len(minors) - 1, sign * minors[-1] if len(minors) > m.rows else 0, _sylvester(sym)


@st.composite
def plumbing_forms(draw):
    """Forms of forests (several components), plus a few extra edges that
    close cycles, join components, double a tree edge (cancelling to 0 or
    adding to 2) or are self-loops (diagonal +-2); weights -3..3, or mostly
    0 so that both kernels run out of diagonal and take the congruence.
    Sizes fall on both sides of the sparse cutoff."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(_SPARSE_MIN - 8, _SPARSE_MIN + 24)))
    weight = draw(st.sampled_from((st.integers(-3, 3), st.sampled_from((0,) * 8 + (-2, 1)))))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    sign = st.sampled_from((-1, 1))
    links = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 2**16), sign),
                          min_size=n - 1, max_size=n - 1))
    edges = [(v, k % v, s) for v, (linked, k, s) in enumerate(links, 1) if linked]
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), sign)
    edges += draw(st.lists(extra, max_size=3))
    if edges and draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges)))
    return _form(weights, edges)


class TestSparseKernel:
    """``_sparse_minors`` against dense Bareiss, and which inputs take it."""

    @settings(max_examples=150, deadline=None)
    @given(plumbing_forms())
    def test_matches_bareiss(self, m):
        r, d, sig = _oracle(m)
        minors = _kernel(m)
        assert len(minors) - 1 == r
        assert (minors[-1] if len(minors) > m.rows else 0) == d
        assert _sylvester(minors) == sig
        assert (det(m), signature(m)) == (d, sig)

    def test_zero_weight_cycle_takes_only_congruence_steps(self):
        # no diagonal is ever live: each pivot is 2 a_ij after the congruence,
        # and the dense kernel takes the same steps (a row step alone gives a_ij)
        m = _cycle(100, 0)
        minors = _kernel(m)
        assert len(minors) == 99 and all(0 < abs(x) <= 2 for x in minors)
        assert minors == _bareiss(m.to_rows(), symmetric=True)[0]
        assert (len(minors) - 1, 0, _sylvester(minors)) == _oracle(m) == (98, 0, 0)
        assert (det(m), signature(m)) == (0, 0)

    def test_hyperbolic_partner_over_an_older_minor(self):
        # vertex 2 cancels the diagonal of vertex 1 and leaves it over the
        # minor 1; the 3-4 edge moves the minor on to 8; then the zero
        # 4-cycle 0-1-5-6 adds row 1 to row 0, so row 1 must be rescaled to 8
        m = _form([0, 1, 1, 3, 3, 0, 0], [(0, 1, 1), (1, 5, 1), (5, 6, 1), (6, 0, 1),
                                         (1, 2, 1), (3, 4, 1)])
        minors = _kernel(m)
        assert minors[:5] == [1, 1, 3, 8, 16]
        assert (len(minors) - 1, 0, _sylvester(minors)) == _oracle(m) == (5, 0, 3)

    def test_singular_path_stops_early(self):
        # weights +1: the path's determinants run 1, 0, -1, -1, 0, 1, ...
        m = _form([1] * 128, [(i, i + 1, 1) for i in range(127)])
        minors = _kernel(m)
        assert len(minors) == 128
        assert (127, 0, _sylvester(minors)) == _oracle(m)
        assert (det(m), signature(m)) == (0, _sylvester(minors))

    def test_e8_sum_with_hyperbolic_planes(self):
        m = _block_sum(*[E8_ROWS] * 8, HYPERBOLIC_PLANE_ROWS, HYPERBOLIC_PLANE_ROWS)
        assert m.rows == 68
        minors = _kernel(m)
        assert (minors[-1], _sylvester(minors)) == (1, 64)
        assert (det(m), signature(m)) == (1, 64)
        assert _oracle(m) == (68, 1, 64)

    @pytest.mark.parametrize("x", [1, -1])
    def test_sparse_non_symmetric(self, x):
        rows = _cycle(100, -3).to_rows()
        rows[0][1] += x  # 2: a value no longer symmetric; 0: the pattern
        m = mat(rows)
        minors, sign = _bareiss(m.to_rows())
        assert det(m) == sign * minors[-1]
        with pytest.raises(DomainError) as err:
            signature(m)
        assert err.value.code == "non-symmetric"

    def test_routing(self, monkeypatch):
        sparse = [_cycle(100, -3), _cycle(_SPARSE_MIN, 0)]  # 3n nonzeros
        expected = [(det(m), signature(m), rank(m)) for m in sparse]
        dense = mat([[(i + j) % 5 - 2 or 3 for j in range(5)] for i in range(5)])
        path = _form([-2] * 40, [(i, i + 1, 1) for i in range(39)])
        chord = _form([-3] * 100, [(i, (i + 1) % 100, 1) for i in range(100)] + [(0, 50, 1)])

        def no_bareiss(*args, **kwargs):
            raise AssertionError("dense elimination")

        monkeypatch.setattr(intmat, "_bareiss", no_bareiss)
        assert [(det(m), signature(m), rank(m)) for m in sparse] == expected
        for m in (dense, path, _cycle(_SPARSE_MIN - 1, 0), chord):
            assert m.is_symmetric
            for fn in (det, signature, rank):
                with pytest.raises(AssertionError):
                    fn(m)

    def test_smith_diagonal_of_paths_cycles_and_stars(self):
        # unit pivots by _unit_core, then the core; a star of k arms (-2, -1)
        # around a -2 hub has 2k + 1 rows
        for n in (80, 120, 160):
            path = _form([-2] * n, [(i, i + 1, 1) for i in range(n - 1)])
            arms = range(1, n, 2)
            star = _form([-2] + [-2, -1] * (n // 2),
                         [(0, i, 1) for i in arms] + [(i, i + 1, 1) for i in arms])
            for m in (path, _cycle(n, -3), _cycle(n, -2), star):
                assert _sparse_rows(m) is not None
                assert smith_diagonal(m) == snf(m).diagonal()

    def test_smith_diagonal_of_a_1600_path(self):
        m = _form([-2] * 1600, [(i, i + 1, 1) for i in range(1599)])
        assert smith_diagonal(m) == (1,) * 1599 + (1601,)
        assert best_cpu_seconds(lambda: smith_diagonal(m)) < 0.25

    @pytest.mark.parametrize("weight, closed", [(-2, False), (0, True)],
                             ids=["path", "zero-cycle"])
    def test_doubling_ratio_under_2_5(self, weight, closed):
        """``_sparse_minors`` is linear on -2 paths (1x1 pivots, minors up to
        n + 1) and on zero-weight cycles (a congruence before every other pivot,
        minors up to 2): the median of nine ratios of n = 1600 to n = 800
        stays under 2.5.  The rows are built inside the timed call, as the
        kernel consumes them.  Stars are left out: each leaf pivot rebuilds
        the hub's row, so a star of k leaves costs O(k^2)."""
        def run(n):
            rows = [{i: weight} if weight else {} for i in range(n)]
            for i in range(n if closed else n - 1):
                rows[i][(i + 1) % n] = rows[(i + 1) % n][i] = 1
            _sparse_minors(rows)

        assert median_cpu_ratio(lambda: run(1600), lambda: run(800)) < 2.5

    def test_cpu_ratio_on_800_cycle(self):
        # the word 3,3,...,3: O(n) pivots after one scan of the n^2 entries,
        # against Bareiss's O(n^2) work on the same matrix
        m = _cycle(800, -3)
        assert median_cpu_ratio(lambda: _bareiss(m.to_rows()), lambda: det(m)) >= 2.5
        assert median_cpu_ratio(lambda: _bareiss(m.to_rows(), symmetric=True),
                                lambda: signature(m)) >= 2.5
