"""Cross-validation against independent oracles and cross-module identities.

The library must agree with sympy's exact Smith normal form and rank, with a
Descartes-rule eigenvalue count built from exact characteristic polynomials,
and with the continued-fraction arithmetic of linear plumbings.  None of
these oracles share code paths with the implementations they check.
"""

import random

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from plumbcalc.intmat import (
    IntMatrix,
    abelian_group_of,
    det,
    rank,
    signature,
    smith_diagonal,
)
from plumbcalc.plumbing import (
    PlumbingGraph,
    cycle_plumbing_from_word,
    intersection_form,
)
from plumbcalc.sl2 import MonodromyWord, word_to_matrix
from plumbcalc.strings import cf_value

from conftest import all_strings


def _random_rows(rng, n, m, bound):
    return [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]


class TestSmithAgainstSympy:
    def test_invariant_factors_match(self):
        rng = random.Random(1201)
        cases = [
            IntMatrix.from_rows(_random_rows(rng, rng.randint(1, 5), rng.randint(1, 5), 6))
            for _ in range(80)
        ]
        # empty shapes and zero matrices; tall and wide rank-deficient
        # inputs; d_r equal to the r x r minor the Bareiss pass ends on; and
        # inputs on which that minor is negative (-6, -2, -2, -12 and -30)
        cases += [IntMatrix(0, 3, ()), IntMatrix(3, 0, ()), IntMatrix(0, 0, ()),
                  IntMatrix(2, 3, (0,) * 6), IntMatrix(1, 1, (0,))]
        cases += [IntMatrix.from_rows(rows) for rows in (
            [[2, 4], [1, 2], [-3, -6]],
            [[2, 4, 0], [1, 3, 1], [3, 7, 1], [0, 2, 2]],
            [[1, 2, 3, 4], [2, 4, 6, 8], [0, 6, 3, 0]],
            [[-4, 6, 2, 10], [2, -3, -1, -5]],
            [[6, 0], [0, 0]],
            [[-6, 0], [0, 0]],
            [[1, 2], [3, 4]],
            [[2, 4, 6], [1, 1, 1], [3, 5, 7]],
            [[3, 0], [0, -4]],
            [[3, 6, 4], [3, -4, 0]],
        )]
        for a in cases:
            k = min(a.rows, a.cols)
            reference = sympy_snf(Matrix(a.rows, a.cols, list(a.entries)), domain=ZZ)
            theirs = tuple(abs(reference[i, i]) for i in range(k) if reference[i, i])
            assert smith_diagonal(a) == theirs + (0,) * (k - len(theirs)), a

    def test_rank_matches(self):
        rng = random.Random(1202)
        for _ in range(60):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            rows = _random_rows(rng, n, m, 5)
            assert rank(IntMatrix.from_rows(rows)) == Matrix(rows).rank(), rows


def _descartes_positive_roots(coeffs):
    """Sign changes of a nonzero-coefficient sequence; equals the number of
    positive roots (with multiplicity) when every root is real."""
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _signature_by_charpoly(rows):
    p = Matrix(rows).charpoly()
    coeffs = [int(c) for c in p.all_coeffs()]
    positive = _descartes_positive_roots(coeffs)
    negated = [c if i % 2 == 0 else -c for i, c in enumerate(coeffs)]
    negative = _descartes_positive_roots(negated)
    return positive - negative


class TestSignatureAgainstDescartes:
    def test_random_symmetric(self):
        rng = random.Random(1203)
        for _ in range(60):
            n = rng.randint(1, 6)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    x = rng.randint(-4, 4)
                    rows[i][j] = rows[j][i] = x
            assert signature(IntMatrix.from_rows(rows)) == _signature_by_charpoly(rows), rows


class TestLinearPlumbingLensIdentity:
    def test_determinant_equals_cf_numerator(self):
        # the linear chain with weights -b_i presents a cyclic group of order
        # p where cf(b) = p/q, with sign (-1)^len from negative definiteness
        for b in all_strings(6, 2, 6):
            names = [f"v{i}" for i in range(len(b))]
            g = PlumbingGraph(
                tuple((names[i], -b[i]) for i in range(len(b))),
                tuple((names[i], names[i + 1], 1) for i in range(len(b) - 1)),
            )
            p = cf_value(b).numerator
            assert det(intersection_form(g)) == (-1) ** len(b) * p, b


class TestLargeScaleTraceIdentity:
    def test_forty_cycle_big_integers(self):
        a = (6,) * 39 + (5,)
        word = MonodromyWord(a)
        t = word_to_matrix(word).trace
        assert t > 10**25  # genuinely out of fixed-width range
        g = cycle_plumbing_from_word(word)
        q = intersection_form(g)
        assert abs(det(q)) == t - 2
        assert abelian_group_of(q).torsion_order == t - 2
