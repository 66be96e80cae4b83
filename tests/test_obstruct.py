import random

import pytest

import plumbcalc.intmat as intmat
from plumbcalc.errors import DomainError
from plumbcalc.intmat import AbelianGroupDesc, IntMatrix, det, rank
from plumbcalc.obstruct import (
    KnotClass,
    SurgeryPresentation,
    attach_two_handle,
    has_infinite_order,
    rohlin_mu,
    square_order_obstruction,
)

from conftest import HYPERBOLIC_PLANE_ROWS, random_unimodular


def presentation(rows):
    return SurgeryPresentation(IntMatrix.from_rows(rows))


class TestHasInfiniteOrder:
    def test_meridian_of_zero_framed(self):
        assert has_infinite_order(presentation([[0]]), KnotClass((1,), 0))

    def test_sphere_presentation_all_torsion(self):
        assert not has_infinite_order(presentation([[1]]), KnotClass((1,), 0))

    def test_class_inside_rational_span(self):
        p = presentation([[0, 0], [0, 2]])
        assert not has_infinite_order(p, KnotClass((0, 1), 0))

    def test_no_components(self):
        # the empty class of the empty presentation (S^3) is zero
        assert not has_infinite_order(SurgeryPresentation(IntMatrix(0, 0, ())), KnotClass((), 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError) as err:
            has_infinite_order(presentation([[0]]), KnotClass((1, 0), 0))
        assert err.value.code == "dimension-mismatch"


class TestAttachTwoHandle:
    def test_integer_homology_sphere(self):
        p, homology = attach_two_handle(presentation([[0]]), KnotClass((1,), 0))
        assert p.linking.to_rows() == [[0, 1], [1, 0]]
        assert homology == AbelianGroupDesc(0, ())

    def test_z_four(self):
        p, homology = attach_two_handle(presentation([[0]]), KnotClass((2,), 1))
        assert p.linking.to_rows() == [[0, 2], [2, 1]]
        assert det(p.linking) == -4
        assert homology == AbelianGroupDesc(0, (4,))

    def test_unit_determinant_for_every_framing(self):
        for framing in range(-10, 11):
            p, homology = attach_two_handle(presentation([[0]]), KnotClass((1,), framing))
            assert abs(det(p.linking)) == 1
            assert homology == AbelianGroupDesc(0, ())

    def test_finite_order_rejected(self):
        with pytest.raises(DomainError) as err:
            attach_two_handle(presentation([[1]]), KnotClass((1,), 0))
        assert err.value.code == "finite-order-class"

    def test_bordered_determinant_cross_check(self):
        # det of the bordered matrix agrees with an independent cofactor
        # expansion, randomized
        from conftest import cofactor_det

        rng = random.Random(4411)
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    x = rng.randint(-3, 3)
                    rows[i][j] = rows[j][i] = x
            linking = IntMatrix.from_rows(rows)
            kappa = tuple(rng.randint(-3, 3) for _ in range(n))
            p = SurgeryPresentation(linking)
            k = KnotClass(kappa, rng.randint(-4, 4))
            if not has_infinite_order(p, k):
                continue
            new_p, _ = attach_two_handle(p, k)
            assert det(new_p.linking) == cofactor_det(new_p.linking.to_rows())

    def test_free_rank_drops_by_one_randomized(self):
        rng = random.Random(20240)
        found = 0
        while found < 60:
            n = rng.randint(1, 5)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    x = rng.randint(-3, 3)
                    rows[i][j] = rows[j][i] = x
            linking = IntMatrix.from_rows(rows)
            if rank(linking) == n:
                continue  # need corank >= 1
            kappa = tuple(rng.randint(-3, 3) for _ in range(n))
            p = SurgeryPresentation(linking)
            k = KnotClass(kappa, rng.randint(-5, 5))
            if not has_infinite_order(p, k):
                continue
            before = p.homology
            _, after = attach_two_handle(p, k)
            assert after.free_rank == before.free_rank - 1
            found += 1


class TestSquareOrder:
    def test_examples(self):
        assert square_order_obstruction(4)
        assert square_order_obstruction(1)
        assert not square_order_obstruction(3)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError) as err:
            square_order_obstruction(0)
        assert err.value.code == "bad-torsion-order"


class TestRohlinMu:
    def test_hyperbolic_plane(self):
        assert rohlin_mu(IntMatrix.from_rows(HYPERBOLIC_PLANE_ROWS)) == 0

    def test_e8(self, e8):
        assert rohlin_mu(e8) == 1

    def test_negative_e8(self, e8):
        negated = IntMatrix.from_rows([[-x for x in row] for row in e8.to_rows()])
        assert rohlin_mu(negated) == 1

    def test_non_unimodular_rejected(self):
        with pytest.raises(DomainError) as err:
            rohlin_mu(IntMatrix.from_rows([[2, 0], [0, 2]]))
        assert err.value.code == "determinant-not-unit"

    def test_odd_diagonal_rejected(self):
        with pytest.raises(DomainError) as err:
            rohlin_mu(IntMatrix.from_rows([[1]]))
        assert err.value.code == "odd-diagonal"

    def test_non_symmetric_before_odd_diagonal(self):
        with pytest.raises(DomainError) as err:
            rohlin_mu(IntMatrix.from_rows([[1, 2], [0, 1]]))
        assert err.value.code == "non-symmetric"

    def test_one_elimination(self, monkeypatch, e8):
        # det and signature come from the same pass, dense or sparse
        calls = []

        def counted(kernel):
            def wrapper(*args, **kwargs):
                calls.append(kernel.__name__)
                return kernel(*args, **kwargs)
            return wrapper

        for name in ("_bareiss", "_sparse_minors"):
            monkeypatch.setattr(intmat, name, counted(getattr(intmat, name)))
        assert rohlin_mu(e8) == 1
        assert calls == ["_bareiss"]
        # ten E8 blocks: 80 rows with 2.75 nonzeros a row take the sparse kernel
        block = e8.to_rows()
        rows = [[0] * (i - i % 8) + block[i % 8] + [0] * (72 - i + i % 8) for i in range(80)]
        assert rohlin_mu(IntMatrix.from_rows(rows)) == 0
        assert calls == ["_bareiss", "_sparse_minors"]

    def test_one_symmetry_scan(self, monkeypatch, e8):
        calls, scan = [], intmat.IntMatrix.is_symmetric.fget

        def counted(m):
            calls.append(m.rows)
            return scan(m)

        monkeypatch.setattr(intmat.IntMatrix, "is_symmetric", property(counted))
        assert rohlin_mu(e8) == 1
        assert calls == [8]

    def test_odd_diagonal_before_any_elimination(self, monkeypatch):
        def no_elimination(*args, **kwargs):
            raise AssertionError("eliminated before the parity test")

        monkeypatch.setattr(intmat, "_bareiss", no_elimination)
        monkeypatch.setattr(intmat, "_sparse_minors", no_elimination)
        for rows in ([[3, 1], [1, 2]], [[2, 1, 0], [1, 4, -1], [0, -1, 5]]):
            with pytest.raises(DomainError) as err:
                rohlin_mu(IntMatrix.from_rows(rows))
            assert err.value.code == "odd-diagonal"
        for rows in ([[3, 1], [0, 2]], [[2, 1], [0, 2]], [[2, 1, 0], [1, 3, 0]]):
            with pytest.raises(DomainError) as err:
                rohlin_mu(IntMatrix.from_rows(rows))
            assert err.value.code == "non-symmetric"

    def test_congruence_invariance(self, e8):
        rng = random.Random(99)
        h = IntMatrix.from_rows(HYPERBOLIC_PLANE_ROWS)
        for m in (e8, h):
            base = rohlin_mu(m)
            for _ in range(25):
                p = random_unimodular(rng, m.rows)
                assert rohlin_mu(p.transpose() @ m @ p) == base


class TestContracts:
    def test_free_rank_contract_reports_error_code(self, capsys, monkeypatch, tmp_path):
        import plumbcalc.obstruct as obstruct_module
        from plumbcalc.cli import main
        from plumbcalc.errors import ContractError

        # a homology computation that misses the drop in free rank
        monkeypatch.setattr(obstruct_module, "abelian_group_of", lambda m: AbelianGroupDesc(1, ()))
        p = presentation([[0]])
        with pytest.raises(ContractError) as err:
            attach_two_handle(p, KnotClass((2,), 1))
        assert err.value.code == "contract-free-rank"
        path = tmp_path / "zero.mat"
        path.write_text("1 1\n0\n")
        code = main(["obstruct", "attach", str(path), "--kappa", "2", "--framing", "1"])
        assert code == 1
        assert capsys.readouterr().out == "error=contract-free-rank\n"
