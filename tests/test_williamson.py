import numpy as np
import pytest

from spqs.maslov import MaslovLimitConfig, maslov_limit
from spqs.quasistates import linear_qs, maslov_qs, nilpotent_jordan_sp
from spqs.symplectic import (
    SpElement,
    SymplecticSpace,
    omega_adjoint,
    realize,
    y_element,
    z_element,
)
from spqs.williamson import (
    NonSemisimpleError,
    WilliamsonBlock,
    WilliamsonDecomposition,
    classify_eigenstructure,
    random_semisimple,
    williamson_decompose,
    yz_decomposition,
)

sp1 = SymplecticSpace(1)
sp2 = SymplecticSpace(2)
sp3 = SymplecticSpace(3)


def block_multiset(blocks, digits=6):
    return sorted((b.kind, round(b.a, digits), round(b.b, digits)) for b in blocks)


class TestClassify:
    def test_real_pair_with_zero_padding(self):
        B = z_element(sp2, sp2.basis_e(0), sp2.basis_f(0))
        rep = classify_eigenstructure(B)
        assert rep.real_pairs == ((pytest.approx(1.0), 1),)
        assert rep.imag_pairs == ()
        assert rep.zero_multiplicity == 2
        assert rep.semi_simple

    def test_imaginary_pair(self):
        B = y_element(sp1, sp1.basis_e(0), sp1.basis_f(0))
        rep = classify_eigenstructure(B)
        assert len(rep.imag_pairs) == 1
        b, mult = rep.imag_pairs[0]
        assert b == pytest.approx(1.0)
        assert mult == 1

    def test_zero_matrix(self):
        rep = classify_eigenstructure(SpElement(sp2, np.zeros((4, 4))))
        assert rep.zero_multiplicity == 4
        assert rep.semi_simple
        assert not rep.real_pairs and not rep.imag_pairs and not rep.quadruples

    def test_quadruple(self):
        B, blocks = random_semisimple(sp2, 123, kinds=("quad",))
        rep = classify_eigenstructure(B)
        assert len(rep.quadruples) == 1
        a, b, mult = rep.quadruples[0]
        assert a == pytest.approx(blocks[0].a, abs=1e-8)
        assert b == pytest.approx(blocks[0].b, abs=1e-8)


class TestDecompose:
    def test_block_diagonal_fixed_point(self):
        blocks = (
            WilliamsonBlock("real", 1.5, 0.0, (0,)),
            WilliamsonBlock("imag", 0.0, 0.8, (1,)),
        )
        D = WilliamsonDecomposition(sp2, np.eye(4), blocks).assemble()
        dec = williamson_decompose(SpElement(sp2, D))
        assert block_multiset(dec.blocks) == block_multiset(blocks)
        resid = np.abs(
            dec.S @ dec.assemble() @ omega_adjoint(dec.S) - D
        ).max()
        assert resid < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_random(self, n):
        space = SymplecticSpace(n)
        rng = np.random.Generator(np.random.Philox(40 + n))
        for _ in range(20):
            B, blocks = random_semisimple(space, rng)
            dec = williamson_decompose(B)
            assert block_multiset(dec.blocks) == block_multiset(blocks)
            O = space.omega_matrix
            assert np.abs(dec.S.T @ O @ dec.S - O).max() <= 1e-8
            resid = np.abs(
                dec.S @ dec.assemble() @ omega_adjoint(dec.S) - B.mat
            ).max()
            assert resid <= 1e-6 * max(1.0, np.abs(B.mat).max())

    def test_kernel_plane(self):
        B = z_element(sp2, sp2.basis_e(0), sp2.basis_f(0))
        dec = williamson_decompose(B)
        kinds = sorted(b.kind for b in dec.blocks)
        assert kinds == ["real", "real"]
        params = sorted(b.a for b in dec.blocks)
        assert params[0] == pytest.approx(0.0, abs=1e-10)
        assert params[1] == pytest.approx(1.0, abs=1e-10)

    def test_krein_types_not_identified(self):
        for sign in (1.0, -1.0):
            B = SpElement(sp1, np.array([[0.0, sign * 2.0], [-sign * 2.0, 0.0]]))
            dec = williamson_decompose(B)
            assert dec.blocks[0].kind == "imag"
            assert dec.blocks[0].b == pytest.approx(sign * 2.0, abs=1e-10)
            est = maslov_limit(B, MaslovLimitConfig(t_max=400.0))
            assert abs(est.value - (-sign * 2.0)) <= est.error_bar + 1e-3

    def test_non_semisimple_rejected(self):
        with pytest.raises(NonSemisimpleError):
            williamson_decompose(nilpotent_jordan_sp(sp2))

    def test_deterministic_block_order(self):
        B, _ = random_semisimple(sp3, 77)
        d1 = williamson_decompose(B)
        d2 = williamson_decompose(B)
        assert [b.kind for b in d1.blocks] == [b.kind for b in d2.blocks]
        np.testing.assert_array_equal(d1.S, d2.S)


class TestYZDecomposition:
    def test_single_real_block(self):
        D = WilliamsonDecomposition(
            sp1, np.eye(2), (WilliamsonBlock("real", 2.0, 0.0, (0,)),)
        ).assemble()
        terms = yz_decomposition(SpElement(sp1, D))
        assert len(terms) == 1
        coef, desc = terms[0]
        assert coef == pytest.approx(2.0, abs=1e-9)
        assert desc.kind.value == "Z"

    def test_single_imag_block(self):
        D = WilliamsonDecomposition(
            sp1, np.eye(2), (WilliamsonBlock("imag", 0.0, 3.0, (0,)),)
        ).assemble()
        terms = yz_decomposition(SpElement(sp1, D))
        assert len(terms) == 1
        coef, desc = terms[0]
        assert coef == pytest.approx(3.0, abs=1e-9)
        assert desc.kind.value == "Y"

    def test_quadruple_four_terms(self):
        blocks = (WilliamsonBlock("quad", 1.0, 1.0, (0, 1)),)
        D = WilliamsonDecomposition(sp2, np.eye(4), blocks).assemble()
        terms = yz_decomposition(SpElement(sp2, D))
        assert len(terms) == 4
        total = sum(c * realize(d).mat for c, d in terms)
        np.testing.assert_allclose(total, D, atol=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    def test_sum_reconstructs_random_elements(self, n):
        space = SymplecticSpace(n)
        rng = np.random.Generator(np.random.Philox(60 + n))
        for _ in range(10):
            B, _ = random_semisimple(space, rng)
            terms = yz_decomposition(B)
            total = sum(c * realize(d).mat for c, d in terms)
            assert np.abs(total - B.mat).max() <= 1e-6 * max(1, np.abs(B.mat).max())

    def test_quasi_state_evaluation_consistency(self):
        # evaluating through the commuting terms reproduces the direct value
        rng = np.random.Generator(np.random.Philox(71))
        N = rng.standard_normal((6, 6))
        states = [linear_qs(N), maslov_qs()]
        for _ in range(5):
            B, _ = random_semisimple(sp3, rng)
            terms = yz_decomposition(B)
            for zeta in states:
                via = sum(c * zeta(realize(d)) for c, d in terms)
                assert via == pytest.approx(zeta(B), abs=1e-6)
