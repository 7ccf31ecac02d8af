import numpy as np
import pytest

from spqs.harness import (
    FGEvaluator,
    VerificationReport,
    check_ad_invariance,
    check_isotropic_linearity,
    check_quasi_linearity,
    embed_gl,
    fit_gleason_on_unitary,
    fit_main_theorem,
    fit_rank_one_trace,
    frobenius_pseudo_state,
    isotropic_pair,
    maslov_imtrace_oracle,
    sp_basis,
    unitary_subalgebra_basis,
)
from spqs.maslov import maslov_dim2
from spqs.quasistates import (
    dim2_homogeneous_qs,
    discontinuous_qs,
    linear_combination,
    linear_qs,
    maslov_qs,
    nilpotent_jordan_sp,
)
from spqs.symplectic import (
    SymplecticSpace,
    omega,
    random_sp_element,
    standard_complex_structure,
    z_element,
)
from spqs.williamson import random_semisimple

sp1 = SymplecticSpace(1)
sp2 = SymplecticSpace(2)
sp3 = SymplecticSpace(3)

MQ = maslov_qs()


class TestReportInvariants:
    def test_pass_flag_consistency(self):
        with pytest.raises(ValueError):
            VerificationReport(
                check_name="x",
                trials=1,
                max_defect=2.0,
                tolerance_used=1.0,
                passed=True,
                seed=0,
            )

    def test_determinism(self):
        r1 = check_quasi_linearity(MQ, sp2, "common-frame", 10, 1e-2, 42)
        r2 = check_quasi_linearity(MQ, sp2, "common-frame", 10, 1e-2, 42)
        assert r1 == r2


class TestQuasiLinearity:
    def test_linear_state_tight(self):
        rng = np.random.Generator(np.random.Philox(0))
        zeta = linear_qs(rng.standard_normal((6, 6)))
        for strat in ("common-frame", "odd-polynomial"):
            r = check_quasi_linearity(zeta, sp3, strat, 25, 1e-10, 1)
            assert r.passed

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_maslov_passes(self, n):
        space = SymplecticSpace(n)
        for strat in ("common-frame", "odd-polynomial"):
            r = check_quasi_linearity(MQ, space, strat, 25, 0.0, 2)
            assert r.passed, (n, strat, r.max_defect)

    def test_discontinuous_on_its_own_element(self):
        A = nilpotent_jordan_sp(sp3)
        zeta = discontinuous_qs(A, 1.0)
        r = check_quasi_linearity(zeta, sp3, "odd-polynomial", 25, 1e-9, 3, base=A)
        assert r.passed

    def test_negative_control_fails(self):
        control = frobenius_pseudo_state(sp2)
        r = check_quasi_linearity(control, sp2, "common-frame", 25, 1e-6, 4)
        assert not r.passed

    def test_negative_control_fails_at_n1_via_sign(self):
        # at n = 1 commuting pairs are proportional, so the norm only betrays
        # itself through mixed signs: zeta(-A) != -zeta(A)
        control = frobenius_pseudo_state(sp1)
        A = random_sp_element(sp1, 1.0, 5)
        assert control(-1.0 * A) == pytest.approx(control(A))
        assert control(A) != pytest.approx(-control(A))
        r = check_quasi_linearity(control, sp1, "common-frame", 25, 1e-6, 5)
        assert not r.passed


class TestAdInvariance:
    def test_maslov_n1_with_closed_form_crosscheck(self):
        r = check_ad_invariance(MQ, sp1, 25, 0.0, 6)
        assert r.passed
        # independent oracle: conjugating and re-reading the coordinates
        from spqs.symplectic import omega_adjoint, random_symplectic_group_element
        from spqs.symplectic import project_skew_symplectic

        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(10):
            A = random_sp_element(sp1, 1.0, rng)
            g = random_symplectic_group_element(sp1, 0.6, rng)
            conj = project_skew_symplectic(
                sp1, g @ A.mat @ omega_adjoint(g)
            )
            v1 = maslov_dim2(A.mat[0, 0], A.mat[0, 1], A.mat[1, 0])
            v2 = maslov_dim2(conj.mat[0, 0], conj.mat[0, 1], conj.mat[1, 0])
            assert v1 == pytest.approx(v2, abs=1e-8)

    def test_maslov_n3(self):
        r = check_ad_invariance(MQ, sp3, 25, 0.0, 8)
        assert r.passed

    def test_linear_negative_control(self):
        rng = np.random.Generator(np.random.Philox(9))
        zeta = linear_qs(rng.standard_normal((6, 6)))
        r = check_ad_invariance(zeta, sp3, 25, 1e-6, 9)
        assert not r.passed


class TestGleason:
    def test_basis_dimension(self):
        J = standard_complex_structure(sp3)
        basis = unitary_subalgebra_basis(sp3, J)
        assert len(basis) == 9
        for A in basis:
            assert np.abs(A.mat @ J.mat - J.mat @ A.mat).max() < 1e-10

    def test_linear_state(self):
        rng = np.random.Generator(np.random.Philox(10))
        zeta = linear_qs(rng.standard_normal((6, 6)))
        J = standard_complex_structure(sp3)
        r = fit_gleason_on_unitary(zeta, J, 1e-10, 11)
        assert r.passed

    def test_maslov_with_imtrace_oracle(self):
        J = standard_complex_structure(sp3)
        r = fit_gleason_on_unitary(
            MQ, J, 1e-2, 12, oracle=maslov_imtrace_oracle(sp3)
        )
        assert r.passed
        assert r.fitted_parameters["oracle_max_dev"] <= 1e-6

    def test_refuses_small_n(self):
        J = standard_complex_structure(sp1)
        zeta = dim2_homogeneous_qs(
            lambda M: maslov_dim2(M[0, 0], M[0, 1], M[1, 0]), sp1
        )
        with pytest.raises(ValueError, match="n >= 3 not met"):
            fit_gleason_on_unitary(zeta, J, 1e-2, 13)


class TestEmbedding:
    def test_identity_acts_plus_minus_one(self):
        emb = embed_gl(sp3, 14)
        el = emb.inject(np.eye(3))
        np.testing.assert_allclose(el.mat @ emb.L1, emb.L1, atol=1e-9)
        np.testing.assert_allclose(el.mat @ emb.L2, -emb.L2, atol=1e-9)

    def test_rank_one_lands_on_z_type(self):
        emb = embed_gl(sp3, 15)
        rng = np.random.Generator(np.random.Philox(16))
        xi, eta = rng.standard_normal((2, 3))
        el = emb.rank_one(xi, eta)
        # the same operator written as a Z generator on frame vectors
        u = emb.L1 @ xi
        v = emb.L2 @ (-eta)
        Z = z_element(sp3, u, v)
        np.testing.assert_allclose(el.mat, Z.mat, atol=1e-9)
        assert np.linalg.matrix_rank(el.mat, tol=1e-9) == 2

    def test_bracket_preservation(self):
        emb = embed_gl(sp3, 17)
        assert emb.bracket_defect <= 1e-9


class TestRankOneTrace:
    def test_linear_state(self):
        rng = np.random.Generator(np.random.Philox(18))
        zeta = linear_qs(rng.standard_normal((6, 6)))
        emb = embed_gl(sp3, 18)
        r = fit_rank_one_trace(zeta, emb, 90, 1e-9, 19)
        assert r.passed

    def test_maslov_state_fits_zero(self):
        emb = embed_gl(sp3, 20)
        r = fit_rank_one_trace(MQ, emb, 90, 1e-2, 21)
        assert r.passed
        assert np.abs(r.fitted_parameters["N"]).max() <= 1e-6

    def test_scaling_in_first_argument(self):
        emb = embed_gl(sp3, 22)
        rng = np.random.Generator(np.random.Philox(23))
        zeta = linear_qs(rng.standard_normal((6, 6)))
        xi, eta = rng.standard_normal((2, 3))
        assert zeta(emb.rank_one(2.0 * xi, eta)) == pytest.approx(
            2.0 * zeta(emb.rank_one(xi, eta)), abs=1e-10
        )


class TestIsotropic:
    def test_pair_sampler(self):
        rng = np.random.Generator(np.random.Philox(24))
        for _ in range(20):
            e1, e2 = isotropic_pair(sp3, rng)
            assert abs(omega(sp3, e1, e2)) < 1e-10

    def test_linear_functional_passes(self):
        rng = np.random.Generator(np.random.Philox(25))
        cov = rng.standard_normal(6)
        r = check_isotropic_linearity(lambda v: float(cov @ v), sp3, 30, 1e-10, 26)
        assert r.passed

    def test_maslov_g_slice_passes(self):
        rng = np.random.Generator(np.random.Philox(27))
        fg = FGEvaluator(MQ, sp3)
        xi = rng.standard_normal(6)
        r = check_isotropic_linearity(lambda v: fg.G(xi, v), sp3, 20, 1e-8, 28)
        assert r.passed

    def test_norm_fails(self):
        r = check_isotropic_linearity(
            lambda v: float(np.linalg.norm(v)), sp3, 20, 1e-6, 29
        )
        assert not r.passed

    def test_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            check_isotropic_linearity(lambda v: 0.0, sp1, 5, 1e-6, 30)


class TestMainTheoremFit:
    def test_linear_state(self):
        rng = np.random.Generator(np.random.Philox(31))
        zeta = linear_qs(rng.standard_normal((6, 6)))
        r = fit_main_theorem(zeta, sp3, 1e-8, 32)
        assert r.passed
        assert abs(r.fitted_parameters["c_fit"]) <= 1e-8

    def test_maslov_state(self):
        r = fit_main_theorem(MQ, sp3, 1e-2, 33)
        assert r.passed
        assert r.fitted_parameters["c_fit"] == pytest.approx(-1.0, abs=1e-6)
        assert np.abs(r.fitted_parameters["C"]).max() <= 1e-6

    def test_composite_recovery(self):
        rng = np.random.Generator(np.random.Philox(34))
        N0 = rng.standard_normal((6, 6))
        comp = linear_combination([(2.0, MQ), (1.0, linear_qs(N0))])
        r = fit_main_theorem(comp, sp3, 1e-2, 35)
        assert r.passed
        assert r.fitted_parameters["maslov_coefficient"] == pytest.approx(2.0, abs=1e-2)
        # the recovered linear part reproduces tr(N0 .) on the algebra
        C = r.fitted_parameters["C"]
        for seed in range(5):
            B, _ = random_semisimple(sp3, 100 + seed)
            assert float(np.trace(-C @ B.mat)) == pytest.approx(
                float(np.trace(N0 @ B.mat)), abs=1e-6
            )

    def test_small_n_caveat_recorded(self):
        r = fit_main_theorem(MQ, sp2, 1e-2, 36)
        assert "caveat" in r.fitted_parameters


class TestBases:
    def test_sp_basis_dimension_and_membership(self):
        from spqs.symplectic import skew_defect

        base = sp_basis(sp2)
        assert len(base) == 10  # n(2n+1) for n = 2
        for A in base:
            assert skew_defect(A) < 1e-12
        flat = np.stack([A.reshape(-1) for A in base])
        assert np.linalg.matrix_rank(flat) == 10
