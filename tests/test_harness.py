import dataclasses

import numpy as np
import pytest

import spqs.symplectic
from spqs import harness
from spqs.harness import (
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
    QuasiState,
    dim2_homogeneous_qs,
    discontinuous_qs,
    linear_combination,
    linear_qs,
    maslov_qs,
    nilpotent_jordan_sp,
)
from spqs.report import report_to_text
from spqs.symplectic import (
    SymplecticDefectError,
    SymplecticSpace,
    commuting_pair,
    omega,
    omega_adjoint,
    random_sp_element,
    random_symplectic_group_element,
    rng_from,
    skew_part,
    standard_complex_structure,
    z_element,
)
from spqs.williamson import random_semisimple

sp1 = SymplecticSpace(1)
sp2 = SymplecticSpace(2)
sp3 = SymplecticSpace(3)

MQ = maslov_qs()


class TestReportInvariants:
    def test_determinism(self):
        r1 = check_quasi_linearity([(MQ, 1e-2)], sp2, "common-frame", 10, 42)
        r2 = check_quasi_linearity([(MQ, 1e-2)], sp2, "common-frame", 10, 42)
        assert r1 == r2


class TestQuasiLinearity:
    def test_linear_state_tight(self):
        rng = np.random.Generator(np.random.Philox(0))
        zeta = linear_qs(rng.standard_normal((6, 6)))
        for strat in ("common-frame", "odd-polynomial"):
            (r,) = check_quasi_linearity([(zeta, 1e-10)], sp3, strat, 25, 1)
            assert r.passed

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_maslov_passes(self, n):
        space = SymplecticSpace(n)
        for strat in ("common-frame", "odd-polynomial"):
            (r,) = check_quasi_linearity([(MQ, 0.0)], space, strat, 25, 2)
            assert r.passed, (n, strat, r.max_defect)

    def test_states_share_one_draw(self):
        # a pair of states on one draw reports what each state alone reports
        zeta = linear_qs(np.random.Generator(np.random.Philox(37)).standard_normal((6, 6)))
        for strat in ("common-frame", "odd-polynomial"):
            pair = check_quasi_linearity([(zeta, 1e-10), (MQ, 1e-2)], sp3, strat, 10, 38)
            alone = [
                check_quasi_linearity([state], sp3, strat, 10, 38)[0]
                for state in ((zeta, 1e-10), (MQ, 1e-2))
            ]
            assert [report_to_text(r) for r in pair] == [report_to_text(r) for r in alone]

    def test_discontinuous_on_its_own_element(self):
        A = nilpotent_jordan_sp(sp3)
        zeta = discontinuous_qs(A, 1.0)
        (r,) = check_quasi_linearity([(zeta, 1e-9)], sp3, "odd-polynomial", 25, 3, base=A)
        assert r.passed

    def test_negative_control_fails(self):
        control = frobenius_pseudo_state()
        (r,) = check_quasi_linearity([(control, 1e-6)], sp2, "common-frame", 25, 4)
        assert not r.passed

    def test_negative_control_fails_at_n1_via_sign(self):
        # at n = 1 commuting pairs are proportional, so the norm only betrays
        # itself through mixed signs: zeta(-A) != -zeta(A)
        control = frobenius_pseudo_state()
        A = random_sp_element(sp1, 1.0, 5)
        assert control(-1.0 * A) == pytest.approx(control(A))
        assert control(A) != pytest.approx(-control(A))
        (r,) = check_quasi_linearity([(control, 1e-6)], sp1, "common-frame", 25, 5)
        assert not r.passed


class TestStackedDraws:
    """The checkers draw every trial in order, then build the elements as stacks."""

    @staticmethod
    def _probe(seen):
        return QuasiState.from_batch(
            lambda xs, memo=None: seen.extend(xs) or [(0.0, 0.0)] * len(xs), True, "probe")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_conjugates_match_the_per_trial_build(self, n):
        space, seen = SymplecticSpace(n), []
        check_ad_invariance(self._probe(seen), space, 7, 0.0, 150 + n)
        rng = rng_from(150 + n)
        for A, conj in zip(seen[::2], seen[1::2]):
            A1 = random_sp_element(space, 1.0, rng)
            g = random_symplectic_group_element(space, 0.6, rng)
            assert A.mat.tobytes() == A1.mat.tobytes()
            assert conj.mat.tobytes() == skew_part(g @ A1.mat @ omega_adjoint(g)).tobytes()

    @pytest.mark.parametrize("strategy", ["common-frame", "odd-polynomial"])
    def test_pairs_and_combinations_match_the_per_trial_draws(self, strategy):
        seen = []
        check_quasi_linearity([(self._probe(seen), 0.0)], sp3, strategy, 6, 160)
        rng = rng_from(160)
        for a, b, ab in zip(seen[::3], seen[1::3], seen[2::3]):
            pair = commuting_pair(sp3, strategy, rng)
            c1, c2 = rng.uniform(-2.0, 2.0, 2)
            assert a.mat.tobytes() == pair.a.mat.tobytes()
            assert b.mat.tobytes() == pair.b.mat.tobytes()
            assert ab.mat.tobytes() == (c1 * pair.a.mat + c2 * pair.b.mat).tobytes()

    def test_group_defect_fails_where_the_per_trial_loop_fails(self, monkeypatch):
        monkeypatch.setattr(spqs.symplectic, "GROUP_DEFECT_TOL", 1e-17)

        def per_trial():
            rng = rng_from(170)
            for _ in range(20):
                random_sp_element(sp3, 1.0, rng)
                random_symplectic_group_element(sp3, 0.6, rng)

        with pytest.raises(SymplecticDefectError) as expected:
            per_trial()
        with pytest.raises(SymplecticDefectError) as stacked:
            check_ad_invariance(MQ, sp3, 20, 0.0, 170)
        assert str(stacked.value) == str(expected.value)

    def test_no_trials(self):
        for strategy in ("common-frame", "odd-polynomial"):
            with pytest.raises(ValueError, match="need at least one trial"):
                check_quasi_linearity([(MQ, 0.0)], sp2, strategy, 0, 1)
        with pytest.raises(ValueError, match="need at least one trial"):
            check_ad_invariance(MQ, sp2, 0, 0.0, 1)

    def test_common_frame_refuses_a_base(self):
        with pytest.raises(ValueError, match="common-frame strategy takes no base"):
            check_quasi_linearity([(MQ, 0.0)], sp2, "common-frame", 5, 1,
                                  base=random_sp_element(sp2, 0.5, 1))


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
        basis = unitary_subalgebra_basis(sp3)
        assert len(basis) == 9
        for A in basis:
            assert np.abs(A.mat @ J - J @ A.mat).max() < 1e-10

    def test_linear_state(self):
        rng = np.random.Generator(np.random.Philox(10))
        zeta = linear_qs(rng.standard_normal((6, 6)))
        r = fit_gleason_on_unitary(zeta, sp3, 1e-10, 11)
        assert r.passed

    def test_maslov_with_imtrace_oracle(self):
        r = fit_gleason_on_unitary(
            MQ, sp3, 1e-2, 12, oracle=maslov_imtrace_oracle()
        )
        assert r.passed
        assert r.fitted_parameters["oracle_max_dev"] <= 1e-6

    def test_refuses_small_n(self):
        zeta = dim2_homogeneous_qs(
            lambda M: maslov_dim2(M[0, 0], M[0, 1], M[1, 0]), sp1
        )
        with pytest.raises(ValueError, match="n >= 3 not met"):
            fit_gleason_on_unitary(zeta, sp1, 1e-2, 13)


class TestEmbedding:
    def test_identity_acts_plus_minus_one(self):
        emb = embed_gl(sp3, 14)
        (el,) = emb.inject([np.eye(3)])
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
        r = fit_rank_one_trace(zeta, emb, 1e-9, 19)
        assert r.passed

    def test_maslov_state_fits_zero(self):
        emb = embed_gl(sp3, 20)
        r = fit_rank_one_trace(MQ, emb, 1e-2, 21)
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
        r = check_isotropic_linearity(lambda vs: [float(cov @ v) for v in vs], sp3, 30, 1e-10, 26)
        assert r.passed

    def test_maslov_g_slice_passes(self):
        rng = np.random.Generator(np.random.Philox(27))
        xi = rng.standard_normal(6)
        r = check_isotropic_linearity(
            lambda vs: [MQ(z_element(sp3, xi, v)) for v in vs], sp3, 20, 1e-8, 28
        )
        assert r.passed

    def test_norm_fails(self):
        r = check_isotropic_linearity(
            lambda vs: [float(np.linalg.norm(v)) for v in vs], sp3, 20, 1e-6, 29
        )
        assert not r.passed

    def test_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            check_isotropic_linearity(lambda vs: [0.0] * len(vs), sp1, 5, 1e-6, 30)


class TestMainTheoremFit:
    def test_linear_state(self):
        rng = np.random.Generator(np.random.Philox(31))
        zeta = linear_qs(rng.standard_normal((6, 6)))
        (r,) = fit_main_theorem([zeta], sp3, 1e-8, 32)
        assert r.passed
        assert abs(r.fitted_parameters["c_fit"]) <= 1e-8

    def test_maslov_state(self):
        (r,) = fit_main_theorem([MQ], sp3, 1e-2, 33)
        assert r.passed
        assert r.fitted_parameters["c_fit"] == pytest.approx(-1.0, abs=1e-6)
        assert np.abs(r.fitted_parameters["C"]).max() <= 1e-6

    def test_composite_recovery(self):
        rng = np.random.Generator(np.random.Philox(34))
        N0 = rng.standard_normal((6, 6))
        comp = linear_combination([(2.0, MQ), (1.0, linear_qs(N0))])
        (r,) = fit_main_theorem([comp], sp3, 1e-2, 35)
        assert r.passed
        assert r.fitted_parameters["maslov_coefficient"] == pytest.approx(2.0, abs=1e-2)
        # the recovered linear part reproduces tr(N0 .) on the algebra
        C = r.fitted_parameters["C"]
        for seed in range(5):
            B, _ = random_semisimple(sp3, 100 + seed)
            assert float(np.trace(-C @ B.mat)) == pytest.approx(
                float(np.trace(N0 @ B.mat)), abs=1e-6
            )

    def test_states_share_one_draw(self):
        zeta = linear_qs(np.random.Generator(np.random.Philox(39)).standard_normal((6, 6)))
        comp = linear_combination([(2.0, MQ), (1.0, zeta)])
        together = fit_main_theorem([zeta, MQ, comp], sp3, 1e-2, 40)
        alone = [fit_main_theorem([state], sp3, 1e-2, 40)[0] for state in (zeta, MQ, comp)]
        assert [report_to_text(r) for r in together] == [report_to_text(r) for r in alone]

    def test_composite_reads_its_parts_values(self, monkeypatch):
        # the main-theorem call of `spqs verify --n 3 --seed 0`: the Maslov
        # state evaluates each of the three sample lists once, and the
        # composite reuses that; with fresh parts it evaluates them again
        import spqs.quasistates

        stacks, evaluate = [], spqs.quasistates.maslov_evaluate

        def counting(Bs, cfg, method="auto"):
            stacks.append(len(Bs))
            return evaluate(Bs, cfg, method)

        monkeypatch.setattr(spqs.quasistates, "maslov_evaluate", counting)
        mq = maslov_qs()
        lin = linear_qs(rng_from(1).standard_normal((6, 6)))
        composite = linear_combination([(2.0, mq), (1.0, lin)])
        reused = fit_main_theorem([lin, mq, composite], sp3, 1e-2, 0)
        assert stacks == [220, 40, 194]
        stacks.clear()
        fresh_parts = [(2.0, dataclasses.replace(mq)), (1.0, dataclasses.replace(lin))]
        fresh = fit_main_theorem([lin, mq, linear_combination(fresh_parts)], sp3, 1e-2, 0)
        assert stacks == [220, 40, 194] * 2
        assert [report_to_text(r) for r in reused] == [report_to_text(r) for r in fresh]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stage1_rows_match_the_per_element_reference(self, n):
        space = SymplecticSpace(n)
        O = space.omega_matrix
        rng = np.random.Generator(np.random.Philox(41 + n))
        xis, etas = rng.standard_normal((2, 50, space.dim))
        reference = np.array([
            [(A @ xi) @ O @ xi + (A @ eta) @ O @ eta for A in sp_basis(space)]
            + [abs(omega(space, xi, eta))]
            for xi, eta in zip(xis, etas)
        ])
        assert np.array_equal(harness._stage1_rows(space, sp_basis(space), xis, etas), reference)

    def test_one_basis_stack_per_fit(self, monkeypatch):
        # stage 1's design rows and the fitted C read the same stack
        calls, build = [], harness.sp_basis

        def counting(space):
            calls.append(space.n)
            return build(space)

        monkeypatch.setattr(harness, "sp_basis", counting)
        fit_main_theorem([MQ, linear_qs(rng_from(1).standard_normal((6, 6)))], sp3, 1e-2, 0)
        assert calls == [3]

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_continuous_state_refused_before_drawing(self, position, monkeypatch):
        def no_draw(seed):
            raise AssertionError("drew samples")

        monkeypatch.setattr(harness, "rng_from", no_draw)
        states = [MQ, MQ]
        states.insert(position, discontinuous_qs(nilpotent_jordan_sp(sp3), 1.0))
        with pytest.raises(ValueError, match="continuous"):
            fit_main_theorem(states, sp3, 1e-2, 42)

    def test_small_n_caveat_recorded(self):
        (r,) = fit_main_theorem([MQ], sp2, 1e-2, 36)
        assert "caveat" in r.fitted_parameters


class TestFitNegativeControls:
    """Each fit of `spqs verify` at n = 3 and tol 1e-2 (the rank-one fit on the
    embedding of seed + 2) fails on the Maslov state plus eps |A|_F at eps = 1e-2
    and passes at eps = 0."""

    FITS = {
        "main-theorem": lambda zeta, seed: fit_main_theorem([zeta], sp3, 1e-2, seed)[0],
        "gleason": lambda zeta, seed: fit_gleason_on_unitary(zeta, sp3, 1e-2, seed),
        "rank-one": lambda zeta, seed: fit_rank_one_trace(zeta, embed_gl(sp3, seed + 2), 1e-2,
                                                          seed),
    }

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("fit", FITS)
    def test_fails_on_a_perturbed_maslov_state(self, fit, seed):
        def passes(eps):
            zeta = linear_combination([(1.0, maslov_qs()), (eps, frobenius_pseudo_state())])
            return self.FITS[fit](zeta, seed).passed

        assert passes(0.0)
        assert not passes(1e-2)


class TestBases:
    def test_sp_basis_dimension_and_membership(self):
        from spqs.symplectic import skew_defect

        base = sp_basis(sp2)
        assert base.shape == (10, 4, 4)  # n(2n+1) for n = 2
        for A in base:
            assert skew_defect(A) < 1e-12
        flat = np.stack([A.reshape(-1) for A in base])
        assert np.linalg.matrix_rank(flat) == 10
