import numpy as np
import pytest

from spqs.maslov import MaslovLimitConfig, maslov_dim2
from spqs.quasistates import (
    DiscontinuousQS,
    dim2_homogeneous_qs,
    discontinuous_qs,
    linear_combination,
    linear_qs,
    maslov_qs,
    nilpotent_jordan_sp,
)
from spqs.symplectic import (
    SpElement,
    SymplecticSpace,
    omega_adjoint,
    project_skew_symplectic,
    random_sp_element,
    random_symplectic_group_element,
    y_element,
)

sp1 = SymplecticSpace(1)
sp2 = SymplecticSpace(2)
sp3 = SymplecticSpace(3)


class TestLinear:
    def test_zero_matrix_gives_zero_state(self):
        zeta = linear_qs(np.zeros((4, 4)))
        assert zeta(random_sp_element(sp2, 1.0, 0)) == 0.0

    def test_trace_value_on_y(self):
        # brute force: Omega @ Y_{e1,f1} = -I for n = 1, trace -2
        zeta = linear_qs(sp1.omega_matrix)
        Y = y_element(sp1, sp1.basis_e(0), sp1.basis_f(0))
        assert zeta(Y) == pytest.approx(-2.0, abs=1e-14)

    def test_additivity_on_arbitrary_pairs(self):
        rng = np.random.Generator(np.random.Philox(1))
        N = rng.standard_normal((6, 6))
        zeta = linear_qs(N)
        A = random_sp_element(sp3, 1.0, 2)
        B = random_sp_element(sp3, 1.0, 3)
        assert zeta(A + B) == pytest.approx(zeta(A) + zeta(B), abs=1e-10)


class TestMaslovState:
    def test_anchor_values(self):
        zeta = maslov_qs()
        rot = SpElement(sp1, np.array([[0.0, -1.0], [1.0, 0.0]]))
        hyp = SpElement(sp1, np.diag([1.0, -1.0]))
        assert zeta(rot) == pytest.approx(1.0, abs=1e-8)
        assert zeta(hyp) == pytest.approx(0.0, abs=1e-8)
        assert zeta(SpElement(sp1, np.zeros((2, 2)))) == 0.0

    def test_methods_agree(self):
        B = SpElement(sp1, np.array([[0.4, -1.5], [1.2, -0.4]]))
        zl = maslov_qs(MaslovLimitConfig(t_max=2000.0), method="limit")
        zs = maslov_qs(method="spectral")
        za = maslov_qs(method="auto")
        vl, el = zl.with_error(B)
        assert zs(B) == pytest.approx(maslov_dim2(0.4, -1.5, 1.2), abs=1e-9)
        assert za(B) == pytest.approx(zs(B), abs=1e-9)
        assert abs(vl - zs(B)) <= el + 1e-3

    def test_falls_back_to_limit_for_non_semisimple(self):
        zeta = maslov_qs(MaslovLimitConfig(t_max=200.0))
        A = nilpotent_jordan_sp(sp1)
        value, err = zeta.with_error(A)
        assert abs(value) <= err + 1e-2

    def test_homogeneity_invariant(self):
        zeta = maslov_qs()
        B = SpElement(sp1, np.array([[0.1, -1.0], [1.3, -0.1]]))
        for s in (-1.0, 2.0):
            assert zeta(s * B) == pytest.approx(s * zeta(B), abs=2 * zeta.eval_tolerance)


class TestDim2Homogeneous:
    def test_zero_function(self):
        zeta = dim2_homogeneous_qs(lambda M: 0.0, sp1)
        assert zeta(random_sp_element(sp1, 1.0, 4)) == 0.0

    def test_linear_restriction_recovers_functional(self):
        rng = np.random.Generator(np.random.Philox(5))
        N = rng.standard_normal((2, 2))
        zeta = dim2_homogeneous_qs(lambda M: float(np.trace(N @ M)), sp1)
        ref = linear_qs(N)
        for seed in range(10):
            A = random_sp_element(sp1, 2.0, seed)
            assert zeta(A) == pytest.approx(ref(A), abs=1e-10)

    def test_closed_form_restriction_extends_to_rays(self):
        f = lambda M: maslov_dim2(M[0, 0], M[0, 1], M[1, 0])
        zeta = dim2_homogeneous_qs(f, sp1)
        rng = np.random.Generator(np.random.Philox(6))
        for _ in range(20):
            a, b, c = rng.uniform(-2, 2, 3)
            A = SpElement(sp1, np.array([[a, b], [c, -a]]))
            assert zeta(A) == pytest.approx(maslov_dim2(a, b, c), abs=1e-10)

    def test_oddness_violation_rejected(self):
        with pytest.raises(ValueError):
            dim2_homogeneous_qs(lambda M: 1.0, sp1)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            dim2_homogeneous_qs(lambda M: 0.0, sp2)


class TestNilpotentConstructor:
    def test_n1_matrix(self):
        A = nilpotent_jordan_sp(sp1)
        np.testing.assert_allclose(A.mat, np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.abs(A.mat @ A.mat).max() == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rank_profile(self, n):
        space = SymplecticSpace(n)
        A = nilpotent_jordan_sp(space).mat
        P = np.eye(2 * n)
        for k in range(1, 2 * n + 1):
            P = P @ A
            rank = int(np.sum(np.linalg.svd(P, compute_uv=False) > 1e-10))
            assert rank == 2 * n - k


class TestDiscontinuous:
    def test_values_on_the_powers(self):
        A = nilpotent_jordan_sp(sp3)
        zeta = discontinuous_qs(A, 2.5)
        assert zeta(A) == pytest.approx(2.5)
        cube = SpElement(sp3, A.mat @ A.mat @ A.mat)
        assert zeta(cube) == 0.0
        combo = SpElement(sp3, 0.7 * A.mat - 1.2 * (A.mat @ A.mat @ A.mat))
        assert zeta(combo) == pytest.approx(2.5 * 0.7)

    def test_generic_elements_evaluate_to_zero(self):
        A = nilpotent_jordan_sp(sp2)
        zeta = discontinuous_qs(A, 1.0)
        for seed in range(10):
            x = random_sp_element(sp2, 1.0, seed)
            assert zeta(x) == 0.0

    def test_exact_homogeneity(self):
        A = nilpotent_jordan_sp(sp2)
        zeta = discontinuous_qs(A, 1.0)
        combo = SpElement(sp2, 0.3 * A.mat + 0.9 * (A.mat @ A.mat @ A.mat))
        for s in (-1.0, 2.0):
            assert zeta(s * combo) == pytest.approx(s * zeta(combo), abs=1e-12)

    def test_discontinuity_sequence(self):
        A = nilpotent_jordan_sp(sp2)
        zeta = discontinuous_qs(A, 1.0)
        E = random_sp_element(sp2, 1.0, 99)
        assert zeta(A) == pytest.approx(1.0)
        for k in (1, 10, 100, 1000):
            xk = A + (1.0 / k) * E
            assert zeta(xk) == 0.0

    def test_boundedness_on_unit_sphere(self):
        A = nilpotent_jordan_sp(sp2)
        zeta = discontinuous_qs(A, 1.0)
        bound = zeta.source.bound_constant
        rng = np.random.Generator(np.random.Philox(123))
        worst = 0.0
        for _ in range(1000):
            x = project_skew_symplectic(sp2, rng.standard_normal((4, 4)))
            if x.norm() == 0:
                continue
            x = (1.0 / x.norm()) * x
            worst = max(worst, abs(zeta(x)))
        # members of the odd-power span saturate the bound
        member = SpElement(sp2, A.mat / np.linalg.norm(A.mat))
        assert abs(zeta(member)) <= bound + 1e-12
        assert worst <= bound + 1e-12

    def test_conjugated_instances_linearly_independent(self):
        A = nilpotent_jordan_sp(sp2)
        g = random_symplectic_group_element(sp2, 0.5, 7)
        A2 = project_skew_symplectic(
            sp2, g @ A.mat @ omega_adjoint(g)
        )
        z1 = discontinuous_qs(A, 1.0)
        z2 = discontinuous_qs(A2, 1.0)
        assert z1(A) == pytest.approx(1.0)
        assert z2(A) == 0.0
        assert z2(A2) == pytest.approx(1.0)
        assert z1(A2) == 0.0

    def test_rejects_non_jordan_input(self):
        B = random_sp_element(sp2, 1.0, 5)
        with pytest.raises(ValueError):
            discontinuous_qs(B, 1.0)

    def test_source_is_typed(self):
        A = nilpotent_jordan_sp(sp1)
        zeta = discontinuous_qs(A, 1.0)
        assert isinstance(zeta.source, DiscontinuousQS)
        assert not zeta.continuous


class TestComposite:
    def test_linear_combination_values(self):
        rng = np.random.Generator(np.random.Philox(8))
        N = rng.standard_normal((4, 4))
        lin = linear_qs(N)
        mq = maslov_qs()
        comp = linear_combination([(2.0, mq), (-1.0, lin)])
        B, = [random_sp_element(sp2, 0.8, 11)]
        v, e = comp.with_error(B)
        assert v == pytest.approx(2.0 * mq(B) - lin(B), abs=1e-9)
        assert comp.provenance == "composite"
