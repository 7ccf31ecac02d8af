import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spqs.symplectic import (
    CommutingStrategy,
    RankOneDescriptor,
    RankOneKind,
    SkewSymplecticityError,
    SpElement,
    SymplecticSpace,
    commuting_pair,
    omega,
    omega_adjoint,
    project_skew_symplectic,
    random_sp_element,
    random_symplectic_group_element,
    realize,
    standard_complex_structure,
    y_element,
    z_element,
)

sp1 = SymplecticSpace(1)
sp2 = SymplecticSpace(2)
sp3 = SymplecticSpace(3)


class TestOmega:
    def test_darboux_pairings(self):
        for n, sp in ((1, sp1), (2, sp2), (3, sp3)):
            for i in range(n):
                for j in range(n):
                    assert omega(sp, sp.basis_e(i), sp.basis_f(j)) == (1.0 if i == j else 0.0)
                    assert omega(sp, sp.basis_e(i), sp.basis_e(j)) == 0.0
                    assert omega(sp, sp.basis_f(i), sp.basis_f(j)) == 0.0

    def test_antisymmetry_on_diagonal(self):
        rng = np.random.Generator(np.random.Philox(0))
        for _ in range(10):
            x = rng.standard_normal(4)
            assert omega(sp2, x, x) == 0.0

    def test_bilinear_expansion(self):
        # omega(e1 + f2, f1 - e2) = 1 + 1 = 2 by the Darboux table
        x = sp2.basis_e(0) + sp2.basis_f(1)
        y = sp2.basis_f(0) - sp2.basis_e(1)
        assert omega(sp2, x, y) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            omega(sp2, np.ones(3), np.ones(4))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bilinearity_random(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        x, y, z = rng.standard_normal((3, 6))
        a, b = rng.uniform(-3, 3, 2)
        lhs = omega(sp3, a * x + b * y, z)
        rhs = a * omega(sp3, x, z) + b * omega(sp3, y, z)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert omega(sp3, x, y) == pytest.approx(-omega(sp3, y, x), abs=1e-12)


class TestOmegaAdjoint:
    def test_identity(self):
        assert np.array_equal(omega_adjoint(np.eye(4)), np.eye(4))

    def test_negates_algebra_elements(self):
        A = random_sp_element(sp2, 1.0, 1)
        np.testing.assert_allclose(omega_adjoint(A.mat), -A.mat, atol=1e-14)

    def test_omega_itself(self):
        # brute force check fixes the value: Omega^{-1} Omega^T Omega = -Omega
        O = sp2.omega_matrix
        expected = np.linalg.inv(O) @ O.T @ O
        np.testing.assert_allclose(expected, -O, atol=1e-14)
        np.testing.assert_allclose(omega_adjoint(O), -O, atol=1e-14)

    def test_defining_identity(self):
        rng = np.random.Generator(np.random.Philox(5))
        for _ in range(20):
            A = rng.standard_normal((6, 6))
            x, y = rng.standard_normal((2, 6))
            lhs = omega(sp3, A @ x, y)
            rhs = omega(sp3, x, omega_adjoint(A) @ y)
            bound = 1e-10 * np.linalg.norm(A) * np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(lhs - rhs) <= bound

    def test_involution(self):
        rng = np.random.Generator(np.random.Philox(6))
        A = rng.standard_normal((4, 4))
        np.testing.assert_allclose(omega_adjoint(omega_adjoint(A)), A, atol=1e-13)


class TestSpElement:
    def test_rejects_non_member(self):
        with pytest.raises(SkewSymplecticityError):
            SpElement(sp1, np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_projection_lands_in_algebra(self):
        rng = np.random.Generator(np.random.Philox(7))
        A = project_skew_symplectic(sp3, rng.standard_normal((6, 6)))
        assert np.abs(A.mat + omega_adjoint(A.mat)).max() < 1e-13

    def test_linear_operations(self):
        A = random_sp_element(sp2, 1.0, 8)
        B = random_sp_element(sp2, 1.0, 9)
        np.testing.assert_allclose((A + B).mat, A.mat + B.mat)
        np.testing.assert_allclose((2.5 * A).mat, 2.5 * A.mat)
        np.testing.assert_allclose((-A).mat, -A.mat)


class TestRankOneOperators:
    def test_z_action_table(self):
        # Z_{xi,eta} x = omega(eta, x) xi + omega(xi, x) eta on the Darboux table
        Z = z_element(sp2, sp2.basis_e(0), sp2.basis_f(0))
        np.testing.assert_allclose(Z.mat @ sp2.basis_e(0), -sp2.basis_e(0), atol=1e-14)
        np.testing.assert_allclose(Z.mat @ sp2.basis_f(0), sp2.basis_f(0), atol=1e-14)
        np.testing.assert_allclose(Z.mat @ sp2.basis_e(1), 0 * sp2.basis_e(1), atol=1e-14)
        np.testing.assert_allclose(Z.mat @ sp2.basis_f(1), 0 * sp2.basis_f(1), atol=1e-14)

    def test_y_action_table(self):
        Y = y_element(sp1, sp1.basis_e(0), sp1.basis_f(0))
        np.testing.assert_allclose(Y.mat @ sp1.basis_e(0), -sp1.basis_f(0), atol=1e-14)
        np.testing.assert_allclose(Y.mat @ sp1.basis_f(0), sp1.basis_e(0), atol=1e-14)

    def test_y_with_zero_second_vector_is_t(self):
        rng = np.random.Generator(np.random.Philox(10))
        xi = rng.standard_normal(4)
        Y = y_element(sp2, xi, np.zeros(4))
        T = realize(RankOneDescriptor(sp2, RankOneKind.T, xi, xi))
        np.testing.assert_allclose(Y.mat, T.mat, atol=1e-14)

    def test_t_plain_matrix_unless_diagonal(self):
        rng = np.random.Generator(np.random.Philox(11))
        xi, eta = rng.standard_normal((2, 4))
        T = realize(RankOneDescriptor(sp2, RankOneKind.T, xi, eta))
        assert isinstance(T, np.ndarray)
        Td = realize(RankOneDescriptor(sp2, RankOneKind.T, xi, xi))
        assert isinstance(Td, SpElement)

    def test_symmetry_in_arguments(self):
        rng = np.random.Generator(np.random.Philox(12))
        xi, eta = rng.standard_normal((2, 6))
        assert np.array_equal(y_element(sp3, xi, eta).mat, y_element(sp3, eta, xi).mat)
        assert np.array_equal(z_element(sp3, xi, eta).mat, z_element(sp3, eta, xi).mat)

    def test_y_diagonal_equals_z_diagonal(self):
        rng = np.random.Generator(np.random.Philox(13))
        xi = rng.standard_normal(6)
        np.testing.assert_allclose(
            y_element(sp3, xi, xi).mat, z_element(sp3, xi, xi).mat, atol=1e-14
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_z_bilinearity(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        xi1, xi2, eta = rng.standard_normal((3, 4))
        a, b = rng.uniform(-2, 2, 2)
        lhs = z_element(sp2, a * xi1 + b * xi2, eta).mat
        rhs = a * z_element(sp2, xi1, eta).mat + b * z_element(sp2, xi2, eta).mat
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestComplexStructure:
    def test_standard_matrix_n1(self):
        J = standard_complex_structure(sp1)
        np.testing.assert_allclose(J.mat, np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_square_is_minus_identity(self):
        J = standard_complex_structure(sp3)
        np.testing.assert_allclose(J.mat @ J.mat, -np.eye(6), atol=1e-14)

    def test_positivity_sign(self):
        J = standard_complex_structure(sp2)
        assert omega(sp2, sp2.basis_e(0), J.mat @ sp2.basis_e(0)) == pytest.approx(1.0)


class TestRandomGenerators:
    def test_sp_element_membership_and_determinism(self):
        A = random_sp_element(sp3, 1.0, 42)
        B = random_sp_element(sp3, 1.0, 42)
        assert np.array_equal(A.mat, B.mat)
        assert np.abs(A.mat + omega_adjoint(A.mat)).max() < 1e-12

    def test_zero_scale(self):
        assert np.abs(random_sp_element(sp2, 0.0, 1).mat).max() == 0.0

    def test_group_element_identity_at_zero_scale(self):
        g = random_symplectic_group_element(sp2, 0.0, 3)
        np.testing.assert_allclose(g, np.eye(4), atol=1e-14)

    def test_group_element_properties(self):
        g = random_symplectic_group_element(sp3, 1.0, 4)
        O = sp3.omega_matrix
        assert np.abs(g.T @ O @ g - O).max() < 1e-8
        assert abs(np.linalg.det(g) - 1.0) < 1e-6
        np.testing.assert_allclose(
            omega_adjoint(g), np.linalg.inv(g), atol=1e-6
        )


class TestCommutingPairs:
    def test_disjoint_planes_commute(self):
        Z = z_element(sp2, sp2.basis_e(0), sp2.basis_f(0))
        Y = y_element(sp2, sp2.basis_e(1), sp2.basis_f(1))
        assert Z.commutator_norm(Y) < 1e-14

    def test_shared_plane_mixed_kinds_do_not_commute(self):
        Z = z_element(sp1, sp1.basis_e(0), sp1.basis_f(0))
        Y = y_element(sp1, sp1.basis_e(0), sp1.basis_f(0))
        assert Z.commutator_norm(Y) > 0.5

    @pytest.mark.parametrize("strategy", ["common-frame", "odd-polynomial"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_certificates(self, strategy, n):
        space = SymplecticSpace(n)
        for seed in range(5):
            pair = commuting_pair(space, strategy, seed)
            bound = 1e-9 * (1 + pair.a.norm()) * (1 + pair.b.norm())
            assert pair.commutator_norm <= bound
            assert pair.strategy == CommutingStrategy(strategy)

    def test_odd_polynomials_commute_exactly(self):
        pair = commuting_pair(sp2, "odd-polynomial", 17)
        assert pair.commutator_norm < 1e-12


class TestQuadrupleRelations:
    def test_three_relations_standard_frame(self):
        # the commuting structure of the two-plane block generators
        e1, e2 = sp2.basis_e(0), sp2.basis_e(1)
        f1, f2 = sp2.basis_f(0), sp2.basis_f(1)
        r2 = np.sqrt(2.0)
        a, b = 1.3, 0.7
        Z1 = z_element(sp2, e1, f1).mat
        Z2 = z_element(sp2, e2, f2).mat
        Y1 = y_element(sp2, (e2 - f1) / r2, (e1 + f2) / r2).mat
        Y2 = y_element(sp2, (e1 - f2) / r2, (e2 + f1) / r2).mat
        zsum = a * (Z1 + Z2)
        ycomb = -b * Y1 + b * Y2
        assert np.abs(zsum @ ycomb - ycomb @ zsum).max() <= 1e-10
        assert np.abs(Z1 @ Z2 - Z2 @ Z1).max() <= 1e-10
        assert np.abs(Y1 @ Y2 - Y2 @ Y1).max() <= 1e-10

    def test_four_terms_reproduce_two_plane_block(self):
        e1, e2 = sp2.basis_e(0), sp2.basis_e(1)
        f1, f2 = sp2.basis_f(0), sp2.basis_f(1)
        r2 = np.sqrt(2.0)
        a, b = 1.0, 1.0
        total = (
            a * z_element(sp2, e1, f1).mat
            + a * z_element(sp2, e2, f2).mat
            - b * y_element(sp2, (e2 - f1) / r2, (e1 + f2) / r2).mat
            + b * y_element(sp2, (e1 - f2) / r2, (e2 + f1) / r2).mat
        )
        # 4x4 block in basis order (e1, e2, f1, f2)
        expected = np.array(
            [
                [-a, b, 0, 0],
                [-b, -a, 0, 0],
                [0, 0, a, b],
                [0, 0, -b, a],
            ],
            dtype=float,
        )
        np.testing.assert_allclose(total, expected, atol=1e-14)
