import numpy as np
import pytest

from spqs.kernels import (
    IllConditionedError,
    LiftGapError,
    PolarSample,
    complexify_orthosymplectic,
    det_complex,
    expm,
    lift_argument,
    polar_decompose,
    sample_polar_path,
)
from spqs.symplectic import (
    SymplecticSpace,
    random_sp_element,
    random_symplectic_group_element,
    standard_complex_structure,
)

sp1 = SymplecticSpace(1)
sp2 = SymplecticSpace(2)


class TestExpm:
    def test_zero(self):
        np.testing.assert_allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        E = expm(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(E, np.diag([np.e, 1 / np.e]), atol=1e-12)

    def test_rotation_half_turn(self):
        gen = np.array([[0.0, -1.0], [1.0, 0.0]])
        np.testing.assert_allclose(expm(np.pi * gen), -np.eye(2), atol=1e-10)

    def test_commuting_factorization(self):
        rng = np.random.Generator(np.random.Philox(2))
        A = random_sp_element(sp2, 0.7, rng).mat
        B = 0.35 * A  # commutes exactly
        lhs = expm(A + B)
        rhs = expm(A) @ expm(B)
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)

    def test_shape_error(self):
        with pytest.raises(ValueError):
            expm(np.ones((2, 3)))


class TestPolar:
    def test_orthogonal_input(self):
        th = 0.7
        Q = np.array(
            [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
        )
        P, U = polar_decompose(Q)
        np.testing.assert_allclose(P, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(U, Q, atol=1e-12)

    def test_spd_input(self):
        M = np.array([[2.0, 0.5], [0.5, 1.0]])
        P, U = polar_decompose(M)
        np.testing.assert_allclose(P, M, atol=1e-12)
        np.testing.assert_allclose(U, np.eye(2), atol=1e-12)

    def test_positive_diagonal_symplectic(self):
        M = np.diag([2.0, 0.5])
        P, U = polar_decompose(M)
        np.testing.assert_allclose(P, M, atol=1e-13)
        np.testing.assert_allclose(U, np.eye(2), atol=1e-13)

    def test_random_symplectic_factors(self):
        for seed in range(5):
            M = random_symplectic_group_element(sp2, 0.8, seed)
            P, U = polar_decompose(M)
            O = sp2.omega_matrix
            assert np.linalg.norm(P @ U - M) <= 1e-8 * np.linalg.norm(M)
            assert np.abs(U.T @ U - np.eye(4)).max() < 1e-8
            assert np.abs(P.T @ O @ P - O).max() < 1e-8 * max(1, np.abs(P).max() ** 2)
            assert np.abs(U.T @ O @ U - O).max() < 1e-8

    def test_near_singular_rejected(self):
        with pytest.raises(IllConditionedError):
            polar_decompose(np.diag([1.0, 1e-15]))


class TestComplexify:
    def test_identity(self):
        np.testing.assert_allclose(complexify_orthosymplectic(np.eye(4)), np.eye(2))

    def test_rotation_generated_by_standard_structure(self):
        # exp(t J0) for n=1 complexifies to e^{it}: the sign convention anchor
        J = standard_complex_structure(sp1)
        for t in (0.3, 1.2):
            U = expm(t * J)
            z = complexify_orthosymplectic(U)
            assert z.shape == (1, 1)
            assert z[0, 0] == pytest.approx(np.exp(1j * t), abs=1e-12)

    def test_blockwise_phases(self):
        # independent rotations in two Darboux planes give a diagonal unitary
        J = standard_complex_structure(sp2)
        t1, t2 = 0.4, -1.1
        gen = np.zeros((4, 4))
        gen[0, 2], gen[2, 0] = -t1, t1
        gen[1, 3], gen[3, 1] = -t2, t2
        U = expm(gen)
        z = complexify_orthosymplectic(U)
        np.testing.assert_allclose(
            z, np.diag([np.exp(1j * t1), np.exp(1j * t2)]), atol=1e-12
        )

    def test_homomorphism(self):
        rng = np.random.Generator(np.random.Philox(4))
        J = standard_complex_structure(sp2)
        for _ in range(5):
            X1 = rng.standard_normal((4, 4))
            X2 = rng.standard_normal((4, 4))
            # project onto the unitary subalgebra: commute with J and skew
            def u_element(X):
                X = 0.5 * (X - X.T)
                return 0.5 * (X + J @ X @ np.linalg.inv(J))

            U1 = expm(u_element(X1))
            U2 = expm(u_element(X2))
            lhs = complexify_orthosymplectic(U1 @ U2)
            rhs = complexify_orthosymplectic(U1) @ complexify_orthosymplectic(U2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_rejects_non_complex_linear(self):
        with pytest.raises(ValueError):
            complexify_orthosymplectic(np.diag([1.0, 1.0, -1.0, -1.0]))


class TestDetComplex:
    def test_identity(self):
        assert det_complex(np.eye(3, dtype=complex)) == pytest.approx(1.0)

    def test_i_cubed(self):
        assert det_complex(1j * np.eye(3)) == pytest.approx(-1j)

    def test_inverse_pairing(self):
        rng = np.random.Generator(np.random.Philox(9))
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Q, _ = np.linalg.qr(X)
        assert det_complex(Q) * det_complex(Q.conj().T) == pytest.approx(1.0, abs=1e-8)

    def test_multiplicativity_through_complexification(self):
        J = standard_complex_structure(sp2)
        rng = np.random.Generator(np.random.Philox(10))
        X = rng.standard_normal((4, 4))
        X = 0.5 * (X - X.T)
        X = 0.5 * (X + J @ X @ np.linalg.inv(J))
        U1 = expm(X)
        U2 = expm(0.5 * X)
        z12 = det_complex(complexify_orthosymplectic(U1 @ U2))
        z1z2 = det_complex(complexify_orthosymplectic(U1)) * det_complex(
            complexify_orthosymplectic(U2)
        )
        assert z12 == pytest.approx(z1z2, abs=1e-8)


class TestLiftArgument:
    def test_constant(self):
        np.testing.assert_allclose(lift_argument(np.ones(5, dtype=complex)), np.zeros(5))

    def test_quarter_turns(self):
        phases = np.array([1, 1j, -1, -1j, 1], dtype=complex)
        np.testing.assert_allclose(
            lift_argument(phases),
            [0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi],
            atol=1e-12,
        )

    def test_slow_crossing_of_minus_one(self):
        angles = np.linspace(3 * np.pi / 4, 5 * np.pi / 4, 10)
        lifted = lift_argument(np.exp(1j * angles))
        np.testing.assert_allclose(lifted, angles, atol=1e-12)
        assert np.all(np.diff(lifted) > 0)  # passes monotonically through pi

    def test_undersampled_raises(self):
        with pytest.raises(LiftGapError):
            lift_argument(np.array([1.0 + 0j, -1.0 + 0j]))


class TestPolarPath:
    def test_sample_invariants(self):
        rng = np.random.Generator(np.random.Philox(12))
        B = random_sp_element(sp2, 0.8, rng)
        times = np.linspace(0.1, 6.0, 40)
        samples = sample_polar_path(B.mat, times)
        O = sp2.omega_matrix
        for s in samples[::7]:
            assert isinstance(s, PolarSample)
            M = expm(s.t * B.mat)
            assert np.linalg.norm(s.P @ s.U - M) <= 1e-8 * np.linalg.norm(M)
            assert np.abs(s.U.T @ s.U - np.eye(4)).max() < 1e-8
            assert np.linalg.eigvalsh(0.5 * (s.P + s.P.T)).min() > 0
            assert np.abs(s.U.T @ O @ s.U - O).max() < 1e-8
            zc = complexify_orthosymplectic(s.U)
            assert abs(abs(np.linalg.det(zc)) - 1.0) < 1e-8

    def test_theta_continuity(self):
        B = random_sp_element(sp1, 1.0, 13)
        times = np.linspace(0.05, 8.0, 160)
        samples = sample_polar_path(B.mat, times)
        thetas = np.array([s.theta for s in samples])
        assert np.abs(np.diff(thetas)).max() < np.pi
