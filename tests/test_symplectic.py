import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spqs.cli import main
from spqs.harness import embed_gl, unitary_subalgebra_basis
import spqs.symplectic
from spqs.symplectic import (
    CommutingStrategy,
    RankOneKind,
    SamplingError,
    SkewSymplecticityError,
    SpElement,
    SymplecticDefectError,
    SymplecticSpace,
    _plane_blocks,
    commuting_pair,
    commuting_pairs,
    draw_commuting_pair,
    frobenius_norms,
    group_elements,
    omega,
    omega_adjoint,
    project_skew_symplectic,
    random_sp_element,
    random_symplectic_group_element,
    rank_one_matrix,
    rng_from,
    skew_defect,
    skew_part,
    standard_complex_structure,
    y_element,
    z_element,
)
from spqs.williamson import (classify_eigenstructure, random_semisimple, williamson_decompose,
                             yz_decomposition)

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matrix_is_shared_per_dimension_and_read_only(self, n):
        O = SymplecticSpace(n).omega_matrix
        assert SymplecticSpace(n).omega_matrix is O
        I, Z = np.eye(n), np.zeros((n, n))
        np.testing.assert_array_equal(O, np.block([[Z, I], [-I, Z]]))
        with pytest.raises(ValueError, match="read-only"):
            O[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            O += 0.0

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


def _members(space, m, seed):
    return [random_sp_element(space, 1.0, seed + i).mat.copy() for i in range(m)]


def _error_of(build):
    """(type, message) of the exception that build() raises."""
    with pytest.raises(ValueError) as info:
        build()
    return type(info.value), str(info.value)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestMembershipStack:
    """SpElement.stack checks a list of matrices at once and raises what the
    first failing matrix raises alone."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_are_read_only_copies_of_the_inputs(self, n):
        space = SymplecticSpace(n)
        mats = _members(space, 5, 10 * n)
        stacked = SpElement.stack(space, mats)
        assert len(stacked) == 5 and SpElement.stack(space, []) == []
        for x, M in zip(stacked, mats):
            assert x.space is space and _same_bits(x.mat, SpElement(space, M).mat)
            assert not x.mat.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                x.mat[0, 0] = 1.0
        mats[0][0, 0] += 1.0  # the stack holds its own copy
        assert stacked[0].mat[0, 0] != mats[0][0, 0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["skew", "non-finite", "shape"])
    def test_bad_middle_element_raises_its_own_error(self, n, kind):
        space = SymplecticSpace(n)
        mats = _members(space, 5, 20 * n)
        bad = {
            "skew": mats[2] + rng_from(n).standard_normal((2 * n, 2 * n)),
            "non-finite": np.where(np.eye(2 * n) > 0, np.nan, mats[2]),
            "shape": np.zeros((2 * n + 1, 2 * n + 1)),
        }[kind]
        mats[2] = bad
        alone = _error_of(lambda: SpElement(space, bad))
        assert _error_of(lambda: SpElement.stack(space, mats)) == alone
        assert _error_of(lambda: SpElement.stack(space, np.array(mats) if kind != "shape"
                                                 else mats)) == alone
        expected = ValueError if kind == "shape" else SkewSymplecticityError
        assert alone[0] is expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_first_failure_in_stack_order_wins(self, n):
        space = SymplecticSpace(n)
        good = _members(space, 2, 30 * n)
        skew = good[0] + np.eye(2 * n)
        inf = np.full((2 * n, 2 * n), np.inf)
        wrong = np.zeros((2 * n, 2 * n + 2))
        for mats, first in (
            ([good[0], skew, inf, good[1]], skew),
            ([good[0], inf, skew, good[1]], inf),
            ([skew, wrong], skew),
            ([inf, wrong], inf),
            ([wrong, skew], wrong),
        ):
            assert _error_of(lambda: SpElement.stack(space, mats)) == _error_of(
                lambda: SpElement(space, first)
            )
        assert _error_of(lambda: SpElement(space, skew))[1] == (
            f"matrix is not skew-symplectic (defect {skew_defect(skew):.3e})"
        )
        stack = np.array([good[0], skew, inf, good[1]])  # one defect per matrix, NaN where inf
        assert _same_bits(skew_defect(stack), np.array([skew_defect(M) for M in stack]))
        assert np.isnan(skew_defect(inf)) and skew_defect(skew) > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # stderr holds the one error line
    @pytest.mark.parametrize("text, line", [
        ("1 2\n3 4", "error: matrix is not skew-symplectic (defect 1.000e+00)\n"),
        ("1e308 1e308\n1e308 1e308", "error: matrix is not skew-symplectic (defect inf)\n"),
        ("nan 0\n0 0", "error: matrix has non-finite entries\n"),
        ("inf 0\n0 -inf", "error: matrix has non-finite entries\n"),
    ])
    def test_bad_input_files_still_exit_3(self, text, line, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text(f"dim 2\n{text}\n")
        for method in ("auto", "spectral", "limit"):
            assert main(["eval", str(p), "--method", method]) == 3
            assert capsys.readouterr().err == line


class TestStackedBuilds:
    """Each stacked build equals its per-element build bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_y_and_z_stacks(self, n):
        space = SymplecticSpace(n)
        xis, etas = rng_from(40 + n).standard_normal((2, 12, 2 * n))
        for kind, element in ((RankOneKind.Y, y_element), (RankOneKind.Z, z_element)):
            stacked = SpElement.stack(space, rank_one_matrix(space, kind, xis, etas))
            for x, xi, eta in zip(stacked, xis, etas):
                assert _same_bits(x.mat, element(space, xi, eta).mat)
                assert not x.mat.flags.writeable
            # one vector against a stack broadcasts
            for x, eta in zip(SpElement.stack(space, rank_one_matrix(space, kind, xis[0], etas)),
                              etas):
                assert _same_bits(x.mat, element(space, xis[0], eta).mat)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_plane_blocks(self, n):
        space = SymplecticSpace(n)
        blocks = _plane_blocks(n)
        assert _plane_blocks(n) is blocks and not blocks.flags.writeable
        for k in range(n):
            e, f = space.basis_e(k), space.basis_f(k)
            assert _same_bits(blocks[0, k], z_element(space, e, f).mat)
            assert _same_bits(blocks[1, k], y_element(space, e, f).mat)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("strategy", list(CommutingStrategy))
    def test_linear_combinations(self, n, strategy):
        space = SymplecticSpace(n)
        rng = rng_from(50 + n)
        pairs = [(commuting_pair(space, strategy, rng), *rng.uniform(-2.0, 2.0, 2))
                 for _ in range(6)]
        stacked = SpElement.stack(space, [c1 * p.a.mat + c2 * p.b.mat for p, c1, c2 in pairs])
        for x, (p, c1, c2) in zip(stacked, pairs):
            assert _same_bits(x.mat, (c1 * p.a + c2 * p.b).mat)
            assert not x.mat.flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rank_one_injections(self, n):
        space = SymplecticSpace(n)
        emb = embed_gl(space, 60 + n)
        g, Z = emb.g, np.zeros((n, n))
        xs, ys = rng_from(60 + n).standard_normal((2, 15, n))
        stacked = emb.inject(np.einsum("ij,ik->ijk", xs, ys))
        for x, xi, eta in zip(stacked, xs, ys):
            M = np.outer(xi, eta)
            alone = project_skew_symplectic(
                space, g @ np.block([[M, Z], [Z, -M.T]]) @ omega_adjoint(g)
            )
            assert _same_bits(x.mat, alone.mat)
            assert _same_bits(x.mat, emb.rank_one(xi, eta).mat)
            assert not x.mat.flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gleason_test_elements(self, n):
        space = SymplecticSpace(n)
        basis = unitary_subalgebra_basis(space)
        coeffs = rng_from(70 + n).standard_normal((8, len(basis)))
        mats = [sum(c * b.mat for c, b in zip(cs, basis)) for cs in coeffs]
        for x, M in zip(SpElement.stack(space, mats), mats):
            assert _same_bits(x.mat, SpElement(space, M).mat)
            assert not x.mat.flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stage3_terms(self, n):
        space = SymplecticSpace(n)
        rng = rng_from(80 + n)
        Bs = [random_semisimple(space, rng)[0] for _ in range(6)]
        decs = williamson_decompose(classify_eigenstructure(Bs))
        terms = [t for ts in yz_decomposition(Bs, decs) for t in ts]
        for x, (_, _, M) in zip(SpElement.stack(space, [M for *_, M in terms]), terms):
            assert _same_bits(x.mat, SpElement(space, M).mat)
            assert not x.mat.flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_group_element_draw(self, n):
        space = SymplecticSpace(n)
        for seed in range(4):
            expected = expm(random_sp_element(space, 0.5, seed).mat)
            assert _same_bits(random_symplectic_group_element(space, 0.5, seed), expected)


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
        # Y_{xi,0} = T_{xi,xi} = Z_{xi,xi}/2
        rng = np.random.Generator(np.random.Philox(10))
        xi = rng.standard_normal(4)
        Y = y_element(sp2, xi, np.zeros(4))
        np.testing.assert_allclose(Y.mat, 0.5 * z_element(sp2, xi, xi).mat, atol=1e-14)

    def test_kind_is_coerced_or_rejected(self):
        e, f = sp2.basis_e(0), sp2.basis_f(1)
        for kind, element in (("Y", y_element), ("Z", z_element)):
            assert _same_bits(rank_one_matrix(sp2, kind, e, f), element(sp2, e, f).mat)
            assert _same_bits(rank_one_matrix(sp2, RankOneKind(kind), e, f),
                              element(sp2, e, f).mat)
        for kind in ("T", "bogus", "y", None):
            with pytest.raises(ValueError):
                rank_one_matrix(sp2, kind, e, f)

    @pytest.mark.parametrize("element", [y_element, z_element])
    def test_vectors_must_match_the_space(self, element):
        good = sp2.basis_e(0)
        for bad in (np.ones(3), np.ones(6), np.ones((2, 4)), 1.0):
            with pytest.raises(ValueError):
                element(sp2, bad, good)
            with pytest.raises(ValueError):
                element(sp2, good, bad)

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
        np.testing.assert_allclose(J, np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_square_is_minus_identity(self):
        J = standard_complex_structure(sp3)
        np.testing.assert_allclose(J @ J, -np.eye(6), atol=1e-14)

    def test_positivity_sign(self):
        J = standard_complex_structure(sp2)
        assert omega(sp2, sp2.basis_e(0), J @ sp2.basis_e(0)) == pytest.approx(1.0)


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
        assert np.abs(Z.mat @ Y.mat - Y.mat @ Z.mat).max() < 1e-14

    def test_shared_plane_mixed_kinds_do_not_commute(self):
        Z = z_element(sp1, sp1.basis_e(0), sp1.basis_f(0))
        Y = y_element(sp1, sp1.basis_e(0), sp1.basis_f(0))
        assert np.abs(Z.mat @ Y.mat - Y.mat @ Z.mat).max() > 0.5

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


def _norm_one_at_a_time(M):
    """The Frobenius norm of one matrix by np.linalg.norm, rescaled by 2^-e where
    the squares overflow: the per-element reference for frobenius_norms."""
    with np.errstate(over="ignore"):
        r = float(np.linalg.norm(M))
        if r == np.inf:
            e = np.frexp(np.abs(M).max())[1]
            r = float(np.ldexp(np.linalg.norm(np.ldexp(M, -e)), e))
    return r


class TestFrobeniusNorms:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_the_norm_of_each_matrix(self, d):
        A = rng_from(100 + d).standard_normal((400, d, d)) * np.logspace(-3, 3, 400)[:, None, None]
        r = frobenius_norms(A)
        assert len(r) == 400 and all(type(x) is float for x in r)
        assert all(x == float(np.linalg.norm(M)) for x, M in zip(r, A))

    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_overflowing_rows_are_rescaled(self, d, scale):
        A = rng_from(d).standard_normal((40, d, d))
        A[::2] *= scale  # overflowing rows between ordinary ones
        r = frobenius_norms(A)
        assert all(x == _norm_one_at_a_time(M) for x, M in zip(r, A))
        assert np.isfinite(r).all()
        np.testing.assert_allclose(r[::2], scale * np.array(frobenius_norms(A[::2] / scale)),
                                   rtol=1e-14)
        with np.errstate(over="ignore"):
            assert np.linalg.norm(A[0]) == np.inf  # the plain norm overflows on these rows

    def test_empty_stack(self):
        for empty in (np.zeros((0, 4, 4)), []):
            r = frobenius_norms(empty)
            assert r == []

    def test_element_norm_matches_its_row(self):
        for n in (1, 2, 3, 4):
            x = random_sp_element(SymplecticSpace(n), 1e200, n)
            assert x.norm() == _norm_one_at_a_time(x.mat) == frobenius_norms([x.mat])[0]


def _pair_one_at_a_time(space, strategy, rng):
    """One pair's matrices and commutator norm, read from rng and built with
    per-matrix arithmetic: the reference for the stacked build."""
    n, d = space.n, space.dim
    if CommutingStrategy(strategy) is CommutingStrategy.ODD_POLYNOMIAL:
        A = random_sp_element(space, 0.5, rng).mat
        deg = max(1, min(n, 3))
        mats = []
        for c in (rng.uniform(-1.0, 1.0, deg), rng.uniform(-1.0, 1.0, deg)):
            A2, out, power = A @ A, c[0] * A, A
            for ck in c[1:]:
                power = power @ A2
                out = out + ck * power
            mats.append(out)
    else:
        kinds = rng.integers(0, 2, size=n)
        ca = rng.uniform(-1.0, 1.0, n) * (rng.random(n) < 0.8)
        cb = rng.uniform(-1.0, 1.0, n) * (rng.random(n) < 0.8)
        D = np.zeros((2, d, d))
        for k, blk in enumerate(_plane_blocks(n)[kinds, range(n)]):
            D += np.multiply.outer((ca[k], cb[k]), blk)
        g = expm(skew_part(0.5 * rng.standard_normal((d, d))))
        mats = [g @ Dk @ omega_adjoint(g) for Dk in D]
    a, b = (skew_part(M) for M in mats)
    return a, b, float(np.abs(a @ b - b @ a).max())


class TestStackedPairs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("strategy", list(CommutingStrategy))
    def test_stack_matches_pairs_built_one_at_a_time(self, n, strategy):
        space = SymplecticSpace(n)
        rng, ref = rng_from(110 + n), rng_from(110 + n)
        draws = [draw_commuting_pair(space, strategy, rng) for _ in range(12)]
        stacked = commuting_pairs(space, draws)
        assert len(stacked) == 12
        for pair, draw in zip(stacked, draws):
            a, b, cnorm = _pair_one_at_a_time(space, strategy, ref)
            assert _same_bits(pair.a.mat, a) and _same_bits(pair.b.mat, b)
            assert type(pair.commutator_norm) is float and pair.commutator_norm == cnorm
            assert pair.strategy is CommutingStrategy(strategy)
            (alone,) = commuting_pairs(space, [draw])
            assert _same_bits(alone.a.mat, a) and _same_bits(alone.b.mat, b)
            assert alone.commutator_norm == cnorm
        assert rng.random() == ref.random()  # the draws read the stream as the reference
        single = commuting_pair(space, strategy, 7)
        (again,) = commuting_pairs(space, [draw_commuting_pair(space, strategy, rng_from(7))])
        assert _same_bits(single.a.mat, again.a.mat) and _same_bits(single.b.mat, again.b.mat)

    def test_no_draws(self):
        assert commuting_pairs(sp2, []) == []

    def test_common_frame_refuses_a_base(self):
        base = random_sp_element(sp2, 0.5, 1)
        with pytest.raises(ValueError, match="common-frame strategy takes no base"):
            commuting_pair(sp2, "common-frame", 3, base=base)
        assert commuting_pair(sp2, "odd-polynomial", 3, base=base).strategy == "odd-polynomial"

    def test_group_elements_stack(self):
        X = 0.5 * rng_from(5).standard_normal((6, 6, 6))
        g, errors = group_elements(sp3, X)
        assert errors == [None] * 6
        for gi, Xi in zip(g, X):
            assert _same_bits(gi, expm(skew_part(Xi)))


class TestStackedPairFailures:
    """A failing draw makes the stacked build raise what building the draws one
    at a time, in order, raises first."""

    @staticmethod
    def _first_error(build):
        with pytest.raises((SymplecticDefectError, SkewSymplecticityError, SamplingError)) as info:
            build()
        return type(info.value), str(info.value)

    def _same_failure(self, space, draws):
        def one_at_a_time():
            for draw in draws:
                commuting_pairs(space, [draw])

        expected = self._first_error(one_at_a_time)
        assert self._first_error(lambda: commuting_pairs(space, draws)) == expected
        return expected[0]

    @staticmethod
    def _poisoned(draw):
        strategy, X, ca, cb, kinds = draw
        return strategy, np.full_like(X, np.nan), ca, cb, kinds

    @staticmethod
    def _ratios(space, draws):
        return [p.commutator_norm / ((1.0 + p.a.norm()) * (1.0 + p.b.norm()))
                for p in commuting_pairs(space, draws)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_group_defect(self, n, monkeypatch):
        space = SymplecticSpace(n)
        rng = rng_from(120 + n)
        draws = [draw_commuting_pair(space, "common-frame", rng) for _ in range(10)]
        O = space.omega_matrix
        g = expm(skew_part(np.array([X for _, X, *_ in draws])))
        ratios = [np.abs(gi.T @ O @ gi - O).max() / max(1.0, np.abs(gi).max() ** 2) for gi in g]
        monkeypatch.setattr(spqs.symplectic, "GROUP_DEFECT_TOL", 0.5 * float(np.median(ratios)))
        assert self._same_failure(space, draws) is SymplecticDefectError
        draws[1] = self._poisoned(draws[1])  # a non-finite frame: no defect, a membership error
        self._same_failure(space, draws)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("strategy", list(CommutingStrategy))
    def test_membership(self, n, strategy):
        space = SymplecticSpace(n)
        rng = rng_from(130 + n)
        draws = [draw_commuting_pair(space, strategy, rng) for _ in range(10)]
        for k in (0, 4, 9):
            poisoned = draws[:k] + [self._poisoned(draws[k])] + draws[k + 1:]
            assert self._same_failure(space, poisoned) is SkewSymplecticityError

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("strategy", list(CommutingStrategy))
    def test_commutator_bound(self, n, strategy, monkeypatch):
        space = SymplecticSpace(n)
        rng = rng_from(140 + n)
        draws = [draw_commuting_pair(space, strategy, rng) for _ in range(10)]
        worst = max(self._ratios(space, draws))
        monkeypatch.setattr(spqs.symplectic, "COMMUTATOR_TOL", 0.5 * worst if worst else -1.0)
        assert self._same_failure(space, draws) is SamplingError
        for k in (0, 9):  # a membership failure before or after the first bound failure
            self._same_failure(space, draws[:k] + [self._poisoned(draws[k])] + draws[k + 1:])


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
