from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

import spqs.symplectic
from spqs.maslov import MaslovLimitConfig, maslov_limit, maslov_spectral
from spqs.quasistates import linear_qs, maslov_qs, nilpotent_jordan_sp
from spqs.symplectic import (
    SkewSymplecticityError,
    SpElement,
    SymplecticDefectError,
    SymplecticSpace,
    omega_adjoint,
    random_symplectic_group_element,
    rank_one_matrix,
    rng_from,
    skew_part,
    y_element,
    z_element,
)
from spqs.williamson import (
    BLOCK_KINDS,
    ClassificationError,
    NonSemisimpleError,
    NormalizationError,
    WilliamsonBlock,
    WilliamsonDecomposition,
    _krein_pairing,
    classify_eigenstructure,
    draw_semisimple,
    random_semisimple,
    semisimple_elements,
    williamson_decompose,
    yz_decomposition,
)
from test_classification_oracle import (RECIPES, _match_clusters, element, pairs, rows_of,
                                        stacked_match)

sp1 = SymplecticSpace(1)
sp2 = SymplecticSpace(2)
sp3 = SymplecticSpace(3)


def decompose(B):
    """B's decomposition, from a stack of one."""
    (dec,) = williamson_decompose(classify_eigenstructure([B]))
    return dec


def block_multiset(blocks, digits=6):
    return sorted((b.kind, round(b.a, digits), round(b.b, digits)) for b in blocks)


class TestClassify:
    def test_real_pair_with_zero_padding(self):
        B = z_element(sp2, sp2.basis_e(0), sp2.basis_f(0))
        (rep,) = rows_of(classify_eigenstructure([B]))
        assert pairs(rep, "real") == ((pytest.approx(1.0), 1),)
        assert pairs(rep, "imag") == ()
        assert rep.zero_multiplicity == 2
        assert rep.semi_simple

    def test_imaginary_pair(self):
        B = y_element(sp1, sp1.basis_e(0), sp1.basis_f(0))
        (rep,) = rows_of(classify_eigenstructure([B]))
        assert len(pairs(rep, "imag")) == 1
        b, mult = pairs(rep, "imag")[0]
        assert b == pytest.approx(1.0)
        assert mult == 1

    def test_zero_matrix(self):
        (rep,) = rows_of(classify_eigenstructure([SpElement(sp2, np.zeros((4, 4)))]))
        assert rep.zero_multiplicity == 4
        assert rep.semi_simple
        assert not pairs(rep, "real") and not pairs(rep, "imag") and not pairs(rep, "quad")

    def test_quadruple(self):
        B, blocks = random_semisimple(sp2, 123, kinds=("quad",))
        (rep,) = rows_of(classify_eigenstructure([B]))
        assert len(pairs(rep, "quad")) == 1
        a, b, mult = pairs(rep, "quad")[0]
        assert a == pytest.approx(blocks[0].a, abs=1e-8)
        assert b == pytest.approx(blocks[0].b, abs=1e-8)


class TestMatchClusters:
    """Each case holds for the per-element reference pairing and for the
    stacked ranking and pairing of classify_eigenstructure."""

    TOL = 1e-7
    MATCHES = (_match_clusters, stacked_match)

    def test_pairs_clusters_in_lexicographic_order(self):
        keys_a, keys_b = [2.0, 1.0, 1.0 + 1e-9], [1.0, 2.0, 1.0]
        for match in self.MATCHES:
            pairs = match(keys_a, [10, 11, 12], keys_b, [20, 21, 22], self.TOL, "real-pair")
            assert [(list(a), list(b)) for a, b in pairs] == [([11, 12], [20, 22]), ([10], [21])]

    @pytest.mark.parametrize("what", ["real-pair", "quadruple"])
    def test_unequal_cluster_sizes_are_unmatched(self, what):
        for match in self.MATCHES:
            with pytest.raises(ClassificationError, match=f"unmatched {what} eigenvalue clusters"):
                match([1.0, 1.0], [0, 1], [1.0, 2.0], [2, 3], self.TOL, what)

    @pytest.mark.parametrize(
        "what, key", [("real-pair", 1.0), ("quadruple", -0.5 + 1.0j)]
    )
    def test_keys_apart_do_not_pair_up(self, what, key):
        far = key + 20 * self.TOL
        for match in self.MATCHES:
            with pytest.raises(ClassificationError, match=f"{what} eigenvalues do not pair up"):
                match([key], [0], [far], [1], self.TOL, what)
            assert len(match([key], [0], [key + 5 * self.TOL], [1], self.TOL, what)) == 1


class TestDecompose:
    def test_block_diagonal_fixed_point(self):
        blocks = (
            WilliamsonBlock("real", 1.5, 0.0, (0,)),
            WilliamsonBlock("imag", 0.0, 0.8, (1,)),
        )
        D = WilliamsonDecomposition(sp2, np.eye(4), blocks).assemble()
        dec = decompose(SpElement(sp2, D))
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
            dec = decompose(B)
            assert block_multiset(dec.blocks) == block_multiset(blocks)
            O = space.omega_matrix
            assert np.abs(dec.S.T @ O @ dec.S - O).max() <= 1e-8
            resid = np.abs(
                dec.S @ dec.assemble() @ omega_adjoint(dec.S) - B.mat
            ).max()
            assert resid <= 1e-6 * max(1.0, np.abs(B.mat).max())

    # imaginary blocks of equal |b| share one eigenvalue group, whose pairing
    # is diagonalized by a complex combination once the frame is not orthogonal
    @pytest.mark.parametrize("bs", [(0.8, 0.8), (0.8, -0.8), (1.1, 1.1, 0.5), (1.1, -1.1, 0.5)])
    def test_round_trip_repeated_imaginary(self, bs):
        space = SymplecticSpace(len(bs))
        blocks = tuple(WilliamsonBlock("imag", 0.0, b, (p,)) for p, b in enumerate(bs))
        D = WilliamsonDecomposition(space, np.eye(2 * space.n), blocks).assemble()
        O = space.omega_matrix
        for seed in range(10):
            g = random_symplectic_group_element(space, 0.5, seed)
            B = SpElement(space, g @ D @ omega_adjoint(g))
            dec = decompose(B)
            assert block_multiset(dec.blocks) == block_multiset(blocks)
            assert np.abs(dec.S.T @ O @ dec.S - O).max() <= 1e-8
            resid = np.abs(dec.S @ dec.assemble() @ omega_adjoint(dec.S) - B.mat).max()
            assert resid <= 1e-6 * max(1.0, np.abs(B.mat).max())
            (value,) = maslov_spectral(classify_eigenstructure([B]))
            assert value == pytest.approx(-sum(bs), abs=1e-8)

    def test_kernel_plane(self):
        B = z_element(sp2, sp2.basis_e(0), sp2.basis_f(0))
        dec = decompose(B)
        kinds = sorted(b.kind for b in dec.blocks)
        assert kinds == ["real", "real"]
        params = sorted(b.a for b in dec.blocks)
        assert params[0] == pytest.approx(0.0, abs=1e-10)
        assert params[1] == pytest.approx(1.0, abs=1e-10)

    def test_krein_types_not_identified(self):
        for sign in (1.0, -1.0):
            B = SpElement(sp1, np.array([[0.0, sign * 2.0], [-sign * 2.0, 0.0]]))
            dec = decompose(B)
            assert dec.blocks[0].kind == "imag"
            assert dec.blocks[0].b == pytest.approx(sign * 2.0, abs=1e-10)
            est = maslov_limit(B, MaslovLimitConfig(t_max=400.0))
            assert abs(est.value - (-sign * 2.0)) <= est.error_bar + 1e-3

    def test_krein_pairing_refuses_degenerate_families(self):
        # w = e_p + i f_p has pairing (i/2) omega(w, conj w) = 1; a real column has 0
        w0, w1 = (sp2.basis_e(p) + 1j * sp2.basis_f(p) for p in (0, 1))
        mu, _ = _krein_pairing(sp2, np.stack([w0, w1], axis=1))
        np.testing.assert_allclose(mu, [1.0, 1.0])
        mu, _ = _krein_pairing(sp2, np.stack([w0[:, None], w0.conj()[:, None]]))  # a stack
        np.testing.assert_allclose(mu, [[1.0], [-1.0]])
        # min |mu| <= 1e-10 max(1, max |mu|) is degenerate, in any family of a stack
        accepted = np.stack([w0, 1e-4 * w1], axis=1)  # mu = 1e-8, 1
        _krein_pairing(sp2, accepted)
        for W in (sp2.basis_e(0)[:, None], np.stack([1e6 * w0, 1e-2 * w1], axis=1),
                  np.stack([accepted, np.stack([w0, sp2.basis_f(1)], axis=1)])):
            with pytest.raises(NormalizationError, match="^degenerate orientation pairing$"):
                _krein_pairing(sp2, W)

    def test_non_semisimple_rejected(self):
        with pytest.raises(NonSemisimpleError):
            williamson_decompose(classify_eigenstructure([nilpotent_jordan_sp(sp2)]))

    # (kind, a, b, planes) that williamson_decompose returns on block-diagonal
    # inputs: kinds sort real < imag < quad, then by |parameter|; the b and -b
    # imaginary blocks tie and come in orientation-pairing order, -b first
    @pytest.mark.parametrize(
        "n, blocks, expected",
        [
            (3, [("real", 1.5, 0.0, (0,)), ("imag", 0.0, 0.8, (1,)), ("imag", 0.0, -0.8, (2,))],
             [("real", 1.5, 0.0, (0,)), ("imag", 0.0, -0.8, (1,)), ("imag", 0.0, 0.8, (2,))]),
            (3, [("imag", 0.0, -0.8, (0,)), ("real", 1.0, 0.0, (1,)), ("real", 1.0, 0.0, (2,))],
             [("real", 1.0, 0.0, (0,)), ("real", 1.0, 0.0, (1,)), ("imag", 0.0, -0.8, (2,))]),
            (4, [("quad", 1.5, 0.4, (0, 1)), ("quad", 0.7, 1.2, (2, 3))],
             [("quad", 0.7, 1.2, (0, 1)), ("quad", 1.5, 0.4, (2, 3))]),
            (4, [("imag", 0.0, 0.8, (0,)), ("quad", 0.7, 1.2, (1, 2)), ("real", 0.0, 0.0, (3,))],
             [("real", 0.0, 0.0, (0,)), ("imag", 0.0, 0.8, (1,)), ("quad", 0.7, 1.2, (2, 3))]),
        ],
    )
    def test_block_list_on_block_diagonal_inputs(self, n, blocks, expected):
        space = SymplecticSpace(n)
        blocks = tuple(WilliamsonBlock(*blk) for blk in blocks)
        D = WilliamsonDecomposition(space, np.eye(2 * n), blocks).assemble()
        dec = decompose(SpElement(space, D))
        got = [(b.kind, b.a, b.b, b.planes) for b in dec.blocks]
        assert [(k, p) for k, _, _, p in got] == [(k, p) for k, _, _, p in expected]
        assert [(a, b) for _, a, b, _ in got] == [
            (pytest.approx(a, abs=1e-12), pytest.approx(b, abs=1e-12)) for _, a, b, _ in expected
        ]

    def test_block_labels(self):
        assert WilliamsonBlock("real", 1.5, 0.0, (0,)).label == "real_pair a=1.5"
        assert WilliamsonBlock("imag", 0.0, -0.8, (1,)).label == "imag_pair b=-0.8"
        assert WilliamsonBlock("quad", 0.7, 1.2, (0, 1)).label == "quadruple a=0.7 b=1.2"

    def test_deterministic_block_order(self):
        B, _ = random_semisimple(sp3, 77)
        d1 = decompose(B)
        d2 = decompose(B)
        assert [b.kind for b in d1.blocks] == [b.kind for b in d2.blocks]
        np.testing.assert_array_equal(d1.S, d2.S)

    def test_random_semisimple_kinds(self):
        for kind in BLOCK_KINDS:
            _, blocks = random_semisimple(sp2, 0, kinds=(kind,))
            assert {b.kind for b in blocks} == {kind}
        with pytest.raises(ValueError, match="'imaginary'"):
            random_semisimple(sp2, 0, kinds=("imaginary",))
        for space in (sp1, sp3):
            with pytest.raises(ValueError, match="odd n"):
                random_semisimple(space, 0, kinds=("quad",))
        _, blocks = random_semisimple(sp3, 0, kinds=("quad", "imag"))
        assert sum(len(b.planes) for b in blocks) == 3
        for space in (sp2, sp3):  # no kind at all is refused before any draw
            with pytest.raises(ValueError, match="^at least one block kind is needed$"):
                random_semisimple(space, 0, kinds=())


def block_bits(blocks):
    return [(b.kind, b.a.hex(), b.b.hex(), b.planes) for b in blocks]


class TestStackedDraws:
    """semisimple_elements builds draw_semisimple draws as one stack: the elements
    and blocks of one random_semisimple call per draw, bit for bit, and the
    first failing draw's error."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_a_stack_is_its_draws_one_at_a_time(self, n):
        space = SymplecticSpace(n)
        for kinds in (BLOCK_KINDS, ("imag",)) + ((("quad",),) if n % 2 == 0 else ()):
            shared, alone = rng_from(90 + n), rng_from(90 + n)
            stacked = semisimple_elements(space, [draw_semisimple(space, shared, kinds)
                                                  for _ in range(12)])
            for B, blocks in stacked:
                B1, blocks1 = random_semisimple(space, alone, kinds)
                assert B.mat.tobytes() == B1.mat.tobytes()
                assert block_bits(blocks) == block_bits(blocks1)
            # both generators read the same numbers, so their next draws agree
            (B, blocks), (B1, blocks1) = (random_semisimple(space, r, kinds)
                                          for r in (shared, alone))
            assert B.mat.tobytes() == B1.mat.tobytes() and block_bits(blocks) == block_bits(blocks1)

    @staticmethod
    def _first_error(build):
        with pytest.raises((SymplecticDefectError, SkewSymplecticityError)) as info:
            build()
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_group_defect(self, n, monkeypatch):
        space = SymplecticSpace(n)
        rng = rng_from(100 + n)
        draws = [draw_semisimple(space, rng) for _ in range(10)]
        O = space.omega_matrix
        g = expm(skew_part(np.array([X for _, X in draws])))
        ratios = [np.abs(gi.T @ O @ gi - O).max() / max(1.0, np.abs(gi).max() ** 2) for gi in g]
        # the tolerance passes the draws before the first new maximum ratio and fails that one
        first = next(t for t in range(1, len(ratios)) if ratios[t] > max(ratios[:t]))
        monkeypatch.setattr(spqs.symplectic, "GROUP_DEFECT_TOL", max(ratios[:first]))

        def one_at_a_time():
            for draw in draws:
                semisimple_elements(space, [draw])

        expected = self._first_error(one_at_a_time)
        assert expected[0] is SymplecticDefectError
        assert self._first_error(lambda: semisimple_elements(space, draws)) == expected
        for k in (first - 1, first + 1):  # a non-finite frame: no defect, a membership error
            blocks, X = draws[k]
            poisoned = draws[:k] + [(blocks, np.full_like(X, np.nan))] + draws[k + 1:]
            expected = self._first_error(
                lambda: [semisimple_elements(space, [draw]) for draw in poisoned])
            assert expected[0] is (SkewSymplecticityError if k < first else SymplecticDefectError)
            assert self._first_error(lambda: semisimple_elements(space, poisoned)) == expected


class TestYZDecomposition:
    def test_single_real_block(self):
        D = WilliamsonDecomposition(
            sp1, np.eye(2), (WilliamsonBlock("real", 2.0, 0.0, (0,)),)
        ).assemble()
        B = SpElement(sp1, D)
        (terms,) = yz_decomposition([B], [decompose(B)])
        assert len(terms) == 1
        coef, kind, _ = terms[0]
        assert coef == pytest.approx(2.0, abs=1e-9)
        assert kind == "Z"

    def test_single_imag_block(self):
        D = WilliamsonDecomposition(
            sp1, np.eye(2), (WilliamsonBlock("imag", 0.0, 3.0, (0,)),)
        ).assemble()
        B = SpElement(sp1, D)
        (terms,) = yz_decomposition([B], [decompose(B)])
        assert len(terms) == 1
        coef, kind, _ = terms[0]
        assert coef == pytest.approx(3.0, abs=1e-9)
        assert kind == "Y"

    def test_quadruple_four_terms(self):
        blocks = (WilliamsonBlock("quad", 1.0, 1.0, (0, 1)),)
        D = WilliamsonDecomposition(sp2, np.eye(4), blocks).assemble()
        B = SpElement(sp2, D)
        (terms,) = yz_decomposition([B], [decompose(B)])
        assert len(terms) == 4
        total = sum(c * M for c, _, M in terms)
        np.testing.assert_allclose(total, D, atol=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    def test_sum_reconstructs_random_elements(self, n):
        space = SymplecticSpace(n)
        rng = np.random.Generator(np.random.Philox(60 + n))
        for _ in range(10):
            B, _ = random_semisimple(space, rng)
            (terms,) = yz_decomposition([B], [decompose(B)])
            total = sum(c * M for c, _, M in terms)
            SpElement.stack(space, [M for *_, M in terms])  # every term lies in the algebra
            assert np.abs(total - B.mat).max() <= 1e-6 * max(1, np.abs(B.mat).max())

    def test_quasi_state_evaluation_consistency(self):
        # evaluating through the commuting terms reproduces the direct value
        rng = np.random.Generator(np.random.Philox(71))
        N = rng.standard_normal((6, 6))
        states = [linear_qs(N), maslov_qs()]
        for _ in range(5):
            B, _ = random_semisimple(sp3, rng)
            (terms,) = yz_decomposition([B], [decompose(B)])
            for zeta in states:
                via = sum(c * zeta(SpElement(sp3, M)) for c, _, M in terms)
                assert via == pytest.approx(zeta(B), abs=1e-6)


def reference_terms(B, dec):
    """B's terms built one element, one block and one term at a time, each matrix
    from its own vectors: the per-element build that the stacked one replaced."""
    S, n = dec.S, dec.space.n
    return [(c, kind, rank_one_matrix(dec.space, kind, e, f)) for blk in dec.blocks
            for c, kind, e, f in blk.yz_terms([(S[:, p], S[:, n + p]) for p in blk.planes])]


class TestStackedTerms:
    """yz_decomposition builds, sums and checks the terms of a list as stacks: the
    terms of each element as the per-element build, bit for bit, and the first
    failing element's error."""

    @staticmethod
    def decomposable(n):
        """The RECIPES elements at seeds 7 and 8 that decompose, and their decompositions."""
        space, found = SymplecticSpace(n), []
        for B in (element(space, recipe, seed) for recipe in RECIPES for seed in (7, 8)):
            try:
                found.append((B, decompose(B)))
            except (ClassificationError, NonSemisimpleError, NormalizationError):
                continue
        return [B for B, _ in found], [dec for _, dec in found]

    @staticmethod
    def bits(terms):
        return [(c.hex(), str(kind.value), M.tobytes()) for c, kind, M in terms]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_a_list_gives_each_elements_terms(self, n):
        Bs, decs = self.decomposable(n)
        want = [self.bits(reference_terms(B, dec)) for B, dec in zip(Bs, decs)]
        assert [self.bits(ts) for ts in yz_decomposition(Bs, decs)] == want
        assert [self.bits(yz_decomposition([B], [dec])[0]) for B, dec in zip(Bs, decs)] == want

    # a frame column moved by eps: 1e-3 breaks the term sum, 1e-7 keeps it within
    # ROUNDTRIP_TOL and breaks the commutation of distinct blocks' terms
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("eps, message", [(1e-3, "^term sum residual "),
                                              (1e-7, "^terms 0, [0-9]+ fail to commute$")])
    def test_a_failing_element_fails_a_list_as_alone(self, n, eps, message):
        Bs, decs = self.decomposable(n)
        i = next(i for i, dec in enumerate(decs) if len(dec.blocks) > 1)
        S = decs[i].S.copy()
        S[:, 0] += eps * rng_from(n).standard_normal(S.shape[0])
        bad = replace(decs[i], S=S)
        with pytest.raises(NormalizationError, match=message) as alone:
            yz_decomposition([Bs[i]], [bad])
        mid = len(Bs) // 2
        with pytest.raises(NormalizationError) as listed:
            yz_decomposition(Bs[:mid] + [Bs[i]] + Bs[mid:], decs[:mid] + [bad] + decs[mid:])
        assert str(listed.value) == str(alone.value)
