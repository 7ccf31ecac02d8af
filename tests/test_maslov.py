import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spqs import maslov
from spqs.kernels import complex_blocks, sample_polar_path
from spqs.maslov import (
    MaslovEstimate,
    MaslovLimitConfig,
    MaslovLimitError,
    _advance,
    _coarsen,
    _increments,
    _phase_path,
    _step_blocks,
    _step_count,
    _step_phase,
    maslov_dim2,
    maslov_evaluate,
    maslov_limit,
    maslov_limit_batch,
    maslov_spectral,
    phase_trace,
)
from spqs.quasistates import nilpotent_jordan_sp
from spqs.symplectic import (
    SpElement,
    SymplecticSpace,
    omega,
    omega_adjoint,
    project_skew_symplectic,
    random_sp_element,
    random_symplectic_group_element,
    rng_from,
    y_element,
    z_element,
)
from spqs.williamson import (
    NonSemisimpleError,
    WilliamsonBlock,
    WilliamsonDecomposition,
    classify_eigenstructure,
    krein_parameters,
    random_semisimple,
    semisimple_elements,
    williamson_decompose,
    yz_decomposition,
)
from test_classification_oracle import pairs, rows_of

sp1 = SymplecticSpace(1)
sp2 = SymplecticSpace(2)
sp3 = SymplecticSpace(3)

SHORT = MaslovLimitConfig(t_max=400.0)


def spectral(B: SpElement) -> float:
    """maslov_spectral on a stack of one."""
    (value,) = maslov_spectral(classify_eigenstructure([B]))
    return value


def sp2_element(a, b, c):
    return SpElement(sp1, np.array([[a, b], [c, -a]], dtype=float))


class TestClosedForm:
    def test_branch_values(self):
        assert maslov_dim2(0, -1, 1) == pytest.approx(1.0)
        assert maslov_dim2(0, 1, -1) == pytest.approx(-1.0)
        assert maslov_dim2(3, 1, 2) == 0.0

    # (a, b, c, maslov_dim2(a, b, c).hex()): entries up to 1.7e308, subnormal
    # entries, and a^2 + bc >= 0 with either sign of b, which reads +0.0.  The
    # last three, correctly rounded 80-digit mpmath values, have a b or c that
    # one common power-of-two scale of (a, b, c) flushes to zero
    RECORDED = [
        (0.0, -1.7e308, 1.7e308, "0x1.e42d130773b76p+1023"),
        (0.0, 1.7e308, -1.7e308, "-0x1.e42d130773b76p+1023"),
        (1e308, -1.7e308, 1.7e308, "0x1.878c5b0d039c4p+1023"),
        (-1e308, 1.7e308, -1.2e308, "-0x1.2273259bb951dp+1023"),
        (1.7e308, -1e-300, 1.7e308, "0x0.0p+0"),
        (0.0, 1.0, -1.7e308, "-0x1.f1e4ca52e6b9ap+511"),
        (0.0, -5e-324, 5e-324, "0x0.0000000000001p-1022"),
        (5e-324, -1.5e-323, 1e-323, "0x0.0000000000002p-1022"),
        (1e-320, 3e-320, -2e-320, "-0x0.00000000011aep-1022"),
        (5e-324, -1e-310, 1e-310, "0x0.012688b70e62bp-1022"),
        (3.0, 1.0, 2.0, "0x0.0p+0"),
        (3.0, -1.0, 2.0, "0x0.0p+0"),
        (1.0, -1.0, 1.0, "0x0.0p+0"),
        (-1.0, 1.0, -1.0, "0x0.0p+0"),
        (0.0, -1.0, 0.0, "0x0.0p+0"),
        (0.0, 1.0, 0.0, "0x0.0p+0"),
        (0.0, 0.0, 0.0, "0x0.0p+0"),
        (-0.0, -0.0, -0.0, "0x0.0p+0"),
        (1.7e308, -1.7e308, 1.7e308, "0x0.0p+0"),
        (1.7e308, 1.7e308, -1.7e308, "0x0.0p+0"),
        (5e-324, -5e-324, 5e-324, "0x0.0p+0"),
        (5e-324, 5e-324, 0.0, "0x0.0p+0"),
        (0.0, -1.7e308, 1e-300, "0x1.97733d0d3cdebp+13"),  # 13038.404810405298
        (0.0, -5e-324, 1.0, "0x1.0000000000000p-537"),  # 2.2227587494850775e-162
        (0.0, 1.0, -5e-324, "-0x1.0000000000000p-537"),
    ]

    @pytest.mark.parametrize("a, b, c, bits", RECORDED)
    def test_recorded_bits(self, a, b, c, bits):
        assert maslov_dim2(a, b, c).hex() == bits

    def test_homogeneity(self):
        rng = np.random.Generator(np.random.Philox(1))
        for _ in range(30):
            a, b, c = rng.uniform(-2, 2, 3)
            for s in (2.0, 3.0, -1.0):
                assert maslov_dim2(s * a, s * b, s * c) == pytest.approx(
                    s * maslov_dim2(a, b, c), abs=1e-12
                )


class TestLimit:
    def test_zero_element(self):
        est = maslov_limit(SpElement(sp1, np.zeros((2, 2))), SHORT)
        assert est.value == 0.0
        assert est.error_bar == 0.0

    def test_rotation_anchor(self):
        est = maslov_limit(sp2_element(0.0, -1.0, 1.0), SHORT)
        assert abs(est.value - 1.0) <= est.error_bar + 1e-6

    def test_hyperbolic_anchor(self):
        est = maslov_limit(SpElement(sp1, np.diag([1.0, -1.0])), SHORT)
        assert abs(est.value) <= est.error_bar + 1e-6

    def test_estimate_fields(self):
        B = sp2_element(0.3, -1.2, 0.8)
        est = maslov_limit(B, SHORT)
        assert est.error_bar >= 0
        assert est.samples_used == len(phase_trace(B, SHORT)[0])

    @pytest.mark.parametrize("bar", [-1.0, float("nan")])
    def test_estimate_rejects_a_negative_or_nan_bar(self, bar):
        with pytest.raises(ValueError, match="non-negative"):
            MaslovEstimate(0.0, bar, 3)

    def test_against_closed_form_random(self):
        rng = np.random.Generator(np.random.Philox(2))
        els, truths = [], []
        for _ in range(30):
            a, b, c = rng.uniform(-2, 2, 3)
            els.append(sp2_element(a, b, c))
            truths.append(maslov_dim2(a, b, c))
        ests = maslov_limit_batch(els, MaslovLimitConfig(t_max=2000.0))
        for est, truth in zip(ests, truths):
            assert abs(est.value - truth) <= est.error_bar + 1e-3

    def test_agrees_with_direct_polar_route(self):
        # the bounded path recursion must reproduce the literal construction:
        # polar factors of exp(tB), complexified, det phases lifted; the
        # literal lift needs phase gaps under pi, so it samples a grid 20
        # times finer than the sweep's and is compared at the sweep's times
        fine = 20
        for n, seed in ((1, 3), (2, 4)):
            space = SymplecticSpace(n)
            B = random_sp_element(space, 0.6, seed)
            t, theta = phase_trace(B, MaslovLimitConfig(t_max=12.0))
            grid = np.linspace(0.0, t[-1], fine * (len(t) - 1) + 1)
            direct = sample_polar_path(B.mat, grid[1:])[fine - 1 :: fine]
            np.testing.assert_allclose([s.t for s in direct], t[1:], rtol=1e-12)
            np.testing.assert_allclose(
                theta[1:], [s.theta for s in direct], atol=1e-7
            )

    def test_homogeneity_within_bars(self):
        B = sp2_element(0.2, -1.5, 1.1)
        base = maslov_limit(B, SHORT)
        for s in (2.0, 3.0, -1.0):
            scaled = maslov_limit(s * B, SHORT)
            tol = abs(s) * base.error_bar + scaled.error_bar + 1e-3
            assert abs(scaled.value - s * base.value) <= tol

    def test_homogeneity_n2_against_spectral(self):
        B, _ = random_semisimple(sp2, 21)
        ref = spectral(B)
        for s in (2.0, 3.0, -1.0):
            est = maslov_limit(s * B, SHORT)
            assert abs(est.value - s * ref) <= est.error_bar + 1e-2


class TestSpectral:
    def test_z_generator(self):
        Z = z_element(sp2, sp2.basis_e(0), sp2.basis_f(0))
        assert spectral(Z) == pytest.approx(0.0, abs=1e-9)

    def test_y_generator(self):
        Y = y_element(sp1, sp1.basis_e(0), sp1.basis_f(0))
        assert spectral(Y) == pytest.approx(-1.0, abs=1e-9)

    def test_random_y_z_match_descriptor_values(self):
        rng = np.random.Generator(np.random.Philox(6))
        for _ in range(15):
            xi, eta = rng.standard_normal((2, 6))
            w = omega(sp3, xi, eta)
            assert spectral(y_element(sp3, xi, eta)) == pytest.approx(
                -abs(w), abs=1e-8
            )
            assert spectral(z_element(sp3, xi, eta)) == pytest.approx(
                0.0, abs=1e-8
            )

    @pytest.mark.parametrize("n", [2, 3])
    def test_isotropic_y_is_zero_under_auto(self, n):
        # Y_{e0,e1} on an isotropic pair is nilpotent, so auto takes the limit route
        space = SymplecticSpace(n)
        Y = y_element(space, space.basis_e(0), space.basis_e(1))
        ((value, bar, route),) = maslov_evaluate([Y], MaslovLimitConfig())
        assert route == "limit"
        assert abs(value) <= bar + 1e-2

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: the limit-route bar misses the truth 0 on the isotropic "
        "Y_{e0,e1} (-1.5698e-3 +- 1.5678e-3 at the default horizon)"))
    def test_isotropic_y_bar_covers_zero(self):
        for space in (sp2, sp3):
            Y = y_element(space, space.basis_e(0), space.basis_e(1))
            ((value, bar, _),) = maslov_evaluate([Y], MaslovLimitConfig())
            assert abs(value) <= bar

    def test_limit_is_the_oracle(self):
        rng = np.random.Generator(np.random.Philox(7))
        els = []
        for _ in range(12):
            B, _ = random_semisimple(sp2, rng)
            els.append(B)
        ests = maslov_limit_batch(els, MaslovLimitConfig(t_max=2000.0))
        for B, est in zip(els, ests):
            assert abs(spectral(B) - est.value) <= est.error_bar + 1e-2

    def test_krein_orientation_distinguished(self):
        plus = SpElement(sp1, np.array([[0.0, 2.0], [-2.0, 0.0]]))
        minus = SpElement(sp1, np.array([[0.0, -2.0], [2.0, 0.0]]))
        assert spectral(plus) == pytest.approx(-2.0, abs=1e-9)
        assert spectral(minus) == pytest.approx(2.0, abs=1e-9)
        for el, want in ((plus, -2.0), (minus, 2.0)):
            est = maslov_limit(el, SHORT)
            assert abs(est.value - want) <= est.error_bar + 1e-3

    def test_nilpotent_rejected(self):
        with pytest.raises(NonSemisimpleError):
            maslov_spectral(classify_eigenstructure([nilpotent_jordan_sp(sp2)]))


def krein_collision() -> SpElement:
    """Two imaginary blocks of equal |b| and opposite orientation, conjugated:
    one imaginary eigenvalue cluster of multiplicity 2."""
    blocks = (WilliamsonBlock("imag", 0.0, 0.8, (0,)), WilliamsonBlock("imag", 0.0, -0.8, (1,)))
    D = WilliamsonDecomposition(sp2, np.eye(4), blocks).assemble()
    g = random_symplectic_group_element(sp2, 0.5, 3)
    return SpElement(sp2, g @ D @ omega_adjoint(g))


class TestStackedEvaluation:
    NIL, COLLISION = 6, 13  # positions in mixed_stack

    def mixed_stack(self):
        """Semi-simple elements at n = 1..4 with an exactly nilpotent input
        among them, then the Krein collision and Y, Z elements at n = 2, 3."""
        rng = rng_from(21)
        els = [random_semisimple(SymplecticSpace(n), rng)[0] for n in (1, 2, 3, 4) for _ in range(3)]
        els.insert(self.NIL, nilpotent_jordan_sp(sp2))
        els.append(krein_collision())
        for space in (sp2, sp3):
            xi, eta = rng.standard_normal((2, space.dim))
            els += [y_element(space, xi, eta), z_element(space, xi, eta)]
        return els

    def test_stack_matches_one_at_a_time_bitwise(self):
        els = self.mixed_stack()
        stacked = maslov_evaluate(els, SHORT)
        assert stacked == [maslov_evaluate([B], SHORT)[0] for B in els]
        # each spectral bar is 1e-8 (1 + |B|_F)
        assert [bar for _, bar, route in stacked if route == "spectral"] == [
            1e-8 * (1.0 + float(np.linalg.norm(B.mat)))
            for B, (*_, route) in zip(els, stacked) if route == "spectral"]
        # the collision is one cluster of two opposite planes (value 0)
        ((_, mult),) = pairs(rows_of(classify_eigenstructure([els[self.COLLISION]]))[0], "imag")
        assert mult == 2
        assert stacked[self.COLLISION][0] == pytest.approx(0.0, abs=1e-9)
        # auto sent only the nilpotent input to the limit route, with the
        # sweep it gets alone
        est = maslov_limit(els[self.NIL], SHORT)
        assert stacked[self.NIL] == (est.value, est.error_bar, "limit")
        assert [route for _, _, route in stacked].count("limit") == 1

    def test_one_eigensolve_per_spectral_evaluation(self, monkeypatch):
        # the spectral route reads the one eig and one svd of its classification;
        # its only other eigensolves are the Krein pairings, at most one eigh per
        # distinct imaginary cluster size of the stack
        counts = {}
        for name in ("eig", "eigvals", "eigh", "eigvalsh", "svd"):
            def counting(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        blocks = [WilliamsonBlock("imag", 0.0, b, (p,)) for p, b in enumerate((0.8, -0.8, 1.3))]
        g = random_symplectic_group_element(sp3, 0.5, 5)
        D = WilliamsonDecomposition(sp3, np.eye(6), tuple(blocks)).assemble()
        mixed = [random_semisimple(sp3, seed)[0] for seed in range(6)]
        mixed.append(SpElement(sp3, g @ D @ omega_adjoint(g)))  # imaginary clusters of 2 and 1
        for Bs in (mixed[:1], mixed):
            clusters = classify_eigenstructure(Bs).clusters(("imag",))
            sizes = {p.shape[1] for _, _, _, p, *_ in clusters}
            assert len(Bs) == 1 or sizes == {1, 2}
            for method in ("spectral", "auto"):
                counts.clear()
                assert [route for *_, route in maslov_evaluate(Bs, SHORT, method)] == [
                    "spectral"] * len(Bs)
                assert (counts.pop("eig"), counts.pop("svd")) == (1, 1)
                assert set(counts) <= {"eigh"} and counts.get("eigh", 0) <= len(sizes)

    def test_empty_stack(self):
        assert maslov_evaluate([], SHORT) == []
        assert classify_eigenstructure([]) == []
        assert krein_parameters(classify_eigenstructure([])) == []
        assert maslov_spectral(classify_eigenstructure([])) == []
        assert maslov_limit_batch([]) == []
        assert williamson_decompose(classify_eigenstructure([])) == []
        assert yz_decomposition([], []) == []
        assert semisimple_elements(sp2, []) == []

    OK = [random_semisimple(sp2, seed)[0] for seed in range(3)]

    @pytest.mark.parametrize(
        "ok, bad, method, t_max, error",
        [
            (OK, nilpotent_jordan_sp(sp2), "spectral", 400.0, NonSemisimpleError),
            # 1e7 puts the nilpotent input's sweep over MAX_STEPS
            (OK, nilpotent_jordan_sp(sp2), "auto", 1e7, MaslovLimitError),
            ([sp2_element(0.0, -1.0, 1.0)], random_semisimple(sp2, 4)[0], "dim2", 400.0, ValueError),
        ],
        ids=["spectral", "auto", "dim2"],
    )
    def test_a_failing_element_fails_the_stack(self, ok, bad, method, t_max, error):
        cfg = MaslovLimitConfig(t_max=t_max)
        with pytest.raises(error) as alone:
            maslov_evaluate([bad], cfg, method)
        with pytest.raises(error) as stacked:
            maslov_evaluate([*ok, bad, *ok], cfg, method)
        assert str(stacked.value) == str(alone.value)


class TestTrace:
    def test_final_ratio_matches_limit_value(self):
        B = sp2_element(0.1, -0.9, 1.3)
        cfg = MaslovLimitConfig(t_max=100.0)
        t, theta = phase_trace(B, cfg)
        est = maslov_limit(B, cfg)
        assert theta[-1] / t[-1] == pytest.approx(est.value, abs=1e-12)
        assert np.all(np.diff(t) > 0)


def per_step_theta(B, t_max, coarsen=False):
    """theta of one element's sweep with each step's increment taken by its
    own eigvals call, on its `_step_count` grid or, with coarsen, on the grid
    `_coarsen` doubles: the one-element reference for the chunked sweep."""
    Bs, h = B[None], len(B) // 2
    norm = np.linalg.norm(Bs, 2, axis=(1, 2))
    steps = np.array([_step_count(t_max, norm[0])])
    dt = t_max / steps
    E, theta_E = scipy.linalg.expm(dt[:, None, None] * Bs), _step_phase(Bs, dt, norm)
    step = _step_blocks(E)
    if coarsen:
        steps, step, theta_E = _coarsen(Bs, steps, E, theta_E)
    N = np.zeros((1, h, h), dtype=complex)
    P = np.empty_like(step[0])
    theta = np.zeros(steps[0] + 1)
    for k in range(steps[0]):
        N = _advance(step, N, P)
        theta[k + 1] = _increments(theta_E, P[:, :h])[0]
    return np.cumsum(theta)


def separate_products_theta(B, t_max, swept):
    """theta of one element's sweep on its grid of `swept` steps, with the
    step in the literal form of separate products, L N and (conj Ec N +
    conj Ea) (Ec + Ea N)^-1, from blocks split here, and each increment by
    its own eigvals.  theta_E and the step doubling follow `_step_phase` and
    `_coarsen` through the same products: the reference that pins the
    stacked step of `_advance` bit for bit."""
    def blocks(E):
        Ec, Ea = complex_blocks(E)
        return Ec, Ea, Ec.conj(), Ea.conj(), np.linalg.solve(Ec, Ea)

    def advance(E_blocks, N):
        Ec, Ea, Ecc, Eac, L = E_blocks
        return L @ N, (Ecc @ N + Eac) @ np.linalg.inv(Ec + Ea @ N)

    def doubled(E, theta_E):
        b = blocks(E)
        return theta_E + _increments(theta_E, advance(b, b[3] @ np.linalg.inv(b[0]))[0])

    Bs, h = B[None], len(B) // 2
    norm = float(np.linalg.norm(B, 2))
    steps = _step_count(t_max, norm)
    dt = t_max / steps
    k = math.ceil(math.log2(max(1.0, 2.0 * dt * norm)))
    E = scipy.linalg.expm(Bs * (dt / 2**k))
    theta_E = np.angle(np.linalg.eigvals(complex_blocks(E)[0])).sum(axis=-1)
    for _ in range(k):
        theta_E, E = doubled(E, theta_E), E @ E
    E = scipy.linalg.expm(dt * Bs)
    while steps > swept:
        theta_E, E, steps = doubled(E, theta_E), E @ E, steps // 2
    b, N = blocks(E), np.zeros((1, h, h), dtype=complex)
    theta = np.zeros(steps + 1)
    for j in range(steps):
        LN, N = advance(b, N)
        theta[j + 1] = _increments(theta_E, LN)[0]
    return np.cumsum(theta)


def base_grid_limit(B, t_max):
    """(value, bar, samples) of one element's sweep on its `_step_count`
    grid, with no step doubling: the reference for the coarsened sweep."""
    theta = per_step_theta(B.mat, t_max)
    full, half = theta[-1] / t_max, theta[len(theta) // 2] / (0.5 * t_max)
    return full, abs(full - half), len(theta)


def criteria_populations():
    """The criteria 01-03 populations (n = 1..4), by name."""
    rng = rng_from(0)
    closed = [sp2_element(*rng.uniform(-2.0, 2.0, 3)) for _ in range(200)]
    yield "closed form n=1", closed
    for n in (1, 2, 3):
        space, rng = SymplecticSpace(n), rng_from(100 + n)
        gens = []
        for _ in range(100):
            xi, eta = rng.standard_normal(2 * n), rng.standard_normal(2 * n)
            gens += [y_element(space, xi, eta), z_element(space, xi, eta)]
        yield f"Y/Z n={n}", gens
    for n in (2, 3, 4):
        rng = rng_from(200 + n)
        space = SymplecticSpace(n)
        yield f"semi-simple n={n}", [random_semisimple(space, rng)[0] for _ in range(100)]


def conjugated_jordan(n):
    """A real Jordan block with eigenvalue 1 and its mirror, in a random
    symplectic frame: not semi-simple."""
    space = SymplecticSpace(n)
    M = np.eye(n) + np.eye(n, k=1)
    D = np.block([[M, np.zeros((n, n))], [np.zeros((n, n)), -M.T]])
    g = random_symplectic_group_element(space, 0.5, 1)
    return project_skew_symplectic(space, g @ D @ omega_adjoint(g))


class TestCoarseGrid:
    FULL = MaslovLimitConfig(t_max=2000.0)

    def test_matches_the_base_grid_on_the_criteria_populations(self):
        pick = rng_from(11)
        coarsened = 0
        for name, population in criteria_populations():
            els = [population[i] for i in pick.choice(len(population), 8, replace=False)]
            finer = []
            for B, est in zip(els, maslov_limit_batch(els, self.FULL)):
                value, bar, samples = base_grid_limit(B, self.FULL.t_max)
                got = est.value, est.error_bar
                np.testing.assert_allclose(got, (value, bar), rtol=0, atol=1e-10, err_msg=name)
                assert est.samples_used <= samples, name
                finer.append(est.samples_used < samples)
            coarsened += all(finer)  # every element of the population's sample
        assert coarsened >= 5

    @pytest.mark.parametrize(
        "B",
        [nilpotent_jordan_sp(SymplecticSpace(n)) for n in (2, 3, 4)]
        + [conjugated_jordan(n) for n in (2, 3)],
        ids=["nilpotent n=2", "nilpotent n=3", "nilpotent n=4", "jordan n=2", "jordan n=3"],
    )
    def test_non_semisimple_inputs_keep_the_base_grid(self, B):
        cfg = MaslovLimitConfig(t_max=200.0)
        est = maslov_limit(B, cfg)
        assert (est.value, est.error_bar, est.samples_used) == base_grid_limit(B, cfg.t_max)


def scaled(B: SpElement, norm: float) -> SpElement:
    """B scaled to spectral norm `norm`."""
    return SpElement(B.space, B.mat * (norm / np.linalg.norm(B.mat, 2)))


class TestBatchInvariance:
    """Each element of a batch takes the grid it takes alone, so the batch
    returns its elements' one-element estimates bit for bit."""

    @staticmethod
    def assert_invariant(els, cfg):
        alone = [maslov_limit(B, cfg) for B in els]
        assert maslov_limit_batch(els, cfg) == alone
        assert [len(phase_trace(B, cfg)[1]) for B in els] == [e.samples_used for e in alone]
        return alone

    def test_criteria_populations(self):
        pick = rng_from(12)
        for name, population in criteria_populations():
            els = [population[i] for i in pick.choice(len(population), 8, replace=False)]
            self.assert_invariant(els, MaslovLimitConfig())

    def test_jordan_chains_among_semisimple_elements(self):
        els = [random_semisimple(sp2, s)[0] for s in range(4)]
        els[1:1] = [nilpotent_jordan_sp(sp2), conjugated_jordan(2)]
        alone = self.assert_invariant(els, SHORT)
        assert alone[1].samples_used == alone[2].samples_used == 401  # the base grid
        assert max(e.samples_used for e in alone[3:]) < 401

    def test_one_large_norm_among_smaller_ones(self):
        els = [random_semisimple(sp3, s)[0] for s in range(5)]
        els[2] = scaled(els[2], 20.5)  # its base grid has 410 steps, 2 mod 4, the others 400
        alone = self.assert_invariant(els, SHORT)
        assert alone[2].samples_used == 411
        assert max(e.samples_used for i, e in enumerate(alone) if i != 2) < 401

    def test_grids_ending_next_to_a_chunk_seam(self, monkeypatch):
        # Jordan chains keep their base grids: 42, 20 and 64 steps at t_max = 20,
        # at, one step before and one after the seams of 21-step chunks
        monkeypatch.setattr(maslov, "CHUNK", 21)
        els = [scaled(nilpotent_jordan_sp(sp2), 42.0), scaled(conjugated_jordan(2), 10.0),
               scaled(conjugated_jordan(2), 64.0)]
        alone = self.assert_invariant(els, MaslovLimitConfig(t_max=20.0))
        assert [e.samples_used for e in alone] == [43, 21, 65]

    @pytest.mark.parametrize(
        "bad, t_max",
        [(scaled(nilpotent_jordan_sp(sp2), 1e3), 1e5), (SpElement(sp1, np.diag([1e300, -1e300])), 2000.0)],
        ids=["more than MAX_STEPS", "expm overflow"],
    )
    def test_a_failing_element_fails_the_batch(self, bad, t_max):
        cfg = MaslovLimitConfig(t_max=t_max)
        ok = SpElement(bad.space, np.zeros_like(bad.mat))
        with pytest.raises(MaslovLimitError) as alone:
            maslov_limit(bad, cfg)
        for batch in ([ok, bad], [bad, ok]):
            with pytest.raises(MaslovLimitError) as stacked:
                maslov_limit_batch(batch, cfg)
            assert str(stacked.value) == str(alone.value)


class TestChunkedPhases:
    """`_phase_path` takes each chunk's phases with one stacked eigvals call;
    the reference takes one step's at a time through the same two routines,
    for each element on its own."""

    INPUTS = {  # (stack, t_max, base grid steps, swept steps of each element)
        "jordan m=1": (np.stack([nilpotent_jordan_sp(SymplecticSpace(3)).mat]), 100.0, 100, [100]),
        "semi-simple m=8": (
            np.stack([random_semisimple(SymplecticSpace(3), s)[0].mat for s in range(8)]),
            400.0, 400, [50, 50, 50, 50, 50, 100, 50, 50],
        ),
    }

    @pytest.mark.parametrize("name", INPUTS)
    @pytest.mark.parametrize("seam", ["one below", "at", "one above", "chunks and odd rest"])
    def test_matches_the_per_step_reference(self, name, seam, monkeypatch):
        Bs, t_max, base, swept = self.INPUTS[name]
        refs = [per_step_theta(B, t_max, coarsen=True) for B in Bs]
        assert [per_step_theta(B, t_max).shape for B in Bs] == [(base + 1,)] * len(Bs)
        assert [ref.shape for ref in refs] == [(s + 1,) for s in swept]
        steps = max(swept)
        chunk = {"one below": steps + 1, "at": steps, "one above": steps - 1}.get(seam)
        if chunk is None:  # the largest chunk leaving at least 3 full ones and an odd rest
            chunk = next(c for c in range(steps // 3, 1, -1) if steps % c % 2)
        monkeypatch.setattr(maslov, "CHUNK", chunk)
        for theta, ref in zip(_phase_path(Bs, t_max), refs, strict=True):
            np.testing.assert_array_equal(theta, ref)

    def test_several_chunks_of_the_module_size(self):
        Bs, _, _, _ = self.INPUTS["jordan m=1"]
        t_max = 3 * maslov.CHUNK + 10.0  # an even base grid: 3 chunks and a 10-step rest
        np.testing.assert_array_equal(_phase_path(Bs, t_max)[0], per_step_theta(Bs[0], t_max))


class TestSeparateProductStep:
    """`_advance` takes each step as one stacked product [L; conj Ec; Ea] N,
    one add and one inverse; the form with separate products pins it bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_jordan_base_grid_across_a_chunk_seam(self, n):
        B = nilpotent_jordan_sp(SymplecticSpace(n)).mat
        t_max = maslov.CHUNK + 10.0  # one full chunk and a 10-step rest
        [theta] = _phase_path(B[None], t_max)
        assert theta.shape == (maslov.CHUNK + 11,)
        np.testing.assert_array_equal(theta, separate_products_theta(B, t_max, maslov.CHUNK + 10))

    def test_semisimple_batch_on_the_coarsened_grid(self):
        Bs, t_max, _, swept = TestChunkedPhases.INPUTS["semi-simple m=8"]
        thetas = _phase_path(Bs, t_max)
        assert [theta.shape for theta in thetas] == [(s + 1,) for s in swept]
        for B, theta, s in zip(Bs, thetas, swept):
            np.testing.assert_array_equal(theta, separate_products_theta(B, t_max, s))


class TestRobustness:
    @given(
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-3.0, 3.0),
        log_eps=st.one_of(st.none(), st.floats(-12.0, -1.0)),
    )
    @settings(max_examples=100, deadline=None)
    def test_finite_value_or_limit_error(self, n, seed, log_scale, log_eps):
        # a random semi-simple element (log_eps None) or a Jordan chain plus
        # a random perturbation of size 10^log_eps, scaled by 10^log_scale
        space = SymplecticSpace(n)
        if log_eps is None:
            M = random_semisimple(space, seed)[0].mat
        else:
            eps = 10.0**log_eps * random_sp_element(space, 1.0, seed).mat
            M = nilpotent_jordan_sp(space).mat + eps
        B = SpElement(space, 10.0**log_scale * M)
        try:
            est = maslov_limit(B, MaslovLimitConfig(t_max=50.0))
        except MaslovLimitError:
            return
        assert np.isfinite(est.value) and np.isfinite(est.error_bar)
