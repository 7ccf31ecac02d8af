"""Property checkers and structure fitters: quasi-linearity, conjugation
invariance, linearity on the unitary subalgebra, the rank-one trace form on an
embedded matrix algebra, isotropic linearity, and the one-dimensionality
decomposition fit."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .maslov import maslov_spectral
from .quasistates import QuasiState
from .symplectic import (
    CommutingStrategy,
    SamplingError,
    SpElement,
    SymplecticSpace,
    commuting_pairs,
    draw_commuting_pair,
    group_elements,
    omega,
    omega_adjoint,
    random_symplectic_group_element,
    rank_one_matrix,
    rng_from,
    skew_part,
    standard_complex_structure,
)
from .williamson import (classify_eigenstructure, draw_semisimple, semisimple_elements,
                         williamson_decompose, yz_decomposition)

TRAIN_FRACTION = 0.7
SAMPLES_PER_UNKNOWN = 10
CONE_MARGIN = 0.1  # reject |omega(xi,eta)| (or |xi . eta|) below this fraction of |xi||eta|
QLIN_BAR_MULTIPLIER = 3.0  # error-bar multiples a quasi-linearity defect may use
ADINV_BAR_MULTIPLIER = 2.0  # the same for an ad-invariance defect
GLEASON_TEST_SAMPLES = 40  # held-out elements for the unitary trace-form fit
STAGE3_SAMPLES = 40  # semi-simple elements in stage 3 of the main-theorem fit


@dataclass(frozen=True)
class VerificationReport:
    """Structured pass/fail record of one checker run.

    max_defect is the largest bar-adjusted defect over trials (raw defect
    minus the allowed error-bar multiple), so pass <=> max_defect <= tolerance
    holds as a single scalar criterion; raw values live in per_trial_records.
    """

    check_name: str
    trials: int
    max_defect: float
    tolerance_used: float
    seed: int
    fitted_parameters: Optional[dict] = None
    per_trial_records: tuple = ()

    @property
    def passed(self) -> bool:
        return bool(self.max_defect <= self.tolerance_used)


def _report(name, trials, max_defect, tol, seed, params=None, records=()):
    return VerificationReport(
        check_name=name,
        trials=trials,
        max_defect=float(max_defect),
        tolerance_used=float(tol),
        seed=int(seed),
        fitted_parameters=params,
        per_trial_records=tuple(records),
    )


def _values(zeta: QuasiState, xs, memo: dict | None = None) -> list[float]:
    """zeta's value on each element, from one batch call (QuasiState.batch)."""
    return [v for v, _ in zeta.batch(xs, memo)]


def _trial_check(name, tol, seed, params, results):
    """Report over the records {"trial": t, **results[t]}: each result has a
    raw "defect" and may carry an "allowance" (the error-bar multiple it may
    use); max_defect is the largest defect minus allowance."""
    if not results:
        raise ValueError("need at least one trial")
    records = [{"trial": t, **r} for t, r in enumerate(results)]
    worst = max(r["defect"] - r.get("allowance", 0.0) for r in records)
    return _report(name, len(records), worst, tol, seed, params, records)


def _held_out_fit(design: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Least squares on the first TRAIN_FRACTION of the rows: (solution,
    training row count, RMS residual on the held-out rows)."""
    cut = int(TRAIN_FRACTION * len(vals))
    sol, *_ = np.linalg.lstsq(design[:cut], vals[:cut], rcond=None)
    return sol, cut, float(np.sqrt(np.mean(np.square(design[cut:] @ sol - vals[cut:]))))


def check_quasi_linearity(
    states: list[tuple[QuasiState, float]],
    space: SymplecticSpace,
    strategy: CommutingStrategy | str,
    trials: int,
    seed: int,
    base: Optional[SpElement] = None,
) -> list[VerificationReport]:
    """Draw each trial's commuting pair and random scalars in [-2, 2] in order,
    then build the certified pairs as one stack (`commuting_pairs`); for each
    (zeta, tol) in `states` the defect |zeta(c1 A + c2 B) - c1 zeta(A) -
    c2 zeta(B)| must stay within QLIN_BAR_MULTIPLIER times the summed
    per-evaluation error bars, plus tol.  One report per state, in order.

    `base` pins the odd-polynomial strategy to one element (useful for states
    supported on a particular abelian subspace)."""
    rng = rng_from(seed)
    picks = [(draw_commuting_pair(space, strategy, rng, base), *rng.uniform(-2.0, 2.0, 2))
             for _ in range(trials)]
    pairs = commuting_pairs(space, [pair_draw for pair_draw, _, _ in picks])
    draws = [(p, c1, c2) for p, (_, c1, c2) in zip(pairs, picks)]
    combos = SpElement.stack(space, [c1 * p.a.mat + c2 * p.b.mat for p, c1, c2 in draws])
    xs = [x for (p, _, _), ab in zip(draws, combos) for x in (p.a, p.b, ab)]

    def check(zeta, tol):
        evals = iter(zeta.batch(xs))
        results = [
            {
                "defect": abs(vc - c1 * va - c2 * vb),
                "allowance": QLIN_BAR_MULTIPLIER * (abs(c1) * ea + abs(c2) * eb + ec),
                "c1": c1,
                "c2": c2,
                "commutator_norm": pair.commutator_norm,
            }
            for (pair, c1, c2), (va, ea), (vb, eb), (vc, ec) in zip(draws, evals, evals, evals)
        ]
        return _trial_check(
            f"quasi-linearity[{zeta.provenance}/{CommutingStrategy(strategy).value}]",
            tol,
            seed,
            {"bar_multiplier": QLIN_BAR_MULTIPLIER, "n": space.n},
            results,
        )

    return [check(zeta, tol) for zeta, tol in states]


def check_ad_invariance(
    zeta: QuasiState,
    space: SymplecticSpace,
    trials: int,
    tol: float,
    seed: int,
) -> VerificationReport:
    """|zeta(g A g^{-1}) - zeta(A)| over random symplectic g and random A,
    within ADINV_BAR_MULTIPLIER summed error bars plus tol.  Draws A at scale 1,
    then g at scale 0.6, trial by trial (in one draw), then builds them as one stack."""
    G = rng_from(seed).standard_normal((max(trials, 0), 2, space.dim, space.dim))
    gs, errors = group_elements(space, 0.6 * G[:, 1])
    error = next(filter(None, errors), None)
    if error:  # each A is skew-symplectic bit for bit, so only a g can fail
        raise error
    As = skew_part(G[:, 0])
    conjugates = skew_part(gs @ As @ omega_adjoint(gs))
    xs = zip(SpElement.stack(space, As), SpElement.stack(space, conjugates))
    evals = iter(zeta.batch([x for pair in xs for x in pair]))
    results = [
        {"defect": abs(vc - va), "allowance": ADINV_BAR_MULTIPLIER * (ea + ec)}
        for (va, ea), (vc, ec) in zip(evals, evals)
    ]
    return _trial_check(
        f"ad-invariance[{zeta.provenance}]",
        tol,
        seed,
        {"bar_multiplier": ADINV_BAR_MULTIPLIER, "n": space.n},
        results,
    )


def sp_basis(space: SymplecticSpace) -> np.ndarray:
    """Basis of the skew-symplectic algebra as one (n(2n+1), 2n, 2n) stack:
    Omega^{-1} S = -Omega S over the symmetric unit matrices S, i <= j in
    row-major order (entries 0 and +-1, so the products are exact)."""
    d = space.dim
    i, j = np.triu_indices(d)
    k = np.arange(len(i))
    S = np.zeros((len(i), d, d))
    S[k, i, j] = S[k, j, i] = 1.0
    return -space.omega_matrix @ S


def unitary_subalgebra_basis(space: SymplecticSpace) -> list[SpElement]:
    """Basis of the unitary subalgebra u(n) = {A in the algebra : A J0 = J0 A}
    of the standard complex structure J0, found by solving the linear
    commutation constraints on an algebra basis; dimension must be n^2."""
    J = standard_complex_structure(space)
    base = sp_basis(space)
    rows = np.stack([(A @ J - J @ A).reshape(-1) for A in base])
    # coefficient vectors x with sum_k x_k rows[k] = 0, i.e. null(rows.T)
    _, s, Vt = np.linalg.svd(rows.T, full_matrices=True)
    tol = max(rows.shape) * np.finfo(float).eps * (s[0] if len(s) else 1.0)
    null_dim = rows.shape[0] - int(np.sum(s > tol))
    if null_dim != space.n**2:
        raise SamplingError(
            f"unitary subalgebra dimension {null_dim}, expected {space.n ** 2}"
        )
    mats = [sum(ck * Ak for ck, Ak in zip(c, base)) for c in Vt[-null_dim:]]
    return SpElement.stack(space, [M / np.linalg.norm(M) for M in mats])


def fit_gleason_on_unitary(
    zeta: QuasiState,
    space: SymplecticSpace,
    tol: float,
    seed: int = 0,
    oracle: Optional[Callable[[SpElement], float]] = None,
) -> VerificationReport:
    """Fit zeta restricted to the unitary subalgebra of J0 (every compatible
    complex structure is Sp(2n, R)-conjugate to it) by a trace form tr(H .)
    and report the held-out residual (RMS over fresh random elements).

    An optional oracle is compared on the same test set (max deviation goes to
    fitted_parameters['oracle_max_dev'])."""
    if space.n < 3:
        raise ValueError("hypothesis n >= 3 not met")
    if not zeta.continuous:
        raise ValueError("the trace-form fit applies to continuous-flagged states")
    basis = unitary_subalgebra_basis(space)
    y = np.array(_values(zeta, basis))
    design = np.stack([A.mat.T.reshape(-1) for A in basis])
    h, *_ = np.linalg.lstsq(design, y, rcond=None)
    H = h.reshape(space.dim, space.dim)

    rng = rng_from(seed)
    tests = SpElement.stack(space, [
        sum(c * b.mat for c, b in zip(rng.standard_normal(len(basis)), basis))
        for _ in range(GLEASON_TEST_SAMPLES)
    ])
    predicted = np.trace(H @ np.array([A.mat for A in tests]), axis1=1, axis2=2)  # tr(H A)
    values = zip(_values(zeta, tests), predicted.tolist())
    records = [{"trial": t, "actual": a, "predicted": p} for t, (a, p) in enumerate(values)]
    residual = float(np.sqrt(np.mean(np.square([r["actual"] - r["predicted"] for r in records]))))
    params = {"H": H, "basis_dimension": len(basis)}
    if oracle is not None:
        for r, A in zip(records, tests):
            r["oracle_dev"] = abs(r["actual"] - oracle(A))
        params["oracle_max_dev"] = max([0.0] + [r["oracle_dev"] for r in records])
    return _report(
        f"gleason-fit[{zeta.provenance}]", len(records), residual, tol, seed, params, records
    )


@dataclass(frozen=True)
class GlEmbedding:
    """Two transversal Lagrangian frames and the algebra injection M ->
    g diag(M, -M^T) g^{-1}, which preserves both frames and restricts to M on
    the first one."""

    space: SymplecticSpace
    g: np.ndarray = field(repr=False)
    bracket_defect: float = 0.0

    @property
    def L1(self) -> np.ndarray:
        """First frame: the first n columns of g (2n x n)."""
        return self.g[:, : self.space.n]

    @property
    def L2(self) -> np.ndarray:
        """Second frame: the last n columns of g."""
        return self.g[:, self.space.n :]

    def inject(self, Ms) -> list[SpElement]:
        """Injections of the stack of n x n matrices Ms, projected and checked as one stack."""
        n = self.space.n
        Ms = np.asarray(Ms, dtype=float)
        if Ms.shape[1:] != (n, n):
            raise ValueError(f"expected a stack of {n} x {n} matrices, got shape {Ms.shape}")
        Z = np.zeros_like(Ms)
        D = np.block([[Ms, Z], [Z, -Ms.swapaxes(1, 2)]])
        return SpElement.stack(self.space, skew_part(self.g @ D @ omega_adjoint(self.g)))

    def rank_one(self, xi: np.ndarray, eta: np.ndarray) -> SpElement:
        """Injection of the rank-one map x -> (x, eta) xi."""
        return self.inject([np.outer(xi, eta)])[0]


def embed_gl(space: SymplecticSpace, seed: int) -> GlEmbedding:
    """Random transversal Lagrangian pair (symplectic images of the spans of
    the e- and f-basis) with the induced matrix-algebra injection; the bracket
    is checked to be preserved on random pairs."""
    rng = rng_from(seed)
    n = space.n
    g = random_symplectic_group_element(space, 0.5, rng)
    if np.linalg.cond(g) > 1e6:
        raise SamplingError("transversality failure; re-draw with another seed")
    M1, M2 = np.swapaxes(rng.standard_normal((20, 2, n, n)), 0, 1)  # 20 pairs, drawn in turn
    injected = GlEmbedding(space, g).inject(np.concatenate([M1 @ M2 - M2 @ M1, M1, M2]))
    lhs, a, b = np.reshape([x.mat for x in injected], (3, 20, space.dim, space.dim))
    defect = float(np.abs(lhs - (a @ b - b @ a)).max())
    if defect > 1e-9 * (1.0 + np.linalg.cond(g) ** 2):
        raise SamplingError(f"bracket preservation defect {defect:.3e}")
    return GlEmbedding(space=space, g=g, bracket_defect=defect)


def fit_rank_one_trace(
    zeta: QuasiState,
    embedding: GlEmbedding,
    tol: float,
    seed: int = 0,
) -> VerificationReport:
    """Fit zeta on SAMPLES_PER_UNKNOWN n^2 embedded rank-one elements by
    (N xi, eta) and report the held-out RMS residual.

    Sampling rejects nearly orthogonal (xi, eta): those rank-one maps are
    nilpotent and sit on the semi-simplicity boundary of the evaluators.
    """
    n = embedding.space.n
    if n < 3:
        raise ValueError("hypothesis n >= 3 not met")
    if not zeta.continuous:
        raise ValueError("the rank-one fit applies to continuous-flagged states")
    rng = rng_from(seed)
    m = SAMPLES_PER_UNKNOWN * n * n
    xs, ys = np.swapaxes([_cone_sample(rng, n, np.matmul) for _ in range(m)], 0, 1)
    vals = _values(zeta, embedding.inject(np.einsum("ij,ik->ijk", xs, ys)))
    design = np.stack([np.outer(e, x).reshape(-1) for x, e in zip(xs, ys)])
    sol, cut, residual = _held_out_fit(design, np.asarray(vals))
    return _report(
        f"rank-one-trace[{zeta.provenance}]",
        m,
        residual,
        tol,
        seed,
        {"N": sol.reshape(n, n), "train": cut, "holdout": m - cut},
    )


def isotropic_pair(space: SymplecticSpace, rng) -> tuple[np.ndarray, np.ndarray]:
    """(eta1, eta2) with omega(eta1, eta2) = 0: subtract from a random vector
    its component along the symplectic partner of eta1."""
    eta1 = rng.standard_normal(space.dim)
    partner = -(space.omega_matrix @ eta1) / (eta1 @ eta1)
    r = rng.standard_normal(space.dim)
    eta2 = r - omega(space, eta1, r) * partner
    return eta1, eta2


def check_isotropic_linearity(
    phi: Callable[[list[np.ndarray]], list[float]],
    space: SymplecticSpace,
    trials: int,
    tol: float,
    seed: int = 0,
) -> VerificationReport:
    """Additivity of phi along omega-orthogonal pairs with random scalars.

    All trials are drawn first; phi then takes the list of every trial's
    vectors (c1 eta1 + c2 eta2, eta1, eta2) in one call and returns their
    values in order."""
    if space.n < 2:
        raise ValueError("need n >= 2 for non-trivial isotropic pairs")
    rng = rng_from(seed)
    draws = [(*isotropic_pair(space, rng), *rng.uniform(-2.0, 2.0, 2)) for _ in range(trials)]
    vals = iter(phi([v for e1, e2, c1, c2 in draws for v in (c1 * e1 + c2 * e2, e1, e2)]))
    results = [
        {"defect": abs(v12 - c1 * v1 - c2 * v2)}
        for (_, _, c1, c2), v12, v1, v2 in zip(draws, vals, vals, vals)
    ]
    return _trial_check("isotropic-linearity", tol, seed, None, results)


def _cone_sample(rng, dim: int, pairing: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian (xi, eta) of length dim, drawn in turn until |pairing(xi, eta)| is at
    least CONE_MARGIN |xi| |eta|."""
    while True:
        xi, eta = rng.standard_normal(dim), rng.standard_normal(dim)
        if abs(pairing(xi, eta)) >= CONE_MARGIN * np.linalg.norm(xi) * np.linalg.norm(eta):
            return xi, eta


def _stage1_rows(space: SymplecticSpace, base, xis: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Stage-1 design rows of the stacked cone samples: (A xi) Omega xi + (A eta) Omega eta
    for each A of the `sp_basis` stack base, then |omega(xi, eta)|."""

    def quadratic(X):
        return np.einsum("ija,ia->ij", np.einsum("jab,ib->ija", base, X) @ space.omega_matrix, X)

    last = [abs(omega(space, xi, eta)) for xi, eta in zip(xis, etas)]
    return np.column_stack([quadratic(xis) + quadratic(etas), last])


def fit_main_theorem(
    zetas: list[QuasiState],
    space: SymplecticSpace,
    tol: float,
    seed: int = 0,
) -> list[VerificationReport]:
    """Three-stage decomposition fit of the structure functions
    F(xi, eta) = zeta(Y_{xi,eta}) and G(xi, eta) = zeta(Z_{xi,eta}), one
    report per state of `zetas`, in order.  The samples are drawn once, and
    each state evaluates each sample list once (a composite reads its parts').

    Stage 1 fits F(xi + i eta) = omega(C xi, xi) + omega(C eta, eta) +
    c |omega(xi, eta)| over C in the algebra and scalar c, on cone-restricted
    samples (70/30 train/held-out).  Stage 2 verifies G(xi, eta) =
    2 omega(C xi, eta) on fresh pairs.  Stage 3 verifies, on fresh random
    semi-simple elements evaluated through their commuting Y/Z terms, that
    zeta(B) = tr(-C B) + (-c) zeta_M(B); the fitted c is minus the coefficient
    of the Maslov state in zeta = tr(N .) + c0 zeta_M (both are reported).
    """
    if not all(zeta.continuous for zeta in zetas):
        raise ValueError("the decomposition fit applies to continuous-flagged states")
    rng = rng_from(seed)
    base = sp_basis(space)
    m = SAMPLES_PER_UNKNOWN * (len(base) + 1)
    O = space.omega_matrix

    cone = np.swapaxes([_cone_sample(rng, space.dim, lambda x, y: omega(space, x, y))
                        for _ in range(m)], 0, 1)  # (xis, etas)
    rows = _stage1_rows(space, base, *cone)
    ys = SpElement.stack(space, rank_one_matrix(space, "Y", *cone))
    pairs2 = [rng.standard_normal((2, space.dim)) for _ in range(max(40, 2 * space.dim))]
    zs = SpElement.stack(space, rank_one_matrix(space, "Z", *np.swapaxes(pairs2, 0, 1)))
    draws = [draw_semisimple(space, rng) for _ in range(STAGE3_SAMPLES)]
    Bs = [B for B, _ in semisimple_elements(space, draws)]
    spectra = classify_eigenstructure(Bs)
    terms = yz_decomposition(Bs, williamson_decompose(spectra))
    term_elements = iter(SpElement.stack(space, [M for ts in terms for *_, M in ts]))
    samples3 = [x for B, ts in zip(Bs, terms) for x in (*(next(term_elements) for _ in ts), B)]
    spectral = maslov_spectral(spectra)
    memo = {}

    def fit(zeta):
        sol, _, stage1 = _held_out_fit(rows, np.array(_values(zeta, ys, memo)))
        C = sum(ck * Ak for ck, Ak in zip(sol[:-1], base))
        c_fit = float(sol[-1])

        vals2 = _values(zeta, zs, memo)
        errs2 = [v - 2.0 * float((C @ xi) @ O @ eta) for v, (xi, eta) in zip(vals2, pairs2)]
        stage2 = float(np.sqrt(np.mean(np.square(errs2))))

        vals3 = iter(_values(zeta, samples3, memo))
        errs3 = []
        yz_dev = 0.0
        for B, ts, zeta_m in zip(Bs, terms, spectral):
            via_terms = sum(coef * next(vals3) for coef, *_ in ts)
            direct = next(vals3)
            yz_dev = max(yz_dev, abs(direct - via_terms))
            pred = float(np.trace(-C @ B.mat)) - c_fit * zeta_m
            errs3.append(via_terms - pred)
        stage3 = float(np.sqrt(np.mean(np.square(errs3))))

        params = {
            "C": C,
            "c_fit": c_fit,
            "maslov_coefficient": -c_fit,
            "stage1_residual": stage1,
            "stage2_residual": stage2,
            "stage3_residual": stage3,
            "yz_consistency_dev": yz_dev,
        }
        if space.n < 3:
            params["caveat"] = "n < 3: outside the rigidity range, proceeding anyway"
        return _report(
            f"main-theorem[{zeta.provenance}]",
            m + len(pairs2) + STAGE3_SAMPLES,
            max(stage1, stage2, stage3),
            tol,
            seed,
            params,
        )

    return [fit(zeta) for zeta in zetas]


def frobenius_pseudo_state() -> QuasiState:
    """Deliberately broken 'quasi-state' zeta(A) = |A|_F: the negative control.

    It fails quasi-linearity for every n: through mixed signs at n = 1 (norms
    are even, zeta(-A) != -zeta(A)) and through genuinely non-proportional
    commuting pairs for n >= 2.
    """
    return QuasiState.from_batch(lambda xs, memo=None: [(float(np.linalg.norm(x.mat)), 1e-12)
                                                        for x in xs], True, "negative-control")


def maslov_imtrace_oracle() -> Callable[[SpElement], float]:
    """Independent check on the unitary subalgebra of the standard complex
    structure: there exp(tA) stays orthogonal-symplectic, the positive polar
    factor is trivial, and the winding rate is the imaginary trace of the
    complexified matrix."""
    from .kernels import complex_blocks

    def oracle(A: SpElement) -> float:
        Zc, Za = complex_blocks(A.mat)
        if np.abs(Za).max() > 1e-8 * (1.0 + A.norm()):
            raise ValueError("element does not commute with the standard structure")
        return float(np.trace(Zc).imag)

    return oracle
