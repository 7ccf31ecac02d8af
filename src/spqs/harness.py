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
    CompatibleComplexStructure,
    SpElement,
    SymplecticSpace,
    commuting_pair,
    omega,
    omega_adjoint,
    project_skew_symplectic,
    random_sp_element,
    random_symplectic_group_element,
    realize,
    rng_from,
    y_element,
    z_element,
)
from .williamson import random_semisimple, yz_decomposition

TRAIN_FRACTION = 0.7
SAMPLES_PER_UNKNOWN = 10
CONE_MARGIN = 0.1  # reject |omega(xi,eta)| below this fraction of |xi||eta|


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
    passed: bool
    seed: int
    fitted_parameters: Optional[dict] = None
    per_trial_records: tuple = ()

    def __post_init__(self):
        if self.passed != (self.max_defect <= self.tolerance_used):
            raise ValueError("pass flag inconsistent with defect/tolerance")


def _report(name, trials, max_defect, tol, seed, params=None, records=()):
    return VerificationReport(
        check_name=name,
        trials=trials,
        max_defect=float(max_defect),
        tolerance_used=float(tol),
        passed=bool(max_defect <= tol),
        seed=int(seed),
        fitted_parameters=params,
        per_trial_records=tuple(records),
    )


@dataclass(frozen=True)
class FGEvaluator:
    """F(xi, eta) = zeta(Y_{xi,eta}) and G(xi, eta) = zeta(Z_{xi,eta}); the two
    structure functions every fit below probes."""

    quasi_state: QuasiState
    space: SymplecticSpace

    def F(self, xi: np.ndarray, eta: np.ndarray) -> float:
        return self.quasi_state(y_element(self.space, xi, eta))

    def G(self, xi: np.ndarray, eta: np.ndarray) -> float:
        return self.quasi_state(z_element(self.space, xi, eta))


def check_quasi_linearity(
    zeta: QuasiState,
    space: SymplecticSpace,
    strategy: CommutingStrategy | str,
    trials: int,
    tol: float,
    seed: int,
    bar_multiplier: float = 3.0,
    base: Optional[SpElement] = None,
) -> VerificationReport:
    """Draw certified commuting pairs and random scalars in [-2, 2]; the
    defect |zeta(c1 A + c2 B) - c1 zeta(A) - c2 zeta(B)| must stay within
    bar_multiplier times the summed per-evaluation error bars, plus tol.

    `base` pins the odd-polynomial strategy to one element (useful for states
    supported on a particular abelian subspace)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = rng_from(seed)
    records = []
    max_excess = -np.inf
    for t in range(trials):
        pair = commuting_pair(space, strategy, rng, base=base)
        c1, c2 = rng.uniform(-2.0, 2.0, 2)
        combo = c1 * pair.a + c2 * pair.b
        va, ea = zeta.with_error(pair.a)
        vb, eb = zeta.with_error(pair.b)
        vc, ec = zeta.with_error(combo)
        defect = abs(vc - c1 * va - c2 * vb)
        allowance = bar_multiplier * (abs(c1) * ea + abs(c2) * eb + ec)
        excess = defect - allowance
        max_excess = max(max_excess, excess)
        records.append(
            {
                "trial": t,
                "defect": defect,
                "allowance": allowance,
                "c1": c1,
                "c2": c2,
                "commutator_norm": pair.commutator_norm,
            }
        )
    return _report(
        f"quasi-linearity[{zeta.provenance}/{CommutingStrategy(strategy).value}]",
        trials,
        max_excess,
        tol,
        seed,
        {"bar_multiplier": bar_multiplier, "n": space.n},
        records,
    )


def check_ad_invariance(
    zeta: QuasiState,
    space: SymplecticSpace,
    trials: int,
    tol: float,
    seed: int,
    bar_multiplier: float = 2.0,
) -> VerificationReport:
    """|zeta(g A g^{-1}) - zeta(A)| over random symplectic g and random A,
    within bar_multiplier summed error bars plus tol."""
    rng = rng_from(seed)
    records = []
    max_excess = -np.inf
    for t in range(trials):
        A = random_sp_element(space, 1.0, rng)
        g = random_symplectic_group_element(space, 0.6, rng)
        conj = project_skew_symplectic(space, g @ A.mat @ omega_adjoint(g))
        va, ea = zeta.with_error(A)
        vc, ec = zeta.with_error(conj)
        defect = abs(vc - va)
        allowance = bar_multiplier * (ea + ec)
        max_excess = max(max_excess, defect - allowance)
        records.append({"trial": t, "defect": defect, "allowance": allowance})
    return _report(
        f"ad-invariance[{zeta.provenance}]",
        trials,
        max_excess,
        tol,
        seed,
        {"bar_multiplier": bar_multiplier, "n": space.n},
        records,
    )


def sp_basis(space: SymplecticSpace) -> list[np.ndarray]:
    """Basis of the skew-symplectic algebra: Omega^{-1} S over a symmetric
    basis S (dimension n(2n+1))."""
    d = space.dim
    O = space.omega_matrix
    Oinv = -O  # standard form: Omega^{-1} = -Omega
    out = []
    for i in range(d):
        for j in range(i, d):
            S = np.zeros((d, d))
            S[i, j] = 1.0
            S[j, i] = 1.0
            out.append(Oinv @ S)
    return out


def unitary_subalgebra_basis(
    space: SymplecticSpace, J: CompatibleComplexStructure
) -> list[SpElement]:
    """Basis of {A in the algebra : AJ = JA}, found by solving the linear
    commutation constraints on an algebra basis; dimension must be n^2."""
    base = sp_basis(space)
    rows = np.stack([(A @ J.mat - J.mat @ A).reshape(-1) for A in base])
    # coefficient vectors x with sum_k x_k rows[k] = 0, i.e. null(rows.T)
    _, s, Vt = np.linalg.svd(rows.T, full_matrices=True)
    tol = max(rows.shape) * np.finfo(float).eps * (s[0] if len(s) else 1.0)
    null_dim = rows.shape[0] - int(np.sum(s > tol))
    if null_dim != space.n**2:
        raise RuntimeError(
            f"unitary subalgebra dimension {null_dim}, expected {space.n ** 2}"
        )
    coeffs = Vt[-null_dim:]
    out = []
    for c in coeffs:
        M = sum(ck * Ak for ck, Ak in zip(c, base))
        M = M / np.linalg.norm(M)
        out.append(SpElement(space, M))
    return out


def fit_gleason_on_unitary(
    zeta: QuasiState,
    J: CompatibleComplexStructure,
    tol: float,
    seed: int = 0,
    n_test: int = 40,
    oracle: Optional[Callable[[SpElement], float]] = None,
) -> VerificationReport:
    """Fit zeta restricted to the unitary subalgebra by a trace form tr(H .)
    and report the held-out residual (RMS over fresh random elements).

    An optional oracle is compared on the same test set (max deviation goes to
    fitted_parameters['oracle_max_dev'])."""
    space = J.space
    if space.n < 3:
        raise ValueError("hypothesis n >= 3 not met")
    if not zeta.continuous:
        raise ValueError("the trace-form fit applies to continuous-flagged states")
    basis = unitary_subalgebra_basis(space, J)
    y = np.array([zeta(A) for A in basis])
    design = np.stack([A.mat.T.reshape(-1) for A in basis])
    h, *_ = np.linalg.lstsq(design, y, rcond=None)
    H = h.reshape(space.dim, space.dim)

    rng = rng_from(seed)
    errs = []
    oracle_dev = 0.0
    records = []
    for t in range(n_test):
        coef = rng.standard_normal(len(basis))
        A = SpElement(space, sum(c * b.mat for c, b in zip(coef, basis)))
        actual = zeta(A)
        pred = float(np.trace(H @ A.mat))
        errs.append(actual - pred)
        rec = {"trial": t, "actual": actual, "predicted": pred}
        if oracle is not None:
            dev = abs(actual - oracle(A))
            oracle_dev = max(oracle_dev, dev)
            rec["oracle_dev"] = dev
        records.append(rec)
    residual = float(np.sqrt(np.mean(np.square(errs))))
    params = {"H": H, "basis_dimension": len(basis)}
    if oracle is not None:
        params["oracle_max_dev"] = oracle_dev
    return _report(
        f"gleason-fit[{zeta.provenance}]", n_test, residual, tol, seed, params, records
    )


@dataclass(frozen=True)
class GlEmbedding:
    """Two transversal Lagrangian frames and the algebra injection M ->
    g diag(M, -M^T) g^{-1}, which preserves both frames and restricts to M on
    the first one."""

    space: SymplecticSpace
    L1: np.ndarray  # 2n x n frame columns
    L2: np.ndarray
    g: np.ndarray = field(repr=False)
    bracket_defect: float = 0.0

    def inject(self, M: np.ndarray) -> SpElement:
        n = self.space.n
        M = np.asarray(M, dtype=float)
        if M.shape != (n, n):
            raise ValueError(f"expected an {n} x {n} matrix")
        block = np.zeros((2 * n, 2 * n))
        block[:n, :n] = M
        block[n:, n:] = -M.T
        mat = self.g @ block @ omega_adjoint(self.g)
        return project_skew_symplectic(self.space, mat)

    def rank_one(self, xi: np.ndarray, eta: np.ndarray) -> SpElement:
        """Injection of the rank-one map x -> (x, eta) xi."""
        return self.inject(np.outer(xi, eta))


def embed_gl(space: SymplecticSpace, seed: int) -> GlEmbedding:
    """Random transversal Lagrangian pair (symplectic images of the spans of
    the e- and f-basis) with the induced matrix-algebra injection; the bracket
    is checked to be preserved on random pairs."""
    rng = rng_from(seed)
    n = space.n
    g = random_symplectic_group_element(space, 0.5, rng)
    if np.linalg.cond(g) > 1e6:
        raise RuntimeError("transversality failure; re-draw with another seed")
    emb = GlEmbedding(space=space, L1=g[:, :n].copy(), L2=g[:, n:].copy(), g=g)
    defect = 0.0
    for _ in range(20):
        M1 = rng.standard_normal((n, n))
        M2 = rng.standard_normal((n, n))
        lhs = emb.inject(M1 @ M2 - M2 @ M1).mat
        a, b = emb.inject(M1).mat, emb.inject(M2).mat
        defect = max(defect, float(np.abs(lhs - (a @ b - b @ a)).max()))
    if defect > 1e-9 * (1.0 + np.linalg.cond(g) ** 2):
        raise RuntimeError(f"bracket preservation defect {defect:.3e}")
    return GlEmbedding(space=space, L1=emb.L1, L2=emb.L2, g=g, bracket_defect=defect)


def fit_rank_one_trace(
    zeta: QuasiState,
    embedding: GlEmbedding,
    trials: int,
    tol: float,
    seed: int = 0,
) -> VerificationReport:
    """Fit zeta on embedded rank-one elements by (N xi, eta) and report the
    held-out RMS residual.

    Sampling rejects nearly orthogonal (xi, eta): those rank-one maps are
    nilpotent and sit on the semi-simplicity boundary of the evaluators.
    """
    space = embedding.space
    n = space.n
    if n < 3:
        raise ValueError("hypothesis n >= 3 not met")
    if not zeta.continuous:
        raise ValueError("the rank-one fit applies to continuous-flagged states")
    rng = rng_from(seed)
    m = max(trials, SAMPLES_PER_UNKNOWN * n * n)
    xs, ys, vals = [], [], []
    while len(vals) < m:
        xi = rng.standard_normal(n)
        eta = rng.standard_normal(n)
        if abs(xi @ eta) < CONE_MARGIN * np.linalg.norm(xi) * np.linalg.norm(eta):
            continue
        xs.append(xi)
        ys.append(eta)
        vals.append(zeta(embedding.rank_one(xi, eta)))
    design = np.stack([np.outer(e, x).reshape(-1) for x, e in zip(xs, ys)])
    vals = np.asarray(vals)
    cut = int(TRAIN_FRACTION * m)
    sol, *_ = np.linalg.lstsq(design[:cut], vals[:cut], rcond=None)
    held = design[cut:] @ sol - vals[cut:]
    residual = float(np.sqrt(np.mean(np.square(held))))
    N = sol.reshape(n, n)
    return _report(
        f"rank-one-trace[{zeta.provenance}]",
        m,
        residual,
        tol,
        seed,
        {"N": N, "train": cut, "holdout": m - cut},
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
    phi: Callable[[np.ndarray], float],
    space: SymplecticSpace,
    trials: int,
    tol: float,
    seed: int = 0,
) -> VerificationReport:
    """Additivity of phi along omega-orthogonal pairs with random scalars."""
    if space.n < 2:
        raise ValueError("need n >= 2 for non-trivial isotropic pairs")
    rng = rng_from(seed)
    records = []
    max_defect = 0.0
    for t in range(trials):
        eta1, eta2 = isotropic_pair(space, rng)
        c1, c2 = rng.uniform(-2.0, 2.0, 2)
        defect = abs(phi(c1 * eta1 + c2 * eta2) - c1 * phi(eta1) - c2 * phi(eta2))
        max_defect = max(max_defect, defect)
        records.append({"trial": t, "defect": defect})
    return _report("isotropic-linearity", trials, max_defect, tol, seed, None, records)


def _cone_sample(space, rng):
    while True:
        xi = rng.standard_normal(space.dim)
        eta = rng.standard_normal(space.dim)
        if abs(omega(space, xi, eta)) >= CONE_MARGIN * np.linalg.norm(xi) * np.linalg.norm(eta):
            return xi, eta


def fit_main_theorem(
    zeta: QuasiState,
    space: SymplecticSpace,
    tol: float,
    seed: int = 0,
    stage3_samples: int = 40,
) -> VerificationReport:
    """Three-stage decomposition fit.

    Stage 1 fits F(xi + i eta) = omega(C xi, xi) + omega(C eta, eta) +
    c |omega(xi, eta)| over C in the algebra and scalar c, on cone-restricted
    samples (70/30 train/held-out).  Stage 2 verifies G(xi, eta) =
    2 omega(C xi, eta) on fresh pairs.  Stage 3 verifies, on fresh random
    semi-simple elements evaluated through their commuting Y/Z terms, that
    zeta(B) = tr(-C B) + (-c) zeta_M(B); the fitted c is minus the coefficient
    of the Maslov state in zeta = tr(N .) + c0 zeta_M (both are reported).
    """
    if not zeta.continuous:
        raise ValueError("the decomposition fit applies to continuous-flagged states")
    caveat = None
    if space.n < 3:
        caveat = "n < 3: outside the rigidity range, proceeding anyway"
    rng = rng_from(seed)
    fg = FGEvaluator(zeta, space)
    base = sp_basis(space)
    unknowns = len(base) + 1
    m = SAMPLES_PER_UNKNOWN * unknowns
    O = space.omega_matrix

    rows = np.empty((m, unknowns))
    vals = np.empty(m)
    for i in range(m):
        xi, eta = _cone_sample(space, rng)
        for j, A in enumerate(base):
            rows[i, j] = (A @ xi) @ O @ xi + (A @ eta) @ O @ eta
        rows[i, -1] = abs(omega(space, xi, eta))
        vals[i] = fg.F(xi, eta)
    cut = int(TRAIN_FRACTION * m)
    sol, *_ = np.linalg.lstsq(rows[:cut], vals[:cut], rcond=None)
    stage1 = float(np.sqrt(np.mean(np.square(rows[cut:] @ sol - vals[cut:]))))
    C = sum(ck * Ak for ck, Ak in zip(sol[:-1], base))
    c_fit = float(sol[-1])

    m2 = max(40, 2 * space.dim)
    errs2 = []
    for _ in range(m2):
        xi, eta = rng.standard_normal((2, space.dim))
        errs2.append(fg.G(xi, eta) - 2.0 * float((C @ xi) @ O @ eta))
    stage2 = float(np.sqrt(np.mean(np.square(errs2))))

    errs3 = []
    yz_dev = 0.0
    for _ in range(stage3_samples):
        B, _ = random_semisimple(space, rng)
        via_terms = sum(coef * zeta(realize(d)) for coef, d in yz_decomposition(B))
        direct = zeta(B)
        yz_dev = max(yz_dev, abs(direct - via_terms))
        pred = float(np.trace(-C @ B.mat)) - c_fit * maslov_spectral(B)
        errs3.append(via_terms - pred)
    stage3 = float(np.sqrt(np.mean(np.square(errs3))))

    worst = max(stage1, stage2, stage3)
    params = {
        "C": C,
        "c_fit": c_fit,
        "maslov_coefficient": -c_fit,
        "stage1_residual": stage1,
        "stage2_residual": stage2,
        "stage3_residual": stage3,
        "yz_consistency_dev": yz_dev,
    }
    if caveat:
        params["caveat"] = caveat
    return _report(
        f"main-theorem[{zeta.provenance}]",
        m + m2 + stage3_samples,
        worst,
        tol,
        seed,
        params,
    )


def frobenius_pseudo_state(space: SymplecticSpace) -> QuasiState:
    """Deliberately broken 'quasi-state' zeta(A) = |A|_F: the negative control.

    It fails quasi-linearity for every n: through mixed signs at n = 1 (norms
    are even, zeta(-A) != -zeta(A)) and through genuinely non-proportional
    commuting pairs for n >= 2.
    """
    return QuasiState(
        evaluate=lambda x: float(np.linalg.norm(x.mat)),
        eval_tolerance=1e-12,
        continuous=True,
        provenance="negative-control",
    )


def maslov_imtrace_oracle(space: SymplecticSpace) -> Callable[[SpElement], float]:
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
