"""The quasi-state zoo: linear trace forms, the Maslov quasi-state, odd
homogeneous states on sp(2, R), and the discontinuous family built on a
nilpotent single-block element."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .maslov import METHODS, MaslovLimitConfig, maslov_evaluate
from .symplectic import SpElement, SymplecticSpace, rng_from, skew_defect

MEMBERSHIP_RTOL = 1e-8    # relative residual for odd-power subspace membership
GRAM_COND_MAX = 1e12


@dataclass(frozen=True)
class QuasiState:
    """Evaluator zeta with metadata.

    evaluate_with_error returns (value, error bound) per call; eval_tolerance
    is the constructor-level guarantee used when no per-call bound exists.
    """

    evaluate: Callable[[SpElement], float]
    eval_tolerance: float
    continuous: bool
    provenance: str
    evaluate_with_error: Optional[Callable[[SpElement], tuple[float, float]]] = None
    source: object = field(default=None, repr=False)

    def __call__(self, x: SpElement) -> float:
        return self.evaluate(x)

    def with_error(self, x: SpElement) -> tuple[float, float]:
        if self.evaluate_with_error is not None:
            return self.evaluate_with_error(x)
        return self.evaluate(x), self.eval_tolerance


def linear_qs(N: np.ndarray) -> QuasiState:
    """zeta(A) = tr(N A): the genuinely linear members of the zoo."""
    N = np.asarray(N, dtype=float)
    if N.ndim != 2 or N.shape[0] != N.shape[1]:
        raise ValueError("N must be a square matrix")

    def ev(x: SpElement) -> float:
        return float(np.trace(N @ x.mat))

    return QuasiState(
        evaluate=ev,
        eval_tolerance=1e-12,
        continuous=True,
        provenance="linear",
        evaluate_with_error=lambda x: (ev(x), 1e-14 * (1.0 + x.norm())),
        source=N,
    )


def maslov_qs(cfg: MaslovLimitConfig | None = None, method: str = "auto") -> QuasiState:
    """The Maslov quasi-state.

    method 'auto' evaluates semi-simple inputs spectrally (cheap, exact to
    classification tolerance) and falls back to the asymptotic path evaluator
    otherwise; 'limit' and 'spectral' force one route.
    """
    cfg = cfg or MaslovLimitConfig()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")

    def ev_err(x: SpElement) -> tuple[float, float]:
        return maslov_evaluate(x, cfg, method)[:2]

    # constructor-level bound: bounded-defect convergence at the configured
    # horizon, desk scale (covers n <= 8)
    tol = 16.0 * np.pi / cfg.t_max

    return QuasiState(
        evaluate=lambda x: ev_err(x)[0],
        eval_tolerance=tol,
        continuous=True,
        provenance="maslov",
        evaluate_with_error=ev_err,
        source=cfg,
    )


def dim2_homogeneous_qs(
    f: Callable[[np.ndarray], float],
    space: SymplecticSpace,
    oddness_samples: int = 32,
    seed: int = 0,
) -> QuasiState:
    """Degree-1 homogeneous extension zeta(A) = |A| f(A/|A|) on sp(2, R).

    Any odd function on the unit sphere works because commuting elements of
    sp(2, R) are proportional.  Oddness is checked on sampled antipodal pairs
    (Frobenius norm used throughout).
    """
    if space.n != 1:
        raise ValueError("the homogeneous family lives on sp(2, R) only")
    rng = rng_from(seed)
    for _ in range(oddness_samples):
        a, b, c = rng.standard_normal(3)
        A = np.array([[a, b], [c, -a]])
        U = A / np.linalg.norm(A)
        if abs(f(U) + f(-U)) > 1e-9 * (1.0 + abs(f(U))):
            raise ValueError(f"f is not odd at a sampled pair (defect {f(U) + f(-U):.3e})")

    def ev(x: SpElement) -> float:
        nrm = np.linalg.norm(x.mat)
        if nrm == 0.0:
            return 0.0
        return float(nrm * f(x.mat / nrm))

    return QuasiState(
        evaluate=ev,
        eval_tolerance=1e-10,
        continuous=True,
        provenance="dim2-homogeneous",
        source=f,
    )


def nilpotent_jordan_sp(space: SymplecticSpace) -> SpElement:
    """A skew-symplectic matrix whose Jordan form is one 2n x 2n nilpotent
    block: a single chain threading f_1 -> -f_2 -> ... -> +-e_n -> ... -> e_1.

    Both A^{2n} = 0 and rank A^{2n-1} = 1 are verified at construction.
    """
    n = space.n
    d = 2 * n
    A = np.zeros((d, d))
    for j in range(1, n):       # e_{j+1} -> e_j
        A[j - 1, j] = 1.0
    for j in range(n - 1):      # f_j -> -f_{j+1}
        A[n + j + 1, n + j] = -1.0
    A[n - 1, d - 1] = (-1.0) ** (n + 1)  # f_n -> +-e_n closes the chain
    if skew_defect(A) > 1e-12:
        raise AssertionError("nilpotent constructor left the algebra")
    el = SpElement(space, A)
    P = np.eye(d)
    for k in range(1, d + 1):
        P = P @ A
        rank = int(np.sum(np.linalg.svd(P, compute_uv=False) > 1e-10))
        if rank != d - k:
            raise AssertionError(f"rank(A^{k}) = {rank}, expected {d - k}")
    return el


@dataclass(frozen=True)
class DiscontinuousQS:
    """Data of one discontinuous quasi-state: a nilpotent single-block element
    A, the abelian subspace L spanned by its odd powers, and the functional
    that reads off the leading coefficient.

    evaluate(x) = c * a_1 when x = a_1 A + a_3 A^3 + ... (least-squares
    membership at MEMBERSHIP_RTOL), else 0.  alpha vanishes on the span of the
    higher odd powers, and |evaluate(x)| <= bound_constant * |x|_F everywhere.
    """

    A: SpElement
    c: float
    powers: np.ndarray = field(repr=False)       # (n, d*d) stacked vec(A^{2i-1})
    extract_row: np.ndarray = field(repr=False)  # first row of the pseudo-inverse
    bound_constant: float

    def coefficients(self, x: SpElement) -> tuple[np.ndarray, float]:
        """Least-squares odd-power coefficients and the relative residual."""
        v = x.mat.reshape(-1)
        coef, *_ = np.linalg.lstsq(self.powers.T, v, rcond=None)
        resid = np.linalg.norm(self.powers.T @ coef - v)
        scale = np.linalg.norm(v)
        return coef, float(resid / scale) if scale > 0 else 0.0

    def evaluate(self, x: SpElement) -> float:
        scale = np.linalg.norm(x.mat)
        if scale == 0.0:
            return 0.0
        coef, rel = self.coefficients(x)
        if rel > MEMBERSHIP_RTOL:
            return 0.0
        return float(self.c * coef[0])


def discontinuous_qs(A: SpElement, c: float) -> QuasiState:
    """Quasi-state supported on the odd powers of a nilpotent single-block A.

    The power basis A, A^3, ..., A^{2n-1} must be well-conditioned (Gram
    condition below 1e12), otherwise the element is rejected.
    """
    space = A.space
    n = space.n
    d = space.dim
    # verify the Jordan-block profile of the provided A
    P = np.eye(d)
    mats = []
    for k in range(1, d + 1):
        P = P @ A.mat
        if k % 2 == 1 and k <= 2 * n - 1:
            mats.append(P.copy())
    if np.abs(P).max() > 1e-8 * max(1.0, np.linalg.norm(A.mat) ** (2 * n)):
        raise ValueError("A^(2n) != 0: not a nilpotent single block")
    sv = np.linalg.svd(mats[-1], compute_uv=False)
    if not (sv[0] > 1e-10 and (len(sv) < 2 or sv[1] <= 1e-8 * sv[0])):
        raise ValueError("A^(2n-1) is not rank one: not a single Jordan block")

    powers = np.stack([M.reshape(-1) for M in mats])
    gram = powers @ powers.T
    cond = np.linalg.cond(gram)
    if cond > GRAM_COND_MAX:
        raise ValueError(f"odd-power Gram condition {cond:.3e} exceeds {GRAM_COND_MAX:.1e}")
    pinv = np.linalg.pinv(powers.T)
    extract_row = pinv[0]
    bound = abs(c) * float(np.linalg.norm(extract_row))

    dq = DiscontinuousQS(A=A, c=float(c), powers=powers,
                         extract_row=extract_row, bound_constant=bound)
    return QuasiState(
        evaluate=dq.evaluate,
        eval_tolerance=1e-9,
        continuous=False,
        provenance="discontinuous",
        evaluate_with_error=lambda x: (dq.evaluate(x), 1e-12 * (1.0 + x.norm())),
        source=dq,
    )


def linear_combination(parts: list[tuple[float, QuasiState]]) -> QuasiState:
    """c_1 zeta_1 + ... + c_k zeta_k as one composite quasi-state."""
    if not parts:
        raise ValueError("need at least one component")

    def ev_err(x: SpElement) -> tuple[float, float]:
        total, err = 0.0, 0.0
        for coef, qs in parts:
            v, e = qs.with_error(x)
            total += coef * v
            err += abs(coef) * e
        return total, err

    return QuasiState(
        evaluate=lambda x: ev_err(x)[0],
        eval_tolerance=float(sum(abs(c) * q.eval_tolerance for c, q in parts)),
        continuous=all(q.continuous for _, q in parts),
        provenance="composite",
        evaluate_with_error=ev_err,
        source=tuple(parts),
    )
