"""The quasi-state zoo: linear trace forms, the Maslov quasi-state, odd
homogeneous states on sp(2, R), and the discontinuous family built on a
nilpotent single-block element."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .maslov import MaslovLimitConfig, maslov_evaluate
from .symplectic import SpElement, SymplecticSpace, frobenius_norms, rng_from

MEMBERSHIP_RTOL = 1e-8    # relative residual for odd-power subspace membership
GRAM_COND_MAX = 1e12
ODDNESS_SAMPLES = 32      # seeded antipodal pairs checked by dim2_homogeneous_qs


@dataclass(frozen=True)
class QuasiState:
    """Evaluator zeta with metadata.

    evaluate_with_error returns (value, error bar), the bar the checkers spend
    as their allowance; evaluate returns the value alone.  evaluate_batch,
    if given, returns the (value, error bar) pairs of a list at once, given
    the memo of `batch`.
    """

    evaluate: Callable[[SpElement], float]
    continuous: bool
    provenance: str
    evaluate_with_error: Callable[[SpElement], tuple[float, float]]
    source: object = field(default=None, repr=False)
    evaluate_batch: Callable[[list[SpElement], dict], list] | None = field(default=None, repr=False)

    @classmethod
    def from_batch(cls, batch, continuous: bool, provenance: str, source=None) -> QuasiState:
        """The state of an evaluate_batch, which also takes single elements as lists of one."""
        return cls(lambda x: batch([x])[0][0], continuous, provenance,
                   lambda x: batch([x])[0], source, batch)

    def __call__(self, x: SpElement) -> float:
        return self.evaluate(x)

    def batch(self, xs: list[SpElement], memo: dict | None = None) -> list[tuple[float, float]]:
        """(value, error bar) of each element, one at a time if no evaluate_batch.
        `memo` keeps results by (state, list) identity: a state evaluates a list once."""
        memo = {} if memo is None else memo
        key = (id(self), id(xs))
        if key not in memo:  # the entry holds self and xs, so their ids stay theirs
            memo[key] = self, xs, (self.evaluate_batch(xs, memo) if self.evaluate_batch
                                   else [self.evaluate_with_error(x) for x in xs])
        return memo[key][2]


def linear_qs(N: np.ndarray) -> QuasiState:
    """zeta(A) = tr(N A): the genuinely linear members of the zoo."""
    N = np.asarray(N, dtype=float)
    if N.ndim != 2 or N.shape[0] != N.shape[1]:
        raise ValueError("N must be a square matrix")

    def batch(xs: list[SpElement], memo: dict | None = None) -> list[tuple[float, float]]:
        A = np.array([x.mat for x in xs]).reshape(len(xs), *N.shape)
        bars = [1e-14 * (1.0 + r) for r in frobenius_norms(A)]
        return list(zip(np.trace(N @ A, axis1=1, axis2=2).tolist(), bars))

    return QuasiState.from_batch(batch, True, "linear", N)


def maslov_qs(cfg: MaslovLimitConfig = MaslovLimitConfig()) -> QuasiState:
    """The Maslov quasi-state through the `auto` dispatch of `maslov_evaluate`, one
    stack per batch call: semi-simple inputs spectrally, the rest by the path evaluator."""

    def batch(xs: list[SpElement], memo: dict | None = None) -> list[tuple[float, float]]:
        return [r[:2] for r in maslov_evaluate(xs, cfg)]

    return QuasiState.from_batch(batch, True, "maslov", cfg)


def dim2_homogeneous_qs(
    f: Callable[[np.ndarray], float],
    space: SymplecticSpace,
) -> QuasiState:
    """Degree-1 homogeneous extension zeta(A) = |A| f(A/|A|) on sp(2, R).

    Any odd function on the unit sphere works because commuting elements of
    sp(2, R) are proportional.  Oddness is checked on ODDNESS_SAMPLES seeded
    antipodal pairs (Frobenius norm used throughout).
    """
    if space.n != 1:
        raise ValueError("the homogeneous family lives on sp(2, R) only")
    rng = rng_from(0)
    for _ in range(ODDNESS_SAMPLES):
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

    return QuasiState.from_batch(lambda xs, memo=None: [(ev(x), 1e-10) for x in xs], True,
                                 "dim2-homogeneous", f)


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
    el = SpElement(space, A)
    _single_block_odd_powers(el)
    return el


def _single_block_odd_powers(A: SpElement) -> list[np.ndarray]:
    """A, A^3, ..., A^{2n-1}, once A is checked to be one nilpotent Jordan
    block: A^{2n} = 0 and A^{2n-1} has rank one."""
    n = A.space.n
    P = np.eye(A.space.dim)
    odd = []
    for k in range(1, 2 * n + 1):
        P = P @ A.mat
        if k % 2:
            odd.append(P)
    if np.abs(P).max() > 1e-8 * max(1.0, np.linalg.norm(A.mat) ** (2 * n)):
        raise ValueError("A^(2n) != 0: not a nilpotent single block")
    sv = np.linalg.svd(odd[-1], compute_uv=False)
    if not (sv[0] > 1e-10 and (len(sv) < 2 or sv[1] <= 1e-8 * sv[0])):
        raise ValueError("A^(2n-1) is not rank one: not a single Jordan block")
    return odd


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
    powers: np.ndarray = field(repr=False)  # (n, d*d) stacked vec(A^{2i-1})
    bound_constant: float

    def evaluate(self, x: SpElement) -> float:
        v = x.mat.reshape(-1)
        scale = np.linalg.norm(v)
        if scale == 0.0:
            return 0.0
        coef, *_ = np.linalg.lstsq(self.powers.T, v, rcond=None)
        if np.linalg.norm(self.powers.T @ coef - v) / scale > MEMBERSHIP_RTOL:
            return 0.0
        return float(self.c * coef[0])


def discontinuous_qs(A: SpElement, c: float) -> QuasiState:
    """Quasi-state supported on the odd powers of a nilpotent single-block A.

    The power basis A, A^3, ..., A^{2n-1} must be well-conditioned (Gram
    condition below 1e12), otherwise the element is rejected.
    """
    powers = np.stack([M.reshape(-1) for M in _single_block_odd_powers(A)])
    gram = powers @ powers.T
    cond = np.linalg.cond(gram)
    if cond > GRAM_COND_MAX:
        raise ValueError(f"odd-power Gram condition {cond:.3e} exceeds {GRAM_COND_MAX:.1e}")
    # alpha reads the first row of the pseudo-inverse
    bound = abs(c) * float(np.linalg.norm(np.linalg.pinv(powers.T)[0]))

    dq = DiscontinuousQS(A=A, c=float(c), powers=powers, bound_constant=bound)

    def batch(xs: list[SpElement], memo: dict | None = None) -> list[tuple[float, float]]:
        bars = [1e-12 * (1.0 + r) for r in frobenius_norms([x.mat for x in xs])]
        return list(zip([dq.evaluate(x) for x in xs], bars))

    return QuasiState.from_batch(batch, False, "discontinuous", dq)


def linear_combination(parts: list[tuple[float, QuasiState]]) -> QuasiState:
    """c_1 zeta_1 + ... + c_k zeta_k as one composite quasi-state, which sums
    the batch calls of its parts (handing them its memo)."""
    if not parts:
        raise ValueError("need at least one component")

    def batch(xs: list[SpElement], memo: dict | None = None) -> list[tuple[float, float]]:
        sums = [(0.0, 0.0)] * len(xs)
        for coef, qs in parts:
            vals = qs.batch(xs, memo)
            sums = [(t + coef * v, e + abs(coef) * b) for (t, e), (v, b) in zip(sums, vals)]
        return sums

    return QuasiState.from_batch(batch, all(q.continuous for _, q in parts), "composite",
                                 tuple(parts))
