"""Normal form of semi-simple skew-symplectic matrices: block classification
in a symplectic frame, oriented imaginary-pair parameters, and the pairwise
commuting Y/Z representation."""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .symplectic import (
    RankOneKind,
    SpElement,
    SymplecticSpace,
    omega_adjoint,
    project_skew_symplectic,
    random_symplectic_group_element,
    rank_one_matrix,
    rng_from,
)

AXIS_BAND = 1e-8          # |Re| or |Im| below band*(1+|lambda|) counts as on-axis
EIGVEC_COND_MAX = 1e8     # semi-simplicity proxy
CLUSTER_TOL = 1e-7        # eigenvalues closer than this (relative) share a block
FRAME_SYMPLECTIC_TOL = 1e-8
ROUNDTRIP_TOL = 1e-6
COMMUTE_TOL = 1e-8
SEMISIMPLE_PARAM_RANGE = (0.3, 2.0)  # block parameters drawn by random_semisimple
SEMISIMPLE_FRAME_SCALE = 0.4         # scale of its random symplectic frame
BLOCK_KINDS = ("real", "imag", "quad")  # normal-form block kinds, in block order


class NonSemisimpleError(RuntimeError):
    """Decomposition requested for an input without a clean eigenbasis."""


class ClassificationError(RuntimeError):
    """The real or quadruple eigenvalue clusters do not pair up."""


class NormalizationError(RuntimeError):
    """A candidate invariant plane could not be symplectically normalized."""


@dataclass(frozen=True)
class _EigGroup:
    kind: str               # "zero" | "real" | "imag" | "quad"
    indices: tuple          # eigenvalue indices with Im >= 0 representative(s)
    partner_indices: tuple  # paired indices (real: -a side; quad: +a+ib side)
    a: float
    b: float


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue classification of a skew-symplectic matrix.

    real pairs carry a > 0; imaginary pairs the eigenvalue magnitude b > 0
    (orientation data lives in the decomposition, not here); quadruples carry
    a, b > 0; zeros are counted.  semi-simplicity is the eigenvector-condition
    proxy."""

    real_pairs: tuple          # (a, multiplicity)
    imag_pairs: tuple          # (b, multiplicity)
    quadruples: tuple          # (a, b, multiplicity)
    zero_multiplicity: int
    semi_simple: bool
    eigvec_cond: float
    _groups: tuple = field(repr=False, default=())


def eigvec_condition(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(condition number, semi-simple flag) of each eigenvector matrix in the
    stack V: the ratio of its extreme singular values (inf when singular),
    and whether that is at most EIGVEC_COND_MAX."""
    sv = np.linalg.svd(V, compute_uv=False)
    big, small = sv[..., 0], sv[..., -1]
    cond = np.divide(big, small, out=np.full(small.shape, np.inf), where=small > 0)
    return cond, cond <= EIGVEC_COND_MAX


class _Ranked(NamedTuple):
    """Each kind k's eigenvalues in each row by ascending (real, imag) key, ties
    by index: order[k, row] and keys[k, row] hold their indices and keys (then
    _PAST), past[k, row] marks the positions after them, and start[k, row, j]
    whether position j starts a single-linkage cluster (True from there on)."""

    order: np.ndarray
    keys: np.ndarray
    past: np.ndarray
    start: np.ndarray


def _rank(keys: np.ndarray, member: np.ndarray, ctol: np.ndarray) -> _Ranked:
    """Rank the member keys of each (kind, row); clusters break at gaps > ctol."""
    keys = np.where(member, keys, _PAST)
    order = keys.argsort(axis=-1, kind="stable")
    keys.sort(axis=-1)
    past = keys == _PAST
    start = np.empty(keys.shape[:-1] + (keys.shape[-1] + 1,), dtype=bool)
    start[..., :: keys.shape[-1]] = True  # positions 0 and d
    np.greater(abs(keys[..., 1:] - keys[..., :-1]), ctol, out=start[..., 1:-1])
    start[..., 1:-1] |= past[..., 1:]
    return _Ranked(order, keys, past, start)


def _check_pairing(r: _Ranked, ctol: np.ndarray, semi_simple: np.ndarray) -> None:
    """Raise ClassificationError at the first semi-simple row whose clusters of kind
    1 (4) do not pair up in order with kind 2 (5): equal sizes, keys within 10 ctol."""
    a, b = slice(_REAL_POS, None, 3), slice(_REAL_NEG, None, 3)  # kinds 1, 4 and 2, 5
    unmatched = (r.past[a] != r.past[b]) | (r.start[a] != r.start[b])[..., :-1]
    fault = unmatched | (abs(r.keys[a] - r.keys[b]) > 10 * ctol)
    bad = semi_simple & fault.any(axis=(0, 2))
    if bad.any():
        row = bad.argmax()
        k, what = (0, "real-pair") if fault[0, row].any() else (1, "quadruple")
        raise ClassificationError(f"unmatched {what} eigenvalue clusters" if unmatched[k, row].any()
                                  else f"{what} eigenvalues do not pair up")


@dataclass(eq=False)
class SpectrumStack(Sequence):
    """A stack's classification; item i is element i's SpectrumReport."""

    elements: tuple  # the classified SpElements
    lam: np.ndarray
    V: np.ndarray
    eigvec_cond: np.ndarray
    semi_simple: np.ndarray
    ranked: _Ranked

    def __len__(self) -> int:
        return len(self.lam)

    def __getitem__(self, i: int) -> SpectrumReport:
        r, cond = self.ranked, float(self.eigvec_cond[i])
        zeros = tuple(r.order[_ZERO, i][~r.past[_ZERO, i]].tolist())
        if not self.semi_simple[i]:
            return SpectrumReport((), (), (), len(zeros), False, cond)
        real, imag, quad = groups = [], [], []
        for k, kind, found in zip((_REAL_POS, _IMAG, _QUAD), BLOCK_KINDS, groups):
            c = np.count_nonzero(~r.past[k, i])
            cut = np.flatnonzero(r.start[k, i, :c]).tolist() + [c]
            for s, e in zip(cut, cut[1:]):  # a cluster, and kind k + 1 at the same positions
                p, q = r.order[k, i, s:e].tolist(), r.order[k + 1, i, s:e].tolist()
                a = 0.0 if k == _IMAG else float(np.mean(abs(self.lam[i, p].real)))
                b = 0.0 if k == _REAL_POS else float(np.mean(self.lam[i, p].imag))
                found.append(_EigGroup(kind, tuple(p), () if k == _IMAG else tuple(q), a, b))
        return SpectrumReport(
            tuple((g.a, len(g.indices)) for g in real), tuple((g.b, len(g.indices)) for g in imag),
            tuple((g.a, g.b, len(g.indices)) for g in quad), len(zeros), True, cond,
            (*real, *imag, *quad) + ((_EigGroup("zero", zeros, (), 0.0, 0.0),) if zeros else ()),
        )

    def take(self, rows: np.ndarray) -> SpectrumStack:
        """The classification of the given rows alone."""
        return SpectrumStack(tuple(self.elements[i] for i in rows.tolist()), self.lam[rows],
                             self.V[rows], self.eigvec_cond[rows], self.semi_simple[rows],
                             _Ranked(*(x[:, rows] for x in self.ranked)))


def classify_eigenstructure(Bs: list[SpElement]) -> SpectrumStack:
    """The SpectrumStack of elements of one dimension, from this module's one
    eigensolve and one sort of every kind's keys: each spectrum grouped into
    real pairs, imaginary pairs, quadruples and zeros, and semi-simplicity
    flagged via the eigenvector condition number.

    A non-semi-simple input is not grouped (its pair tuples are empty): no
    decomposition accepts it, and its clusters need not pair up.
    ClassificationError names the first semi-simple element whose real or
    quadruple clusters do not pair up."""
    if not Bs:
        return []
    lam, V = np.linalg.eig(np.array([b.mat for b in Bs]))
    cond, semi_simple = eigvec_condition(V)
    re, im = lam.real, lam.imag
    parts = np.array([re, im])
    mod = abs(lam)  # hypot(re, im), the modulus of Python's abs(complex)
    band = AXIS_BAND * (1.0 + mod)
    scale = np.maximum(1.0, mod.max(axis=-1))
    kind = _KIND_OF_BITS[(np.concatenate([abs(parts) <= band, parts > 0]) * _BITS).sum(axis=0)]
    kind[mod <= AXIS_BAND * (1.0 + scale)[:, None]] = _ZERO
    ctol = CLUSTER_TOL * (1.0 + scale)[:, None]
    ranked = _rank(re * _KEY_RE + im * _KEY_IM, kind == _KINDS, ctol)
    if (kind % 3).any():  # some real pair or quadruple: kind 1, 2, 4 or 5
        _check_pairing(ranked, ctol, semi_simple)
    return SpectrumStack(tuple(Bs), lam, V, cond, semi_simple, ranked)


# eigenvalue kinds (zero, real with Re > 0 or < 0, imaginary with Im > 0, -a+ib
# and +a+ib with a, b > 0, the rest) by bits: 8 in the real-axis band, 4 in the
# imaginary-axis band, 2 Im > 0, 1 Re > 0.  In both bands |lambda| <= 2^(1/2)
# AXIS_BAND (1 + |lambda|) < 2 AXIS_BAND, which is within the zero tolerance.
_ZERO, _REAL_POS, _REAL_NEG, _IMAG, _QUAD, _QUAD_PARTNER, _SKIP = range(7)
_KIND_OF_BITS = np.array([_SKIP, _SKIP, _QUAD, _QUAD_PARTNER, _SKIP, _SKIP, _IMAG, _IMAG]
                         + [_REAL_NEG, _REAL_POS] * 2 + [_ZERO] * 4)
_BITS = np.array([4, 8, 1, 2])[:, None, None]  # |Re|, |Im| in band; Re, Im > 0
_PAST = np.finfo(float).max  # sorts after every key, as their real parts are >= 0
_KINDS = np.arange(7)[:, None, None]
# each kind's key re * _KEY_RE + im * _KEY_IM, exactly: a of a real pair from
# either side, b of an imaginary one, a + ib of both members -a + ib, a + ib of a quadruple
_KEY_RE = np.array([0, 1, -1, 0, -1, 1, 0], dtype=complex)[:, None, None]
_KEY_IM = np.array([0, 0, 0, 1, 1j, 1j, 0])[:, None, None]


def _require_semisimple(semi_simple: np.ndarray, eigvec_cond: np.ndarray) -> None:
    """Raise NonSemisimpleError at the first element flagged not semi-simple."""
    if not semi_simple.all():
        cond = eigvec_cond[semi_simple.argmin()]
        raise NonSemisimpleError(f"eigenvector condition {cond:.3e} exceeds {EIGVEC_COND_MAX:.1e}")


def _omega_form(space: SymplecticSpace, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Matrix of omega between two column families, or two stacks of them (complex-bilinear)."""
    return X.swapaxes(-1, -2) @ (space.omega_matrix @ Y)


def _krein_pairing(space: SymplecticSpace, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues mu and eigenvectors T of the pairing (i/2) omega(w_j, conj(w_k))
    of a column family W (2n x k) or of each in a stack; NormalizationError if one is degenerate."""
    mu, T = np.linalg.eigh(0.5j * _omega_form(space, W, W.conj()))
    size = abs(mu)
    if (size <= 1e-10 * size.max(axis=-1, keepdims=True, initial=1.0)).any():
        raise NormalizationError("degenerate orientation pairing")
    return mu, T


def krein_parameters(spectra: SpectrumStack) -> list[list[float]]:
    """Each classified element's signed imaginary-pair parameters, one per
    invariant plane, by ascending |b|: each imaginary cluster's planes carry its
    mean b, signed by the eigenvalues of its _krein_pairing (one call per cluster
    size in the stack).  Raises NonSemisimpleError at the first non-semi-simple
    element."""
    if not spectra:
        return []
    _require_semisimple(spectra.semi_simple, spectra.eigvec_cond)
    order, keys, past, start = [x[_IMAG] for x in spectra.ranked]
    rows, cols = (start[:, :-1] > past).nonzero()  # each cluster's first position
    sizes = (start[:, 1:] > past).nonzero()[1] + 1 - cols  # its last position + 1 - first
    beta = np.zeros(past.shape)
    for k in sorted(set(sizes.tolist())):
        at = sizes == k
        r, c = rows[at, None], cols[at, None] + np.arange(k)
        W = spectra.V[r, :, order[r, c]].swapaxes(-1, -2)  # the clusters' eigenvectors
        mu, _ = _krein_pairing(spectra.elements[0].space, W)
        beta[r, c] = np.copysign(keys.real[r, c].sum(axis=-1, keepdims=True) / k, mu)
    out, live = [[] for _ in range(len(past))], ~past
    for i, b in zip(live.nonzero()[0].tolist(), beta[live].tolist()):
        out[i].append(b)  # the live entries lead each row
    return out


@dataclass(frozen=True)
class WilliamsonBlock:
    """One normal-form block: kind 'real' ([[ -a, 0], [0, a]] on a plane),
    'imag' ([[0, b], [-b, 0]], b signed by orientation) or 'quad' (the 4x4
    two-plane block with parameters a, b > 0).  Plane indices are 0-based."""

    kind: str
    a: float
    b: float
    planes: tuple

    @property
    def label(self) -> str:
        """The block's name and parameters, as `spqs decompose` prints them."""
        if self.kind == "real":
            return f"real_pair a={self.a!r}"
        if self.kind == "imag":
            return f"imag_pair b={self.b!r}"
        return f"quadruple a={self.a!r} b={self.b!r}"

    def matrix(self) -> np.ndarray:
        """The block on the coordinates (e_p for p in planes, then f_p)."""
        a, b = self.a, self.b
        if self.kind == "real":
            return np.array([[-a, 0.0], [0.0, a]])
        if self.kind == "imag":
            return np.array([[0.0, b], [-b, 0.0]])
        return np.array(
            [[-a, b, 0.0, 0.0], [-b, -a, 0.0, 0.0], [0.0, 0.0, a, b], [0.0, 0.0, -b, a]]
        )

    def yz_terms(self, frames) -> list[tuple[float, RankOneKind, np.ndarray, np.ndarray]]:
        """Commuting rank-one terms (coefficient, kind, e, f) summing to the
        block, given the (e, f) frame of each of its planes: a * Z for a real
        block, b * Y for an imaginary one; a quadruple on planes (k, l)
        contributes a Z on each plane and two opposite-sign Y terms on the
        sqrt(2)-normalized mixed vectors."""
        Y, Z = RankOneKind.Y, RankOneKind.Z
        if self.kind == "quad":
            (ek, fk), (el, fl) = frames
            r2 = np.sqrt(2.0)
            return [
                (self.a, Z, ek, fk),
                (self.a, Z, el, fl),
                (-self.b, Y, (el - fk) / r2, (ek + fl) / r2),
                (self.b, Y, (ek - fl) / r2, (el + fk) / r2),
            ]
        ((e, f),) = frames
        if self.kind == "real":
            return [(self.a, Z, e, f)]
        return [(self.b, Y, e, f)]


@dataclass(frozen=True)
class WilliamsonDecomposition:
    space: SymplecticSpace
    S: np.ndarray
    blocks: tuple
    roundtrip_residual: float = 0.0  # max |S D S^-1 - B| / max(1, max |B|) of B decomposed

    def assemble(self) -> np.ndarray:
        """Block-diagonal matrix D with B = S D S^{-1}."""
        n = self.space.n
        D = np.zeros((2 * n, 2 * n))
        for blk in self.blocks:
            idx = np.array([*blk.planes, *(n + p for p in blk.planes)])
            D[idx[:, None], idx] = blk.matrix()
        return D


def _realify_eigenspace(V: np.ndarray, m: int) -> np.ndarray:
    """Real orthonormal basis (2n x m) of the span of Re/Im of complex columns."""
    stacked = np.hstack([V.real, V.imag])
    Q, s, _ = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-10))
    if rank != m:
        raise NormalizationError(
            f"real eigenspace rank {rank} does not match multiplicity {m}"
        )
    return Q[:, :m]


def _planes_real(space, V, g) -> list[tuple[np.ndarray, np.ndarray]]:
    Vm = _realify_eigenspace(V[:, list(g.partner_indices)], len(g.partner_indices))
    Vp = _realify_eigenspace(V[:, list(g.indices)], len(g.indices))
    G = _omega_form(space, Vm, Vp).real
    if abs(np.linalg.det(G)) < 1e-12:
        raise NormalizationError("degenerate pairing on a real eigenvalue pair")
    F = Vp @ np.linalg.inv(G)
    return [(Vm[:, j], F[:, j]) for j in range(Vm.shape[1])]


def _krein_planes(space, W) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """[(sign, e, f)] Darboux planes spanning the columns W, one per eigenvalue
    of their _krein_pairing, whose sign orients the plane: omega(e, f) = 1."""
    mu, T = _krein_pairing(space, W)
    out = []
    for j in range(len(mu)):
        w = (W @ np.conj(T[:, j])) / np.sqrt(abs(mu[j]))
        out.append((1.0, w.real, w.imag) if mu[j] > 0 else (-1.0, w.imag, w.real))
    return out


def _planes_quad(space, V, g):
    """[((e_k, f_k), (e_l, f_l))] two-plane frames for one quadruple group."""
    W1 = V[:, list(g.indices)]
    W2 = V[:, list(g.partner_indices)]
    P = _omega_form(space, W1, W2.conj())
    if abs(np.linalg.det(P)) < 1e-12:
        raise NormalizationError("degenerate pairing on a quadruple")
    W2 = W2 @ np.conj(2.0 * np.linalg.inv(P))
    out = []
    for j in range(W1.shape[1]):
        w1, w2 = W1[:, j], W2[:, j]
        out.append(((w1.real, w2.real), (w1.imag, w2.imag)))
    return out


def _planes_zero(space, V, g) -> list[tuple[np.ndarray, np.ndarray]]:
    """Darboux planes of the classified kernel: its realified eigenvectors split by
    _krein_planes, keeping the positively oriented planes (the others span the same
    space again)."""
    W = _realify_eigenspace(V[:, list(g.indices)], len(g.indices))
    return [(e, f) for sign, e, f in _krein_planes(space, W) if sign > 0]


def _group_blocks(space, V, g) -> list[tuple[str, float, float, list]]:
    """(kind, a, b, [(e, f) per plane]) for each block of one eigenvalue group;
    kernel planes enter as real blocks with a = 0."""
    if g.kind == "real":
        return [("real", g.a, 0.0, [ef]) for ef in _planes_real(space, V, g)]
    if g.kind == "imag":
        planes = _krein_planes(space, V[:, list(g.indices)])
        return [("imag", 0.0, sign * g.b, [(e, f)]) for sign, e, f in planes]
    if g.kind == "quad":
        return [("quad", g.a, g.b, list(frames)) for frames in _planes_quad(space, V, g)]
    return [("real", 0.0, 0.0, [ef]) for ef in _planes_zero(space, V, g)]


def williamson_decompose(spectra: SpectrumStack) -> list[WilliamsonDecomposition]:
    """Symplectic frame S and typed blocks with B = S D S^{-1} for each
    classified B in order; the first B without them raises what it raises alone.

    Blocks are sorted by kind (real, imag, quad) then parameter magnitude,
    ties by smallest originating eigenvalue index; imaginary parameters carry
    the plane orientation in their sign, so b and -b blocks are distinct.
    """
    return [_decompose(spectra, i) for i in range(len(spectra))]


def _decompose(spectra: SpectrumStack, i: int) -> WilliamsonDecomposition:
    _require_semisimple(spectra.semi_simple[i : i + 1], spectra.eigvec_cond[i : i + 1])
    B, report, V = spectra.elements[i], spectra[i], spectra.V[i]
    space = B.space
    entries = []  # (sort_key, orig_index, kind, a, b, [(e, f), ...])
    for g in report._groups:
        for kind, a, b, frames in _group_blocks(space, V, g):
            sort_key = (BLOCK_KINDS.index(kind), abs(a), abs(b))
            entries.append((sort_key, min(g.indices), kind, a, b, frames))
    entries.sort(key=lambda t: t[:2])

    n = space.n
    S = np.zeros((2 * n, 2 * n))
    blocks = ()
    plane = 0
    for _, _, kind, a, b, frames in entries:
        planes = tuple(range(plane, plane + len(frames)))
        for p, (e, f) in zip(planes, frames):
            S[:, p] = e
            S[:, n + p] = f
        blocks += (WilliamsonBlock(kind=kind, a=a, b=b, planes=planes),)
        plane += len(frames)
    if plane != n:
        raise NormalizationError(f"planes cover {plane} of {n} slots")

    O = space.omega_matrix
    sdef = float(np.abs(S.T @ O @ S - O).max())
    if sdef > FRAME_SYMPLECTIC_TOL:
        raise NormalizationError(f"frame symplectic defect {sdef:.3e}")
    D = WilliamsonDecomposition(space, S, blocks).assemble()
    resid, scale = np.abs(S @ D @ omega_adjoint(S) - B.mat).max(), max(1.0, np.abs(B.mat).max())
    if resid > ROUNDTRIP_TOL * scale:
        raise NormalizationError(f"round-trip residual {resid:.3e}")
    return WilliamsonDecomposition(space, S, blocks, float(resid / scale))


def _commutes(X: np.ndarray, Y: np.ndarray) -> bool:
    tol = COMMUTE_TOL * max(1.0, np.abs(X).max() * np.abs(Y).max())
    return np.abs(X @ Y - Y @ X).max() <= tol


def yz_decomposition(
    B: SpElement, decomposition: WilliamsonDecomposition
) -> list[tuple[float, RankOneKind, np.ndarray]]:
    """Pairwise commuting rank-one terms summing to B, block by block (see
    WilliamsonBlock.yz_terms), from B's decomposition: (coefficient, kind,
    the term's plain matrix) per term."""
    space, S = decomposition.space, decomposition.S
    terms: list[tuple[float, RankOneKind, np.ndarray]] = []
    realized = []  # per block: [(term index, term matrix)]
    total = np.zeros_like(B.mat)
    for blk in decomposition.blocks:
        realized.append([])
        frames = [(S[:, p], S[:, space.n + p]) for p in blk.planes]
        for c, kind, e, f in blk.yz_terms(frames):
            M = rank_one_matrix(space, kind, e, f)
            total = total + c * M
            realized[-1].append((len(terms), M))
            terms.append((c, kind, M))
    resid = np.abs(total - B.mat).max()
    if resid > ROUNDTRIP_TOL * max(1.0, np.abs(B.mat).max()):
        raise NormalizationError(f"term sum residual {resid:.3e}")

    # Terms of distinct blocks commute outright.  Inside a quadruple the four
    # terms only satisfy the three relations: the Z-sum commutes with the
    # signed Y-combination, the two Z's commute, and the two Y's commute.
    for first, second in itertools.combinations(realized, 2):
        for (i, X), (j, Y) in itertools.product(first, second):
            if not _commutes(X, Y):
                raise NormalizationError(f"terms {i}, {j} fail to commute")
    for bi, (blk, mats) in enumerate(zip(decomposition.blocks, realized)):
        if blk.kind == "quad":
            (_, z1), (_, z2), (_, y1), (_, y2) = mats
            relations = ((blk.a * (z1 + z2), blk.b * (y2 - y1)), (z1, z2), (y1, y2))
            if not all(_commutes(lhs, rhs) for lhs, rhs in relations):
                raise NormalizationError(f"quadruple relations fail on block {bi}")
    return terms


def random_semisimple(
    space: SymplecticSpace,
    seed,
    kinds: tuple = BLOCK_KINDS,
) -> tuple[SpElement, list[WilliamsonBlock]]:
    """Random semi-simple element with known block content: draw typed blocks
    with parameters in SEMISIMPLE_PARAM_RANGE, then conjugate by a random
    symplectic matrix of scale SEMISIMPLE_FRAME_SCALE.  Returns the element
    and its generating blocks (canonical truth for round-trip tests)."""
    unknown = [k for k in kinds if k not in BLOCK_KINDS]
    if unknown:
        raise ValueError(f"unknown block kind {unknown[0]!r}; expected one of {BLOCK_KINDS}")
    if space.n % 2 and set(kinds) <= {"quad"}:
        raise ValueError(f"odd n = {space.n} needs a one-plane kind ('real' or 'imag')")
    rng = rng_from(seed)
    n = space.n
    lo, hi = SEMISIMPLE_PARAM_RANGE
    blocks = []
    plane = 0
    while plane < n:
        kind = rng.choice([k for k in kinds if k != "quad" or plane + 1 < n])
        if kind == "quad":
            a, b = rng.uniform(lo, hi, 2)
            blocks.append(WilliamsonBlock("quad", float(a), float(b), (plane, plane + 1)))
            plane += 2
        elif kind == "imag":
            b = rng.uniform(lo, hi) * rng.choice([-1.0, 1.0])
            blocks.append(WilliamsonBlock("imag", 0.0, float(b), (plane,)))
            plane += 1
        else:
            a = rng.uniform(lo, hi)
            blocks.append(WilliamsonBlock("real", float(a), 0.0, (plane,)))
            plane += 1
    D = WilliamsonDecomposition(space, np.eye(2 * n), tuple(blocks)).assemble()
    g = random_symplectic_group_element(space, SEMISIMPLE_FRAME_SCALE, rng)
    M = g @ D @ omega_adjoint(g)
    return project_skew_symplectic(space, M), blocks
