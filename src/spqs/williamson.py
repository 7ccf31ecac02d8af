"""Normal form of semi-simple skew-symplectic matrices: block classification
in a symplectic frame, oriented imaginary-pair parameters, and the pairwise
commuting Y/Z representation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .symplectic import (
    RankOneDescriptor,
    RankOneKind,
    SpElement,
    SymplecticSpace,
    omega,
    omega_adjoint,
    project_skew_symplectic,
    random_symplectic_group_element,
    realize,
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
    """An eigenvalue sits inside the classification band of both axes."""


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

    space: SymplecticSpace
    eigenvalues: np.ndarray
    real_pairs: tuple          # (a, multiplicity)
    imag_pairs: tuple          # (b, multiplicity)
    quadruples: tuple          # (a, b, multiplicity)
    zero_multiplicity: int
    semi_simple: bool
    eigvec_cond: float
    _groups: tuple = field(repr=False, default=())
    _vectors: np.ndarray = field(repr=False, default=None)


def _cluster(keys: np.ndarray, tol: float) -> list[np.ndarray]:
    """Indices of the real or complex `keys` grouped by single linkage along
    their (real, imag) lexicographic order."""
    if len(keys) == 0:
        return []
    groups = []
    order = np.lexsort((keys.imag, keys.real))
    for k, idx in enumerate(order):
        if k and abs(keys[idx] - keys[order[k - 1]]) <= tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return [np.asarray(g) for g in groups]


def _match_clusters(keys_a, idx_a, keys_b, idx_b, tol: float, what: str):
    """Pair the clusters of keys_a with those of keys_b in lexicographic order:
    one (idx_a entries, idx_b entries) per cluster.  The cluster sizes must
    match and the paired keys agree within 10 tol."""
    keys_a, keys_b = np.asarray(keys_a), np.asarray(keys_b)
    ca, cb = _cluster(keys_a, tol), _cluster(keys_b, tol)
    if len(ca) != len(cb) or any(len(x) != len(y) for x, y in zip(ca, cb)):
        raise ClassificationError(f"unmatched {what} eigenvalue clusters")
    if any(np.abs(keys_a[x] - keys_b[y]).max() > 10 * tol for x, y in zip(ca, cb)):
        raise ClassificationError(f"{what} eigenvalues do not pair up")
    return [(np.asarray(idx_a)[x], np.asarray(idx_b)[y]) for x, y in zip(ca, cb)]


def eigvec_condition(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(condition number, semi-simple flag) of each eigenvector matrix in the
    stack V: the ratio of its extreme singular values (inf when singular),
    and whether that is at most EIGVEC_COND_MAX."""
    sv = np.linalg.svd(V, compute_uv=False)
    big, small = sv[..., 0], sv[..., -1]
    cond = np.divide(big, small, out=np.full(small.shape, np.inf), where=small > 0)
    return cond, cond <= EIGVEC_COND_MAX


def classify_eigenstructure(B: SpElement) -> SpectrumReport:
    """Group the spectrum into real pairs, imaginary pairs, quadruples and
    zeros; flag semi-simplicity via the eigenvector condition number.

    A non-semi-simple input is not grouped (its pair tuples are empty): no
    decomposition accepts it, and its clusters need not pair up."""
    lam, V = np.linalg.eig(B.mat)
    scale = max(1.0, float(np.abs(lam).max()))
    ztol = AXIS_BAND * (1.0 + scale)
    ctol = CLUSTER_TOL * (1.0 + scale)

    cond, semi_simple = eigvec_condition(V)
    cond, semi_simple = float(cond), bool(semi_simple)

    zero_idx, real_pos, real_neg, imag_pos, quad, quad_partner = [], [], [], [], [], []
    for i, z in enumerate(lam):
        band = AXIS_BAND * (1.0 + abs(z))
        on_real = abs(z.imag) <= band
        on_imag = abs(z.real) <= band
        if abs(z) <= ztol:
            zero_idx.append(i)
        elif on_real and on_imag:
            raise ClassificationError(
                f"eigenvalue {z:.3e} lies in the classification band of both axes"
            )
        elif on_real:
            (real_pos if z.real > 0 else real_neg).append(i)
        elif on_imag:
            if z.imag > 0:
                imag_pos.append(i)
        elif z.imag > 0:
            (quad if z.real < 0 else quad_partner).append(i)
    if not semi_simple:
        return SpectrumReport(B.space, lam, (), (), (), len(zero_idx), False, cond)

    groups = []
    if real_pos or real_neg:
        for pos, neg in _match_clusters(
            lam[real_pos].real, real_pos, -lam[real_neg].real, real_neg, ctol, "real-pair"
        ):
            a = float(np.mean(lam[pos].real))
            groups.append(_EigGroup("real", tuple(pos), tuple(neg), a, 0.0))
    for cl in _cluster(lam[imag_pos].imag, ctol):
        idx = np.asarray(imag_pos)[cl]
        groups.append(_EigGroup("imag", tuple(idx), (), 0.0, float(np.mean(lam[idx].imag))))
    if quad or quad_partner:  # pair lambda = -a+ib with +a+ib
        for grp, par in _match_clusters(
            -lam[quad].conj(), quad, lam[quad_partner], quad_partner, ctol, "quadruple"
        ):
            a, b = float(np.mean(-lam[grp].real)), float(np.mean(lam[grp].imag))
            groups.append(_EigGroup("quad", tuple(grp), tuple(par), a, b))

    return SpectrumReport(
        space=B.space,
        eigenvalues=lam,
        real_pairs=tuple((g.a, len(g.indices)) for g in groups if g.kind == "real"),
        imag_pairs=tuple((g.b, len(g.indices)) for g in groups if g.kind == "imag"),
        quadruples=tuple(
            (g.a, g.b, len(g.indices)) for g in groups if g.kind == "quad"
        ),
        zero_multiplicity=len(zero_idx),
        semi_simple=semi_simple,
        eigvec_cond=cond,
        _groups=tuple(groups) + (
            (_EigGroup("zero", tuple(zero_idx), (), 0.0, 0.0),) if zero_idx else ()
        ),
        _vectors=V,
    )


def _require_semisimple(report: SpectrumReport) -> None:
    """Raise NonSemisimpleError unless the classified input is numerically
    semi-simple (eigenvector condition number at most EIGVEC_COND_MAX)."""
    if not report.semi_simple:
        raise NonSemisimpleError(
            f"eigenvector condition {report.eigvec_cond:.3e} exceeds "
            f"{EIGVEC_COND_MAX:.1e}"
        )


def _omega_form(space: SymplecticSpace, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Matrix of omega between two column families (complex-bilinear)."""
    return X.T @ (space.omega_matrix @ Y)


def krein_parameters(B: SpElement, report: SpectrumReport | None = None) -> list[float]:
    """Signed imaginary-pair parameters (one per invariant plane): +b when the
    normalized plane carries the positively oriented block, -b otherwise.
    Raises NonSemisimpleError on a non-semi-simple input."""
    report = report or classify_eigenstructure(B)
    _require_semisimple(report)
    return [
        beta
        for g in report._groups
        if g.kind == "imag"
        for beta, _, _ in _planes_imag(B.space, report._vectors, g)
    ]


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

    def yz_terms(self, space: SymplecticSpace, frames) -> list[tuple[float, RankOneDescriptor]]:
        """Commuting rank-one terms summing to the block, given the (e, f)
        frame of each of its planes: a * Z for a real block, b * Y for an
        imaginary one; a quadruple on planes (k, l) contributes a Z on each
        plane and two opposite-sign Y terms on the sqrt(2)-normalized mixed
        vectors."""
        Y, Z = RankOneKind.Y, RankOneKind.Z
        if self.kind == "quad":
            (ek, fk), (el, fl) = frames
            r2 = np.sqrt(2.0)
            return [
                (self.a, RankOneDescriptor(space, Z, ek, fk)),
                (self.a, RankOneDescriptor(space, Z, el, fl)),
                (-self.b, RankOneDescriptor(space, Y, (el - fk) / r2, (ek + fl) / r2)),
                (self.b, RankOneDescriptor(space, Y, (ek - fl) / r2, (el + fk) / r2)),
            ]
        ((e, f),) = frames
        if self.kind == "real":
            return [(self.a, RankOneDescriptor(space, Z, e, f))]
        return [(self.b, RankOneDescriptor(space, Y, e, f))]


@dataclass(frozen=True)
class WilliamsonDecomposition:
    space: SymplecticSpace
    S: np.ndarray
    blocks: tuple

    def assemble(self) -> np.ndarray:
        """Block-diagonal matrix D with B = S D S^{-1}."""
        n = self.space.n
        D = np.zeros((2 * n, 2 * n))
        for blk in self.blocks:
            idx = np.array([*blk.planes, *(n + p for p in blk.planes)])
            D[idx[:, None], idx] = blk.matrix()
        return D

    def frame_vectors(self, plane: int) -> tuple[np.ndarray, np.ndarray]:
        """(e, f) columns of S for one plane."""
        return self.S[:, plane], self.S[:, self.space.n + plane]


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


def _planes_imag(space, V, g):
    """[(beta_signed, e, f)] for one imaginary group: the eigenvalue signs of
    the Hermitian pairing (i/2) omega(w_j, conj(w_k)) orient the planes."""
    W = V[:, list(g.indices)]
    mu, T = np.linalg.eigh(0.5j * _omega_form(space, W, W.conj()))
    if np.abs(mu).min() <= 1e-10 * max(1.0, np.abs(mu).max()):
        raise NormalizationError("degenerate orientation pairing")
    out = []
    for j in range(len(mu)):
        w = (W @ np.conj(T[:, j])) / np.sqrt(abs(mu[j]))
        u, v = w.real, w.imag
        if mu[j] > 0:
            out.append((g.b, u, v))
        else:
            out.append((-g.b, v, u))
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


def _planes_zero(space, B) -> list[tuple[np.ndarray, np.ndarray]]:
    M = B.mat
    _, s, Vt = np.linalg.svd(M)
    scale = max(1.0, s[0])
    kernel = [Vt[i] for i in range(len(s)) if s[i] <= AXIS_BAND * scale]
    planes = []
    vecs = list(kernel)
    while vecs:
        x = vecs.pop(0)
        if not vecs:
            raise NormalizationError("odd-dimensional kernel remainder")
        pair = np.array([omega(space, x, y) for y in vecs])
        j = int(np.argmax(np.abs(pair)))
        if abs(pair[j]) < 1e-10:
            raise NormalizationError("kernel plane with vanishing pairing")
        f = vecs.pop(j) / pair[j]
        planes.append((x, f))
        vecs = [
            v - omega(space, v, f) * x + omega(space, v, x) * f for v in vecs
        ]
    return planes


def _group_blocks(space, B, V, g) -> list[tuple[str, float, float, list]]:
    """(kind, a, b, [(e, f) per plane]) for each block of one eigenvalue group;
    kernel planes enter as real blocks with a = 0."""
    if g.kind == "real":
        return [("real", g.a, 0.0, [ef]) for ef in _planes_real(space, V, g)]
    if g.kind == "imag":
        return [("imag", 0.0, beta, [(e, f)]) for beta, e, f in _planes_imag(space, V, g)]
    if g.kind == "quad":
        return [("quad", g.a, g.b, list(frames)) for frames in _planes_quad(space, V, g)]
    return [("real", 0.0, 0.0, [ef]) for ef in _planes_zero(space, B)]


def williamson_decompose(B: SpElement) -> WilliamsonDecomposition:
    """Symplectic frame S and typed blocks with B = S D S^{-1}.

    Blocks are sorted by kind (real, imag, quad) then parameter magnitude,
    ties by smallest originating eigenvalue index; imaginary parameters carry
    the plane orientation in their sign, so b and -b blocks are distinct.
    """
    report = classify_eigenstructure(B)
    _require_semisimple(report)
    space = B.space

    entries = []  # (sort_key, orig_index, kind, a, b, [(e, f), ...])
    for g in report._groups:
        for kind, a, b, frames in _group_blocks(space, B, report._vectors, g):
            sort_key = (BLOCK_KINDS.index(kind), abs(a), abs(b))
            entries.append((sort_key, min(g.indices), kind, a, b, frames))
    entries.sort(key=lambda t: t[:2])

    n = space.n
    S = np.zeros((2 * n, 2 * n))
    blocks = []
    plane = 0
    for _, _, kind, a, b, frames in entries:
        planes = tuple(range(plane, plane + len(frames)))
        for p, (e, f) in zip(planes, frames):
            S[:, p] = e
            S[:, n + p] = f
        blocks.append(WilliamsonBlock(kind=kind, a=a, b=b, planes=planes))
        plane += len(frames)
    if plane != n:
        raise NormalizationError(f"planes cover {plane} of {n} slots")

    dec = WilliamsonDecomposition(space=space, S=S, blocks=tuple(blocks))
    O = space.omega_matrix
    sdef = float(np.abs(S.T @ O @ S - O).max())
    if sdef > FRAME_SYMPLECTIC_TOL:
        raise NormalizationError(f"frame symplectic defect {sdef:.3e}")
    resid = np.abs(S @ dec.assemble() @ omega_adjoint(S) - B.mat).max()
    if resid > ROUNDTRIP_TOL * max(1.0, np.abs(B.mat).max()):
        raise NormalizationError(f"round-trip residual {resid:.3e}")
    return dec


def _commutes(X: np.ndarray, Y: np.ndarray) -> bool:
    tol = COMMUTE_TOL * max(1.0, np.abs(X).max() * np.abs(Y).max())
    return np.abs(X @ Y - Y @ X).max() <= tol


def yz_decomposition(
    B: SpElement, decomposition: WilliamsonDecomposition | None = None
) -> list[tuple[float, RankOneDescriptor]]:
    """Pairwise commuting rank-one terms summing to B, block by block (see
    WilliamsonBlock.yz_terms)."""
    dec = decomposition or williamson_decompose(B)
    terms: list[tuple[float, RankOneDescriptor]] = []
    realized = []  # per block: [(term index, term matrix)]
    total = np.zeros_like(B.mat)
    for blk in dec.blocks:
        realized.append([])
        for c, desc in blk.yz_terms(dec.space, [dec.frame_vectors(p) for p in blk.planes]):
            M = realize(desc).mat
            total = total + c * M
            realized[-1].append((len(terms), M))
            terms.append((c, desc))
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
    for bi, (blk, mats) in enumerate(zip(dec.blocks, realized)):
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
