"""Normal form of semi-simple skew-symplectic matrices: block classification
in a symplectic frame, oriented imaginary-pair parameters, and the pairwise
commuting Y/Z representation."""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .symplectic import (
    RankOneKind,
    SpElement,
    SymplecticSpace,
    _random_gaussian,
    group_elements,
    omega_adjoint,
    rank_one_matrix,
    rng_from,
    skew_part,
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
_GROUP_KINDS = (*BLOCK_KINDS, "zero")  # eigenvalue group kinds, in group order


class NonSemisimpleError(RuntimeError):
    """Decomposition requested for an input without a clean eigenbasis."""


class ClassificationError(RuntimeError):
    """The real or quadruple eigenvalue clusters do not pair up."""


class NormalizationError(RuntimeError):
    """A candidate invariant plane could not be symplectically normalized."""


def eigvec_condition(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(condition number, semi-simple flag) of each eigenvector matrix in the
    stack V: the ratio of its extreme singular values (inf when singular),
    and whether that is at most EIGVEC_COND_MAX."""
    sv = np.linalg.svd(V, compute_uv=False)
    with np.errstate(divide="ignore"):  # the largest is positive: V has unit columns
        cond = sv[..., 0] / sv[..., -1]
    return cond, cond <= EIGVEC_COND_MAX


def _rank(parts: np.ndarray, kind: np.ndarray, ctol: np.ndarray) -> tuple:
    """Rank the eigenvalues parts = [re, im] of each row, clusters breaking at gaps > ctol:
    each row's eigenvalue indices `order` by one stable sort on (kind, key), their kinds,
    keys, and whether each position starts a cluster (a single-linkage run of one kind; True
    at 0 and d).  Partners, keyed by minus their partners' keys, sit at d - 1 - j if matched."""
    key = np.add.reduce(parts * _KEY[:, kind])
    order = np.lexsort((key.imag, key.real, kind))
    flat = order + np.arange(0, kind.size, kind.shape[-1])[:, None]
    kind, key = kind.take(flat), key.take(flat)
    start = np.ones((len(kind), kind.shape[-1] + 1), dtype=bool)  # True at 0 and d
    np.greater(abs(key[:, 1:] - key[:, :-1]), ctol, out=start[:, 1:-1])
    start[:, 1:-1] |= kind[:, 1:] != kind[:, :-1]
    return order, kind, key, start


def _check_pairing(s: SpectrumStack, ctol: np.ndarray) -> None:
    """Raise ClassificationError at the first semi-simple row whose real-pair (quadruple)
    clusters do not pair up in order with their partners': equal sizes, keys within 10 ctol."""
    side = _SIDE[s.kind]
    if not side.any():
        return
    one, start, count = side > 0, s.start[:, :-1] != s.start[:, :0:-1], side + side[:, ::-1]
    fault = np.logical_or(count, one & (start | (abs(s.key + s.key[:, ::-1]) > 10 * ctol)))
    if fault[s.semi_simple].any():
        i = (s.semi_simple & fault.any(axis=-1)).argmax()
        at = abs(side[i]) == 1  # the real pairs, where they fail, else the quadruples
        what, at = ("real-pair", at) if fault[i, at].any() else ("quadruple", ~at)
        raise ClassificationError(f"unmatched {what} eigenvalue clusters" if (
            (count[i] != 0) | one[i] & start[i])[at].any() else f"{what} eigenvalues do not pair up")


def _mean(x: np.ndarray) -> np.ndarray:
    """Each row's mean sum(x / e) / k * e, k = row length <= e a power of two: x / e is
    exact and the sum cannot overflow."""
    k, e = x.shape[-1], 2.0 ** (x.shape[-1] - 1).bit_length()
    return np.add.reduce(x / e, axis=-1) / k * e


@dataclass(eq=False)
class SpectrumStack:
    """A stack's classification: each element's eigenvectors V, their condition and
    semi-simple flag, and their ranking (see `_rank`), whose groups `clusters` enumerates."""

    elements: tuple  # the classified SpElements; each later field is an array, a row each
    V: np.ndarray
    eigvec_cond: np.ndarray
    semi_simple: np.ndarray
    order: np.ndarray
    kind: np.ndarray
    key: np.ndarray
    start: np.ndarray

    def __len__(self) -> int:
        return len(self.V)

    def clusters(self, kinds: tuple = _GROUP_KINDS) -> list[tuple]:
        """The eigenvalue groups of the semi-simple rows: per kind asked for (in the order
        asked) and group size k, the kind, each group's row and first sorted position, its
        (c, k) eigenvalue indices p (real: +a side; quad: -a+ib) and partners q (real: -a
        side; quad: +a+ib; None for the other kinds), its a and b, and the (c, 2n, k)
        eigenvector columns W of p and Wq of q (None with q), groups in row order."""
        out, Vt = [], self.V.swapaxes(1, 2)
        for name in kinds:
            k = _GROUP_KIND[name]
            of_kind = (self.kind == k) & self.semi_simple[:, None]
            rows, cols = (self.start[:, :-1] & of_kind).nonzero()  # each group's first position
            sizes = (self.start[:, 1:] & of_kind).nonzero()[1] + 1 - cols  # its last + 1 - first
            for s in sorted(set(sizes.tolist())):
                of_size = sizes == s
                rr, first = rows[of_size], cols[of_size]
                at = rr[:, None], first[:, None] + np.arange(s)  # the groups' sorted positions
                p, key, z = self.order[at], self.key[at], np.zeros(len(rr))
                x, q, Wq = _mean(key.real) if k != _ZERO else z, None, None  # a; imaginary: b
                if k in (_REAL_POS, _QUAD):  # partners at the mirror positions, by key then index
                    mirror = at[0], self.order.shape[-1] - 1 - at[1]
                    q, minus = self.order[mirror], -self.key[mirror]
                    q = np.take_along_axis(q, np.lexsort((q, minus.imag, minus.real)), axis=-1)
                    Wq = Vt[at[0], q].swapaxes(1, 2)
                out.append((name, rr, first, p, q, z if k == _IMAG else x, x if k == _IMAG else
                            _mean(key.imag) if k == _QUAD else z, Vt[at[0], p].swapaxes(1, 2), Wq))
        return out

    def take(self, rows: np.ndarray) -> SpectrumStack:
        """The classification of the given rows alone."""
        return SpectrumStack(tuple(self.elements[i] for i in rows.tolist()),
                             *(getattr(self, f.name)[rows] for f in fields(self)[1:]))


def classify_eigenstructure(Bs: list[SpElement]) -> SpectrumStack:
    """The SpectrumStack of elements of one dimension, from this module's one
    eigensolve and one sort of each row on (kind, key): each spectrum grouped
    into real pairs, imaginary pairs, quadruples and zeros, and semi-simplicity
    flagged via the eigenvector condition number.

    A non-semi-simple input is not grouped (clusters skips its row): no
    decomposition accepts it, and its clusters need not pair up.  ClassificationError
    names the first semi-simple element whose real or quadruple clusters do not."""
    if not Bs:
        return []
    lam, V = np.linalg.eig(np.array([b.mat for b in Bs]))
    cond, semi_simple = eigvec_condition(V)
    parts = np.array([lam.real, lam.imag])
    mod = abs(lam)  # hypot(re, im), the modulus of Python's abs(complex)
    scale = 1.0 + np.maximum(1.0, mod.max(axis=-1, keepdims=True))
    bits = np.concatenate([parts > 0, abs(parts) <= AXIS_BAND * (1.0 + mod),
                           (mod <= AXIS_BAND * scale)[None]])
    ctol = CLUSTER_TOL * scale
    kind = _KIND_OF_BITS[np.packbits(bits, axis=0, bitorder="little")[0]]
    spectra = SpectrumStack(tuple(Bs), V, cond, semi_simple, *_rank(parts, kind, ctol))
    _check_pairing(spectra, ctol)
    return spectra


# eigenvalue kinds in sort order (real with Re > 0, -a+ib with a, b > 0, zero, imaginary
# with Im > 0, the rest, then the partners +a+ib and real with Re < 0) by bits: 1 Re > 0,
# 2 Im > 0, 4 |Re| and 8 |Im| in the axis band, 16 within the zero tolerance (which
# holds in both bands: |lambda| <= 2^(1/2) AXIS_BAND (1 + |lambda|) < 2 AXIS_BAND).
_REAL_POS, _QUAD, _ZERO, _IMAG, _SKIP, _QUAD_PARTNER, _REAL_NEG = range(7)
_KIND_OF_BITS = np.array([_SKIP, _SKIP, _QUAD, _QUAD_PARTNER, _SKIP, _SKIP, _IMAG, _IMAG]
                         + [_REAL_NEG, _REAL_POS] * 2 + [_ZERO] * 20)
_GROUP_KIND = {"real": _REAL_POS, "imag": _IMAG, "quad": _QUAD, "zero": _ZERO}
_SIDE = np.array([1, 2, 0, 0, 0, -2, -1])  # a pair's two sides: +-1 real, +-2 quadruple
# each kind's key re * _KEY[0] + im * _KEY[1], exactly: a of a real pair, b of an imaginary
# one, a + ib of the -a + ib member of a quadruple; minus that for the partners
_KEY = np.array([[1, -1, 0, 0, 0, -1, 1], [0, 1j, 0, 1, 0, -1j, 0]])


def _require_semisimple(semi_simple: np.ndarray, eigvec_cond: np.ndarray) -> None:
    """Raise NonSemisimpleError at the first element flagged not semi-simple."""
    if not semi_simple.all():
        cond = eigvec_cond[semi_simple.argmin()]
        raise NonSemisimpleError(f"eigenvector condition {cond:.3e} exceeds {EIGVEC_COND_MAX:.1e}")


def _omega_form(space: SymplecticSpace, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Matrix of omega between two column families, or two stacks of them (complex-bilinear)."""
    return X.swapaxes(-1, -2) @ (space.omega_matrix @ Y)


def _pairing(space: SymplecticSpace, W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending eigenvalues mu and eigenvectors T of the pairing (i/2) omega(w_j, conj(w_k))
    of a column family W (2n x k) or of each in a stack, and which mu are degenerate (a
    family with one is degenerate)."""
    mu, T = np.linalg.eigh(0.5j * _omega_form(space, W, W.conj()))
    size = abs(mu)
    return mu, T, size <= 1e-10 * size.max(axis=-1, keepdims=True, initial=1.0)


def _krein_pairing(space: SymplecticSpace, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mu and T of _pairing; NormalizationError if a family is degenerate."""
    mu, T, degenerate = _pairing(space, W)
    if degenerate.any():
        raise NormalizationError("degenerate orientation pairing")
    return mu, T


def krein_parameters(spectra: SpectrumStack) -> list[list[float]]:
    """Each classified element's signed imaginary-pair parameters, one per
    invariant plane, by ascending |b|: each imaginary cluster of
    SpectrumStack.clusters carries its mean b on its planes, signed by the
    eigenvalues of its _krein_pairing (one call per cluster size in the stack).
    Raises NonSemisimpleError at the first non-semi-simple element."""
    if not spectra:
        return []
    _require_semisimple(spectra.semi_simple, spectra.eigvec_cond)
    found = []  # (row, ranked position, the cluster's signed parameters)
    for _, rows, first, _, _, _, b, W, _ in spectra.clusters(("imag",)):
        mu, _ = _krein_pairing(spectra.elements[0].space, W)
        found += zip(rows.tolist(), first.tolist(), np.copysign(b[:, None], mu).tolist())
    out = [[] for _ in range(len(spectra))]
    for i, _, beta in sorted(found):
        out[i] += beta
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
        return _assemble(self.space.n, [self.blocks])[0]


# each block kind's nonzero entries (i, j, sign, parameter) on its coordinates
# (e_p for p in planes, then f_p); its other entries are 0.0
_BLOCK_ENTRIES = {
    "real": ((0, 0, -1, "a"), (1, 1, 1, "a")), "imag": ((0, 1, 1, "b"), (1, 0, -1, "b")),
    "quad": ((0, 0, -1, "a"), (0, 1, 1, "b"), (1, 0, -1, "b"), (1, 1, -1, "a"),
             (2, 2, 1, "a"), (2, 3, 1, "b"), (3, 2, -1, "b"), (3, 3, 1, "a"))}


def _assemble(n: int, blocks: Sequence) -> np.ndarray:
    """The block-diagonal matrix D of each list of blocks, as one (m, 2n, 2n) stack."""
    at, values = [], []  # flat positions in D and their entries
    for row, blks in enumerate(blocks):
        for blk in blks:
            idx = (*blk.planes, *(n + p for p in blk.planes))
            for i, j, sign, param in _BLOCK_ENTRIES[blk.kind]:
                at.append((2 * n * row + idx[i]) * 2 * n + idx[j])
                values.append(sign * getattr(blk, param))
    D = np.zeros((len(blocks), 2 * n, 2 * n))
    D.reshape(-1)[at] = values
    return D


# Plane builders: from the eigenvector columns W (c, 2n, k) of one kind's groups and their
# partners Wq, the frames [(E, F)] of each group's k blocks (one (c, k, 2n) pair per block
# plane), the sign of each block's b, and the checks (failed, message, value) in order.

def _realify_eigenspace(V: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Real orthonormal bases (c, 2n, k) of the spans of Re/Im of each family of k complex
    columns of the stack V, and the check that each span has rank k."""
    Q, s, _ = np.linalg.svd(np.concatenate([V.real, V.imag], axis=-1), full_matrices=False)
    rank, k = (s > s[..., :1] * 1e-10).sum(axis=-1), V.shape[-1]
    return Q[..., :k], (rank != k, f"real eigenspace rank {{}} does not match multiplicity {k}",
                        rank)


def _guarded_inv(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of each matrix of the stack G, and which are singular (|det| < 1e-12):
    those are refused, and the identity stands in for them."""
    singular = abs(np.linalg.det(G)) < 1e-12
    return np.linalg.inv(np.where(singular[:, None, None], np.eye(G.shape[-1]), G)), singular


def _planes_real(space, W, Wq):
    """e from the realified -a eigenspace Vm, f = Vp G^-1 from the +a one, G = omega(Vm, Vp)."""
    (Vm, rank_m), (Vp, rank_p) = _realify_eigenspace(Wq), _realify_eigenspace(W)
    G_inv, singular = _guarded_inv(_omega_form(space, Vm, Vp).real)
    return [(Vm.swapaxes(1, 2), (Vp @ G_inv).swapaxes(1, 2))], 1.0, [
        rank_m, rank_p, (singular, "degenerate pairing on a real eigenvalue pair", singular)]


@np.errstate(divide="ignore", invalid="ignore")  # a degenerate family is refused, not used
def _planes_imag(space, W, Wq=None):
    """Darboux planes (e_j, f_j) spanning W, one per eigenvalue mu_j of its _pairing, whose
    sign orients the plane: omega(e, f) = 1."""
    mu, T, degenerate = _pairing(space, W)
    degenerate = degenerate.any(axis=-1)
    Tc = T.conj().swapaxes(1, 2).copy()[..., None]  # conj(T[:, j]), one vector per j
    w = (W[:, None] @ Tc)[..., 0] / np.sqrt(abs(mu))[..., None]
    pos = mu[..., None] > 0
    return [(np.where(pos, w.real, w.imag), np.where(pos, w.imag, w.real))], np.where(
        pos[..., 0], 1.0, -1.0), [(degenerate, "degenerate orientation pairing", degenerate)]


def _planes_quad(space, W, Wq):
    """Planes (Re w1, Re w2) and (Im w1, Im w2): w1 from W, w2 from Wq normalized by the
    pairing P = omega(W, conj Wq) as Wq conj(2 P^-1)."""
    P_inv, singular = _guarded_inv(_omega_form(space, W, Wq.conj()))
    W1, W2 = W.swapaxes(1, 2), (Wq @ np.conj(2.0 * P_inv)).swapaxes(1, 2)
    return [(W1.real, W2.real), (W1.imag, W2.imag)], 1.0, [
        (singular, "degenerate pairing on a quadruple", singular)]


def _planes_zero(space, W, Wq):
    """The kernel's realified eigenvectors split by _planes_imag; the caller keeps the
    positively oriented planes (the others span the same space again)."""
    R, rank = _realify_eigenspace(W)
    planes, sign, checks = _planes_imag(space, R)
    return planes, sign, [rank, *checks]


_PLANE_BUILDERS = {"real": _planes_real, "imag": _planes_imag, "quad": _planes_quad,
                   "zero": _planes_zero}


def williamson_decompose(spectra: SpectrumStack) -> list[WilliamsonDecomposition]:
    """Symplectic frame S and typed blocks with B = S D S^{-1} for each
    classified B in order; the first B without them raises what it raises alone.

    Blocks are sorted by kind (real, imag, quad) then parameter magnitude,
    ties by smallest originating eigenvalue index; imaginary parameters carry
    the plane orientation in their sign, so b and -b blocks are distinct.
    The stack is built at once: one plane builder per kind and size of
    SpectrumStack.clusters(), then the frame check, D and round trip as stacks.
    """
    if not spectra:
        return []
    space, m = spectra.elements[0].space, len(spectra)
    n, O = space.n, space.omega_matrix
    errors = []  # ((row, check, ...), error): a row's failures sort in its check order
    try:
        _require_semisimple(spectra.semi_simple, spectra.eigvec_cond)
    except NonSemisimpleError as exc:
        errors.append(((int(spectra.semi_simple.argmin()), 0), exc))
    parts = []  # per batch and block plane t: each plane's row, block sort key, t, e and f
    for kind, rows, first, p, _, a, b, W, Wq in spectra.clusters():
        planes, sign, checks = _PLANE_BUILDERS[kind](space, W, Wq)
        errors += [((int(rows[g]), 1, _GROUP_KINDS.index(kind), int(first[g]), step),
                    NormalizationError(message.format(value[g])))
                   for step, (bad, message, value) in enumerate(checks)
                   for g in np.flatnonzero(bad)]
        g, j = np.nonzero(np.broadcast_to(sign > 0 if kind == "zero" else True, p.shape))
        key = (rows[g], np.full(len(g), _GROUP_KINDS.index(kind) % 3), a[g],  # kernel: real
               np.broadcast_to(b[:, None] * sign, p.shape)[g, j], p.min(axis=-1)[g], j)
        parts += [(*key, np.full(len(g), t), E[g, j], F[g, j]) for t, (E, F) in enumerate(planes)]
    if not parts:  # no row is semi-simple
        raise errors[0][1]
    row, kind, a, b, first, j, t, E, F = (np.concatenate(x) for x in zip(*parts))
    failed = np.zeros(m, bool)
    failed[[key[0] for key, _ in errors]] = True
    order = np.lexsort((t, j, first, abs(b), abs(a), kind, row))
    row, kind, a, b, t, E, F = (x[order[~failed[row[order]]]] for x in (row, kind, a, b, t, E, F))
    plane, count = np.arange(len(row)) - np.searchsorted(row, row), np.bincount(row, minlength=m)
    good = ~failed & (count == n)
    at = good[row]
    S = np.zeros((m, 2 * n, 2 * n))
    S[row[at], :, plane[at]], S[row[at], :, n + plane[at]] = E[at], F[at]
    blocks = [[] for _ in range(m)]
    for i, k, x, y, p in zip(*(v[at & (t == 0)].tolist() for v in (row, kind, a, b, plane))):
        blocks[i].append(WilliamsonBlock(BLOCK_KINDS[k], x, y, tuple(range(p, p + 1 + (k == 2)))))
    Bm = np.array([B.mat for B in spectra.elements])
    sdef = np.abs(S.swapaxes(1, 2) @ O @ S - O).max(axis=(1, 2))
    resid = np.abs(S @ _assemble(n, blocks) @ omega_adjoint(S) - Bm).max(axis=(1, 2))
    scale = np.maximum(1.0, np.abs(Bm).max(axis=(1, 2)))
    errors += [((i, check), NormalizationError(message.format(value[i])))
               for check, bad, message, value in (
        (2, ~failed & (count != n), f"planes cover {{}} of {n} slots", count),
        (3, good & ~(sdef <= FRAME_SYMPLECTIC_TOL), "frame symplectic defect {:.3e}", sdef),
        (4, good & ~(resid <= ROUNDTRIP_TOL * scale), "round-trip residual {:.3e}", resid),
    ) for i in np.flatnonzero(bad).tolist()]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return [WilliamsonDecomposition(space, S[i], tuple(blocks[i]), float(resid[i] / scale[i]))
            for i in range(m)]


def _commute(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Whether each pair of the stacks X, Y commutes within COMMUTE_TOL max(1, |X| |Y|)."""
    tol = COMMUTE_TOL * np.maximum(1.0, np.abs(X).max(axis=(1, 2)) * np.abs(Y).max(axis=(1, 2)))
    return np.abs(X @ Y - Y @ X).max(axis=(1, 2)) <= tol


def yz_decomposition(Bs: list[SpElement], decompositions: list[WilliamsonDecomposition]
                     ) -> list[list[tuple[float, RankOneKind, np.ndarray]]]:
    """Each element's pairwise commuting rank-one terms summing to it, block by
    block (see WilliamsonBlock.yz_terms), from its decomposition: (coefficient,
    kind, the term's plain matrix) per term.  The terms of all elements are built
    with one rank_one_matrix per kind, and summed and checked as stacks; the first
    element whose terms fail raises what it raises alone."""
    if not Bs:
        return []
    space = decompositions[0].space
    terms, quads, pairs = [], [], []  # (element, coefficient, kind, e, f); quadruples; pairs
    for i, dec in enumerate(decompositions):
        realized, base = [], len(terms)  # per block: the indices of its terms
        for bi, blk in enumerate(dec.blocks):
            new = blk.yz_terms([(dec.S[:, p], dec.S[:, space.n + p]) for p in blk.planes])
            realized.append(range(len(terms), len(terms) + len(new)))
            quads += [(i, bi, len(terms), blk.a, blk.b)] if blk.kind == "quad" else []
            terms += [(i, *term) for term in new]
        pairs += [(i, x, y, base) for first, second in itertools.combinations(realized, 2)
                  for x, y in itertools.product(first, second)]
    elem, coef = (np.array([term[k] for term in terms]) for k in (0, 1))
    M = np.empty((len(terms), space.dim, space.dim))
    for kind in RankOneKind:
        at = [t for t, term in enumerate(terms) if term[2] is kind]
        if at:
            e, f = (np.array([terms[t][k] for t in at]) for k in (3, 4))
            M[at] = rank_one_matrix(space, kind, e, f)
    total = np.zeros((len(Bs), space.dim, space.dim))
    np.add.at(total, elem, coef[:, None, None] * M)  # each element's terms, in order
    Bm = np.array([B.mat for B in Bs])
    resid = np.abs(total - Bm).max(axis=(1, 2))
    bad = resid > ROUNDTRIP_TOL * np.maximum(1.0, np.abs(Bm).max(axis=(1, 2)))
    errors = [((i,), f"term sum residual {resid[i]:.3e}") for i in np.flatnonzero(bad).tolist()]
    # Terms of distinct blocks commute outright.  Inside a quadruple the four
    # terms only satisfy the three relations: the Z-sum commutes with the
    # signed Y-combination, the two Z's commute, and the two Y's commute.
    if pairs:
        e, x, y, base = np.array(pairs).T
        errors += [((e[t], 1, t), f"terms {x[t] - base[t]}, {y[t] - base[t]} fail to commute")
                   for t in np.flatnonzero(~_commute(M[x], M[y])).tolist()]
    if quads:
        e, bi, z, a, b = (np.array(v) for v in zip(*quads))
        z1, z2, y1, y2 = (M[z + k] for k in range(4))
        holds = (_commute(a[:, None, None] * (z1 + z2), b[:, None, None] * (y2 - y1))
                 & _commute(z1, z2) & _commute(y1, y2))
        errors += [((e[t], 2, t), f"quadruple relations fail on block {bi[t]}")
                   for t in np.flatnonzero(~holds).tolist()]
    if errors:
        raise NormalizationError(min(errors)[1])
    out = [[] for _ in Bs]
    for t, (i, c, kind, *_) in enumerate(terms):
        out[i].append((c, kind, M[t]))
    return out


def random_semisimple(space: SymplecticSpace, seed,
                      kinds: tuple = BLOCK_KINDS) -> tuple[SpElement, list[WilliamsonBlock]]:
    """Random semi-simple element with known block content: `semisimple_elements`
    of one `draw_semisimple`.  Returns the element and its generating blocks
    (canonical truth for round-trip tests)."""
    return semisimple_elements(space, [draw_semisimple(space, rng_from(seed), kinds)])[0]


def draw_semisimple(space: SymplecticSpace, rng: np.random.Generator,
                    kinds: tuple = BLOCK_KINDS) -> tuple[list[WilliamsonBlock], np.ndarray]:
    """The random numbers of one semi-simple element, read from rng: typed blocks
    with parameters in SEMISIMPLE_PARAM_RANGE, then the Gaussian of its random
    symplectic frame of scale SEMISIMPLE_FRAME_SCALE."""
    if not kinds:
        raise ValueError("at least one block kind is needed")
    unknown = [k for k in kinds if k not in BLOCK_KINDS]
    if unknown:
        raise ValueError(f"unknown block kind {unknown[0]!r}; expected one of {BLOCK_KINDS}")
    if space.n % 2 and set(kinds) <= {"quad"}:
        raise ValueError(f"odd n = {space.n} needs a one-plane kind ('real' or 'imag')")
    lo, hi = SEMISIMPLE_PARAM_RANGE
    blocks, plane = [], 0
    while plane < space.n:
        options = [k for k in kinds if k != "quad" or plane + 1 < space.n]
        kind = options[rng.integers(len(options))]  # what rng.choice(options) reads, faster
        if kind == "quad":
            a, b = rng.uniform(lo, hi, 2)
        elif kind == "imag":
            a, b = 0.0, rng.uniform(lo, hi) * (-1.0, 1.0)[rng.integers(2)]
        else:
            a, b = rng.uniform(lo, hi), 0.0
        size = 2 if kind == "quad" else 1
        blocks.append(WilliamsonBlock(kind, float(a), float(b), tuple(range(plane, plane + size))))
        plane += size
    return blocks, _random_gaussian(space, SEMISIMPLE_FRAME_SCALE, rng)


def semisimple_elements(space: SymplecticSpace, draws: list) -> list[tuple[SpElement, list]]:
    """The elements and blocks of draws (`draw_semisimple`), built as one stack:
    one expm of the frames g, one g D g^omega, one skew_part and one membership
    check.  A failing draw raises the error that building the draws one at a
    time, in order, raises first."""
    if not draws:
        return []
    blocks, X = zip(*draws)
    g, errors = group_elements(space, np.array(X))
    k = next((t for t, error in enumerate(errors) if error), len(errors))
    D = _assemble(space.n, blocks[:k])
    elements = SpElement.stack(space, skew_part(g[:k] @ D @ omega_adjoint(g[:k])))
    if k < len(errors):
        raise errors[k]
    return list(zip(elements, blocks))
