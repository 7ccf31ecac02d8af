"""The stacked eigenvalue classification against a per-element reference.

`reference_reports` and `reference_spectral` are the per-element classification
and orientation that the stacked ones replaced: each element's eigenvalues are
grouped in a Python loop (`_classify_one`, `_cluster`, `_match_clusters`), and
each imaginary group is oriented on its own by `reference_orientation`.  Both
sides are read as one `Row` per element (`rows_of` reads a SpectrumStack's
clusters).  The stacked code must give the same rows, the same values bit for
bit, and the same first failure."""

import hashlib
import json
import os
from dataclasses import fields
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mp_oracle import maslov_truth
from spqs.maslov import MaslovLimitConfig, maslov_evaluate, maslov_spectral
from spqs.quasistates import nilpotent_jordan_sp
from spqs.symplectic import (
    SpElement,
    SymplecticSpace,
    omega_adjoint,
    random_symplectic_group_element,
    rng_from,
    y_element,
    z_element,
)
from spqs.williamson import (
    _GROUP_KINDS,
    _IMAG,
    _KIND_OF_BITS,
    _QUAD,
    _QUAD_PARTNER,
    _REAL_NEG,
    _REAL_POS,
    _ZERO,
    AXIS_BAND,
    CLUSTER_TOL,
    EIGVEC_COND_MAX,
    FRAME_SYMPLECTIC_TOL,
    ClassificationError,
    NonSemisimpleError,
    NormalizationError,
    WilliamsonBlock,
    WilliamsonDecomposition,
    SpectrumStack,
    _check_pairing,
    _rank,
    classify_eigenstructure,
    eigvec_condition,
    krein_parameters,
    random_semisimple,
    williamson_decompose,
)

# --------------------------------------------------------------------- rows


class Group(NamedTuple):
    kind: str         # "real" | "imag" | "quad" | "zero"
    indices: tuple    # eigenvalue indices (real: +a side; quad: -a+ib)
    partners: tuple   # paired indices (real: -a side; quad: +a+ib); () otherwise
    a: float
    b: float


class Row(NamedTuple):
    """One element's classification: its groups by kind (real, imag, quad, zero),
    then key; none when it is not semi-simple."""

    groups: tuple
    zero_multiplicity: int
    semi_simple: bool
    eigvec_cond: float


def rows_of(spectra: SpectrumStack) -> list[Row]:
    """Each classified element's Row, its groups read from spectra.clusters()."""
    found = [[] for _ in range(len(spectra))]
    for kind, rows, first, p, q, a, b, _, _ in spectra.clusters():
        for j, i in enumerate(rows.tolist()):
            found[i].append(((_GROUP_KINDS.index(kind), int(first[j])), Group(
                kind, tuple(p[j].tolist()), () if q is None else tuple(q[j].tolist()),
                float(a[j]), float(b[j]))))
    zeros = np.count_nonzero(spectra.kind == _ZERO, axis=-1).tolist()
    # by kind, then ranked position: unique in a row, so groups are never compared
    return [Row(tuple(g for _, g in sorted(gs)), z, bool(s), float(c))
            for gs, z, s, c in zip(found, zeros, spectra.semi_simple, spectra.eigvec_cond)]


def pairs(row: Row, kind: str) -> tuple:
    """(a, multiplicity) of each real group of a row, (b, multiplicity) of each
    imaginary one, or (a, b, multiplicity) of each quadruple."""
    params = {"real": ("a",), "imag": ("b",), "quad": ("a", "b")}[kind]
    return tuple((*(getattr(g, x) for x in params), len(g.indices))
                 for g in row.groups if g.kind == kind)


# ---------------------------------------------------------------- reference


def _cluster(keys: list, tol: float) -> list[list[int]]:
    """Positions of the real or complex `keys` grouped by single linkage along
    their (real, imag) lexicographic order."""
    groups = []
    for i in sorted(range(len(keys)), key=lambda i: (keys[i].real, keys[i].imag)):
        if groups and abs(keys[i] - keys[groups[-1][-1]]) <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _match_clusters(keys_a, idx_a, keys_b, idx_b, tol: float, what: str):
    """Pair the clusters of keys_a with those of keys_b in lexicographic order:
    one (idx_a entries, idx_b entries) per cluster.  The cluster sizes must
    match and the paired keys agree within 10 tol."""
    ca, cb = _cluster(keys_a, tol), _cluster(keys_b, tol)
    if len(ca) != len(cb) or any(len(x) != len(y) for x, y in zip(ca, cb)):
        raise ClassificationError(f"unmatched {what} eigenvalue clusters")
    if any(abs(keys_a[i] - keys_b[j]) > 10 * tol for x, y in zip(ca, cb) for i, j in zip(x, y)):
        raise ClassificationError(f"{what} eigenvalues do not pair up")
    return [([idx_a[i] for i in x], [idx_b[j] for j in y]) for x, y in zip(ca, cb)]


def _mean(xs: list[float]) -> float:
    return xs[0] if len(xs) == 1 else float(np.mean(xs))


def _classify_one(lam, V, cond, semi_simple, scale, kind) -> Row:
    """One element's Row from its row of the stacked eigensolve."""
    at = [[] for _ in range(7)]
    for i, k in enumerate(kind.tolist()):
        at[k].append(i)
    zero_idx, real_pos, real_neg, imag_pos, quad, quad_partner = (
        at[k] for k in (_ZERO, _REAL_POS, _REAL_NEG, _IMAG, _QUAD, _QUAD_PARTNER))
    if not semi_simple:
        return Row((), len(zero_idx), False, float(cond))
    ctol = float(CLUSTER_TOL * (1.0 + scale))
    z = lam.tolist()

    groups = []
    if real_pos or real_neg:
        pos, neg = [z[i].real for i in real_pos], [-z[i].real for i in real_neg]
        for p, q in _match_clusters(pos, real_pos, neg, real_neg, ctol, "real-pair"):
            groups.append(Group("real", tuple(p), tuple(q), _mean([z[i].real for i in p]), 0.0))
    for cl in _cluster([z[i].imag for i in imag_pos], ctol):
        idx = [imag_pos[i] for i in cl]
        groups.append(Group("imag", tuple(idx), (), 0.0, _mean([z[i].imag for i in idx])))
    if quad or quad_partner:  # pair lambda = -a+ib with +a+ib
        keys, partners = [-z[i].conjugate() for i in quad], [z[i] for i in quad_partner]
        for grp, par in _match_clusters(keys, quad, partners, quad_partner, ctol, "quadruple"):
            a, b = _mean([-z[i].real for i in grp]), _mean([z[i].imag for i in grp])
            groups.append(Group("quad", tuple(grp), tuple(par), a, b))
    if zero_idx:
        groups.append(Group("zero", tuple(zero_idx), (), 0.0, 0.0))
    return Row(tuple(groups), len(zero_idx), True, float(cond))


def reference_reports(Bs: list[SpElement]) -> tuple[list[Row], np.ndarray]:
    """The Rows of Bs, one element at a time after one stacked eigensolve, and
    the eigenvectors."""
    lam, V = np.linalg.eig(np.stack([b.mat for b in Bs]))
    cond, semi_simple = eigvec_condition(V)
    re, im = lam.real, lam.imag
    mod = np.hypot(re, im)
    band = AXIS_BAND * (1.0 + mod)
    scale = np.maximum(1.0, mod.max(axis=-1))
    kind = _KIND_OF_BITS[8 * (abs(im) <= band) + 4 * (abs(re) <= band) + 2 * (im > 0) + (re > 0)]
    kind[mod <= AXIS_BAND * (1.0 + scale)[:, None]] = _ZERO
    return [_classify_one(*row) for row in zip(lam, V, cond, semi_simple, scale, kind)], V


def reference_orientation(space: SymplecticSpace, W: np.ndarray, b: float) -> list[float]:
    """+-b for the imaginary group with eigenvector columns W, one per eigenvalue
    of its Krein Gram matrix (i/2) W^T Omega conj(W) in ascending order: +b where
    that eigenvalue is positive.  A Gram matrix with min |mu| <= 1e-10 max(1, max
    |mu|) raises NormalizationError."""
    mu = np.linalg.eigvalsh(0.5j * (W.T @ space.omega_matrix @ W.conj()))
    if np.abs(mu).min() <= 1e-10 * max(1.0, np.abs(mu).max()):
        raise NormalizationError("degenerate orientation pairing")
    return [b if m > 0 else -b for m in mu.tolist()]


def reference_krein(Bs: list[SpElement]) -> list[list[float]]:
    """The signed imaginary-pair parameters of each element by ascending b, each
    imaginary group oriented on its own by `reference_orientation`."""
    reports, V = reference_reports(Bs)
    for rep in reports:
        if not rep.semi_simple:
            raise NonSemisimpleError(
                f"eigenvector condition {rep.eigvec_cond:.3e} exceeds {EIGVEC_COND_MAX:.1e}"
            )
    return [[beta for g in rep.groups if g.kind == "imag"
             for beta in reference_orientation(B.space, v[:, list(g.indices)], g.b)]
            for B, rep, v in zip(Bs, reports, V)]


def reference_spectral(Bs: list[SpElement]) -> list[float]:
    """Minus the summed signed imaginary-pair parameters of each element."""
    return [-float(sum(betas)) + 0.0 for betas in reference_krein(Bs)]


def hexed(x):
    """Floats by their bits, in lists of any depth; anything else as it is."""
    if isinstance(x, float):
        return x.hex()
    return [hexed(v) for v in x] if isinstance(x, list) else x


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def public(row: Row) -> tuple:
    """Every field of a row, floats by their bits."""
    def bits(x):
        if isinstance(x, float):
            return x.hex()
        return tuple(map(bits, x)) if isinstance(x, tuple) else x

    return bits(row)


# ------------------------------------------------------------------ pairing


def stacked_match(keys_a, idx_a, keys_b, idx_b, tol, what):
    """The stacked classification's pairing of keys_a (real +a, or -a+ib for
    quadruples) with keys_b (their partners) in one row: the same return value and
    the same errors as `_match_clusters`."""
    quad = what == "quadruple"
    kind = np.array([[_QUAD if quad else _REAL_POS] * len(keys_a)
                     + [_QUAD_PARTNER if quad else _REAL_NEG] * len(keys_b)])
    # the eigenvalues with these keys: a, -a for real pairs; -a+ib, a+ib for quadruples
    lam = np.array([[-np.conj(key) if quad else key for key in keys_a]
                    + [key if quad else -key for key in keys_b]], dtype=complex)
    ctol = np.array([[tol]])
    spectra = SpectrumStack((None,), lam[:, None], np.ones(1), np.ones(1, bool),
                            *_rank(np.array([lam.real, lam.imag]), kind, ctol))
    _check_pairing(spectra, ctol)
    # the row's groups of that kind, read from the ranking alone
    (row,) = rows_of(spectra)
    return [([idx_a[i] for i in g.indices], [idx_b[j - len(keys_a)] for j in g.partners])
            for g in row.groups if g.kind == ("quad" if quad else "real")]


class TestPairing:
    """The reference pairing and the stacked one agree (the fixed cases are
    tests/test_williamson.py::TestMatchClusters)."""

    TOL = 1e-7

    @given(
        keys=st.lists(st.tuples(st.sampled_from([0.5, 1.0, 1.0 + 3e-8, 1.0 + 2e-7, 2.0]),
                                st.sampled_from([0.0, 1.0, 1.0 + 5e-8])), min_size=1, max_size=4),
        shift=st.lists(st.sampled_from([0.0, 0.0, 4e-7, 3e-6]), min_size=4, max_size=4),
        drop=st.booleans(),
        what=st.sampled_from(["real-pair", "quadruple"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_reference(self, keys, shift, drop, what):
        keys_a = [complex(a, b if what == "quadruple" else 0.0) for a, b in keys]
        keys_b = [key + s for key, s in zip(keys_a[::-1], shift)][: len(keys_a) - drop]
        idx_a, idx_b = list(range(len(keys_a))), list(range(9, 9 + len(keys_b)))
        args = (keys_a, idx_a, keys_b, idx_b, self.TOL, what)
        assert outcome(stacked_match, *args) == outcome(_match_clusters, *args)


# ------------------------------------------------------------------- stacks


def conjugated(space: SymplecticSpace, blocks, seed) -> SpElement:
    """The block-diagonal element of `blocks` in a random symplectic frame."""
    D = WilliamsonDecomposition(space, np.eye(space.dim), tuple(blocks)).assemble()
    g = random_symplectic_group_element(space, 0.5, seed)
    return SpElement(space, g @ D @ omega_adjoint(g))


def near_band(space: SymplecticSpace, seed, factor: float) -> SpElement:
    """A quadruple or real pair whose small parameter is `factor` times the
    axis band: just inside it (factor < 1) or just outside (factor > 1)."""
    rng = rng_from(seed)
    b = float(rng.uniform(0.5, 1.5))
    small = factor * AXIS_BAND * (1.0 + b)
    blocks = [WilliamsonBlock("quad", small, b, (0, 1))] if space.n >= 2 else []
    blocks += [WilliamsonBlock("real", small, 0.0, (p,)) for p in range(len(blocks) * 2, space.n)]
    return conjugated(space, blocks, seed)


def repeated(space: SymplecticSpace, seed, kind: str) -> SpElement:
    """Equal blocks of one kind on every plane (quadruples on pairs of
    planes, one imaginary block of each orientation for "krein")."""
    rng = rng_from(seed)
    a, b = (float(x) for x in rng.uniform(0.3, 2.0, 2))
    if kind == "quad" and space.n >= 2:
        blocks = [WilliamsonBlock("quad", a, b, (p, p + 1)) for p in range(0, space.n - 1, 2)]
        blocks += [WilliamsonBlock("imag", 0.0, b, (space.n - 1,))] if space.n % 2 else []
    elif kind == "real":
        blocks = [WilliamsonBlock("real", a, 0.0, (p,)) for p in range(space.n)]
    else:  # equal |b|, orientations alternating for "krein"
        sign = [1.0, -1.0] if kind == "krein" else [1.0, 1.0]
        blocks = [WilliamsonBlock("imag", 0.0, sign[p % 2] * b, (p,)) for p in range(space.n)]
    if space.n >= 2 and kind != "quad":  # a kernel plane besides
        blocks[-1] = WilliamsonBlock("real", 0.0, 0.0, (space.n - 1,))
    return conjugated(space, blocks, seed)


def unpaired(space: SymplecticSpace, seed, fault: str) -> SpElement:
    """Real pairs (quadruples for "quad-apart") that do not pair up: the +a
    side is moved by 5e-6, beyond 10 cluster tolerances ("apart"), or splits
    a cluster a, a + 0.9 tol of the -a side into a, a + 1.1 tol ("unmatched").
    The skew defect this needs hides behind a large symmetric upper block, so
    the matrix stays in the algebra."""
    n = space.n
    a = 1.0 + float(rng_from(seed).uniform(0.0, 0.5))
    tol = CLUSTER_TOL * (1.0 + a)
    P = -np.diag(a + (0.9 * tol if fault == "unmatched" else 1.0) * np.arange(n))
    shift = np.zeros(n)
    if fault == "quad-apart" and n >= 2:
        P[:2, :2] = [[-a, 0.7], [-0.7, -a]]
        shift[:2] = 5e-6
    elif fault == "apart" or n == 1:
        shift[0] = 5e-6
    else:
        shift[1] = 0.2 * tol
    M = np.block([[P, 1e5 * np.eye(n)], [np.zeros((n, n)), -P.T + np.diag(shift)]])
    return SpElement(space, M)


def element(space: SymplecticSpace, recipe: str, seed: int) -> SpElement:
    rng = rng_from(seed)
    kinds = {"real": ("real",), "imag": ("imag",), "mixed": ("real", "imag", "quad")}
    if recipe in kinds:
        return random_semisimple(space, seed, kinds[recipe])[0]
    if recipe in ("y", "z"):
        xi, eta = rng.standard_normal((2, space.dim))
        return (y_element if recipe == "y" else z_element)(space, xi, eta)
    if recipe == "nilpotent":
        return float(rng.uniform(0.5, 2.0)) * nilpotent_jordan_sp(space)
    if recipe in ("inside", "outside"):
        return near_band(space, seed, 0.5 if recipe == "inside" else 2.0)
    if recipe in ("apart", "unmatched", "quad-apart"):
        return unpaired(space, seed, recipe)
    return repeated(space, seed, recipe.removesuffix("-repeat"))


RECIPES = ["real", "imag", "mixed", "y", "z", "nilpotent", "inside", "outside", "real-repeat",
           "imag-repeat", "krein", "quad-repeat", "apart", "unmatched", "quad-apart"]


class TestStackedClassification:
    @given(
        n=st.integers(1, 4),
        recipes=st.lists(st.tuples(st.sampled_from(RECIPES), st.integers(0, 2**32 - 1)),
                         min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_the_per_element_reference(self, n, recipes):
        space = SymplecticSpace(n)
        Bs = [element(space, recipe, seed) for recipe, seed in recipes]

        # the rows, or the first failing element's exception
        got = outcome(lambda: [public(row) for row in rows_of(classify_eigenstructure(Bs))])
        want = outcome(lambda: [public(rep) for rep in reference_reports(Bs)[0]])
        assert got == want
        for B in Bs:  # a stack of one gives the same row as the stack
            assert outcome(lambda: public(rows_of(classify_eigenstructure([B]))[0])) == outcome(
                lambda: public(reference_reports([B])[0][0]))

        # the spectral values bit for bit, or the same first failure
        bits = lambda vs: [v.hex() for v in vs] if isinstance(vs, list) else vs  # noqa: E731
        spectral = lambda Bs: maslov_spectral(classify_eigenstructure(Bs))  # noqa: E731
        assert bits(outcome(spectral, Bs)) == bits(outcome(reference_spectral, Bs))
        alone = [B for B in Bs if not isinstance(outcome(reference_spectral, [B]), tuple)]
        if alone:
            assert bits(spectral(alone)) == bits(reference_spectral(alone))
        # and each element's signed parameters, in order
        krein = lambda Bs: krein_parameters(classify_eigenstructure(Bs))  # noqa: E731
        assert hexed(outcome(krein, Bs)) == hexed(outcome(reference_krein, Bs))

    @pytest.mark.parametrize("n", [3, 4])
    def test_parameters_ascend_across_cluster_sizes(self, n):
        # a repeated imaginary cluster below the simple ones, then above them
        space = SymplecticSpace(n)
        for low, high in ((0.5, 1.5), (1.5, 0.5)):
            blocks = [WilliamsonBlock("imag", 0.0, low, (p,)) for p in (0, 1)] + [
                WilliamsonBlock("imag", 0.0, high + 0.1 * p, (p,)) for p in range(2, n)]
            B = conjugated(space, blocks, 7)
            (got,) = krein_parameters(classify_eigenstructure([B]))
            assert hexed(got) == hexed(reference_krein([B])[0])
            assert [abs(b) for b in got] == sorted(abs(b) for b in got)

    def test_every_recipe_classifies_at_every_n(self):
        # each recipe gives an element the reference accepts or refuses alike,
        # and the same spectral value bits or failure, alone and in one stack
        bits = lambda vs: [v.hex() for v in vs] if isinstance(vs, list) else vs  # noqa: E731
        spectral = lambda Bs: maslov_spectral(classify_eigenstructure(Bs))  # noqa: E731
        for n in (1, 2, 3, 4):
            space = SymplecticSpace(n)
            Bs = [element(space, recipe, 7) for recipe in RECIPES]
            for B in Bs:
                assert outcome(lambda: public(rows_of(classify_eigenstructure([B]))[0])) == outcome(
                    lambda: public(reference_reports([B])[0][0]))
                assert bits(outcome(spectral, [B])) == bits(outcome(reference_spectral, [B]))
            assert bits(outcome(spectral, Bs)) == bits(outcome(reference_spectral, Bs))
            alone = [B for B in Bs if not isinstance(outcome(reference_spectral, [B]), tuple)]
            assert bits(spectral(alone)) == bits(reference_spectral(alone))

    @pytest.mark.parametrize("n", [2, 3])
    def test_take_is_the_classification_of_its_rows(self, n):
        # semi-simple draws, a nilpotent and a Krein collision: the gathered rows equal
        # the rows classified alone, on every array field and every cluster, bit for bit
        # (eig returns real eigenvectors for a stack whose spectra are all real: compared
        # as complex, exactly)
        def raw(x):
            if x is None or isinstance(x, str):
                return x
            x = x.astype(complex) if x.dtype.kind == "f" else x
            return x.dtype.str, x.shape, x.tobytes()

        space = SymplecticSpace(n)
        collision = [WilliamsonBlock("imag", 0.0, b, (p,)) for p, b in enumerate((0.8, -0.8, 1.1))]
        Bs = [element(space, recipe, seed) for seed in (3, 4)
              for recipe in ("mixed", "nilpotent", "imag", "quad-repeat")]
        Bs[2:2] = [conjugated(space, collision[:n], 5)]
        spectra = classify_eigenstructure(Bs)
        assert 2 in {p.shape[1] for _, _, _, p, *_ in spectra.clusters(("imag",))}
        for rows in (np.array([1, 2, 7]), np.arange(len(Bs))[::-1], np.array([6])):
            got, want = spectra.take(rows), classify_eigenstructure([Bs[i] for i in rows])
            assert all(a is b for a, b in zip(got.elements, want.elements, strict=True))
            assert [raw(getattr(got, f.name)) for f in fields(SpectrumStack)[1:]] == [
                raw(getattr(want, f.name)) for f in fields(SpectrumStack)[1:]]
            assert [tuple(map(raw, c)) for c in got.clusters()] == [
                tuple(map(raw, c)) for c in want.clusters()]


class TestCorpusSlice:
    """The 380 inputs of tests/corpus.py with recipe seed < 5 and y/z draw < 10, built
    once.  Their hashes hold with numpy 2.4.6 on scipy-openblas (the ROADMAP baseline);
    another BLAS or numpy may round the eigensolves differently."""

    @pytest.fixture(scope="class")
    def inputs(self):
        import corpus  # imported here: corpus imports this module

        return corpus.head(corpus.corpus())

    @staticmethod
    def recorded(name, key):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, name)) as fh:
            return json.load(fh)[key]["sha256"]

    def test_digest_matches_the_recorded_hash(self, inputs):
        """They digest under auto, spectral and decompose (each alone, then stacked)
        to the sha256 recorded in BENCH_single_call.json."""
        import corpus

        lines = corpus.digest(inputs, ("auto", "spectral", "decompose"))
        assert len(lines) == 380
        assert (hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()
                == self.recorded("BENCH_single_call.json", "corpus_slice"))

    def test_limit_route_matches_the_recorded_hash(self, inputs):
        """Each swept alone by the limit route at corpus.CFG, they digest (value and
        bar bits, or the exception's name) to the sha256 recorded in
        BENCH_one_copy_two.json.  357 of them are swept on a coarsened grid, which
        the hash above never reaches."""
        import corpus

        lines = []
        for _, _, B in inputs:
            got = outcome(maslov_evaluate, [B], corpus.CFG, "limit")
            lines.append(f"{got[0][0].hex()} {got[0][1].hex()}\n" if isinstance(got, list)
                         else f"{got[0].__name__}\n")
        assert len(lines) == 380
        assert (hashlib.sha256("".join(lines).encode()).hexdigest()
                == self.recorded("BENCH_one_copy_two.json", "limit_slice"))


class TestStackedDecomposition:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_a_list_decomposes_as_its_elements_do(self, n):
        space = SymplecticSpace(n)
        Bs = [element(space, recipe, seed) for recipe in RECIPES for seed in (7, 8)]
        alone = [outcome(lambda: williamson_decompose(classify_eigenstructure([B]))[0]) for B in Bs]
        accepted = [B for B, dec in zip(Bs, alone) if not isinstance(dec, tuple)]
        failures = [(B, err) for B, err in zip(Bs, alone) if isinstance(err, tuple)]
        assert accepted and failures

        # each accepted element's frame and blocks bit for bit
        def bits(dec):
            blocks = [(b.kind, b.a.hex(), b.b.hex(), b.planes) for b in dec.blocks]
            return dec.S.tobytes(), blocks, dec.roundtrip_residual.hex()

        stacked = williamson_decompose(classify_eigenstructure(accepted))
        want = [dec for dec in alone if not isinstance(dec, tuple)]
        assert [bits(dec) for dec in stacked] == [bits(dec) for dec in want]

        # a failing element in the middle of a list fails it as it fails alone
        mid = len(accepted) // 2
        for B, err in failures:
            Bs = accepted[:mid] + [B] + accepted[mid:]
            assert outcome(lambda: williamson_decompose(classify_eigenstructure(Bs))) == err
        # semi-simplicity is checked row by row: a frame failure before a
        # non-semi-simple element is the list's failure (at n = 1 every recipe
        # that classifies also decomposes, so there is no frame failure)
        if n > 1:
            first = {err[0]: (B, err) for B, err in reversed(failures)}
            (frame, err), (nilpotent, _) = first[NormalizationError], first[NonSemisimpleError]
            Bs = accepted[:mid] + [frame] + accepted[mid:] + [nilpotent]
            assert outcome(lambda: williamson_decompose(classify_eigenstructure(Bs))) == err

    def test_the_value_and_the_frame_read_one_orientation(self):
        # each decomposed element's signed parameters are its imaginary blocks' b
        decomposed = 0
        for n in (1, 2, 3, 4):
            space = SymplecticSpace(n)
            for B in (element(space, recipe, seed) for recipe in RECIPES for seed in (7, 8)):
                try:
                    spectra = classify_eigenstructure([B])
                    (dec,) = williamson_decompose(spectra)
                except (ClassificationError, NonSemisimpleError, NormalizationError):
                    continue
                decomposed += 1
                imag = [blk.b for blk in dec.blocks if blk.kind == "imag"]
                assert [b.hex() for b in sorted(krein_parameters(spectra)[0])] == [
                    b.hex() for b in sorted(imag)]
        assert decomposed == 84


class TestNearBandDecomposition:
    """Blocks whose small parameter lies near the axis band.  Half the band
    inside, the real pairs classify as kernel and a quadruple as an imaginary
    cluster; the decomposition builds both from that classification."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 14])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_inside_the_band_decomposes(self, n, seed):
        space = SymplecticSpace(n)
        spectra = classify_eigenstructure([near_band(space, seed, 0.5)])
        (dec,) = williamson_decompose(spectra)
        # kernel planes for the real pairs, two opposite planes for the quadruple
        kinds = ["real"] * (n - 2 if n >= 2 else 1) + ["imag"] * (2 if n >= 2 else 0)
        assert [blk.kind for blk in dec.blocks] == kinds
        assert all(blk.a == 0.0 for blk in dec.blocks)
        O = space.omega_matrix
        assert np.abs(dec.S.T @ O @ dec.S - O).max() <= FRAME_SYMPLECTIC_TOL
        assert maslov_spectral(spectra) == [-sum(blk.b for blk in dec.blocks) + 0.0] == [0.0]

    # twice the band outside, the +-a eigenvectors are 4e-8 (1 + b) apart and
    # the frame misses FRAME_SYMPLECTIC_TOL, with defects up to 4e-7
    @pytest.mark.xfail(strict=True, raises=NormalizationError, reason=(
        "CHANGES.md FOUND: `spqs decompose` exits 5 on semi-simple inputs whose "
        "parameter lies twice the axis band outside it (frame symplectic defect)"))
    @pytest.mark.parametrize("n, seed", [(2, 0), (3, 0), (4, 1)])
    def test_outside_the_band_decomposes(self, n, seed):
        williamson_decompose(classify_eigenstructure([near_band(SymplecticSpace(n), seed, 2.0)]))


class TestHighPrecisionTruth:
    """Clustered imaginary spectra against the 50-digit truth of mp_oracle."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_clustered_values_lie_within_their_bar(self, n):
        space = SymplecticSpace(n)
        Bs = [element(space, recipe, 7) for recipe in ("krein", "imag-repeat", "quad-repeat",
                                                        "inside")]
        for B, (value, bar, route) in zip(Bs, maslov_evaluate(Bs, MaslovLimitConfig())):
            assert route == "spectral"
            assert abs(value - maslov_truth(B)) <= bar


class TestLimitRouteMisses:
    """Cases whose error bar misses the truth today, one strict xfail per
    ROADMAP item that mends them.  Each test asserts |value - truth| <= bar
    with no slack over all its cases at once, so it flips only when every
    case is covered."""

    @pytest.mark.xfail(raises=AssertionError, reason=(
        "ROADMAP item 1; CHANGES.md FOUND: `--method limit` reads a zero bar on rotations "
        "of angular speed 1e3-1e6, and FOUND: at short horizons the limit route's error bar "
        "does not cover the truth"))
    def test_limit_bars_cover_the_truth(self):
        sp1 = SymplecticSpace(1)
        cases = [(SpElement(sp1, np.array([[0.0, -r], [r, 0.0]])), T)
                 for r in (1e3, 1e4, 1e5, 1e6) for T in (2000.0, 100.0)]
        jordan = SpElement(sp1, np.array([[0.0, 1.0], [0.0, 0.0]]))
        cases += [(jordan, T) for T in (1.0, 100.0, 2000.0)]
        misses = []
        for B, T in cases:
            ((value, bar, _),) = maslov_evaluate([B], MaslovLimitConfig(t_max=T), "limit")
            truth = 0 if B is jordan else maslov_truth(B)  # nilpotent: the theorem value
            if abs(value - truth) > bar:
                misses.append((B.mat[1, 0], T, value, bar))
        assert misses == []

    @pytest.mark.xfail(raises=AssertionError, reason=(
        "ROADMAP item 2; CHANGES.md FOUND: `auto` sends semi-simple inputs to the limit "
        "route when eig splits a repeated zero (a covering limit-route bar from item 1 "
        "would also flip this test)"))
    def test_split_repeated_zero_lies_within_its_bar(self):
        sp2 = SymplecticSpace(2)
        Y = y_element(sp2, sp2.basis_e(0) + sp2.basis_f(1), sp2.basis_e(1) - sp2.basis_f(0))
        ((value, bar, _),) = maslov_evaluate([Y], MaslovLimitConfig())
        assert abs(value - maslov_truth(Y)) <= bar
