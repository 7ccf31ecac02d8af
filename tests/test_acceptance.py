"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing a pass/fail line (run with -s to see them live), and zero-slack
guards on the limit route's bars over the populations of criteria 01-03 and
over non-semi-simple elements of known value."""

import time

import numpy as np
import pytest

from spqs.harness import (
    check_ad_invariance,
    check_quasi_linearity,
    embed_gl,
    fit_gleason_on_unitary,
    fit_main_theorem,
    fit_rank_one_trace,
    frobenius_pseudo_state,
    maslov_imtrace_oracle,
)
from spqs.maslov import (
    MaslovLimitConfig,
    maslov_dim2,
    maslov_evaluate,
    maslov_limit_batch,
    maslov_spectral,
)
from spqs.quasistates import (
    discontinuous_qs,
    linear_combination,
    linear_qs,
    maslov_qs,
    nilpotent_jordan_sp,
)
from spqs.symplectic import (
    SpElement,
    SymplecticSpace,
    omega,
    omega_adjoint,
    project_skew_symplectic,
    random_symplectic_group_element,
    rng_from,
    skew_part,
    y_element,
    z_element,
)
from spqs.williamson import (
    classify_eigenstructure,
    random_semisimple,
    williamson_decompose,
    yz_decomposition,
)

FULL = MaslovLimitConfig(t_max=2000.0)


def report_line(k, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {k}: {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_01_dim2_three_way_agreement():
    t0 = time.time()
    rng = rng_from(0)
    sp = SymplecticSpace(1)
    els, truths = [], []
    for _ in range(200):
        a, b, c = rng.uniform(-2.0, 2.0, 3)
        els.append(SpElement(sp, np.array([[a, b], [c, -a]])))
        truths.append(maslov_dim2(a, b, c))
    ests = maslov_limit_batch(els, FULL)
    excess = max(
        abs(e.value - t) - e.error_bar for e, t in zip(ests, truths)
    )
    elapsed = time.time() - t0
    report_line(
        1,
        excess <= 1e-3 and elapsed <= 60.0,
        f"200 matrices, worst |limit - closed form| - bar = {excess:.2e} "
        f"(tol 1e-3), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_02_y_z_anchor_values():
    t0 = time.time()
    worst = -np.inf
    for n in (1, 2, 3):
        sp = SymplecticSpace(n)
        rng = rng_from(100 + n)
        els, truths = [], []
        for _ in range(100):
            xi = rng.standard_normal(2 * n)
            eta = rng.standard_normal(2 * n)
            els.append(y_element(sp, xi, eta))
            truths.append(-abs(omega(sp, xi, eta)))
            els.append(z_element(sp, xi, eta))
            truths.append(0.0)
        ests = maslov_limit_batch(els, FULL)
        worst = max(
            worst, max(abs(e.value - t) - e.error_bar for e, t in zip(ests, truths))
        )
    elapsed = time.time() - t0
    report_line(
        2,
        worst <= 1e-2 and elapsed <= 120.0,
        f"600 generator evaluations, worst excess {worst:.2e} (tol 1e-2), "
        f"{elapsed:.1f}s (budget 120s)",
    )


def test_criterion_03_limit_vs_spectral_oracle():
    t0 = time.time()
    worst = -np.inf
    for n in (2, 3, 4):
        sp = SymplecticSpace(n)
        rng = rng_from(200 + n)
        els = [random_semisimple(sp, rng)[0] for _ in range(100)]
        ests = maslov_limit_batch(els, FULL)
        for B, est in zip(els, ests):
            (value,) = maslov_spectral(classify_eigenstructure([B]))
            worst = max(worst, abs(est.value - value) - est.error_bar)
    elapsed = time.time() - t0
    report_line(
        3,
        worst <= 1e-2 and elapsed <= 300.0,
        f"300 semi-simple elements, worst |limit - spectral| - bar = {worst:.2e} "
        f"(tol 1e-2), {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_04_quasi_linearity_suite():
    mq = maslov_qs(FULL)
    lin = linear_qs(rng_from(7).standard_normal((6, 6)))
    ok = True
    details = []
    for n in (1, 2, 3):
        sp = SymplecticSpace(n)
        for strat in ("common-frame", "odd-polynomial"):
            (r,) = check_quasi_linearity([(mq, 0.0)], sp, strat, 50, 300 + n)
            ok &= r.passed
            details.append(f"maslov n={n} {strat}: excess {r.max_defect:.1e}")
    (r,) = check_quasi_linearity([(lin, 1e-10)], SymplecticSpace(3), "common-frame", 50, 310)
    ok &= r.passed
    details.append(f"linear: defect {r.max_defect:.1e}")
    A = nilpotent_jordan_sp(SymplecticSpace(2))
    dq = discontinuous_qs(A, 1.0)
    (r,) = check_quasi_linearity(
        [(dq, 1e-9)], SymplecticSpace(2), "odd-polynomial", 50, 311, base=A
    )
    ok &= r.passed
    details.append(f"discontinuous: defect {r.max_defect:.1e}")
    (r,) = check_quasi_linearity(
        [(frobenius_pseudo_state(), 1e-6)],
        SymplecticSpace(2),
        "common-frame",
        50,
        312,
    )
    ok &= not r.passed
    details.append(f"negative control fails: {not r.passed}")
    report_line(4, ok, "; ".join(details))


def test_criterion_05_ad_invariance():
    mq = maslov_qs(FULL)
    ok = True
    details = []
    for n in (1, 3):
        r = check_ad_invariance(mq, SymplecticSpace(n), 50, 0.0, 400 + n)
        ok &= r.passed
        details.append(f"maslov n={n}: excess {r.max_defect:.1e}")
    lin = linear_qs(rng_from(8).standard_normal((6, 6)))
    r = check_ad_invariance(lin, SymplecticSpace(3), 50, 1e-6, 410)
    ok &= not r.passed
    details.append(f"linear control fails: {not r.passed}")
    report_line(5, ok, "; ".join(details))


def test_criterion_06_gleason_fit():
    sp = SymplecticSpace(3)
    r = fit_gleason_on_unitary(
        maslov_qs(FULL), sp, 1e-2, 500, oracle=maslov_imtrace_oracle()
    )
    dev = r.fitted_parameters["oracle_max_dev"]
    report_line(
        6,
        r.passed and dev <= 1e-6,
        f"held-out residual {r.max_defect:.2e} (tol 1e-2), "
        f"imaginary-trace oracle deviation {dev:.2e} (tol 1e-6)",
    )


def test_criterion_07_rank_one_trace_fit():
    sp = SymplecticSpace(3)
    emb = embed_gl(sp, 600)
    r_m = fit_rank_one_trace(maslov_qs(FULL), emb, 1e-2, 601)
    lin = linear_qs(rng_from(9).standard_normal((6, 6)))
    r_l = fit_rank_one_trace(lin, emb, 1e-9, 602)
    report_line(
        7,
        r_m.passed and r_l.passed,
        f"maslov residual {r_m.max_defect:.2e} (tol 1e-2), "
        f"linear residual {r_l.max_defect:.2e} (tol 1e-9)",
    )


def test_criterion_08_main_theorem_recovery():
    t0 = time.time()
    sp = SymplecticSpace(3)
    mq = maslov_qs(FULL)
    N0 = rng_from(10).standard_normal((6, 6))
    lin = linear_qs(N0)
    ok = True
    details = []
    for i, c0 in enumerate((-2.0, -1.0, 0.0, 1.0, 2.0)):
        zeta = linear_combination([(c0, mq), (1.0, lin)])
        (r,) = fit_main_theorem([zeta], sp, 1e-2, 700 + i)
        c_rec = r.fitted_parameters["maslov_coefficient"]
        s3 = r.fitted_parameters["stage3_residual"]
        ok &= abs(c_rec - c0) <= 1e-2 and s3 <= 1e-2 and r.passed
        details.append(f"c0={c0:+.0f}: recovered {c_rec:+.4f}, stage3 {s3:.1e}")
    elapsed = time.time() - t0
    ok &= elapsed <= 600.0
    report_line(8, ok, "; ".join(details) + f"; {elapsed:.1f}s (budget 600s)")


def test_criterion_09_discontinuous_family():
    ok = True
    details = []
    for n in (1, 2, 3):
        sp = SymplecticSpace(n)
        A = nilpotent_jordan_sp(sp)
        zeta = discontinuous_qs(A, 1.0)
        (r,) = check_quasi_linearity([(zeta, 1e-9)], sp, "odd-polynomial", 50, 800 + n, base=A)
        ok &= r.passed

        bound = zeta.source.bound_constant
        rng = rng_from(810 + n)
        worst = 0.0
        for _ in range(10_000):
            x = project_skew_symplectic(sp, rng.standard_normal((2 * n, 2 * n)))
            nrm = x.norm()
            if nrm == 0:
                continue
            worst = max(worst, abs(zeta((1.0 / nrm) * x)))
        ok &= worst <= bound

        E = project_skew_symplectic(sp, rng.standard_normal((2 * n, 2 * n)))
        seq_ok = zeta(A) == pytest.approx(1.0) and all(
            zeta(A + (1.0 / k) * E) == 0.0 for k in (1, 10, 100, 1000)
        )
        ok &= seq_ok

        g = random_symplectic_group_element(sp, 0.5, 820 + n)
        A2 = project_skew_symplectic(sp, g @ A.mat @ omega_adjoint(g))
        zeta2 = discontinuous_qs(A2, 1.0)
        indep = zeta(A) != 0.0 and zeta2(A) == 0.0
        ok &= indep
        details.append(
            f"n={n}: quasi-linear {r.passed}, sup/bound {worst:.2e}/{bound:.2e}, "
            f"discontinuous-at-A {seq_ok}, independent {indep}"
        )
    report_line(9, ok, "; ".join(details))


def test_criterion_10_williamson_round_trip():
    ok = True
    worst_resid = 0.0
    worst_frame = 0.0
    worst_rel = 0.0
    for n in (1, 2, 3, 4):
        sp = SymplecticSpace(n)
        O = sp.omega_matrix
        rng = rng_from(900 + n)
        for _ in range(100):
            B, _ = random_semisimple(sp, rng)
            (dec,) = williamson_decompose(classify_eigenstructure([B]))
            frame = np.abs(dec.S.T @ O @ dec.S - O).max()
            resid = np.abs(
                dec.S @ dec.assemble() @ omega_adjoint(dec.S) - B.mat
            ).max() / max(1e-30, np.abs(B.mat).max())
            worst_frame = max(worst_frame, frame)
            worst_resid = max(worst_resid, resid)
            (terms,) = yz_decomposition([B], [dec])
            mats = [(c, M) for c, _, M in terms]
            idx = 0
            for blk in dec.blocks:
                if blk.kind != "quad":
                    idx += 1
                    continue
                z1, z2, y1, y2 = (m for _, m in mats[idx : idx + 4])
                zsum = blk.a * (z1 + z2)
                ycomb = blk.b * (y2 - y1)
                for lhs, rhs in ((zsum, ycomb), (z1, z2), (y1, y2)):
                    worst_rel = max(
                        worst_rel, np.abs(lhs @ rhs - rhs @ lhs).max()
                    )
                idx += 4
    ok = worst_resid <= 1e-6 and worst_frame <= 1e-8 and worst_rel <= 1e-10
    report_line(
        10,
        ok,
        f"400 round trips: residual {worst_resid:.2e} (tol 1e-6), frame defect "
        f"{worst_frame:.2e} (tol 1e-8), block relations {worst_rel:.2e} (tol 1e-10)",
    )


def criterion_01_population(size):
    """The first `size` elements of criterion 01 and their closed-form values."""
    rng = rng_from(0)
    sp = SymplecticSpace(1)
    abcs = [rng.uniform(-2.0, 2.0, 3) for _ in range(size)]
    return ([SpElement(sp, np.array([[a, b], [c, -a]])) for a, b, c in abcs],
            [maslov_dim2(a, b, c) for a, b, c in abcs])


def criterion_02_population(n, pairs):
    """The first `pairs` Y/Z pairs of criterion 02 at n and their anchor values."""
    sp = SymplecticSpace(n)
    rng = rng_from(100 + n)
    els, truths = [], []
    for _ in range(pairs):
        xi = rng.standard_normal(2 * n)
        eta = rng.standard_normal(2 * n)
        els += [y_element(sp, xi, eta), z_element(sp, xi, eta)]
        truths += [-abs(omega(sp, xi, eta)), 0.0]
    return els, truths


def criterion_03_population(n, size):
    """The first `size` elements of criterion 03 at n and their spectral values."""
    sp = SymplecticSpace(n)
    rng = rng_from(200 + n)
    els = [random_semisimple(sp, rng)[0] for _ in range(size)]
    return els, maslov_spectral(classify_eigenstructure(els))


@pytest.mark.xfail(raises=AssertionError, reason=(
    "ROADMAP item 1; CHANGES.md FOUND: at short horizons the limit route's error bar does "
    "not cover the truth, FOUND: it misses the truth on the isotropic generator Y_{e0,e1}, "
    "and FOUND: it reads exactly 0.0 on large rotations; the two-point bar "
    "|theta(T)/T - theta(T/2)/(T/2)| misses 5-16 of each 24"))
@pytest.mark.parametrize("T", [2000.0, 100.0])
@pytest.mark.parametrize("population", [
    lambda: criterion_01_population(24),
    lambda: criterion_02_population(2, 12),
    lambda: criterion_02_population(3, 12),
    lambda: criterion_03_population(2, 24),
    lambda: criterion_03_population(3, 24),
    lambda: criterion_03_population(4, 24),
], ids=["01", "02-n2", "02-n3", "03-n2", "03-n3", "03-n4"])
def test_limit_bars_cover_the_criteria_truths_without_slack(population, T):
    # criteria 01-03 add a slack of 1e-3 or 1e-2 to each bar; this guard adds none
    els, truths = population()
    ests = maslov_limit_batch(els, MaslovLimitConfig(t_max=T))
    misses = [(k, e.value, e.error_bar, t)
              for k, (e, t) in enumerate(zip(ests, truths)) if abs(e.value - t) > e.error_bar]
    assert misses == []


def semisimple_plus_jordan(n1, n2, seed):
    """(B, value) of B = g (S + N) g^omega in sp(2n), n = n1 + n2: S is
    random_semisimple at n1 and N the nilpotent Jordan chain at n2, each on its
    own planes, and g = random_symplectic_group_element(scale 0.3).  S and N
    commute and zeta(N) = 0, so the value is zeta(S), minus the sum of S's
    imaginary block parameters."""
    n, space = n1 + n2, SymplecticSpace(n1 + n2)
    S, blocks = random_semisimple(SymplecticSpace(n1), seed)
    N = nilpotent_jordan_sp(SymplecticSpace(n2))
    M = np.zeros((2 * n, 2 * n))
    for planes, X in ((np.r_[:n1, n:n + n1], S), (np.r_[n1:n, n + n1:2 * n], N)):
        M[np.ix_(planes, planes)] = X.mat
    g = random_symplectic_group_element(space, 0.3, seed)
    return (SpElement(space, skew_part(g @ M @ omega_adjoint(g))),
            -sum((b.b for b in blocks if b.kind == "imag"), 0.0))


@pytest.mark.xfail(raises=AssertionError, reason=(
    "ROADMAP item 1; CHANGES.md FOUND: on the non-semi-simple g (S + N) g^omega the "
    "limit route's two-point bar, where auto sends them, misses the constructed value "
    "on 2-6 of each 6 seeds"))
@pytest.mark.parametrize("T", [2000.0, 100.0])
@pytest.mark.parametrize("n1, n2", [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2)])
def test_auto_bars_cover_a_non_semisimple_truth_without_slack(n1, n2, T):
    misses = []
    for seed in range(6):
        B, truth = semisimple_plus_jordan(n1, n2, seed)
        ((value, bar, route),) = maslov_evaluate([B], MaslovLimitConfig(t_max=T), "auto")
        if abs(value - truth) > bar:
            misses.append((seed, route, value, bar, truth))
    assert misses == []
