"""Command-line front end: evaluate the quasi-state on a matrix, decompose
into normal-form blocks, run verification suites, and emit convergence
traces.

Exit codes: 0 success, 1 suite failure, 2 matrix parse failure, 3 input not
skew-symplectic or not finite, 4 method precondition violated or no finite
result (limit-route overflow, unresolved phase gaps), 5 non-semisimple input.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import harness, report as reportmod
from .maslov import (
    MaslovLimitConfig,
    MaslovLimitError,
    SemisimplicityError,
    maslov_dim2,
    maslov_evaluate,
    phase_trace,
)
from .matrixio import MatrixParseError, atomic_write, read_matrix, write_matrix
from .quasistates import discontinuous_qs, linear_qs, linear_combination, maslov_qs, nilpotent_jordan_sp
from .symplectic import (
    SkewSymplecticityError,
    SpElement,
    SymplecticSpace,
    omega_adjoint,
    standard_complex_structure,
)
from .williamson import (
    ClassificationError,
    NonSemisimpleError,
    NormalizationError,
    williamson_decompose,
)

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_PARSE = 2
EXIT_NOT_SP = 3
EXIT_PRECONDITION = 4
EXIT_NON_SEMISIMPLE = 5

OUT_DIR_ENV = "SPQS_OUT_DIR"

SUITES = (
    "quasi-linearity",
    "ad-invariance",
    "gleason",
    "rank-one",
    "isotropic",
    "main-theorem",
    "all",
)


@dataclass(frozen=True)
class RunConfig:
    n: int = 3
    seed: int = 0
    t_max: float = 2000.0
    dt: float = 0.05
    tol: float = 1e-2
    trials: int = 50
    output_path: str | None = None
    format: str = "structured-text"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if min(self.t_max, self.dt, self.tol) <= 0 or self.trials < 1:
            raise ValueError("numeric configuration fields must be positive")
        if self.format not in ("structured-text", "comma-separated"):
            raise ValueError(f"unknown format {self.format!r}")

    def limit_config(self) -> MaslovLimitConfig:
        return MaslovLimitConfig(t_max=self.t_max, dt=self.dt)


def _default_out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV, ".")


def _load_element(path: str) -> SpElement:
    M = read_matrix(path)
    space = SymplecticSpace(M.shape[0] // 2)
    return SpElement(space, M)


def cmd_eval(args) -> int:
    cfg = _config_from(args)
    B = _load_element(args.matrix_file)
    method = args.method
    if method == "dim2":
        if B.space.n != 1:
            print("error: dim2 closed form needs a 2x2 input", file=sys.stderr)
            return EXIT_PRECONDITION
        value = maslov_dim2(B.mat[0, 0], B.mat[0, 1], B.mat[1, 0])
        error_bar = 0.0
    else:
        try:
            value, error_bar, method = maslov_evaluate(B, cfg.limit_config(), method)
        except (SemisimplicityError, ClassificationError) as exc:
            if method == "auto":
                raise  # the auto classification failed: EXIT_NON_SEMISIMPLE
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
    if not (np.isfinite(value) and np.isfinite(error_bar)):
        print(f"error: non-finite value {value!r} or error bar {error_bar!r}", file=sys.stderr)
        return EXIT_PRECONDITION
    print(f"value: {value!r}")
    print(f"error_bar: {error_bar!r}")
    print(f"method: {method}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    B = _load_element(args.matrix_file)
    dec = williamson_decompose(B)
    n = B.space.n
    resid = float(
        np.abs(dec.S @ dec.assemble() @ omega_adjoint(dec.S) - B.mat).max()
        / max(1.0, np.abs(B.mat).max())
    )
    out_dir = args.out or _default_out_dir()
    stem = os.path.splitext(os.path.basename(args.matrix_file))[0]
    frame_path = os.path.join(out_dir, f"{stem}_frame.txt")
    write_matrix(frame_path, dec.S)
    print(f"planes: {n}")
    for blk in dec.blocks:
        if blk.kind == "real":
            desc = f"real_pair a={blk.a!r}"
        elif blk.kind == "imag":
            desc = f"imag_pair b={blk.b!r}"
        else:
            desc = f"quadruple a={blk.a!r} b={blk.b!r}"
        print(f"block: {desc} planes={list(blk.planes)}")
    print(f"frame_file: {frame_path}")
    print(f"roundtrip_residual: {resid!r}")
    return EXIT_OK


def _suite_reports(suite: str, cfg: RunConfig, negative_control: bool):
    space = SymplecticSpace(cfg.n)
    seed = cfg.seed
    mq = maslov_qs(cfg.limit_config())
    rng_n = np.random.Generator(np.random.Philox(seed + 1))
    Nmat = rng_n.standard_normal((space.dim, space.dim))
    lin = linear_qs(Nmat)
    reports = []

    def qlin():
        for strat in ("common-frame", "odd-polynomial"):
            reports.append(
                harness.check_quasi_linearity(lin, space, strat, cfg.trials, 1e-10, seed)
            )
            reports.append(
                harness.check_quasi_linearity(mq, space, strat, cfg.trials, cfg.tol, seed)
            )
        A = nilpotent_jordan_sp(space)
        dq = discontinuous_qs(A, 1.0)
        reports.append(
            harness.check_quasi_linearity(
                dq, space, "odd-polynomial", cfg.trials, 1e-9, seed, base=A
            )
        )
        if negative_control:
            reports.append(
                harness.check_quasi_linearity(
                    harness.frobenius_pseudo_state(space),
                    space,
                    "common-frame",
                    cfg.trials,
                    cfg.tol,
                    seed,
                )
            )

    def adinv():
        reports.append(harness.check_ad_invariance(mq, space, cfg.trials, cfg.tol, seed))
        if negative_control:
            reports.append(
                harness.check_ad_invariance(lin, space, cfg.trials, cfg.tol, seed)
            )

    def gleason():
        J = standard_complex_structure(space)
        reports.append(harness.fit_gleason_on_unitary(lin, J, 1e-9, seed))
        reports.append(
            harness.fit_gleason_on_unitary(
                mq, J, cfg.tol, seed, oracle=harness.maslov_imtrace_oracle(space)
            )
        )

    def rankone():
        emb = harness.embed_gl(space, seed + 2)
        reports.append(harness.fit_rank_one_trace(lin, emb, cfg.trials, 1e-9, seed))
        reports.append(harness.fit_rank_one_trace(mq, emb, cfg.trials, cfg.tol, seed))

    def isotropic():
        rng = np.random.Generator(np.random.Philox(seed + 3))
        cov = rng.standard_normal(space.dim)
        reports.append(
            harness.check_isotropic_linearity(
                lambda v: float(cov @ v), space, cfg.trials, 1e-10, seed
            )
        )
        fg = harness.FGEvaluator(mq, space)
        xi = rng.standard_normal(space.dim)
        reports.append(
            harness.check_isotropic_linearity(
                lambda v: fg.G(xi, v), space, cfg.trials, cfg.tol, seed
            )
        )
        if negative_control:
            reports.append(
                harness.check_isotropic_linearity(
                    lambda v: float(np.linalg.norm(v)), space, cfg.trials, cfg.tol, seed
                )
            )

    def maintheorem():
        reports.append(harness.fit_main_theorem(lin, space, cfg.tol, seed))
        reports.append(harness.fit_main_theorem(mq, space, cfg.tol, seed))
        composite = linear_combination([(2.0, mq), (1.0, lin)])
        reports.append(harness.fit_main_theorem(composite, space, cfg.tol, seed))

    steps = {
        "quasi-linearity": qlin,
        "ad-invariance": adinv,
        "gleason": gleason,
        "rank-one": rankone,
        "isotropic": isotropic,
        "main-theorem": maintheorem,
    }
    if suite == "all":
        for fn in steps.values():
            fn()
    else:
        steps[suite]()
    return reports


def cmd_verify(args) -> int:
    cfg = _config_from(args)
    if args.suite in ("gleason", "rank-one", "main-theorem", "all") and cfg.n < 3:
        print("error: hypothesis n >= 3 not met for the requested suite", file=sys.stderr)
        return EXIT_PRECONDITION
    reports = _suite_reports(args.suite, cfg, args.negative_control)
    if cfg.format == "comma-separated":
        text = reportmod.reports_to_csv(reports)
        default_name = f"verify_{args.suite}.csv"
    else:
        text = reportmod.reports_to_text(reports)
        default_name = f"verify_{args.suite}.txt"
    out_path = cfg.output_path or os.path.join(_default_out_dir(), default_name)
    atomic_write(out_path, text)
    npass = sum(r.passed for r in reports)
    total = len(reports)
    print(f"report: {out_path}")
    if npass == total:
        print(f"PASS {npass}/{total}")
        return EXIT_OK
    print("FAIL")
    for r in reports:
        if not r.passed:
            print(
                f"  failed: {r.check_name} "
                f"(max_defect {r.max_defect!r} > tol {r.tolerance_used!r})"
            )
    return EXIT_SUITE_FAIL


def cmd_trace(args) -> int:
    cfg = _config_from(args)
    B = _load_element(args.matrix_file)
    t, theta = phase_trace(B, cfg.limit_config())
    lines = ["t,theta,theta_over_t"]
    for k in range(len(t)):
        ratio = float(theta[k] / t[k]) if t[k] > 0 else 0.0
        lines.append(f"{float(t[k])!r},{float(theta[k])!r},{ratio!r}")
    stem = os.path.splitext(os.path.basename(args.matrix_file))[0]
    out_path = args.out or os.path.join(_default_out_dir(), f"{stem}_trace.csv")
    atomic_write(out_path, "\n".join(lines) + "\n")
    print(f"trace: {out_path}")
    print(f"final: {float(theta[-1] / t[-1])!r}")
    return EXIT_OK


def _config_from(args) -> RunConfig:
    return RunConfig(
        n=getattr(args, "n", 3),
        seed=getattr(args, "seed", 0),
        t_max=getattr(args, "t_max", 2000.0),
        dt=getattr(args, "dt", 0.05),
        tol=getattr(args, "tol", 1e-2),
        trials=getattr(args, "trials", 50),
        output_path=getattr(args, "out", None),
        format=getattr(args, "format", "structured-text"),
    )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=3, help="half-dimension for suites")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--t-max", dest="t_max", type=float, default=2000.0)
    common.add_argument("--dt", type=float, default=0.05)
    common.add_argument("--tol", type=float, default=1e-2)
    common.add_argument("--trials", type=int, default=50)
    common.add_argument("--out", type=str, default=None, help="output path")
    common.add_argument(
        "--format",
        choices=["structured-text", "comma-separated"],
        default="structured-text",
    )

    p = argparse.ArgumentParser(
        prog="spqs",
        description="Quasi-state computations on the skew-symplectic matrix algebra",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", parents=[common], help="evaluate the Maslov quasi-state")
    pe.add_argument("matrix_file")
    pe.add_argument(
        "--method", choices=["limit", "spectral", "dim2", "auto"], default="auto"
    )
    pe.set_defaults(func=cmd_eval)

    pd = sub.add_parser("decompose", parents=[common], help="normal-form blocks")
    pd.add_argument("matrix_file")
    pd.set_defaults(func=cmd_decompose)

    pv = sub.add_parser("verify", parents=[common], help="run a verification suite")
    pv.add_argument("--suite", choices=SUITES, required=True)
    pv.add_argument(
        "--negative-control",
        action="store_true",
        help="include the deliberately broken control state (suite must then fail)",
    )
    pv.set_defaults(func=cmd_verify)

    pt = sub.add_parser("trace", parents=[common], help="winding convergence trace")
    pt.add_argument("matrix_file")
    pt.set_defaults(func=cmd_trace)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MatrixParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SkewSymplecticityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_SP
    except (NonSemisimpleError, ClassificationError, NormalizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_SEMISIMPLE
    except (ValueError, MaslovLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
