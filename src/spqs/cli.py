"""Command-line front end: evaluate the quasi-state on a matrix, decompose
into normal-form blocks, run verification suites, and emit convergence
traces.

Exit codes: 0 success, 1 suite failure, 2 matrix parse failure or argparse
usage error, 3 input not skew-symplectic or not finite, 4 bad numeric option,
unmet method precondition, no finite result (overflow, singular path step),
unwritable output or a verify sampler failing on the drawn seed, 5
non-semisimple input.  The subcommands raise; `main` maps the exception to its
code through `EXIT_CODES` and writes its one `error:` line to stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import harness, maslov, report as reportmod
from .maslov import (
    METHODS,
    MaslovLimitConfig,
    MaslovLimitError,
    maslov_evaluate,
    phase_trace,
)
from .matrixio import MatrixParseError, atomic_write, read_matrix, write_matrix
from .quasistates import discontinuous_qs, linear_qs, linear_combination, maslov_qs, nilpotent_jordan_sp
from .symplectic import (
    SamplingError,
    SkewSymplecticityError,
    SpElement,
    SymplecticSpace,
    rank_one_matrix,
    rng_from,
)
from .williamson import (
    ClassificationError,
    NonSemisimpleError,
    NormalizationError,
    classify_eigenstructure,
    williamson_decompose,
)

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_PARSE = 2
EXIT_NOT_SP = 3
EXIT_PRECONDITION = 4
EXIT_NON_SEMISIMPLE = 5

# failure -> exit code, first match wins: the only place a failure is mapped;
# reads raise MatrixParseError, so an OSError comes from writing the output
EXIT_CODES = {
    MatrixParseError: EXIT_PARSE,
    SkewSymplecticityError: EXIT_NOT_SP,
    NonSemisimpleError: EXIT_NON_SEMISIMPLE,
    ClassificationError: EXIT_NON_SEMISIMPLE,
    NormalizationError: EXIT_NON_SEMISIMPLE,
    ValueError: EXIT_PRECONDITION,
    MaslovLimitError: EXIT_PRECONDITION,
    OSError: EXIT_PRECONDITION,
}

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

# --format name -> (writer in spqs.report, default file extension); the writer
# is looked up by name on each call, so a rebound `spqs.report` attribute is used
FORMATS = {
    "structured-text": ("reports_to_text", "txt"),
    "comma-separated": ("reports_to_csv", "csv"),
}


def _load_element(path: str) -> SpElement:
    M = read_matrix(path)
    space = SymplecticSpace(M.shape[0] // 2)
    return SpElement(space, M)


def cmd_eval(args) -> int:
    cfg = MaslovLimitConfig(t_max=args.t_max)
    B = _load_element(args.matrix_file)
    try:
        ((value, error_bar, method),) = maslov_evaluate([B], cfg, args.method)
    except (NonSemisimpleError, ClassificationError) as exc:
        if args.method == "auto":
            raise  # the auto classification failed: EXIT_NON_SEMISIMPLE
        raise ValueError(str(exc)) from None  # an unmet method precondition
    if not (math.isfinite(value) and math.isfinite(error_bar)):
        raise ValueError(f"non-finite value {value!r} or error bar {error_bar!r}")
    print(f"value: {value!r}\nerror_bar: {error_bar!r}\nmethod: {method}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    B = _load_element(args.matrix_file)
    (dec,) = williamson_decompose(classify_eigenstructure([B]))
    out_dir = args.out or os.environ.get(OUT_DIR_ENV, ".")
    stem = os.path.splitext(os.path.basename(args.matrix_file))[0]
    frame_path = os.path.join(out_dir, f"{stem}_frame.txt")
    write_matrix(frame_path, dec.S)
    print(f"planes: {B.space.n}")
    for blk in dec.blocks:
        print(f"block: {blk.label} planes={list(blk.planes)}")
    print(f"frame_file: {frame_path}")
    print(f"roundtrip_residual: {dec.roundtrip_residual!r}")
    return EXIT_OK


def _suite_reports(args, cfg: MaslovLimitConfig):
    space = SymplecticSpace(args.n)
    seed = args.seed
    mq = maslov_qs(cfg)
    lin = linear_qs(rng_from(seed + 1).standard_normal((space.dim, space.dim)))
    reports = []
    if args.suite in ("quasi-linearity", "all"):
        A = nilpotent_jordan_sp(space)
        calls = [
            ([(lin, 1e-10), (mq, args.tol)], "common-frame", None),
            ([(lin, 1e-10), (mq, args.tol)], "odd-polynomial", None),
            ([(discontinuous_qs(A, 1.0), 1e-9)], "odd-polynomial", A),
        ]
        if args.negative_control:
            control = harness.frobenius_pseudo_state()
            calls.append(([(control, args.tol)], "common-frame", None))
        for states, strat, base in calls:
            reports.extend(
                harness.check_quasi_linearity(states, space, strat, args.trials, seed, base=base)
            )
    if args.suite in ("ad-invariance", "all"):
        reports.append(harness.check_ad_invariance(mq, space, args.trials, args.tol, seed))
        if args.negative_control:
            reports.append(harness.check_ad_invariance(lin, space, args.trials, args.tol, seed))
    if args.suite in ("gleason", "all"):
        reports.append(harness.fit_gleason_on_unitary(lin, space, 1e-9, seed))
        reports.append(harness.fit_gleason_on_unitary(mq, space, args.tol, seed,
                                                      oracle=harness.maslov_imtrace))
    if args.suite in ("rank-one", "all"):
        emb = harness.embed_gl(space, seed + 2)
        reports.append(harness.fit_rank_one_trace(lin, emb, 1e-9, seed))
        reports.append(harness.fit_rank_one_trace(mq, emb, args.tol, seed))
    if args.suite in ("isotropic", "all"):
        rng = rng_from(seed + 3)
        cov = rng.standard_normal(space.dim)
        xi = rng.standard_normal(space.dim)
        z = functools.partial(rank_one_matrix, space, "Z", xi)  # Z_{xi, v} of stacked v
        phis = [
            (lambda vs: [float(cov @ v) for v in vs], 1e-10),
            (lambda vs: [v for v, _ in mq.batch(SpElement.stack(space, z(np.array(vs))))],
             args.tol),
        ]
        if args.negative_control:
            phis.append((lambda vs: [float(np.linalg.norm(v)) for v in vs], args.tol))
        for phi, tol in phis:
            reports.append(harness.check_isotropic_linearity(phi, space, args.trials, tol, seed))
    if args.suite in ("main-theorem", "all"):
        composite = linear_combination([(2.0, mq), (1.0, lin)])
        reports.extend(harness.fit_main_theorem([lin, mq, composite], space, args.tol, seed))
    return reports


def cmd_verify(args) -> int:
    if args.n < 1 or args.trials < 1 or args.seed < 0 or not 0 < args.tol < np.inf:
        raise ValueError("need --n >= 1, --trials >= 1, --seed >= 0 and 0 < --tol < inf")
    cfg = MaslovLimitConfig(t_max=args.t_max)
    if args.suite in ("gleason", "rank-one", "main-theorem", "all") and args.n < 3:
        raise ValueError("hypothesis n >= 3 not met for the requested suite")
    try:
        reports = _suite_reports(args, cfg)
    except SamplingError as exc:
        raise ValueError(f"sampling failed at --seed {args.seed}: {exc}") from None
    writer, ext = FORMATS[args.format]
    out_path = args.out or os.path.join(os.environ.get(OUT_DIR_ENV, "."),
                                        f"verify_{args.suite}.{ext}")
    atomic_write(out_path, getattr(reportmod, writer)(reports))
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
    cfg = MaslovLimitConfig(t_max=args.t_max)
    B = _load_element(args.matrix_file)
    t, theta = phase_trace(B, cfg)
    lines = ["t,theta,theta_over_t"]
    for k in range(len(t)):
        ratio = float(theta[k] / t[k]) if t[k] > 0 else 0.0
        lines.append(f"{float(t[k])!r},{float(theta[k])!r},{ratio!r}")
    stem = os.path.splitext(os.path.basename(args.matrix_file))[0]
    out_path = args.out or os.path.join(os.environ.get(OUT_DIR_ENV, "."), f"{stem}_trace.csv")
    atomic_write(out_path, "\n".join(lines) + "\n")
    print(f"trace: {out_path}")
    print(f"final: {float(theta[-1] / t[-1])!r}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the options it reads.

    Built once per process: every `main` call shares this parser, so callers
    must not mutate it."""
    p = argparse.ArgumentParser(
        prog="spqs",
        description="Quasi-state computations on the skew-symplectic matrix algebra",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate the Maslov quasi-state")
    pe.add_argument("matrix_file")
    pe.add_argument("--method", choices=METHODS, default="auto")
    pe.set_defaults(func=cmd_eval)

    pd = sub.add_parser("decompose", help="normal-form blocks")
    pd.add_argument("matrix_file")
    pd.set_defaults(func=cmd_decompose)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", choices=SUITES, required=True)
    pv.add_argument("--n", type=int, default=3, help="half-dimension for suites")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--tol", type=float, default=1e-2)
    pv.add_argument("--trials", type=int, default=50,
                    help="samples per quasi-linearity, ad-invariance and isotropic check")
    pv.add_argument("--format", choices=FORMATS, default="structured-text")
    pv.add_argument(
        "--negative-control",
        action="store_true",
        help="include the deliberately broken control state (suite must then fail)",
    )
    pv.set_defaults(func=cmd_verify)

    pt = sub.add_parser("trace", help="winding convergence trace")
    pt.add_argument("matrix_file")
    pt.set_defaults(func=cmd_trace)

    for parser in (pe, pv, pt):
        parser.add_argument(
            "--t-max", dest="t_max", type=float, default=MaslovLimitConfig.t_max,
            help=f"limit-route horizon T > 0 (default {MaslovLimitConfig.t_max}); its base grid "
            f"of T to T/{maslov.DT_FLOOR} steps, by the input norm, must stay within "
            f"{maslov.MAX_STEPS} steps; the run time grows with the step count",
        )
    for parser, what in (
        (pd, "directory for <stem>_frame.txt"),
        (pv, "report file"),
        (pt, "trace CSV file"),
    ):
        parser.add_argument("--out", help=what)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
