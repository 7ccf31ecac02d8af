"""The three benchmark workloads.

Each workload builds its inputs and their independent truths from the
benchmark seed during set-up, then runs rounds of operations in a closed loop
(one client, the next call only after the previous one returned).  Every
round repeats the same operations in the same order, and every operation's
output is checked; a failed check counts into `failed`.

The gated end-to-end timings are speed-adjusted (see speed.py); the
workload tables print the plain medians and tail percentiles of the raw
wall times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

import orderstats
import speed
from spqs import cli, maslov
from spqs.matrixio import write_matrix
from spqs.quasistates import nilpotent_jordan_sp
from spqs.symplectic import SpElement, SymplecticSpace, y_element, z_element
from spqs.williamson import random_semisimple

clock = time.perf_counter
# spqs functions are called through their modules (cli.main, maslov.*), so
# that the traced run's wrappers see the calls.


def value_tol(n: int) -> float:
    """Acceptance tolerance on |value - truth| beyond the error bar: 1e-3 on
    sp(2, R) (criterion 01), 1e-2 above it (criteria 02 and 03)."""
    return 1e-3 if n == 1 else 1e-2


def omega_pair(xi: np.ndarray, eta: np.ndarray) -> float:
    """omega(xi, eta) for the standard form in (p, q) ordering."""
    n = len(xi) // 2
    return float(xi[:n] @ eta[n:] - xi[n:] @ eta[:n])


def semisimple_truth(blocks) -> float:
    """Maslov value from the generating normal-form blocks: minus the sum of
    the oriented imaginary-pair parameters; real and quadruple blocks give 0."""
    return -sum(blk.b for blk in blocks if blk.kind == "imag") + 0.0


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


@dataclass
class Log:
    """Per-operation records of one run: (kind, start, end, elements,
    failed) with start and end in clock time (None for a call that raised),
    limit-route (|value - truth|, error bar) pairs, and failure notes."""

    timeline: speed.Timeline
    ops: list = field(default_factory=list)
    limit_results: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    tracer: object = None

    def start_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op += 1

    def op(self, kind: str, start, end, elements: int = 1, failed: int = 0) -> None:
        self.ops.append((kind, start, end, elements, failed))

    def note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)

    def timed(self):
        return [op for op in self.ops if op[1] is not None]

    def seconds(self, kind=None) -> list[float]:
        """Net wall seconds (probes excluded) of the operations of a kind."""
        return [
            self.timeline.net(t0, t1)
            for k, t0, t1, _, _ in self.timed()
            if kind is None or k == kind
        ]

    @property
    def attempted(self) -> int:
        return sum(e for _, _, _, e, _ in self.ops)

    @property
    def failed(self) -> int:
        return sum(f for _, _, _, _, f in self.ops)

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        """ops_per_s and op_ms_p50 from speed-adjusted times, as (value,
        sample count).  An operation covering e elements counts e times, at
        its time over e."""
        adjusted = [(self.timeline.adjusted(t0, t1), e) for _, t0, t1, e, _ in self.timed()]
        per_elem_ms = [1e3 * a / e for a, e in adjusted for _ in range(e)]
        return {
            "ops_per_s": (sum(e for _, e in adjusted) / sum(a for a, _ in adjusted), len(adjusted)),
            "op_ms_p50": (orderstats.median(per_elem_ms), len(per_elem_ms)),
        }

    def accuracy_rows(self) -> list:
        """limit_max_abs_err and limit_bar_miss_share over limit-route results."""
        res = self.limit_results
        if not res:
            return []
        return [
            ("limit_max_abs_err", max(e for e, _ in res), "1", len(res)),
            (
                "limit_bar_miss_share",
                sum(e > bar for e, bar in res) / len(res),
                "fraction",
                len(res),
            ),
        ]


def call_cli(argv: list[str]) -> tuple[int, str, str, float, float]:
    """spqs.cli.main in-process with captured output: (exit code, stdout,
    stderr, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        rc = cli.main(argv)
        t1 = clock()
    return rc, out.getvalue(), err.getvalue(), t0, t1


def parse_eval(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def timing_row(name: str, values: list[float], p: float, scale: float, unit: str):
    return (name, orderstats.percentile(values, p) * scale, unit, len(values))


class LimitBatch:
    """maslov_limit_batch on populations shaped like acceptance criteria
    01-03, one batch per population, library defaults (no t_max, no dt)."""

    name = "limit-batch"
    BATCH = 8
    # (label, n, kind); kinds: closed-form draws on sp(2, R), Y/Z generator
    # pairs, conjugated semi-simple elements
    POPULATIONS = (
        ("closed-form n=1", 1, "closed"),
        ("Y/Z n=2", 2, "yz"),
        ("Y/Z n=3", 3, "yz"),
        ("semi-simple n=2", 2, "semisimple"),
        ("semi-simple n=3", 3, "semisimple"),
        ("semi-simple n=4", 4, "semisimple"),
    )

    def setup(self, seed: int, workdir: str) -> None:
        self.batches = []
        for tag, (label, n, kind) in enumerate(self.POPULATIONS):
            rng = rng_for(seed, 1, tag)
            space = SymplecticSpace(n)
            els, truths = [], []
            while len(els) < self.BATCH:
                if kind == "closed":
                    a, b, c = rng.uniform(-2.0, 2.0, 3)
                    els.append(SpElement(space, np.array([[a, b], [c, -a]])))
                    truths.append(maslov.maslov_dim2(a, b, c))
                elif kind == "yz":
                    xi, eta = rng.standard_normal((2, 2 * n))
                    els += [y_element(space, xi, eta), z_element(space, xi, eta)]
                    truths += [-abs(omega_pair(xi, eta)), 0.0]
                else:
                    B, blocks = random_semisimple(space, rng)
                    els.append(B)
                    truths.append(semisimple_truth(blocks))
            self.batches.append((label, n, els, truths))
        # warm-up: one short batch through the same code path
        maslov.maslov_limit_batch(self.batches[0][2][:2])

    def run_round(self, log: Log) -> None:
        for label, n, els, truths in self.batches:
            log.start_op()
            try:
                t0 = clock()
                ests = maslov.maslov_limit_batch(els)
                t1 = clock()
            except Exception as exc:  # a raised error fails the whole batch
                log.op("batch", None, None, len(els), len(els))
                log.note(f"{label}: {type(exc).__name__}: {exc}")
                continue
            failed = 0
            for est, truth in zip(ests, truths):
                err = abs(est.value - truth)
                log.limit_results.append((err, est.error_bar))
                if not err <= est.error_bar + value_tol(n):
                    failed += 1
                    log.note(f"{label}: |{est.value!r} - {truth!r}| > bar {est.error_bar!r} + tol")
            failed += len(els) - len(ests)
            log.op("batch", t0, t1, len(els), failed)

    def rows(self, log: Log) -> list:
        return [
            ("limit_elem_per_s", log.attempted / sum(log.seconds()), "elements/s", log.attempted),
            timing_row("batch_s_p50", log.seconds(), 50, 1.0, "s"),
        ] + log.accuracy_rows()


class EvalCli:
    """`spqs eval <file>` in-process, one call after another.  Most calls use
    the default --method auto on semi-simple inputs (spectral route); a
    minority hit nilpotent single-block inputs, where auto falls back to the
    path limit; a few force --method limit on semi-simple inputs."""

    name = "eval-cli"
    SPECTRAL_PER_N = 50
    NS = (1, 2, 3, 4)
    FORCED_LIMIT_NS = (2, 3)

    def setup(self, seed: int, workdir: str) -> None:
        calls = []  # (argv, n, truth, expected method)
        for n in self.NS:
            rng = rng_for(seed, 2, n)
            space = SymplecticSpace(n)
            for k in range(self.SPECTRAL_PER_N):
                B, blocks = random_semisimple(space, rng)
                path = os.path.join(workdir, f"ss{n}_{k}.txt")
                write_matrix(path, B.mat)
                truth = semisimple_truth(blocks)
                calls.append(([path], n, truth, "spectral"))
                if k == 0 and n in self.FORCED_LIMIT_NS:
                    calls.append(([path, "--method", "limit"], n, truth, "limit"))
            path = os.path.join(workdir, f"nil{n}.txt")
            write_matrix(path, self._nilpotent(space, rng))
            calls.append(([path], n, 0.0, "limit"))
        order = rng_for(seed, 2, 0).permutation(len(calls))
        self.calls = [calls[i] for i in order]
        # warm-up: one call down each route
        for kind in ("spectral", "limit"):
            args = min((c for c in self.calls if c[3] == kind), key=lambda c: c[1])[0]
            call_cli(["eval", *args])

    @staticmethod
    def _nilpotent(space: SymplecticSpace, rng) -> np.ndarray:
        """A nilpotent single block, scaled and conjugated by a symplectic
        plane permutation with sign flips.  All of these are exact in floating
        point, so the input is exactly nilpotent and its Maslov value is 0."""
        n = space.n
        A = rng.uniform(0.5, 2.0) * nilpotent_jordan_sp(space).mat
        perm = rng.permutation(n)
        signs = rng.choice([-1.0, 1.0], n)
        Q = np.zeros((2 * n, 2 * n))
        Q[perm, np.arange(n)] = signs
        Q[n + perm, n + np.arange(n)] = signs
        return Q @ A @ Q.T

    def run_round(self, log: Log) -> None:
        for args, n, truth, expected in self.calls:
            log.start_op()
            try:
                rc, out, err, t0, t1 = call_cli(["eval", *args])
            except Exception as exc:  # a traceback is a failed call, not a crash
                log.op(expected, None, None, 1, 1)
                log.note(f"eval {args}: {type(exc).__name__}: {exc}")
                continue
            fields = parse_eval(out)
            ok = rc == 0 and fields.get("method") == expected
            if ok:
                value = float(fields["value"])
                bar = float(fields["error_bar"])
                error = abs(value - truth)
                ok = error <= bar + value_tol(n)
                if expected == "limit":
                    log.limit_results.append((error, bar))
            if not ok:
                log.note(f"eval {args}: exit {rc}, {out.strip()!r} {err.strip()!r}, truth {truth!r}")
            log.op(expected, t0, t1, 1, 0 if ok else 1)

    def rows(self, log: Log) -> list:
        spectral = log.seconds("spectral")
        # p95, and the highest percentile with ten samples beyond it if higher
        tails = {
            p
            for p in (95.0, orderstats.tail_percentile(len(spectral)))
            if p is not None and p > 50.0
            and orderstats.samples_beyond(len(spectral), p) >= orderstats.MIN_TAIL
        }
        return [
            timing_row("eval_spectral_ms_p50", spectral, 50, 1e3, "ms"),
            *(timing_row(f"eval_spectral_ms_p{p:g}", spectral, p, 1e3, "ms") for p in sorted(tails)),
            timing_row("eval_limit_ms_p50", log.seconds("limit"), 50, 1e3, "ms"),
        ] + log.accuracy_rows()


class VerifySuite:
    """`spqs verify --suite all --n 3 --seed <s>` in-process over several
    seeds.  Every report of one seed must be byte-identical."""

    name = "verify-suite"
    SEEDS_PER_RUN = 4

    def setup(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.seeds = [self.SEEDS_PER_RUN * seed + k for k in range(self.SEEDS_PER_RUN)]
        self.reference: dict[int, bytes] = {}
        self.runs: dict[int, int] = {}
        self.differing: set[int] = set()
        # warm-up: the first seed once; its report becomes the reference
        self._verify(self.seeds[0], Log(speed.Timeline()))

    def _verify(self, s: int, log: Log) -> None:
        path = os.path.join(self.workdir, f"verify_seed{s}.txt")
        argv = ["verify", "--suite", "all", "--n", "3", "--seed", str(s), "--out", path]
        log.start_op()
        try:
            rc, out, err, t0, t1 = call_cli(argv)
        except Exception as exc:
            log.op("verify", None, None, 1, 1)
            log.note(f"verify seed {s}: {type(exc).__name__}: {exc}")
            return
        last = out.strip().splitlines()[-1] if out.strip() else ""
        words = last.split()
        ok = rc == 0 and len(words) == 2 and words[0] == "PASS"
        if ok:
            k, _, total = words[1].partition("/")
            ok = k == total
        try:
            with open(path, "rb") as fh:
                body = fh.read()
        except OSError as exc:
            log.op("verify", t0, t1, 1, 1)
            log.note(f"verify seed {s}: no report ({exc}); exit {rc}, {last!r}")
            return
        first = self.reference.setdefault(s, body)
        self.runs[s] = self.runs.get(s, 0) + 1
        if body != first:
            ok = False
            self.differing.add(s)
            log.note(f"verify seed {s}: report bytes differ from the first run")
        if not ok:
            log.note(f"verify seed {s}: exit {rc}, {last!r} {err.strip()!r}")
        log.op("verify", t0, t1, 1, 0 if ok else 1)

    def run_round(self, log: Log) -> None:
        for s in self.seeds:
            self._verify(s, log)

    def rows(self, log: Log) -> list:
        return [timing_row("verify_s_p50", log.seconds(), 50, 1.0, "s")]

    def report_lines(self) -> list[str]:
        return [
            f"report seed {s}: sha256 {hashlib.sha256(self.reference[s]).hexdigest()} "
            f"({self.runs[s]} runs, "
            f"{'bytes DIFFER' if s in self.differing else 'byte-identical'})"
            for s in self.seeds
            if s in self.reference
        ]


WORKLOADS = {w.name: w for w in (LimitBatch, EvalCli, VerifySuite)}
