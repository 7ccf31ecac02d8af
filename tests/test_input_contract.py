"""The input contract of `spqs eval`, `spqs decompose` and `spqs trace`: every
input matrix ends in a finite printed result with exit 0 and an empty stderr, or
in a documented exit code with one `error:` line, and the library never returns
a NaN value with a finite bar."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spqs.maslov import MaslovLimitConfig, MaslovLimitError, maslov_evaluate
from spqs.matrixio import write_matrix
from spqs.symplectic import SpElement, SymplecticSpace, project_skew_symplectic, rng_from
from spqs.williamson import (
    ClassificationError,
    NonSemisimpleError,
    NormalizationError,
    classify_eigenstructure,
    williamson_decompose,
)
from test_cli import run_cli

# the printed numbers: eval's value and bar, decompose's block parameters and
# residual, trace's final ratio
NUMBER = re.compile(r"^(?:value|error_bar|roundtrip_residual|final): (\S+)$|\b[ab]=(\S+)", re.M)
# what the library may raise on a valid element; the CLI maps each to exit 4 or 5
REFUSALS = (ValueError, MaslovLimitError, NonSemisimpleError, ClassificationError,
            NormalizationError)


def rotations(signs, r) -> SpElement:
    """Rotation blocks B[p, n+p] = -s_p r, B[n+p, p] = s_p r: the theorem value is sum s_p r."""
    n = len(signs)
    B = np.zeros((2 * n, 2 * n))
    for p, s in enumerate(signs):
        B[p, n + p], B[n + p, p] = -s * r, s * r
    return SpElement(SymplecticSpace(n), B)


class TestOverflowingClusterMeans:
    """Imaginary clusters whose parameters sum past the largest float."""

    def test_opposite_rotations_decompose_to_finite_blocks(self, tmp_path, capsys):
        # the two +-i r eigenvalues of b = +-1e308 form one cluster of keys r
        p = str(tmp_path / "b.txt")
        write_matrix(p, rotations((1, -1), 1e308).mat)
        code, out, err = run_cli(["decompose", p, "--out", str(tmp_path)], capsys)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[1:3] == ["block: imag_pair b=-1.0000000000000002e+308 planes=[0]",
                              "block: imag_pair b=1.0000000000000002e+308 planes=[1]"]
        assert float(lines[-1].split(": ")[1]) <= 1e-15

    def test_three_rotations_read_their_sum(self):
        B = rotations((1, 1, -1), 7e307)
        ((value, bar, route),) = maslov_evaluate([B], MaslovLimitConfig(), "auto")
        assert route == "spectral"
        assert (value, bar) == (6.999999999999998e307, 1.7146428199482248e300)
        assert abs(value - 7e307) <= bar

    def test_a_nan_residual_fails_the_round_trip_check(self, monkeypatch):
        # a NaN round-trip residual is refused, not reported
        import spqs.williamson

        assemble = spqs.williamson._assemble
        monkeypatch.setattr(spqs.williamson, "_assemble", lambda *args: assemble(*args) * np.nan)
        with pytest.raises(NormalizationError, match="round-trip residual nan"):
            williamson_decompose(classify_eigenstructure([rotations((1, -1), 1.0)]))


def test_a_norm_past_the_largest_float_keeps_a_finite_bar(tmp_path, capsys):
    # |B|_F = 2e308 overflows, but the value 0 is finite and so is its bar
    p = str(tmp_path / "b.txt")
    write_matrix(p, rotations((1, -1), 1e308).mat)
    code, out, err = run_cli(["eval", p], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "value: 0.0" and lines[2] == "method: spectral"
    assert np.isfinite(float(lines[1].removeprefix("error_bar: ")))


@pytest.mark.filterwarnings("error::RuntimeWarning")  # stderr holds the one error line
def test_a_sum_past_the_largest_float_exits_4(tmp_path, capsys):
    # truth 2e308: the value overflows, and cmd_eval refuses it
    p = str(tmp_path / "b.txt")
    write_matrix(p, rotations((1, 1), 1e308).mat)
    code, out, err = run_cli(["eval", p], capsys)
    assert (code, out) == (4, "")
    assert err == "error: non-finite value inf or error bar 2e+300\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")  # stderr holds the one error line
def test_a_sum_that_overflows_midway_reads_its_finite_value(tmp_path, capsys):
    # parameters -1e308, -1e308, 1e308 (by ascending |b|): their running sum overflows
    p = str(tmp_path / "b.txt")
    write_matrix(p, rotations((1, 1, -1), 1e308).mat)
    code, out, err = run_cli(["eval", p], capsys)
    assert (code, err) == (0, "")
    value, bar = (float(line.split(": ")[1]) for line in out.splitlines()[:2])
    assert abs(value - 1e308) <= bar


def projected(n, seed, lo, hi):
    """A projected Gaussian matrix whose entries carry scales 10^lo to 10^hi."""
    rng, (lo, hi) = rng_from(seed), sorted((lo, hi))
    A = rng.standard_normal((2 * n, 2 * n)) * 10.0 ** rng.uniform(lo, hi, (2 * n, 2 * n))
    return project_skew_symplectic(SymplecticSpace(n), A)


def integer(n, seed, rank):
    """A projected integer matrix, full rank (rank None) or a product of rank `rank`."""
    rng = rng_from(seed)
    if rank is None:
        A = rng.integers(-3, 4, (2 * n, 2 * n)).astype(float)
    else:
        A = rng.integers(-2, 3, (2 * n, rank)) @ rng.integers(-2, 3, (rank, 2 * n)) * 1.0
    return project_skew_symplectic(SymplecticSpace(n), A)


INPUTS = st.one_of(
    st.builds(projected, st.integers(1, 3), st.integers(0, 2**32 - 1),
              st.integers(-300, 300), st.integers(-300, 300)),
    st.builds(integer, st.integers(1, 3), st.integers(0, 2**32 - 1),
              st.one_of(st.none(), st.integers(1, 2))),
    st.builds(rotations, st.lists(st.sampled_from((1, -1)), min_size=1, max_size=3),
              st.sampled_from((1.0, 1e154, 1e300, 7e307, 1e308, 1.7e308))),
)


@given(B=INPUTS)
@settings(max_examples=75, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_input_ends_in_a_finite_result_or_an_error_line(B, tmp_path_factory, capsys):
    d = tmp_path_factory.mktemp("contract")
    p = str(d / "m.txt")
    write_matrix(p, B.mat)
    for argv in (["eval", p], ["eval", p, "--method", "spectral"],
                 ["eval", p, "--method", "limit", "--t-max", "20"], ["eval", p, "--method", "dim2"],
                 ["decompose", p, "--out", str(d)],
                 ["trace", p, "--t-max", "20", "--out", str(d / "t.csv")]):
        code, out, err = run_cli(argv, capsys)
        if code == 0:
            numbers = [float(a or b) for a, b in NUMBER.findall(out)]
            least = 1 if argv[0] == "trace" else 2
            assert err == "" and len(numbers) >= least and np.isfinite(numbers).all(), (argv, out)
        else:
            assert 2 <= code <= 5 and err.startswith("error:"), (argv, code, err)
            assert err.count("\n") == 1, (argv, err)
    for method in ("auto", "spectral", "limit"):
        try:
            ((value, bar, _),) = maslov_evaluate([B], MaslovLimitConfig(t_max=20.0), method)
        except REFUSALS:
            continue
        assert not (np.isnan(value) and np.isfinite(bar)), (method, value, bar)
