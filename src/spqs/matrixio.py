"""Matrix file format: a "dim 2n" header line followed by 2n whitespace-
separated rows.  Values are printed at 17 significant digits so the parser
round-trips the writer bit-exactly."""

from __future__ import annotations

import os
import tempfile

import numpy as np


class MatrixParseError(ValueError):
    """The file does not conform to the matrix format."""


def write_matrix(path: str, M: np.ndarray) -> None:
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    if M.shape != (d, d) or d % 2:
        raise ValueError(f"expected a square even-dimensional matrix, got {M.shape}")
    lines = [f"dim {d}"]
    for row in M:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    atomic_write(path, "\n".join(lines) + "\n")


def read_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "rb") as fh:  # one decode: a text-mode reader costs more per file
            lines = [ln for ln in fh.read().decode("utf-8").splitlines() if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixParseError(f"cannot read {path}: {exc}") from exc
    if not lines or not lines[0].startswith("dim "):
        raise MatrixParseError("missing 'dim 2n' header line")
    try:
        (d,) = map(int, lines[0].split()[1:])  # exactly one token after "dim"
    except ValueError as exc:
        raise MatrixParseError("malformed dimension header") from exc
    if d < 2 or d % 2:
        raise MatrixParseError(f"dimension must be a positive even integer, got {d}")
    if len(lines) != d + 1:
        raise MatrixParseError(f"expected {d} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [float(tok) for tok in ln.split()]
        except ValueError as exc:
            raise MatrixParseError(f"non-numeric entry in row: {ln!r}") from exc
        if len(row) != d:
            raise MatrixParseError(f"row has {len(row)} entries, expected {d}")
        rows.append(row)
    return np.asarray(rows)


def atomic_write(path: str, text: str) -> None:
    """Write-temp-then-rename so partially written files never appear; a
    failure is reported against `path`, never the temporary file."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(path)) or ".", prefix=".tmp-", text=True
        )
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
