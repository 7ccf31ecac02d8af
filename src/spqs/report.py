"""Writers for verification reports: an indented key/value text tree (stable
keys, floats at full precision) and a flat comma-separated form."""

from __future__ import annotations

import io

import numpy as np

from .harness import VerificationReport

_INDENT = "  "


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_value(out, key, value, depth):
    pad = _INDENT * depth
    if isinstance(value, np.ndarray):
        mat = np.atleast_2d(np.asarray(value, dtype=float))
        out.write(f"{pad}{key}: !matrix {mat.shape[0]} {mat.shape[1]}\n")
        for row in mat:
            out.write(pad + _INDENT + " ".join(repr(float(x)) for x in row) + "\n")
    elif isinstance(value, dict):
        out.write(f"{pad}{key}:\n")
        for k, v in value.items():
            _write_value(out, k, v, depth + 1)
    elif isinstance(value, (list, tuple)):
        out.write(f"{pad}{key}:\n")
        for item in value:
            if isinstance(item, dict):
                out.write(f"{pad}{_INDENT}-\n")
                for k, v in item.items():
                    _write_value(out, k, v, depth + 2)
            else:
                out.write(f"{pad}{_INDENT}- {_fmt_scalar(item)}\n")
    else:
        out.write(f"{pad}{key}: {_fmt_scalar(value)}\n")


def report_to_text(report: VerificationReport) -> str:
    out = io.StringIO()
    _write_value(out, "check_name", report.check_name, 0)
    _write_value(out, "trials", report.trials, 0)
    _write_value(out, "max_defect", report.max_defect, 0)
    _write_value(out, "tolerance_used", report.tolerance_used, 0)
    _write_value(out, "pass", report.passed, 0)
    _write_value(out, "seed", report.seed, 0)
    if report.fitted_parameters is not None:
        _write_value(out, "fitted_parameters", report.fitted_parameters, 0)
    if report.per_trial_records:
        _write_value(out, "per_trial_records", list(report.per_trial_records), 0)
    return out.getvalue()


def reports_to_text(reports: list[VerificationReport]) -> str:
    return "\n---\n".join(report_to_text(r) for r in reports)


def reports_to_csv(reports: list[VerificationReport]) -> str:
    """Long-format rows: check_name,record,field,value (summary rows use
    record = 'summary')."""
    out = ["check_name,record,field,value"]

    def esc(s):
        s = str(s)
        return '"' + s.replace('"', '""') + '"' if ("," in s or '"' in s) else s

    for r in reports:
        for k in ("trials", "max_defect", "tolerance_used", "seed"):
            out.append(f"{esc(r.check_name)},summary,{k},{_fmt_scalar(getattr(r, k))}")
        out.append(f"{esc(r.check_name)},summary,pass,{_fmt_scalar(r.passed)}")
        for idx, rec in enumerate(r.per_trial_records):
            for k, v in rec.items():
                if isinstance(v, np.ndarray):
                    continue
                out.append(f"{esc(r.check_name)},{idx},{k},{_fmt_scalar(v)}")
    return "\n".join(out) + "\n"
