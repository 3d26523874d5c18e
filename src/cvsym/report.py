"""Experiment reports and their serialization.

The JSON report is strict JSON and round-trips losslessly (full float
precision) unless a value is non-finite, which it writes as null and
flags; the CSV tables are the human-diffable view with 12 significant
digits.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .config import ExperimentConfig


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    metrics: dict
    version: str
    wall_clock_s: float

    def to_dict(self):
        return {
            "config": self.config.to_dict(),
            "metrics": self.metrics,
            "meta": {"version": self.version, "wall_clock_s": self.wall_clock_s},
        }


def _write_csv(path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.12g}" if isinstance(v, float) else str(v) for v in row] for row in rows)
    return path


def _convergence_tables(report, tables_dir):
    rows = report.metrics.get("grid", [])
    plot_ready = [(r["n"], r["tv_estimate"], r["ks_max"], r["be_bound_over_c"]) for r in rows]
    paths = [_write_csv(tables_dir / "convergence.csv",
                        ("n", "tv", "ks_max", "be_bound_over_c"), plot_ready)]
    detail_cols = (
        "n", "trials", "tv_estimate", "tv_bias_bound", "ks_max", "ks_floor",
        "ks_max_corrected", "be_bound_over_c",
        "skew_x", "skew_y", "skew_z", "kurt_x", "kurt_y", "kurt_z",
        "se_skew", "se_kurt",
    )
    detail = [tuple(r[c] for c in detail_cols) for r in rows]
    paths.append(_write_csv(tables_dir / "sweep_details.csv", detail_cols, detail))
    return paths


def _audit_tables(report, tables_dir):
    rows = [(name, res["ks_statistic"], res["pvalue"])
            for name, res in report.metrics.get("results", {}).items()]
    return [_write_csv(tables_dir / "invariant_audit.csv",
                       ("statistic", "ks_statistic", "pvalue"), rows)]


def _design_tables(report, tables_dir):
    disc = report.metrics.get("max_discrepancy_by_degree", {})
    se = report.metrics.get("stderr_by_degree", {})
    rows = [(d, disc[d], se.get(d, 0.0)) for d in sorted(disc, key=int)]
    return [_write_csv(tables_dir / "design_compare.csv",
                       ("degree", "max_discrepancy", "haar_stderr"), rows)]


def _keyrate_tables(report, tables_dir):
    m = report.metrics
    cols = ("transmittance_hat", "excess_noise_hat", "rate", "mutual_information",
            "holevo_bound", "acceptance_fraction", "be_bound_over_c")
    return [_write_csv(tables_dir / "keyrate.csv", cols, [tuple(m[c] for c in cols)])]


def _estimation_tables(report, tables_dir):
    cols = ("mean", "se_mean", "std", "skew", "excess_kurtosis")
    rows = [(a + b, *(report.metrics[c][i][j] for c in cols))
            for i, a in enumerate("XYZ") for j, b in enumerate("XYZ")]
    return [_write_csv(tables_dir / "estimation_error.csv", ("entry", *cols), rows)]


_TABLE_WRITERS = {
    "convergence-sweep": _convergence_tables,
    "invariant-audit": _audit_tables,
    "design-compare": _design_tables,
    "keyrate-report": _keyrate_tables,
    "estimation-error": _estimation_tables,
}


def _null_nonfinite(value, path, flagged):
    """``value`` with every non-finite float replaced by None; appends each one's path to ``flagged``."""
    if isinstance(value, float) and not math.isfinite(value):
        flagged.append(path)
        return None
    if isinstance(value, dict):
        return {k: _null_nonfinite(v, f"{path}.{k}", flagged) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_nonfinite(v, f"{path}.{i}", flagged) for i, v in enumerate(value)]
    return value


def _strict_json(data):
    """``data`` as compact strict JSON text, which CPython encodes in C: a non-finite
    float becomes null, and its dotted path is listed in ``meta.nonfinite``."""
    try:
        return json.dumps(data, sort_keys=True, allow_nan=False, separators=(",", ":")) + "\n"
    except ValueError:
        flagged = []
        data = {k: _null_nonfinite(v, k, flagged) for k, v in data.items()}
        data["meta"] = {**data["meta"], "nonfinite": sorted(flagged)}
        return json.dumps(data, sort_keys=True, allow_nan=False, separators=(",", ":")) + "\n"


def emit(report, out_dir, formats=("json", "csv")):
    """Write the report files and return their paths.

    ``report.json`` is strict JSON (see :func:`_strict_json`), written to a
    temporary file and renamed into place so that it appears whole or not
    at all.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        path = out_dir / "report.json"
        tmp = out_dir / f".report.json.{os.getpid()}.tmp"
        try:
            tmp.write_text(_strict_json(report.to_dict()))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        written.append(path)
    if "csv" in formats:
        written.extend(_TABLE_WRITERS[report.config.kind](report, out_dir / "tables"))
    return written
