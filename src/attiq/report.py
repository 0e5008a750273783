"""Benchmark reports: accuracy/timing tables for filter comparison runs.

A report aggregates one dataset and one or more filters, each possibly run
several times for timing statistics (estimates are deterministic across
repetitions; wall-clock times are not). Serialized reports carry a schema
version and validate against schemas/report.schema.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataset import config_to_dict
from .filters import FilterRun, ScenarioResult, attitude_errors, evaluate_run
from .sim import Dataset

REPORT_SCHEMA_VERSION = 1

PUBLIC_NAMES = {"h2": "extended_h2", "ekf": "ekf"}
INTERNAL_NAMES = {v: k for k, v in PUBLIC_NAMES.items()}

# per-case accuracy gates mirroring the benchmark's headline claims; the
# report marks each one pass/fail when its inputs are present
CASE_CHECKS = {
    "III": [("extended_h2", "pitch_rms_deg", 0.5)],
    "IV": [
        ("extended_h2", "total_rms_deg", 1.0),
        ("ekf", "total_rms_deg", 1.0),
    ],
}
TIMING_RATIO_THRESHOLD = 0.75  # extended_h2 / ekf median step time


@dataclass
class ComparisonReport:
    """Versioned summary of a benchmark run on one dataset."""

    config: dict
    n_samples: int
    repetitions: int
    filters: list[ScenarioResult]  # methods under their public names
    checks: list[dict] = field(default_factory=list)
    timing_ratio_h2_over_ekf: float | None = None
    schema_version: int = REPORT_SCHEMA_VERSION

    def filter(self, method: str) -> ScenarioResult:
        method = PUBLIC_NAMES.get(method, method)
        for f in self.filters:
            if f.method == method:
                return f
        raise KeyError(f"report has no {method!r} entry")


def summarize_filter(dataset: Dataset, runs: list[FilterRun]) -> ScenarioResult:
    """evaluate_run under the filter's public name: accuracy from the first
    run, timing pooled over all repetitions."""
    if not runs:
        raise ValueError("at least one run is required")
    result = evaluate_run(dataset, *runs)
    return replace(result, method=PUBLIC_NAMES[result.method])


def _run_checks(case: str, by_method: dict[str, ScenarioResult], ratio) -> list[dict]:
    checks = []

    def add(name, measured, threshold):
        checks.append(
            {
                "name": name,
                "measured": float(measured),
                "threshold": float(threshold),
                "passed": bool(measured < threshold),
            }
        )

    for method, metric, threshold in CASE_CHECKS.get(case, []):
        if method not in by_method:
            continue
        f = by_method[method]
        value = f.rms_axis_deg[1] if metric == "pitch_rms_deg" else f.rms_total_deg
        add(f"case_{case}_{method}_{metric}", value, threshold)
    if ratio is not None:
        add("median_step_ratio_h2_over_ekf", ratio, TIMING_RATIO_THRESHOLD)
    return checks


def build_report(dataset: Dataset, runs_by_method: dict[str, list[FilterRun]]) -> ComparisonReport:
    """Aggregate filter runs over one dataset into a versioned report.

    runs_by_method maps internal or public filter names to repetition lists.
    """
    filters = []
    by_public: dict[str, ScenarioResult] = {}
    for name, runs in runs_by_method.items():
        summary = summarize_filter(dataset, runs)
        filters.append(summary)
        by_public[summary.method] = summary
    reps = max(len(r) for r in runs_by_method.values())
    ratio = None
    if "extended_h2" in by_public and "ekf" in by_public:
        ratio = by_public["extended_h2"].median_step_ns / by_public["ekf"].median_step_ns
    case = dataset.config.case
    return ComparisonReport(
        config=config_to_dict(dataset.config),
        n_samples=len(dataset.t),
        repetitions=reps,
        filters=filters,
        checks=_run_checks(case, by_public, ratio),
        timing_ratio_h2_over_ekf=ratio,
    )


def report_to_dict(report: ComparisonReport) -> dict:
    return {
        "schema_version": report.schema_version,
        "config": report.config,
        "n_samples": report.n_samples,
        "repetitions": report.repetitions,
        "filters": [
            {
                "method": f.method,
                "rms_axis_deg": [float(v) for v in f.rms_axis_deg],
                "rms_total_deg": f.rms_total_deg,
                "max_total_deg": f.max_total_deg,
                "rms_bias": [float(v) for v in f.rms_bias],
                "median_step_ns": f.median_step_ns,
                "mean_step_ns": f.mean_step_ns,
                "std_step_ns": f.std_step_ns,
                "n_skipped": f.n_skipped,
            }
            for f in report.filters
        ],
        "checks": report.checks,
        "timing_ratio_h2_over_ekf": report.timing_ratio_h2_over_ekf,
    }


def save_report(report: ComparisonReport, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n")
    return path


def format_report(report: ComparisonReport) -> str:
    """Aligned text tables: RMS per axis, then step timing."""
    case = report.config["case"]
    lines = [
        f"case {case}  seed {report.config['seed']}  "
        f"{report.n_samples} samples at {report.config['sample_rate']:g} Hz  "
        f"repetitions {report.repetitions}",
        "",
        f"{'filter':<12} {'roll(deg)':>10} {'pitch(deg)':>10} {'yaw(deg)':>10} "
        f"{'total(deg)':>10} {'max(deg)':>10}",
    ]
    for f in report.filters:
        r, p, y = f.rms_axis_deg
        lines.append(
            f"{f.method:<12} {r:>10.4f} {p:>10.4f} {y:>10.4f} "
            f"{f.rms_total_deg:>10.4f} {f.max_total_deg:>10.4f}"
        )
    lines += [
        "",
        f"{'filter':<12} {'median(us)':>10} {'mean(us)':>10} {'std(us)':>10} {'skipped':>8}",
    ]
    for f in report.filters:
        lines.append(
            f"{f.method:<12} {f.median_step_ns / 1e3:>10.1f} {f.mean_step_ns / 1e3:>10.1f} "
            f"{f.std_step_ns / 1e3:>10.1f} {f.n_skipped:>8d}"
        )
    if report.timing_ratio_h2_over_ekf is not None:
        ratio = report.timing_ratio_h2_over_ekf
        lines.append(
            f"median step ratio extended_h2/ekf: {ratio:.3f}"
            f" (ekf/extended_h2: {1.0 / ratio:.2f}x)"
        )
    for check in report.checks:
        verdict = "pass" if check["passed"] else "FAIL"
        lines.append(
            f"[{verdict}] {check['name']}: {check['measured']:.4f} "
            f"(threshold {check['threshold']:g})"
        )
    return "\n".join(lines) + "\n"


TRACE_COLUMNS = (
    "t",
    "err_roll_deg",
    "err_pitch_deg",
    "err_yaw_deg",
    "err_total_deg",
    "bias_err_x",
    "bias_err_y",
    "bias_err_z",
    "step_time_ns",
)


def write_trace(dataset: Dataset, run: FilterRun, path) -> Path:
    """Per-sample error/timing trace of one run as CSV."""
    comps, totals = attitude_errors(run.q_est, dataset.q_true)
    table = np.column_stack(
        [
            dataset.t,
            np.degrees(comps),
            np.degrees(totals),
            run.b_est - dataset.b_true,
            run.step_ns,
        ]
    )
    path = Path(path)
    np.savetxt(
        path,
        table,
        fmt=["%.17g"] * (len(TRACE_COLUMNS) - 1) + ["%d"],
        delimiter=",",
        header=",".join(TRACE_COLUMNS),
        comments="",
    )
    return path
