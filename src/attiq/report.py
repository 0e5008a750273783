"""Benchmark reports: the run report document, its text tables, and traces.

build_report returns the document that report.json holds: a dict that
validates against schemas/report.schema.json, with one entry per filter
scored by filters.evaluate_run under the filter's public name, the per-case
accuracy checks and the extended_h2/ekf median step-time ratio. save_report
writes it and format_report renders it. A filter may run several times for
timing statistics: estimates are deterministic across repetitions, wall-clock
times are not.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dataset import config_to_dict, write_csv
from .filters import FilterRun, attitude_errors, evaluate_run
from .sim import Dataset

REPORT_SCHEMA_VERSION = 1

PUBLIC_NAMES = {"h2": "extended_h2", "ekf": "ekf"}
INTERNAL_NAMES = {v: k for k, v in PUBLIC_NAMES.items()}

# gates of the benchmark's headline claims, which the acceptance criteria
# read too: per-case accuracy passes below its threshold, the step-time ratio
# at or below; the report marks each one whose inputs are present
CASE_CHECKS = {
    "III": {("extended_h2", "pitch_rms_deg"): 0.5},
    "IV": {
        ("extended_h2", "total_rms_deg"): 1.0,
        ("ekf", "total_rms_deg"): 1.0,
    },
}
TIMING_RATIO_THRESHOLD = 0.75  # extended_h2 / ekf median step time


def _run_checks(case: str, by_method: dict[str, dict], ratio) -> list[dict]:
    checks = []

    def add(name, measured, threshold, passed):
        checks.append(
            {
                "name": name,
                "measured": float(measured),
                "threshold": float(threshold),
                "passed": bool(passed),
            }
        )

    for (method, metric), threshold in CASE_CHECKS.get(case, {}).items():
        if method not in by_method:
            continue
        f = by_method[method]
        value = f["rms_axis_deg"][1] if metric == "pitch_rms_deg" else f["rms_total_deg"]
        add(f"case_{case}_{method}_{metric}", value, threshold, value < threshold)
    if ratio is not None:
        passed = ratio <= TIMING_RATIO_THRESHOLD
        add("median_step_ratio_h2_over_ekf", ratio, TIMING_RATIO_THRESHOLD, passed)
    return checks


def build_report(dataset: Dataset, runs_by_method: dict[str, list[FilterRun]]) -> dict:
    """The report document of filter runs over one dataset.

    runs_by_method maps filter names to repetition lists. Accuracy comes
    from each filter's first run, step timing is pooled over all of them.
    """
    filters = []
    for runs in runs_by_method.values():
        if not runs:
            raise ValueError("at least one run is required")
        result = evaluate_run(dataset, *runs)
        filters.append(
            {
                "method": PUBLIC_NAMES[result.method],
                "rms_axis_deg": result.rms_axis_deg.tolist(),
                "rms_total_deg": result.rms_total_deg,
                "max_total_deg": result.max_total_deg,
                "rms_bias": result.rms_bias.tolist(),
                "median_step_ns": result.median_step_ns,
                "mean_step_ns": result.mean_step_ns,
                "std_step_ns": result.std_step_ns,
                "n_skipped": result.n_skipped,
            }
        )
    by_method = {f["method"]: f for f in filters}
    ratio = None
    if "extended_h2" in by_method and "ekf" in by_method:
        ratio = by_method["extended_h2"]["median_step_ns"] / by_method["ekf"]["median_step_ns"]
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": config_to_dict(dataset.config),
        "n_samples": len(dataset.t),
        "repetitions": max(len(runs) for runs in runs_by_method.values()),
        "filters": filters,
        "checks": _run_checks(dataset.config.case, by_method, ratio),
        "timing_ratio_h2_over_ekf": ratio,
    }


def save_report(report: dict, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def format_report(report: dict) -> str:
    """Aligned text tables: RMS per axis, then step timing."""
    config = report["config"]
    lines = [
        f"case {config['case']}  seed {config['seed']}  "
        f"{report['n_samples']} samples at {config['sample_rate']:g} Hz  "
        f"repetitions {report['repetitions']}",
        "",
        f"{'filter':<12} {'roll(deg)':>10} {'pitch(deg)':>10} {'yaw(deg)':>10} "
        f"{'total(deg)':>10} {'max(deg)':>10}",
    ]
    for f in report["filters"]:
        r, p, y = f["rms_axis_deg"]
        lines.append(
            f"{f['method']:<12} {r:>10.4f} {p:>10.4f} {y:>10.4f} "
            f"{f['rms_total_deg']:>10.4f} {f['max_total_deg']:>10.4f}"
        )
    lines += [
        "",
        f"{'filter':<12} {'median(us)':>10} {'mean(us)':>10} {'std(us)':>10} {'skipped':>8}",
    ]
    for f in report["filters"]:
        lines.append(
            f"{f['method']:<12} {f['median_step_ns'] / 1e3:>10.1f} "
            f"{f['mean_step_ns'] / 1e3:>10.1f} {f['std_step_ns'] / 1e3:>10.1f} "
            f"{f['n_skipped']:>8d}"
        )
    ratio = report["timing_ratio_h2_over_ekf"]
    if ratio is not None:
        lines.append(
            f"median step ratio extended_h2/ekf: {ratio:.3f}"
            f" (ekf/extended_h2: {1.0 / ratio:.2f}x)"
        )
    for check in report["checks"]:
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
    return write_csv(
        path, TRACE_COLUMNS, table, ("%.17g",) * (len(TRACE_COLUMNS) - 1) + ("%d",)
    )
