"""Benchmark command line: dataset generation, gain synthesis, runs, checks.

Subcommands:

- ``gen``    simulate one flight case and write the measurement/truth CSV
- ``synth``  synthesize the eight-octant gain schedule and write it as JSON
- ``run``    run the requested filters over a dataset and write a report
- ``verify`` run the end-to-end acceptance criteria, nonzero exit on failure

``gen`` builds its scenario from the case defaults and its flags alone
(seed 1 unless given); a rate flag also rescales the rate-dependent noise.
All outputs are deterministic for fixed seeds except wall-clock timing
figures, and none depends on the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .dataset import (
    DatasetFormatError,
    read_dataset,
    reference_vector,
    sidecar_path,
    write_dataset,
)
from .filters import run_filter
from .report import (
    INTERNAL_NAMES,
    PUBLIC_NAMES,
    build_report,
    format_report,
    save_report,
    write_trace,
)
from .sim import CASES, NoiseParams, ScenarioConfig, simulate_scenario
from .synthesis import (
    GainFileError,
    SynthesisError,
    default_design_noise,
    load_gains,
    save_gains,
    synthesize_schedule,
)


class CliError(Exception):
    """User-facing command failure; message printed to stderr, exit 2."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cmd_gen(args) -> int:
    given = {"sample_rate": args.rate, "duration": args.duration}
    overrides = {key: value for key, value in given.items() if value is not None}
    cfg = ScenarioConfig.for_case(args.case, seed=args.seed, **overrides)
    if cfg.n_samples < 2:
        raise CliError(
            f"--duration {cfg.duration:g} s at --rate {cfg.sample_rate:g} Hz gives "
            f"{cfg.n_samples} sample(s); a dataset needs at least 2"
        )
    dataset = simulate_scenario(cfg)
    out = Path(args.out) if args.out else Path(f"case_{cfg.case}_seed{cfg.seed}.csv")
    write_dataset(dataset, out)
    print(f"wrote {out} ({len(dataset.t)} rows) and {sidecar_path(out)}")
    print(f"sha256 {_sha256(out)}")
    return 0


def _design_noise_from_file(path: Path, rate: float) -> tuple[NoiseParams, dict]:
    """Design noise from a JSON config, and its g/h as synthesize_schedule keywords."""
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CliError(f"{path}: noise config must be a JSON object")
    allowed = {"n_w", "n_b", "n_a", "n_m", "g", "h"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise CliError(f"{path}: unknown noise config keys: {', '.join(unknown)}")
    base = default_design_noise(rate)
    try:
        noise = NoiseParams(
            n_w=float(data.get("n_w", base.n_w)),
            n_b=float(data.get("n_b", base.n_b)),
            n_a=float(data.get("n_a", base.n_a)),
            n_m=float(data.get("n_m", base.n_m)),
        )
        vectors = {
            key: reference_vector(data, key, ValueError) for key in ("g", "h") if key in data
        }
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from None
    return noise, vectors


def cmd_synth(args) -> int:
    rate = args.rate if args.rate is not None else 150.0
    if rate <= 0.0 or not np.isfinite(rate):
        raise CliError(f"sample rate must be > 0, got {rate!r}")
    kwargs = {}
    if args.config:
        noise, kwargs = _design_noise_from_file(Path(args.config), rate)
    else:
        noise = default_design_noise(rate)
    try:
        schedule = synthesize_schedule(noise, **kwargs)
    except (SynthesisError, ValueError) as exc:
        raise CliError(str(exc)) from None

    print("octant  gamma      care_gain_resid")
    for octant, (gamma, resid) in enumerate(zip(schedule.gammas, schedule.care_mismatch)):
        print(f"{octant:>6d}  {gamma:<9.6f}  {resid:.3e}")
    print(
        f"lmi gap {schedule.lmi_gap:.3e}, {schedule.lmi_outer_iterations} "
        f"interior-point iterations and {schedule.lmi_newton_iterations} Schur solves"
    )

    out = Path(args.out) if args.out else Path("gains.json")
    save_gains(schedule, out)
    print(f"wrote {out}")
    print(f"sha256 {_sha256(out)}")
    return 0


def _parse_filters(arg: str) -> list[str]:
    methods = []
    for name in arg.split(","):
        name = name.strip()
        if not name:
            continue
        if name in INTERNAL_NAMES:
            method = INTERNAL_NAMES[name]
        elif name in PUBLIC_NAMES:
            method = name
        else:
            known = ", ".join(sorted(INTERNAL_NAMES))
            raise CliError(f"unknown filter {name!r}; expected one of: {known}")
        if method not in methods:
            methods.append(method)
    if not methods:
        raise CliError("no filters requested")
    return methods


def cmd_run(args) -> int:
    dataset_path = Path(args.dataset)
    if not dataset_path.exists():
        raise CliError(f"dataset not found: {dataset_path}")
    try:
        dataset = read_dataset(dataset_path)
    except DatasetFormatError as exc:
        raise CliError(str(exc)) from None

    methods = _parse_filters(args.filters)
    schedule = None
    if "h2" in methods and not args.gains:
        raise CliError("--gains is required when running the extended_h2 filter")
    if args.gains:
        gains_path = Path(args.gains)
        if not gains_path.exists():
            raise CliError(f"gain file not found: {gains_path}")
        try:
            schedule = load_gains(gains_path)
        except GainFileError as exc:
            raise CliError(str(exc)) from None

    if args.reps < 1:
        raise CliError(f"--reps must be >= 1, got {args.reps}")
    # the EKF is tuned with the design noise the gain schedule was
    # synthesized from; without a schedule, run_filter's default is the
    # default design noise at the dataset's rate
    ekf_noise = schedule.noise if schedule is not None else None

    runs_by_method = {}
    for method in methods:
        kwargs = {"schedule": schedule} if method == "h2" else {"noise_model": ekf_noise}
        runs_by_method[method] = [run_filter(dataset, method, **kwargs) for _ in range(args.reps)]

    report = build_report(dataset, runs_by_method)
    out_dir = Path(args.out) if args.out else Path("bench_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = save_report(report, out_dir / "report.json")
    for method, runs in runs_by_method.items():
        write_trace(dataset, runs[0], out_dir / f"trace_{PUBLIC_NAMES[method]}.csv")
    print(format_report(report))
    print(f"wrote {report_path} and {len(runs_by_method)} trace file(s) in {out_dir}")
    return 0


def cmd_verify(args) -> int:
    if args.case is not None and args.case not in CASES:
        raise CliError(f"unknown case {args.case!r}; expected one of {CASES}")
    results, ok = verify_mod.run_criteria(case=args.case, echo=print)
    if not results:
        print(f"no criteria exercise case {args.case}")
        return 0
    failed = [r for r in results if not r.passed]
    if failed:
        names = ", ".join(f"{r.number} ({r.name})" for r in failed)
        print(f"FAILED criteria: {names}", file=sys.stderr)
        return 1
    print(f"all {len(results)} criteria passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attiq",
        description="Quaternion attitude-filter benchmark: scheduled "
        "fixed-gain estimator vs extended Kalman filter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="simulate a flight case to CSV")
    p_gen.add_argument("--case", required=True, choices=list(CASES))
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--rate", type=float, default=None, help="sample rate, Hz")
    p_gen.add_argument("--duration", type=float, default=None, help="seconds")
    p_gen.add_argument("--out", default=None, help="output CSV path")
    p_gen.set_defaults(func=cmd_gen)

    p_synth = sub.add_parser("synth", help="synthesize the gain schedule JSON")
    p_synth.add_argument("--rate", type=float, default=None, help="sample rate, Hz")
    p_synth.add_argument(
        "--config",
        default=None,
        help="JSON with design noise overrides (n_w, n_b, n_a, n_m) and "
        "optional reference vectors g, h",
    )
    p_synth.add_argument("--out", default=None, help="output gain file path")
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="run filters over a dataset")
    p_run.add_argument("--dataset", required=True)
    p_run.add_argument("--gains", default=None, help="gain schedule JSON")
    p_run.add_argument(
        "--filters",
        default="extended_h2,ekf",
        help="comma separated: extended_h2 (alias h2), ekf",
    )
    p_run.add_argument("--reps", type=int, default=1, help="timing repetitions")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run the acceptance criteria")
    p_verify.add_argument("--case", default=None, help="only criteria touching this case")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
