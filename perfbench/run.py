#!/usr/bin/env python3
"""attiq's benchmark: filter step latency and throughput, synthesis, generation
and report time, on a Case IV flight and on an offline design pass with a
Case III Monte Carlo.

Run from the root of an attiq checkout:

    python3 perfbench/run.py --workload flight-iv --seed 1 --seconds 50 --trace 0

--trace 0 prints the end-to-end metrics. --trace 1 runs the same workload
with every public function of attiq's layer modules wrapped in a span
recorder and prints the per-layer metrics instead. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it give the machine, the dataset sha256 values and
the H2/EKF step ratio. README.md in this directory describes the workloads,
the metrics and the checks.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("flight-iv", "offline")
METHODS = ("h2", "ekf")
CASES = ("I", "II", "III", "IV")
RATE = 150.0  # Hz, every generated case and the design noise
# side sets spread through the measured window, see BenchRun.window
SIDE_SETS = {"flight-iv": 8, "offline": 10}
SETUP_PROCESSES = 4
PROBE_LOOP = 20_000
# reference checks per filter run: sampled H2 steps, EKF prefix length
FLIGHT_CHECKS = (300, 600)
TRAJECTORY_CHECKS = (30, 150)
# criterion 1 (Case III) and criterion 2 (Case IV) absolute bounds, degrees
H2_PITCH_RMS_MAX = 0.5
H2_PEAK_MAX = 30.0
TOTAL_RMS_MAX = 1.0

sys.path.insert(0, str(BENCH))
import reference  # noqa: E402
from tracing import Tracer  # noqa: E402


def trajectory_seed(seed: int, index: int) -> int:
    """Seed of Monte Carlo trajectory `index` under workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def median(values) -> float:
    """Median, or 0.0 when a failed run left no samples."""
    return float(np.median(values)) if len(values) else 0.0


def slow_regime(values) -> float:
    """90th percentile, or 0.0 when a failed run left no samples.

    The host runs in a slow regime most of the time and goes into fast
    spells, about 1.7x faster, lasting from under a second to over half a
    minute. A median follows the share of a run that fell in fast spells;
    a high percentile stays in the slow regime. README.md gives the figures.
    """
    return float(np.percentile(values, 90)) if len(values) else 0.0


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def dataset_arrays(ds) -> dict:
    return {name: getattr(ds, name) for name in ("t", "w_m", "a_m", "m_m", "q_true", "b_true")}


class BenchRun:
    """One benchmark run: the workload's operations, their checks and samples."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        import jsonschema
        from attiq import dataset, filters, report, sim, synthesis

        self.sim, self.dataset, self.synthesis = sim, dataset, synthesis
        self.filters, self.report_mod = filters, report
        self.jsonschema = jsonschema
        self.schema = json.loads((SRC / "attiq" / "schemas" / "report.schema.json").read_text())
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.rng = np.random.default_rng(seed)
        self.work = OUT / workload
        self.tracer = Tracer() if trace else None
        self.tracing = False
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.samples = {
            name: [] for name in ("setup_s", "synth_s", "gen_s", "report_s", "trajectory_s", "probe_us")
        }
        # step times of runs made with tracing off, and with it on
        self.step_ns = {m: [] for m in METHODS}
        self.traced_step_ns = {m: [] for m in METHODS}
        # wall time per sample of each untraced run_filter call
        self.s_per_sample = {m: [] for m in METHODS}
        self.loop_us: list[float] = []
        self.octant_switches: list[int] = []
        self.csv_bytes: list[int] = []
        self.traced_samples_simulated = 0
        self.sha256: dict[str, str] = {}
        self.schedule = self.synthesized = None
        self.flight = None
        self.flight_runs = {m: [] for m in METHODS}
        self.flight_accuracy: dict = {}
        self.last_trajectory = None
        self.trajectories = 0

    # -- plumbing ---------------------------------------------------------

    def op(self, name: str, fn, *args):
        """Run one checked operation; a raised error or a failed check fails it."""
        self.attempted += 1
        try:
            problems = fn(*args)
        except Exception:  # the run goes on, and reports this operation as failed
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            self.failures.append(f"{name}: " + "; ".join(problems))

    @contextmanager
    def traced(self):
        """Record spans inside the block, on a traced run."""
        if self.tracer is None or self.tracing:
            yield
            return
        self.tracer.install()
        self.tracing = True
        try:
            yield
        finally:
            self.tracer.uninstall()
            self.tracing = False

    def paired(self, fn):
        """Run fn; a traced run runs it traced and then again untraced.

        The untraced half gives the baseline for the tracing overhead, taken
        next to the traced half so that both see the host at the same speed.
        """
        with self.traced():
            fn()
        if self.tracer is not None:
            fn()

    def probe(self):
        """Time a fixed loop that does not use attiq, to show the host's speed."""
        t0 = time.perf_counter_ns()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i
        self.samples["probe_us"].append((time.perf_counter_ns() - t0) / 1e3)

    def window(self, main_round, side_set):
        """Repeat main_round for the run length, with side sets spread through it.

        Of n side sets, set j starts once (j + 0.5) / n of the run length has
        passed. So every metric samples the whole run, and a slow spell of
        the host does not land on one metric only.
        """
        n_sides = SIDE_SETS[self.workload]
        start = time.perf_counter()
        rounds = sides = 0
        while True:
            elapsed = time.perf_counter() - start
            if rounds and sides < n_sides and elapsed >= (sides + 0.5) * self.seconds / n_sides:
                self.probe()
                side_set(sides)
                sides += 1
            elif elapsed < self.seconds or not rounds:
                main_round(rounds)
                rounds += 1
            else:
                return

    def reset_samples(self):
        """Drop the timings of the warm-up calls made before the window.

        Set-up times and host probes stay; operation counts and the traced
        spans stay too.
        """
        for name, values in self.samples.items():
            if name not in ("setup_s", "probe_us"):
                values.clear()
        for pool in (self.step_ns, self.traced_step_ns, self.s_per_sample):
            for values in pool.values():
                values.clear()
        self.loop_us.clear()

    def measure_setup(self, csvs, gains):
        """Set-up time of SETUP_PROCESSES fresh processes loading the given inputs."""
        cmd = [sys.executable, str(BENCH / "setup_child.py")]
        if gains is not None:
            cmd += ["--gains", str(gains)]
        cmd += [str(path) for path in csvs]
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=path)
        for _ in range(SETUP_PROCESSES):
            self.op("setup", self._setup_once, cmd, env, len(csvs))

    def _setup_once(self, cmd, env, n_csvs):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            return [f"set-up process exited {proc.returncode}: {proc.stderr[-2000:]}"]
        result = json.loads(proc.stdout.splitlines()[-1])
        self.samples["setup_s"].append(result["setup_s"])
        if len(result["rows"]) != n_csvs or 0 in result["rows"]:
            return [f"set-up process read {result['rows']} rows"]
        return []

    # -- operations -------------------------------------------------------

    def synth(self, path: Path):
        """synthesize_schedule on the default design noise, saved and read back."""
        noise = self.synthesis.default_design_noise(RATE)
        t0 = time.perf_counter()
        schedule = self.synthesis.synthesize_schedule(noise)
        self.samples["synth_s"].append(time.perf_counter() - t0)
        self.synthesis.save_gains(schedule, path)
        loaded = self.synthesis.load_gains(path)
        self.synthesized = loaded
        problems = reference.check_schedule(
            loaded.gains, loaded.gammas, (noise.n_w, noise.n_b, noise.n_a, noise.n_m), loaded.g, loaded.h
        )
        if not (np.array_equal(loaded.gains, schedule.gains) and np.array_equal(loaded.gammas, schedule.gammas)):
            problems.append("gain file read back differs from the synthesized schedule")
        return problems

    def gen(self, specs, out_dir: Path):
        """simulate_scenario plus write_dataset for each (case, seed), then check each file."""
        made, elapsed = [], 0.0
        for case, seed in specs:
            config = self.sim.ScenarioConfig.for_case(case, seed=seed)
            path = out_dir / f"case_{case}_seed{seed}.csv"
            t0 = time.perf_counter()
            ds = self.sim.simulate_scenario(config)
            self.dataset.write_dataset(ds, path)
            elapsed += time.perf_counter() - t0
            made.append((config, ds, path))
        self.samples["gen_s"].append(elapsed)
        if self.tracing:
            self.traced_samples_simulated += sum(config.n_samples for config, _, _ in made)
        problems = []
        for config, ds, path in made:
            back = self.dataset.read_dataset(path)
            digest = sha256(path)
            if self.sha256.setdefault(path.name, digest) != digest:
                problems.append(f"{path.name} is not byte-identical to the earlier one of the same seed")
            self.csv_bytes.append(path.stat().st_size)
            noise = config.noise
            problems += [
                f"{path.name}: {problem}"
                for problem in reference.check_dataset(
                    dataset_arrays(ds), dataset_arrays(back), config.n_samples,
                    (noise.n_a, noise.n_m), config.g, config.h,
                )
            ]
        return problems

    def load(self, csv, gains):
        """What `attiq run` loads: the gain file and the dataset."""
        self.schedule = self.synthesis.load_gains(gains)
        self.flight = self.dataset.read_dataset(csv)
        return []

    def run_filter(self, ds, method: str):
        """One run_filter call, timed from outside; its timings go to the pools."""
        kwargs = {"schedule": self.schedule} if method == "h2" else {"noise_model": self.schedule.noise}
        t0 = time.perf_counter()
        run = self.filters.run_filter(ds, method, **kwargs)
        wall = time.perf_counter() - t0
        n = len(run.step_ns)
        if self.tracing:
            self.traced_step_ns[method].append(run.step_ns[1:])
        else:
            self.step_ns[method].append(run.step_ns[1:])
            self.s_per_sample[method].append(wall / n)
            self.loop_us.append((wall - run.step_ns.sum() / 1e9) / n * 1e6)
        if method == "h2":
            self.octant_switches.append(int(np.count_nonzero(np.diff(run.octants))))
        return run

    def check_steps(self, ds, run, n_h2: int, n_ekf: int):
        """Reference H2 steps at sampled indices, or a reference EKF over a prefix."""
        config = ds.config
        g, h = np.asarray(config.g, float), np.asarray(config.h, float)
        w_m, a_m, m_m = ds.w_m, ds.a_m, ds.m_m
        if run.method == "h2":
            n = len(w_m)
            indices = np.sort(self.rng.choice(np.arange(1, n), size=min(n_h2, n - 1), replace=False))
            return reference.check_h2_steps(
                indices, run.q_est, run.b_est, run.octants, w_m, a_m, m_m,
                self.schedule.gains, config.dt, g, h,
            )
        noise = self.schedule.noise
        return reference.check_ekf_prefix(
            min(n_ekf, len(w_m)), run.q_est, run.b_est, w_m, a_m, m_m,
            (noise.n_w, noise.n_b, noise.n_a, noise.n_m), config.dt, g, h,
        )

    def flight_run(self, method: str):
        """One repetition of one filter over the loaded Case IV flight."""
        ds = self.flight
        run = self.run_filter(ds, method)
        runs = self.flight_runs[method]
        runs.append(run)
        problems = reference.check_run_properties(run.q_est, run.skipped)
        if len(runs) > 1:
            if not (np.array_equal(run.q_est, runs[0].q_est) and np.array_equal(run.b_est, runs[0].b_est)):
                problems.append("estimates differ between repetitions")
            return problems
        acc = reference.accuracy(run.q_est, ds.q_true)
        self.flight_accuracy[method] = acc
        if not acc["rms_total_deg"] < TOTAL_RMS_MAX:
            problems.append(f"total RMS {acc['rms_total_deg']:.3f} deg (bound {TOTAL_RMS_MAX})")
        return problems + self.check_steps(ds, run, *FLIGHT_CHECKS)

    def trajectory(self):
        """One Case III trajectory: simulated, run through both filters and scored."""
        index = self.trajectories
        self.trajectories += 1
        config = self.sim.ScenarioConfig.for_case(
            "III", seed=trajectory_seed(self.seed, index)
        )
        order = METHODS if index % 2 == 0 else METHODS[::-1]
        t0 = time.perf_counter()
        ds = self.sim.simulate_scenario(config)
        runs = {m: self.run_filter(ds, m) for m in order}
        scores = {m: self.filters.evaluate_run(ds, runs[m]) for m in order}
        self.samples["trajectory_s"].append(time.perf_counter() - t0)
        if self.tracing:
            self.traced_samples_simulated += config.n_samples

        acc = {m: reference.accuracy(runs[m].q_est, ds.q_true) for m in METHODS}
        self.last_trajectory = (ds, runs, acc)
        problems = []
        crossings = reference.vertical_crossings(ds.q_true)
        if crossings != 2:
            problems.append(f"truth pitch passes 90 deg {crossings} times, expected 2")
        h2, ekf = acc["h2"], acc["ekf"]
        if not (
            h2["rms_axis_deg"][1] < H2_PITCH_RMS_MAX
            and h2["max_total_deg"] < H2_PEAK_MAX
            and ekf["rms_total_deg"] < TOTAL_RMS_MAX
        ):
            problems.append(
                f"seed {config.seed}: H2 pitch RMS {h2['rms_axis_deg'][1]:.3f} deg, "
                f"H2 peak {h2['max_total_deg']:.2f} deg, EKF total RMS {ekf['rms_total_deg']:.3f} deg"
            )
        for m in METHODS:
            mismatch = max(
                reference.relative_mismatch(scores[m].rms_axis_deg, acc[m]["rms_axis_deg"]),
                reference.relative_mismatch(scores[m].rms_total_deg, acc[m]["rms_total_deg"]),
            )
            if mismatch > reference.RELATIVE_TOL:
                problems.append(f"{m} evaluate_run RMS differs from the reference by {mismatch:.2e}")
            problems += reference.check_run_properties(runs[m].q_est, runs[m].skipped)
            problems += self.check_steps(ds, runs[m], *TRAJECTORY_CHECKS)
        return problems

    def report(self, ds, runs_by_method: dict, accuracy: dict):
        """build_report, save_report and write_trace for both filters, then check report.json."""
        out = self.work / "report"
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        rep = self.report_mod.build_report(ds, runs_by_method)
        path = self.report_mod.save_report(rep, out / "report.json")
        for method, runs in runs_by_method.items():
            name = self.report_mod.PUBLIC_NAMES[method]
            self.report_mod.write_trace(ds, runs[0], out / f"trace_{name}.csv")
        self.samples["report_s"].append(time.perf_counter() - t0)

        data = json.loads(path.read_text())
        try:
            self.jsonschema.validate(data, self.schema)
        except self.jsonschema.ValidationError as exc:
            return [f"report.json does not match the schema: {exc.message}"]
        problems = []
        internal = {v: k for k, v in self.report_mod.PUBLIC_NAMES.items()}
        for entry in data["filters"]:
            ours = accuracy[internal[entry["method"]]]
            mismatch = max(
                reference.relative_mismatch(entry["rms_axis_deg"], ours["rms_axis_deg"]),
                reference.relative_mismatch(entry["rms_total_deg"], ours["rms_total_deg"]),
            )
            if mismatch > reference.RELATIVE_TOL:
                problems.append(f"{entry['method']} report RMS differs from the reference by {mismatch:.2e}")
        return problems

    def report_flight(self):
        return self.report(self.flight, {m: list(self.flight_runs[m]) for m in METHODS}, self.flight_accuracy)

    def report_trajectory(self):
        ds, runs, acc = self.last_trajectory
        return self.report(ds, {m: [runs[m]] for m in METHODS}, acc)

    # -- workloads --------------------------------------------------------

    def flight_iv(self):
        """`attiq run` on one Case IV flight, filter repetitions interleaved."""
        inputs = self.work / "inputs"
        gains = inputs / "gains.json"
        csv = inputs / f"case_IV_seed{self.seed}.csv"
        with self.traced():
            self.op("synth", self.synth, gains)
            self.op("gen", self.gen, [("IV", self.seed)], inputs)
        self.measure_setup([csv], gains)
        with self.traced():
            self.op("load", self.load, csv, gains)
            self.op("trajectory", self.trajectory)
        self.reset_samples()

        def main_round(k):
            def pair():
                for method in METHODS if k % 2 == 0 else METHODS[::-1]:
                    self.op(f"run {method}", self.flight_run, method)

            self.paired(pair)

        def side_set(j):
            with self.traced():
                self.op("synth", self.synth, self.work / "side" / "gains.json")
                self.op("gen", self.gen, [("IV", self.seed)], self.work / "side")
                self.op("trajectory", self.trajectory)
                self.op("report", self.report_flight)

        self.window(main_round, side_set)

    def offline(self):
        """Synthesis, then generation of Cases I-IV, repeated; Case III trajectories on the side."""
        with self.traced():
            self.op("synth", self.synth, self.work / "gains.json")
            self.op("gen", self.gen, [(case, self.seed) for case in CASES], self.work / "gen")
            self.schedule = self.synthesized
            self.op("trajectory", self.trajectory)
            self.op("report", self.report_trajectory)
        self.reset_samples()

        def main_round(k):
            with self.traced():
                self.op("synth", self.synth, self.work / "gains.json")
                self.op("gen", self.gen, [(case, self.seed) for case in CASES], self.work / "gen")

        def side_set(j):
            self.schedule = self.synthesized
            for _ in range(2):
                self.paired(lambda: self.op("trajectory", self.trajectory))
            with self.traced():
                self.op("report", self.report_trajectory)

        self.window(main_round, side_set)
        self.measure_setup([], None)

    def run(self):
        self.probe()
        {"flight-iv": self.flight_iv, "offline": self.offline}[self.workload]()
        self.probe()

    # -- metrics ----------------------------------------------------------

    def step_us(self, method: str, traced: bool = False) -> np.ndarray:
        pool = (self.traced_step_ns if traced else self.step_ns)[method]
        return np.concatenate(pool) / 1e3 if pool else np.zeros(1)

    def end_to_end(self) -> dict:
        """Every end-to-end metric; see slow_regime for the times per operation."""

        def rate(seconds_per_unit):
            slow = slow_regime(seconds_per_unit)
            return 1.0 / slow if slow else 0.0

        metrics = {"setup_s": (median(self.samples["setup_s"]), "s")}
        for method in METHODS:
            steps = self.step_us(method)
            metrics[f"{method}_step_p75_us"] = (float(np.percentile(steps, 75)), "us")
            metrics[f"{method}_step_p90_us"] = (float(np.percentile(steps, 90)), "us")
        for method in METHODS:
            metrics[f"{method}_samples_per_s"] = (rate(self.s_per_sample[method]), "samples/s")
        metrics["report_s"] = (slow_regime(self.samples["report_s"]), "s")
        metrics["synth_s"] = (slow_regime(self.samples["synth_s"]), "s")
        metrics["gen_s"] = (slow_regime(self.samples["gen_s"]), "s")
        metrics["mc_trajectories_per_s"] = (rate(self.samples["trajectory_s"]), "trajectories/s")
        metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        return metrics

    def per_layer(self) -> dict:
        spans = self.tracer.summary()
        scale = {"us": 1e3, "ms": 1e6, "s": 1e9}

        def count(name):
            return spans.get(name, {"count": 0})["count"]

        def mean(name, unit, key="total_ns"):
            entry = spans.get(name)
            return (entry[key] / entry["count"] / scale[unit] if entry else 0.0, unit)

        def per(numerator, denominator):
            return (numerator / denominator if denominator else 0.0, "count")

        steps = ("filters.h2_step", "filters.ekf_step")
        n_steps = sum(count(name) for name in steps)
        n_schedules = count("synthesis.synthesize_schedule")
        quat_names = [name for name in spans if name.startswith("quat.")]
        metrics = {}
        for fn in ("integrate_step", "dcm_of", "euler_of_quat", "quat_multiply",
                   "small_angle_quat", "renormalize", "normalize"):
            metrics[f"quat.{fn}.us"] = mean(f"quat.{fn}", "us")
        metrics["quat.calls_per_step"] = per(self.tracer.count_within(quat_names, steps), n_steps)
        for name in steps:
            metrics[f"{name}.us"] = mean(name, "us")
            metrics[f"{name}.self_us"] = mean(name, "us", "self_ns")
        metrics["filters.select_octant.us"] = mean("filters.select_octant", "us")
        metrics["filters.predict_measurement.us"] = mean("filters.predict_measurement", "us")
        metrics["filters.run_filter.loop_us"] = (float(np.mean(self.loop_us)) if self.loop_us else 0.0, "us")
        metrics["filters.attitude_errors.s"] = mean("filters.attitude_errors", "s")
        metrics["filters.attitude_errors.calls"] = per(
            self.tracer.count_within(
                ["filters.attitude_errors"], ["report.build_report", "report.write_trace"]
            ),
            len(METHODS) * count("report.build_report"),
        )
        metrics["filters.evaluate_run.s"] = mean("filters.evaluate_run", "s")
        metrics["filters.octant_switches"] = (float(np.mean(self.octant_switches)), "count")
        metrics["sim.generate_truth.s"] = mean("sim.generate_truth", "s")
        metrics["sim.measure.us"] = mean("sim.measure", "us")
        metrics["sim.measure.calls"] = per(count("sim.measure"), self.traced_samples_simulated)
        metrics["dataset.write_dataset.s"] = mean("dataset.write_dataset", "s")
        metrics["dataset.read_dataset.s"] = mean("dataset.read_dataset", "s")
        metrics["dataset.csv_bytes"] = (float(np.mean(self.csv_bytes)), "bytes")
        metrics["synthesis.solve_h2_lmi.s"] = mean("synthesis.solve_h2_lmi", "s")
        metrics["synthesis.solve_h2_lmi.calls"] = per(count("synthesis.solve_h2_lmi"), n_schedules)
        metrics["synthesis.solve_h2_care.ms"] = mean("synthesis.solve_h2_care", "ms")
        metrics["synthesis.solve_h2_care.calls"] = per(count("synthesis.solve_h2_care"), n_schedules)
        metrics["synthesis.h2_norm.calls"] = per(count("synthesis.h2_norm"), n_schedules)
        metrics["plant.build_plant.calls"] = per(count("plant.build_plant"), n_schedules)
        metrics["synthesis.load_gains.ms"] = mean("synthesis.load_gains", "ms")
        metrics["sdp.solve_sdp.s"] = mean("sdp.solve_sdp", "s")
        metrics["sdp.outer_iterations"] = per(self.tracer.sdp_outer_iterations, n_schedules)
        metrics["sdp.newton_iterations"] = per(self.tracer.sdp_newton_iterations, n_schedules)
        metrics["report.build_report.s"] = mean("report.build_report", "s")
        metrics["report.save_report.ms"] = mean("report.save_report", "ms")
        metrics["report.write_trace.s"] = mean("report.write_trace", "s")
        overhead = np.median(self.step_us("h2", traced=True)) - np.median(self.step_us("h2"))
        metrics["trace.overhead_us_per_step"] = (float(overhead), "us")
        metrics["host.probe_us"] = (median(self.samples["probe_us"]), "us")
        return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "attiq" / "__init__.py").is_file():
        print(f"error: no attiq sources at {SRC}; run from the root of an attiq checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = BenchRun(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.run()

    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    host = machine()
    host["probe_us"] = median(bench.samples["probe_us"])
    print("machine " + json.dumps(host))
    for name, digest in sorted(bench.sha256.items()):
        print(f"sha256 {name} {digest}")
    if not args.trace:
        h2, ekf = (float(np.median(bench.step_us(method))) for method in METHODS)
        print(f"median step ratio extended_h2/ekf {h2 / ekf:.3f}")
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)

    OUT.mkdir(parents=True, exist_ok=True)
    if bench.tracer is not None:
        bench.tracer.write(OUT / f"{args.workload}-spans.npz")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = dict(result, machine=host, sha256=bench.sha256, failures=bench.failures,
                   samples=bench.samples)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
