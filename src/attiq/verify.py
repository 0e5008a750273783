"""End-to-end checks of the benchmark's headline claims.

Each criterion function is self-contained, returns a CriterionResult with a
printable pass/fail line, and is used both by the command line ``verify``
subcommand and by the acceptance test suite. Criteria with a stated runtime
budget fail when they exceed it (shared gain synthesis is budgeted under the
synthesis criterion, not under every consumer).
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import read_dataset, write_dataset
from .filters import attitude_errors, evaluate_run, run_filter
from .plant import LinearErrorPlant, build_plant
from .quat import dcm_of, integrate_step, normalize, quat_multiply, renormalize
from .report import CASE_CHECKS, TIMING_RATIO_THRESHOLD
from .sim import DEFAULT_FIELD, DEFAULT_GRAVITY, NoiseParams, ScenarioConfig, simulate_scenario
from .synthesis import (
    N_OCTANTS,
    GainSchedule,
    care_cross_check,
    default_design_noise,
    h2_norm,
    octant_rotation,
    solve_h2_care,
    solve_h2_lmi,
    synthesize_schedule,
)

# initial attitude error of the recovery runs, deg
RECOVERY_ANGLE_DEG = 20.0
# randomized instances per property suite
PROPERTY_INSTANCES = 1000


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.number} [{status}] {self.name}: "
            f"{self.detail} ({self.seconds:.1f} s)"
        )


def _timed(number, name, budget, body) -> CriterionResult:
    start = time.perf_counter()
    passed, detail = body()
    elapsed = time.perf_counter() - start
    if budget is not None:
        passed = passed and elapsed < budget
        detail += f"; runtime {elapsed:.1f} s of {budget:g} s budget"
    return CriterionResult(number, name, passed, detail, elapsed)


def criterion_1_case3_pitch(schedule: GainSchedule) -> CriterionResult:
    """Case III pitch RMS < 0.5 deg on seeds 1..5, no divergence, < 10 s."""
    bound = CASE_CHECKS["III"]["extended_h2", "pitch_rms_deg"]

    def body():
        worst_pitch, worst_max = 0.0, 0.0
        for seed in range(1, 6):
            ds = simulate_scenario(ScenarioConfig.for_case("III", seed=seed))
            res = evaluate_run(ds, run_filter(ds, "h2", schedule=schedule))
            worst_pitch = max(worst_pitch, float(res.rms_axis_deg[1]))
            worst_max = max(worst_max, res.max_total_deg)
        passed = worst_pitch < bound and worst_max < 30.0
        return passed, (
            f"worst pitch RMS {worst_pitch:.3f} deg (< {bound:g}), "
            f"worst peak error {worst_max:.2f} deg"
        )

    return _timed(1, "case III pitch accuracy", 10.0, body)


def criterion_2_case4_relative(schedule: GainSchedule, noise: NoiseParams) -> CriterionResult:
    """Case IV: both filters < 1 deg RMS; H2 within 1.25x EKF on 8+ of 10 seeds."""
    bound_h2, bound_ekf = (CASE_CHECKS["IV"][m, "total_rms_deg"] for m in ("extended_h2", "ekf"))

    def body():
        wins, worst_h2, worst_ekf, worst_ratio = 0, 0.0, 0.0, 0.0
        for seed in range(1, 11):
            ds = simulate_scenario(ScenarioConfig.for_case("IV", seed=seed))
            res_h2 = evaluate_run(ds, run_filter(ds, "h2", schedule=schedule))
            res_ekf = evaluate_run(ds, run_filter(ds, "ekf", noise_model=noise))
            ratio = res_h2.rms_total_deg / res_ekf.rms_total_deg
            wins += ratio <= 1.25
            worst_h2 = max(worst_h2, res_h2.rms_total_deg)
            worst_ekf = max(worst_ekf, res_ekf.rms_total_deg)
            worst_ratio = max(worst_ratio, ratio)
        passed = wins >= 8 and worst_h2 < bound_h2 and worst_ekf < bound_ekf
        return passed, (
            f"ratio <= 1.25 on {wins}/10 seeds (worst {worst_ratio:.3f}), worst total RMS "
            f"{worst_h2:.3f} deg (H2, < {bound_h2:g}), {worst_ekf:.3f} deg (EKF, < {bound_ekf:g})"
        )

    return _timed(2, "case IV relative accuracy", None, body)


def criterion_3_timing(schedule: GainSchedule, noise: NoiseParams) -> CriterionResult:
    """Median H2 step time <= 0.75x EKF on Case II, 5 repetitions, < 30 s."""

    def body():
        ds = simulate_scenario(ScenarioConfig.for_case("II", seed=1))
        kwargs = {"h2": {"schedule": schedule}, "ekf": {"noise_model": noise}}
        runs = {method: [] for method in kwargs}
        # interleaved, so a burst of host load hits both filters alike
        for _ in range(5):
            for method, kw in kwargs.items():
                runs[method].append(run_filter(ds, method, **kw))
        med = {method: evaluate_run(ds, *r).median_step_ns for method, r in runs.items()}
        ratio = med["h2"] / med["ekf"]
        return ratio <= TIMING_RATIO_THRESHOLD, (
            f"median step {med['h2'] / 1e3:.1f} us (H2) vs {med['ekf'] / 1e3:.1f} us "
            f"(EKF), ratio {ratio:.3f} (<= {TIMING_RATIO_THRESHOLD:g})"
        )

    return _timed(3, "step-time ratio", 30.0, body)


def criterion_4_route_agreement(noise: NoiseParams) -> CriterionResult:
    """LMI and Riccati gains agree on all octants; gamma matches the H2 norm."""

    def body():
        worst_gain, worst_gamma, worst_eig = 0.0, 0.0, -np.inf
        g, h = np.asarray(DEFAULT_GRAVITY), np.asarray(DEFAULT_FIELD)
        for octant in range(N_OCTANTS):
            r = octant_rotation(octant)
            plant = build_plant(noise, r @ g, r @ h)
            l_lmi, gamma, _ = solve_h2_lmi(plant)
            rel, _, gamma_rel, abscissa = care_cross_check(plant, l_lmi, gamma)
            worst_gain = max(worst_gain, rel)
            worst_gamma = max(worst_gamma, gamma_rel)
            worst_eig = max(worst_eig, abscissa)
        passed = worst_gain < 1e-3 and worst_gamma < 1e-3 and worst_eig < 0.0
        return passed, (
            f"worst gain mismatch {worst_gain:.2e} (< 1e-3), worst gamma mismatch "
            f"{worst_gamma:.2e} (< 1e-3), max closed-loop eig {worst_eig:.3f}"
        )

    return _timed(4, "synthesis route agreement", 10.0, body)


def criterion_5_scalar_closed_form() -> CriterionResult:
    """Scalar plant matches sqrt(2)-1 closed forms; H2 norm matches 1/sqrt(2)."""

    def body():
        plant = LinearErrorPlant(a=[[-1.0]], bw=[[1.0]], cy=[[1.0]], dw=[[1.0]], cz=[[1.0]])
        exact = np.sqrt(2.0) - 1.0
        _, _, p_care = solve_h2_care(plant)
        care_err = abs(float(p_care[0, 0]) - exact)
        l_lmi, _, _ = solve_h2_lmi(plant)
        lmi_err = abs(float(l_lmi[0, 0]) + exact)
        norm_err = abs(h2_norm([[-1.0]], [[1.0]], [[1.0]]) - 1.0 / np.sqrt(2.0))
        passed = care_err < 1e-9 and lmi_err < 1e-6 and norm_err < 1e-9
        return passed, (
            f"CARE P error {care_err:.1e} (< 1e-9), LMI gain error {lmi_err:.1e} "
            f"(< 1e-6), H2 norm error {norm_err:.1e} (< 1e-9)"
        )

    return _timed(5, "scalar closed forms", None, body)


def criterion_6_noiseless_tracking(schedule: GainSchedule) -> CriterionResult:
    """Noise-free Cases I-III tracked below 0.01 deg RMS by both filters."""

    def body():
        worst = 0.0
        for case in ("I", "II", "III"):
            cfg = ScenarioConfig.for_case(case, seed=1, noise=NoiseParams.zero())
            ds = simulate_scenario(cfg)
            for method, kwargs in (("h2", {"schedule": schedule}), ("ekf", {})):
                res = evaluate_run(ds, run_filter(ds, method, **kwargs))
                worst = max(worst, res.rms_total_deg)
        return worst < 0.01, f"worst total RMS {worst:.2e} deg (< 0.01)"

    return _timed(6, "noiseless tracking", None, body)


def criterion_7_convergence(schedule: GainSchedule) -> CriterionResult:
    """20 deg initial error on static truth falls below 1 deg within 5 s."""

    def body():
        worst = 0.0
        for seed in range(1, 6):
            cfg = ScenarioConfig.for_case("I", seed=seed, angular_rate=0.0, duration=10.0)
            ds = simulate_scenario(cfg)
            rng = np.random.default_rng(10_000 + seed)
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            half = np.deg2rad(RECOVERY_ANGLE_DEG) / 2.0
            dq = np.array([*(np.sin(half) * axis), np.cos(half)])
            q0 = normalize(quat_multiply(dq, ds.q_true[0]))
            run = run_filter(ds, "h2", schedule=schedule, q0=q0)
            _, totals = attitude_errors(run.q_est, ds.q_true)
            tail = float(np.degrees(totals[ds.t >= 5.0]).max())
            worst = max(worst, tail)
        return worst < 1.0, f"worst error after 5 s {worst:.3f} deg (< 1.0) on 5/5 seeds"

    return _timed(7, "convergence from 20 deg", None, body)


def _suite_homomorphism(rng, n):
    for _ in range(n):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        if not np.allclose(
            dcm_of(quat_multiply(a, b)), dcm_of(a) @ dcm_of(b), atol=1e-12
        ):
            return False
    return True


def _suite_renormalize(rng, n):
    for _ in range(n):
        raw = rng.standard_normal(4) * 10.0 ** rng.uniform(-6, 3)
        q = renormalize(raw)
        if abs(np.linalg.norm(q) - 1.0) > 1e-12 or q[3] < 0.0:
            return False
    return True


def _suite_exp_step(rng, n):
    # rates from 1e-14 rad/s (the series branch) to 1e2 rad/s; the step
    # keeps unit norm, turns by |w| t, and two steps compose to one
    for _ in range(n):
        q = rng.standard_normal(4)
        q = q / np.linalg.norm(q)
        w = rng.standard_normal(3) * 10.0 ** rng.uniform(-14, 2)
        t1, t2 = rng.uniform(0.0, 0.05, 2)
        q1 = integrate_step(q, w, t1)
        q12 = integrate_step(q1, w, t2)
        q2 = integrate_step(q, w, t1 + t2)
        turn = np.cos(0.5 * np.linalg.norm(w) * t1)
        if (
            abs(np.linalg.norm(q1) - 1.0) > 1e-12
            or abs(abs(float(q @ q1)) - abs(turn)) > 1e-12
            or min(np.abs(q12 - q2).max(), np.abs(q12 + q2).max()) > 1e-12
        ):
            return False
    return True


def _suite_dataset_roundtrip(rng, n):
    cases = ("I", "II", "III", "IV")
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(n):
            cfg = ScenarioConfig.for_case(
                cases[k % 4], seed=int(rng.integers(1 << 32)), duration=0.05
            )
            ds = simulate_scenario(cfg)
            path = Path(tmp) / f"rt_{k}.csv"
            write_dataset(ds, path)
            back = read_dataset(path)
            if not (
                np.array_equal(back.w_m, ds.w_m)
                and np.array_equal(back.a_m, ds.a_m)
                and np.array_equal(back.m_m, ds.m_m)
                and np.array_equal(back.q_true, ds.q_true)
                and np.array_equal(back.b_true, ds.b_true)
                and back.config == ds.config
            ):
                return False
    return True


def _suite_determinism(rng, n):
    cases = ("I", "II", "III", "IV")
    for k in range(n):
        cfg = ScenarioConfig.for_case(
            cases[k % 4], seed=int(rng.integers(1 << 32)), duration=0.05
        )
        a, b = simulate_scenario(cfg), simulate_scenario(cfg)
        if not (
            np.array_equal(a.w_m, b.w_m)
            and np.array_equal(a.a_m, b.a_m)
            and np.array_equal(a.m_m, b.m_m)
            and np.array_equal(a.q_true, b.q_true)
        ):
            return False
    return True


# (name, seed, suite); fixed seeds so every run checks the same instances
PROPERTY_SUITES = (
    ("quaternion homomorphism", 1, _suite_homomorphism),
    ("renormalization", 2, _suite_renormalize),
    ("exponential step", 3, _suite_exp_step),
    ("dataset round-trip", 4, _suite_dataset_roundtrip),
    ("determinism", 5, _suite_determinism),
)


def criterion_8_property_suites() -> CriterionResult:
    """Five randomized algebra/persistence suites at 1000 instances each."""

    def body():
        failed = [
            name
            for name, seed, suite in PROPERTY_SUITES
            if not suite(np.random.default_rng(seed), PROPERTY_INSTANCES)
        ]
        if failed:
            return False, f"failed suites: {', '.join(failed)}"
        return True, f"{len(PROPERTY_SUITES)} suites x {PROPERTY_INSTANCES} instances"

    return _timed(8, "algebraic invariant suites", 60.0, body)


# criterion number -> scenario cases it exercises (empty set: synthetic input)
CRITERION_CASES = {
    1: {"III"},
    2: {"IV"},
    3: {"II"},
    4: set(),
    5: set(),
    6: {"I", "II", "III"},
    7: set(),
    8: set(),
}


def run_criteria(case: str | None = None, echo=None):
    """Run the acceptance criteria, optionally only those touching one case.

    Returns (results, all_passed). echo, when given, is called with each
    result line as it completes.
    """
    selected = [
        n for n in sorted(CRITERION_CASES) if case is None or case in CRITERION_CASES[n]
    ]
    needs_schedule = any(n in (1, 2, 3, 6, 7) for n in selected)
    noise = default_design_noise()
    schedule = synthesize_schedule(noise) if needs_schedule else None

    runners = {
        1: lambda: criterion_1_case3_pitch(schedule),
        2: lambda: criterion_2_case4_relative(schedule, noise),
        3: lambda: criterion_3_timing(schedule, noise),
        4: lambda: criterion_4_route_agreement(noise),
        5: criterion_5_scalar_closed_form,
        6: lambda: criterion_6_noiseless_tracking(schedule),
        7: lambda: criterion_7_convergence(schedule),
        8: criterion_8_property_suites,
    }
    results = []
    for number in selected:
        result = runners[number]()
        results.append(result)
        if echo is not None:
            echo(result.line())
    return results, all(r.passed for r in results)
