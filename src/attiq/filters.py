"""Quaternion attitude filters fed by gyro/accelerometer/magnetometer data.

Both filters share the same multiplicative structure: integrate the bias
corrected gyro exactly over one sample interval, compare the predicted
body-frame gravity/field directions against the vector measurements, and
fold a small-angle correction quaternion back into the estimate.

- The scheduled filter applies a constant precomputed gain per attitude
  octant (see synthesis.py); the step cost is one matrix-vector product.
- The extended Kalman filter propagates a 6x6 error covariance and solves
  for its gain online; it is the baseline the scheduled filter is
  benchmarked against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .plant import OCTANT_TRIPLES
from .quat import (
    dcm_of,
    euler_of_quat,
    integrate_step,
    normalize,
    quat_multiply,
    quat_of_dcm,
    renormalize,
    skew,
    small_angle_quat,
)
from .sim import Dataset, NoiseParams
from .synthesis import GainSchedule

HYSTERESIS = 0.05  # rad, per-axis octant switching band

_TRIPLE_TO_OCTANT = {
    tuple(angle > 1.0 for angle in triple): idx
    for idx, triple in enumerate(OCTANT_TRIPLES)
}


@dataclass
class H2State:
    q: np.ndarray
    b: np.ndarray
    octant: int


@dataclass
class EkfState:
    q: np.ndarray
    b: np.ndarray
    p: np.ndarray  # 6x6 error covariance (attitude, bias)


def triad_attitude(a_m, m_m, g, h) -> np.ndarray:
    """Attitude from one accelerometer/magnetometer pair of observations."""
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    a_m = np.asarray(a_m, dtype=float)
    m_m = np.asarray(m_m, dtype=float)

    def triad(v1, v2):
        t1 = v1 / np.linalg.norm(v1)
        c = np.cross(v1, v2)
        n = np.linalg.norm(c)
        if n == 0.0:
            raise ValueError("reference vectors are parallel; attitude undefined")
        t2 = c / n
        return np.column_stack([t1, t2, np.cross(t1, t2)])

    body = triad(a_m, m_m)
    inertial = triad(g, h)
    return quat_of_dcm(body @ inertial.T)


def select_octant(q, prev: int | None = None, hysteresis: float = HYSTERESIS) -> int:
    """Scheduling octant of an attitude, with per-axis switching hysteresis.

    Each roll/pitch/yaw angle snaps to the 0 or pi half of its circle; a
    previous octant keeps the old half until the angle moves past the
    quarter-turn boundary by the hysteresis band, so a trajectory riding a
    roll or yaw boundary does not chatter between gains. The band does not
    help at pitch +-90 deg: crossing it flips roll and yaw by 180 deg, so
    pitch alternating between 89.95 and 90.05 deg still selects octants
    0, 6, 0, 6, ...
    """
    angles = euler_of_quat(q)
    if prev is None:
        flipped_prev = (False, False, False)
    else:
        flipped_prev = tuple(angle > 1.0 for angle in OCTANT_TRIPLES[prev])
    flipped = []
    for angle, was_flipped in zip(angles, flipped_prev):
        border = np.pi / 2.0
        if was_flipped:
            flipped.append(abs(angle) >= border - hysteresis)
        else:
            flipped.append(abs(angle) > border + (hysteresis if prev is not None else 0.0))
    return _TRIPLE_TO_OCTANT[tuple(flipped)]


def _fold_correction(q_pred, b, dx):
    """Fold a small-angle/bias correction into the multiplicative estimate."""
    dq = renormalize(small_angle_quat(dx[:3]))
    q_new = normalize(quat_multiply(dq, q_pred))
    return q_new, b + dx[3:]


def predict_measurement(q, g, h) -> np.ndarray:
    """Body-frame gravity and field expected at attitude q, stacked."""
    c = dcm_of(q)
    out = np.empty(6)
    out[:3] = c @ np.asarray(g, float)
    out[3:] = c @ np.asarray(h, float)
    return out


def h2_propagate(state: H2State, w_m: np.ndarray, dt: float) -> H2State:
    """Gyro propagation over one sample interval, with the octant of the
    propagated attitude; alone, it is the step of a sample without vector
    measurements."""
    q_pred = integrate_step(state.q, w_m - state.b, dt)
    return H2State(q=q_pred, b=state.b, octant=select_octant(q_pred, state.octant))


def h2_step(
    state: H2State,
    w_m: np.ndarray,
    a_m: np.ndarray,
    m_m: np.ndarray,
    schedule: GainSchedule,
    dt: float,
    g,
    h,
) -> H2State:
    """One scheduled-gain step: exact gyro propagation, fixed-gain update.

    w_m is the gyro sample that spans the interval ending at the sample whose
    vector measurements are a_m and m_m (the rate reported with the previous
    sample).
    """
    pred = h2_propagate(state, w_m, dt)
    nu = predict_measurement(pred.q, g, h)
    nu[:3] -= a_m
    nu[3:] -= m_m
    dx = dt * (schedule.gains[pred.octant] @ nu)
    q_new, b_new = _fold_correction(pred.q, state.b, dx)
    return H2State(q=q_new, b=b_new, octant=pred.octant)


def _measurement_jacobian(q, g, h) -> np.ndarray:
    c = dcm_of(q)
    jac = np.zeros((6, 6))
    jac[:3, :3] = skew(c @ np.asarray(g, float))
    jac[3:, :3] = skew(c @ np.asarray(h, float))
    return jac


def ekf_propagate(state: EkfState, w_m: np.ndarray, noise: NoiseParams, dt: float) -> EkfState:
    """Attitude and covariance propagation over one sample interval; alone,
    it is the step of a sample without vector measurements."""
    w_hat = w_m - state.b
    q_pred = integrate_step(state.q, w_hat, dt)

    f = np.zeros((6, 6))
    f[:3, :3] = -skew(w_hat)
    f[:3, 3:] = -np.eye(3)
    phi = np.eye(6) + f * dt
    qd = np.zeros((6, 6))
    qd[:3, :3] = noise.n_w**2 * dt * np.eye(3)
    qd[3:, 3:] = noise.n_b**2 * dt * np.eye(3)
    return EkfState(q=q_pred, b=state.b, p=phi @ state.p @ phi.T + qd)


def ekf_step(
    state: EkfState,
    w_m: np.ndarray,
    a_m: np.ndarray,
    m_m: np.ndarray,
    noise: NoiseParams,
    dt: float,
    g,
    h,
) -> EkfState:
    """One extended Kalman filter step (multiplicative, Joseph-form update).

    w_m is the gyro sample that spans the interval ending at the sample whose
    vector measurements are a_m and m_m.
    """
    pred = ekf_propagate(state, w_m, noise, dt)
    q_pred, p_pred = pred.q, pred.p

    jac = _measurement_jacobian(q_pred, g, h)
    r_cov = np.zeros((6, 6))
    r_cov[:3, :3] = noise.n_a**2 * np.eye(3)
    r_cov[3:, 3:] = noise.n_m**2 * np.eye(3)
    innovation_cov = jac @ p_pred @ jac.T + r_cov
    gain = p_pred @ jac.T @ np.linalg.inv(innovation_cov)

    resid = np.concatenate([a_m, m_m]) - predict_measurement(q_pred, g, h)
    dx = gain @ resid

    ikh = np.eye(6) - gain @ jac
    p_new = ikh @ p_pred @ ikh.T + gain @ r_cov @ gain.T
    p_new = 0.5 * (p_new + p_new.T)

    q_new, b_new = _fold_correction(q_pred, state.b, dx)
    return EkfState(q=q_new, b=b_new, p=p_new)


def initial_h2_state(a_m, m_m, g, h) -> H2State:
    q0 = triad_attitude(a_m, m_m, g, h)
    return H2State(q=q0, b=np.zeros(3), octant=select_octant(q0))


def initial_ekf_state(
    a_m,
    m_m,
    g,
    h,
    att_std: float = 0.1,
    bias_std: float = 0.01,
) -> EkfState:
    q0 = triad_attitude(a_m, m_m, g, h)
    p0 = np.zeros((6, 6))
    p0[:3, :3] = att_std**2 * np.eye(3)
    p0[3:, 3:] = bias_std**2 * np.eye(3)
    return EkfState(q=q0, b=np.zeros(3), p=p0)


METHODS = ("h2", "ekf")


@dataclass
class FilterRun:
    """Per-sample estimates of one filter over one dataset."""

    method: str
    q_est: np.ndarray  # (n, 4)
    b_est: np.ndarray  # (n, 3)
    octants: np.ndarray | None  # (n,) scheduled octant, scheduled filter only
    step_ns: np.ndarray  # (n,) wall time of each step
    skipped: np.ndarray  # (n,) True where non-finite input held the state or
    # skipped the correction


def run_filter(
    dataset: Dataset,
    method: str,
    schedule: GainSchedule | None = None,
    noise_model: NoiseParams | None = None,
    initial_state=None,
) -> FilterRun:
    """Run one filter over a dataset; estimates are causal per sample.

    By default the state initializes from the first vector observations
    with zero bias, so only a_m[0] and m_m[0] must be finite; pass
    initial_state to start elsewhere (recovery tests).
    Step k propagates over [t_{k-1}, t_k) with the gyro sample w_m[k-1] and
    corrects with sample k's vector measurements. Non-finite input degrades
    the step and flags it in the result: when a_m[k] or m_m[k] is non-finite
    the step propagates only (the EKF propagates its covariance too); when
    w_m[k-1] is non-finite the state is held. The EKF needs a noise model
    with positive intensities; when the dataset was generated noise-free the
    consumer grade default at the dataset rate is used instead.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    config = dataset.config
    g, h = np.asarray(config.g, float), np.asarray(config.h, float)
    w_m, a_m, m_m = dataset.w_m, dataset.a_m, dataset.m_m
    n = len(dataset.t)
    if n == 0:
        raise ValueError("dataset has no samples")
    # validity screening happens outside the step timers so step_ns measures
    # the filter arithmetic itself
    rate_ok = np.isfinite(w_m).all(axis=1)
    vectors_ok = np.isfinite(a_m).all(axis=1) & np.isfinite(m_m).all(axis=1)
    if not vectors_ok[0]:
        raise ValueError("first sample has non-finite vectors; cannot initialize")
    rate_ok, vectors_ok = rate_ok.tolist(), vectors_ok.tolist()

    if method == "h2":
        if schedule is None:
            raise ValueError("the scheduled filter requires a gain schedule")
        if not (np.allclose(schedule.g, g) and np.allclose(schedule.h, h)):
            raise ValueError(
                "gain schedule was synthesized for different reference vectors"
            )
    else:
        if noise_model is None:
            noise_model = config.noise
        if min(noise_model.n_w, noise_model.n_b, noise_model.n_a, noise_model.n_m) <= 0.0:
            noise_model = NoiseParams.mpu9250(config.sample_rate)

    dt = config.dt
    q_est = np.zeros((n, 4))
    b_est = np.zeros((n, 3))
    octants = np.zeros(n, dtype=int) if method == "h2" else None
    step_ns = np.zeros(n, dtype=np.int64)
    skipped = np.zeros(n, dtype=bool)

    t0 = time.perf_counter_ns()
    if initial_state is not None:
        state = initial_state
        expected = H2State if method == "h2" else EkfState
        if not isinstance(state, expected):
            raise ValueError(f"initial_state must be a {expected.__name__}")
    else:
        state = (
            initial_h2_state(a_m[0], m_m[0], g, h)
            if method == "h2"
            else initial_ekf_state(a_m[0], m_m[0], g, h)
        )
    step_ns[0] = time.perf_counter_ns() - t0
    q_est[0] = state.q
    b_est[0] = state.b
    if octants is not None:
        octants[0] = state.octant

    for k in range(1, n):
        w_prev, a_k, m_k = w_m[k - 1], a_m[k], m_m[k]
        t0 = time.perf_counter_ns()
        if not rate_ok[k - 1]:
            skipped[k] = True
        elif not vectors_ok[k]:
            skipped[k] = True
            if method == "h2":
                state = h2_propagate(state, w_prev, dt)
            else:
                state = ekf_propagate(state, w_prev, noise_model, dt)
        elif method == "h2":
            state = h2_step(state, w_prev, a_k, m_k, schedule, dt, g, h)
        else:
            state = ekf_step(state, w_prev, a_k, m_k, noise_model, dt, g, h)
        step_ns[k] = time.perf_counter_ns() - t0
        q_est[k] = state.q
        b_est[k] = state.b
        if octants is not None:
            octants[k] = state.octant
    return FilterRun(
        method=method,
        q_est=q_est,
        b_est=b_est,
        octants=octants,
        step_ns=step_ns,
        skipped=skipped,
    )


def attitude_errors(q_est: np.ndarray, q_true: np.ndarray):
    """Per-sample body-frame error angles (n, 3) and total angles (n,), rad.

    The error quaternion is q_est (x) q_true^-1; the angles depend on neither
    the norm nor the sign of either quaternion, so rows are not normalized.
    """
    a = np.asarray(q_est, dtype=float)
    b = np.asarray(q_true, dtype=float)
    norms = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    if not np.all(np.isfinite(norms) & (norms > 0.0)):
        raise ValueError("cannot normalize quaternion with zero or non-finite norm")
    av, a4 = a[:, :3], a[:, 3:]
    bv, b4 = -b[:, :3], b[:, 3:]  # vector part of the conjugate
    vec = a4 * bv + b4 * av - np.cross(av, bv)
    scal = a4[:, 0] * b4[:, 0] - np.sum(av * bv, axis=1)
    s = np.linalg.norm(vec, axis=1)
    totals = 2.0 * np.arctan2(s, np.abs(scal))
    scale = np.divide(totals, s, out=np.zeros_like(s), where=s > 0.0)
    scale[scal < 0.0] *= -1.0
    return scale[:, None] * vec, totals


@dataclass
class ScenarioResult:
    """Accuracy of one filter run against truth, with step timing pooled over
    its repetitions."""

    method: str
    rms_axis_deg: np.ndarray  # (3,) roll/pitch/yaw error components
    rms_total_deg: float
    max_total_deg: float
    rms_bias: np.ndarray  # (3,) rad/s
    median_step_ns: float
    mean_step_ns: float
    std_step_ns: float
    n_skipped: int


def evaluate_run(dataset: Dataset, run: FilterRun, *repetitions: FilterRun) -> ScenarioResult:
    """Score a run against the dataset's truth.

    Accuracy and the skipped count come from `run`; step times (without the
    initialization step) are pooled over `run` and any further repetitions.
    """
    comps, totals = attitude_errors(run.q_est, dataset.q_true)
    bias_err = run.b_est - dataset.b_true
    steps = np.concatenate([r.step_ns[1:] for r in (run, *repetitions)]).astype(float)
    return ScenarioResult(
        method=run.method,
        rms_axis_deg=np.degrees(np.sqrt(np.mean(comps**2, axis=0))),
        rms_total_deg=float(np.degrees(np.sqrt(np.mean(totals**2)))),
        max_total_deg=float(np.degrees(totals.max())),
        rms_bias=np.sqrt(np.mean(bias_err**2, axis=0)),
        median_step_ns=float(np.median(steps)),
        mean_step_ns=float(np.mean(steps)),
        std_step_ns=float(np.std(steps)),
        n_skipped=int(run.skipped.sum()),
    )
