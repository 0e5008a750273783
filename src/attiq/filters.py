"""Quaternion attitude filters fed by gyro/accelerometer/magnetometer data.

Both filters share the same multiplicative structure: integrate the bias
corrected gyro exactly over one sample interval, compare the predicted
body-frame gravity/field directions against the vector measurements, and
fold a small-angle correction quaternion back into the estimate.

- The scheduled filter applies a constant precomputed gain per attitude
  octant (see synthesis.py), chosen afresh at every step by the nearest of
  the four octant centers; the step cost is one matrix-vector product.
- The extended Kalman filter propagates a 6x6 error covariance and solves
  for its gain online; it is the baseline the scheduled filter is
  benchmarked against. Its covariances and measurement matrix come from
  the error model the scheduled gains are synthesized for (plant.py).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .plant import SampledModel, measurement_matrix, sampled_model
from .quat import (
    _check_unit,
    dcm_of,
    integrate_step,
    normalize,
    quat_multiply,
    quat_of_dcm,
    renormalize,
    skew,
    small_angle_quat,
)
from .sim import Dataset, NoiseParams
from .synthesis import CENTER_OCTANT, GainSchedule, default_design_noise

# initial EKF error standard deviations: attitude (rad) and gyro bias (rad/s)
INITIAL_ATT_STD = 0.1
INITIAL_BIAS_STD = 0.01


@dataclass
class H2State:
    q: np.ndarray
    b: np.ndarray
    octant: int  # the octant whose gain the step applied


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


def select_octant(q) -> int:
    """Scheduling octant of an attitude: the one at its nearest center.

    The nearest of the four centers (identity and the three half-turns) is
    the quaternion component of largest magnitude; ties go to the identity.
    """
    mags = [abs(c) for c in _check_unit(q).tolist()]
    return CENTER_OCTANT[max((3, 0, 1, 2), key=mags.__getitem__)]


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
    propagated attitude, whatever octant the previous step applied; alone,
    it is the step of a sample without vector measurements."""
    q_pred = integrate_step(state.q, w_m - state.b, dt)
    return H2State(q=q_pred, b=state.b, octant=select_octant(q_pred))


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


def ekf_propagate(state: EkfState, w_m: np.ndarray, model: SampledModel, dt: float) -> EkfState:
    """Attitude and covariance propagation over one sample interval; alone,
    it is the step of a sample without vector measurements."""
    w_hat = w_m - state.b
    q_pred = integrate_step(state.q, w_hat, dt)
    phi = model.phi.copy()  # linearized about the estimated rate
    phi[:3, :3] -= skew(w_hat) * dt
    return EkfState(q=q_pred, b=state.b, p=phi @ state.p @ phi.T + model.qd)


def ekf_step(
    state: EkfState,
    w_m: np.ndarray,
    a_m: np.ndarray,
    m_m: np.ndarray,
    model: SampledModel,
    dt: float,
    g,
    h,
) -> EkfState:
    """One extended Kalman filter step (multiplicative, Joseph-form update).

    w_m is the gyro sample that spans the interval ending at the sample whose
    vector measurements are a_m and m_m; model is the error model at dt.
    """
    pred = ekf_propagate(state, w_m, model, dt)
    q_pred, p_pred = pred.q, pred.p

    y_pred = predict_measurement(q_pred, g, h)
    jac = measurement_matrix(y_pred[:3], y_pred[3:])
    innovation_cov = jac @ p_pred @ jac.T + model.r
    gain = p_pred @ jac.T @ np.linalg.inv(innovation_cov)

    resid = np.concatenate([a_m, m_m]) - y_pred
    dx = gain @ resid

    ikh = np.eye(6) - gain @ jac
    p_new = ikh @ p_pred @ ikh.T + gain @ model.r @ gain.T
    p_new = 0.5 * (p_new + p_new.T)

    q_new, b_new = _fold_correction(q_pred, state.b, dx)
    return EkfState(q=q_new, b=b_new, p=p_new)


def initial_h2_state(q0) -> H2State:
    return H2State(q=q0, b=np.zeros(3), octant=select_octant(q0))


def initial_ekf_state(q0) -> EkfState:
    p0 = np.diag([INITIAL_ATT_STD**2] * 3 + [INITIAL_BIAS_STD**2] * 3)
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
    q0=None,
) -> FilterRun:
    """Run one filter over a dataset; estimates are causal per sample.

    Both filters start at the unit quaternion q0 with zero bias; q0 defaults
    to the TRIAD attitude of the first vector observations, which must be
    finite. Pass q0 to start elsewhere (recovery tests).
    Step k propagates over [t_{k-1}, t_k) with the gyro sample w_m[k-1] and
    corrects with sample k's vector measurements. Non-finite input degrades
    the step and flags it in the result: when a_m[k] or m_m[k] is non-finite
    the step propagates only (the EKF propagates its covariance too); when
    w_m[k-1] is non-finite the state is held. The EKF is tuned with
    noise_model, which defaults to default_design_noise at the dataset
    rate, the design noise of the default gain schedule; every intensity
    must be positive.
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
    if q0 is not None:
        if np.shape(q0) != (4,):
            raise ValueError(f"q0 must have shape (4,), got {np.shape(q0)}")
        q0 = _check_unit(q0)
    rate_ok, vectors_ok = rate_ok.tolist(), vectors_ok.tolist()

    dt = config.dt
    if method == "h2":
        if schedule is None:
            raise ValueError("the scheduled filter requires a gain schedule")
        if not (np.allclose(schedule.g, g) and np.allclose(schedule.h, h)):
            raise ValueError(
                "gain schedule was synthesized for different reference vectors"
            )
        octants = np.zeros(n, dtype=np.int8)
        init, step, params = initial_h2_state, h2_step, schedule
        propagate = partial(h2_propagate, dt=dt)
    else:
        if noise_model is None:
            noise_model = default_design_noise(config.sample_rate)
        params = sampled_model(noise_model, dt)
        octants = None
        init, step = initial_ekf_state, ekf_step
        propagate = partial(ekf_propagate, model=params, dt=dt)

    q_est = np.zeros((n, 4))
    b_est = np.zeros((n, 3))
    step_ns = np.zeros(n, dtype=np.int64)
    skipped = np.zeros(n, dtype=bool)

    for k in range(n):
        w_prev, a_k, m_k = w_m[k - 1], a_m[k], m_m[k]
        t0 = time.perf_counter_ns()
        if k == 0:
            state = init(triad_attitude(a_k, m_k, g, h) if q0 is None else q0)
        elif not rate_ok[k - 1]:
            skipped[k] = True
        elif not vectors_ok[k]:
            skipped[k] = True
            state = propagate(state, w_prev)
        else:
            # positional: keyword binding would add about 0.5 us to every step
            state = step(state, w_prev, a_k, m_k, params, dt, g, h)
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
    Raises ValueError when no step was timed, as on a one-sample dataset.
    """
    steps = np.concatenate([r.step_ns[1:] for r in (run, *repetitions)]).astype(float)
    if steps.size == 0:
        raise ValueError(
            f"no filter step to time: the dataset has {len(run.step_ns)} sample(s), "
            "and the first only initializes the filter"
        )
    comps, totals = attitude_errors(run.q_est, dataset.q_true)
    bias_err = run.b_est - dataset.b_true
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
