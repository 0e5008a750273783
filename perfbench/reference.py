"""Computations the benchmark checks attiq's outputs against.

Nothing here imports attiq. Attitudes go through
scipy.spatial.transform.Rotation: for a scalar-last unit quaternion q,
attiq's inertial-to-body matrix dcm_of(q) equals
Rotation.from_quat(q).as_matrix().T, so Rotation.from_quat(q) is the
body-to-inertial rotation. Each function returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_continuous_are
from scipy.spatial.transform import Rotation

ANGLE_TOL = 1e-9  # rad, reference step against attiq's step
RELATIVE_TOL = 1e-9  # report figures against the benchmark's own
GAIN_TOL = 1e-6  # relative, synthesized gain and gamma against the CARE
NOISE_SIGMAS = 6.0  # sampling errors allowed between a noise std and its intensity

# roll, pitch, yaw of the eight scheduling octant centres, in schedule order
OCTANT_EULER = (
    (0.0, 0.0, 0.0),
    (0.0, 0.0, np.pi),
    (0.0, np.pi, 0.0),
    (np.pi, 0.0, 0.0),
    (0.0, np.pi, np.pi),
    (np.pi, np.pi, 0.0),
    (np.pi, 0.0, np.pi),
    (np.pi, np.pi, np.pi),
)


def cross_matrix(v) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def body_matrices(q) -> np.ndarray:
    """Inertial-to-body matrices of scalar-last quaternions, (n, 3, 3)."""
    return Rotation.from_quat(q).as_matrix().transpose(0, 2, 1)


def attitude_errors(q_est, q_true):
    """Body-frame error rotation vectors (n, 3) and angles (n,), rad."""
    err = Rotation.from_quat(q_true).inv() * Rotation.from_quat(q_est)
    return err.as_rotvec(), err.magnitude()


def accuracy(q_est, q_true) -> dict:
    """RMS error per axis and in total, and the peak total error, degrees."""
    comps, totals = attitude_errors(q_est, q_true)
    return {
        "rms_axis_deg": np.degrees(np.sqrt(np.mean(comps**2, axis=0))),
        "rms_total_deg": float(np.degrees(np.sqrt(np.mean(totals**2)))),
        "max_total_deg": float(np.degrees(totals.max())),
    }


def _fold(r_pred: Rotation, dtheta) -> Rotation:
    """Small-angle correction (dtheta/2, sqrt(1 - |dtheta/2|^2)) applied in the body frame."""
    half = 0.5 * np.asarray(dtheta)
    return r_pred * Rotation.from_quat([*half, np.sqrt(1.0 - half @ half)])


def h2_step(q, b, w_prev, a_m, m_m, gain, dt, g, h):
    """One fixed-gain step from its equations; returns (Rotation, bias).

    Exact gyro exponential over dt, predicted body-frame gravity and field,
    gain times the innovation scaled by dt, then the small-angle fold.
    """
    r_pred = Rotation.from_quat(q) * Rotation.from_rotvec((w_prev - b) * dt)
    c = r_pred.as_matrix().T
    innovation = np.concatenate([c @ g - a_m, c @ h - m_m])
    dx = dt * (gain @ innovation)
    return _fold(r_pred, dx[:3]), b + dx[3:]


def ekf_run(q0, w_m, a_m, m_m, noise, dt, g, h, att_std=0.1, bias_std=0.01):
    """Multiplicative EKF with a Joseph-form update over all given samples.

    noise is (n_w, n_b, n_a, n_m). Starts at q0 with zero bias and a
    diagonal covariance; returns quaternions (n, 4) and biases (n, 3).
    """
    n_w, n_b, n_a, n_m = noise
    n = len(w_m)
    eye3, eye6 = np.eye(3), np.eye(6)
    q_d = np.diag([n_w**2 * dt] * 3 + [n_b**2 * dt] * 3)
    r_cov = np.diag([n_a**2] * 3 + [n_m**2] * 3)
    p = np.diag([att_std**2] * 3 + [bias_std**2] * 3)
    r = Rotation.from_quat(q0)
    b = np.zeros(3)
    qs, bs = np.zeros((n, 4)), np.zeros((n, 3))
    qs[0], bs[0] = r.as_quat(), b
    for k in range(1, n):
        w_hat = w_m[k - 1] - b
        r = r * Rotation.from_rotvec(w_hat * dt)
        phi = eye6.copy()
        phi[:3, :3] -= cross_matrix(w_hat) * dt
        phi[:3, 3:] = -eye3 * dt
        p = phi @ p @ phi.T + q_d
        c = r.as_matrix().T
        g_b, h_b = c @ g, c @ h
        jac = np.zeros((6, 6))
        jac[:3, :3] = cross_matrix(g_b)
        jac[3:, :3] = cross_matrix(h_b)
        s = jac @ p @ jac.T + r_cov
        gain = np.linalg.solve(s, jac @ p).T  # P H^T S^-1, S and P symmetric
        dx = gain @ (np.concatenate([a_m[k], m_m[k]]) - np.concatenate([g_b, h_b]))
        ikh = eye6 - gain @ jac
        p = ikh @ p @ ikh.T + gain @ r_cov @ gain.T
        p = 0.5 * (p + p.T)
        r = _fold(r, dx[:3])
        b = b + dx[3:]
        qs[k], bs[k] = r.as_quat(), b
    return qs, bs


def _angle_between(q_a, q_b) -> np.ndarray:
    return (Rotation.from_quat(q_a).inv() * Rotation.from_quat(q_b)).magnitude()


def check_h2_steps(indices, q_est, b_est, octants, w_m, a_m, m_m, gains, dt, g, h) -> list[str]:
    """Recompute H2 steps from the recorded previous state and octant gain."""
    worst_q = worst_b = 0.0
    for k in indices:
        r, b = h2_step(
            q_est[k - 1], b_est[k - 1], w_m[k - 1], a_m[k], m_m[k], gains[octants[k]], dt, g, h
        )
        worst_q = max(worst_q, float(_angle_between(r.as_quat(), q_est[k])))
        worst_b = max(worst_b, float(np.abs(b - b_est[k]).max()))
    if worst_q > ANGLE_TOL or worst_b > ANGLE_TOL:
        return [f"H2 step differs from the reference by {worst_q:.2e} rad, bias {worst_b:.2e}"]
    return []


def check_ekf_prefix(n, q_est, b_est, w_m, a_m, m_m, noise, dt, g, h) -> list[str]:
    """Re-run the EKF over the first n samples from attiq's initial attitude."""
    qs, bs = ekf_run(q_est[0], w_m[:n], a_m[:n], m_m[:n], noise, dt, g, h)
    worst_q = float(_angle_between(qs, q_est[:n]).max())
    worst_b = float(np.abs(bs - b_est[:n]).max())
    if worst_q > ANGLE_TOL or worst_b > ANGLE_TOL:
        return [f"EKF differs from the reference over {n} samples by {worst_q:.2e} rad, bias {worst_b:.2e}"]
    return []


def check_run_properties(q_est, skipped) -> list[str]:
    problems = []
    norm_err = float(np.abs(np.linalg.norm(q_est, axis=1) - 1.0).max())
    if norm_err > 1e-12:
        problems.append(f"estimate quaternion norm off by {norm_err:.2e}")
    if np.any(skipped):
        problems.append(f"{int(np.sum(skipped))} samples held")
    return problems


def octant_plant(noise, octant: int, g, h):
    """(a, bw, cy, dw) of the attitude/bias error model at an octant centre."""
    n_w, n_b, n_a, n_m = noise
    roll, pitch, yaw = OCTANT_EULER[octant]
    rot = Rotation.from_euler("ZYX", [yaw, pitch, roll]).as_matrix().T
    eye3, zero3 = np.eye(3), np.zeros((3, 3))
    a = np.block([[zero3, -eye3], [zero3, zero3]])
    bw = np.block([[-n_w * eye3, zero3], [zero3, n_b * eye3]])
    cy = np.block([[cross_matrix(rot @ g), zero3], [cross_matrix(rot @ h), zero3]])
    dw = np.block([[n_a * eye3, zero3], [zero3, n_m * eye3]])
    return a, bw, cy, dw


def care_gain(noise, octant: int, g, h):
    """Optimal output-injection gain and H2 level sqrt(trace P) from scipy's CARE."""
    a, bw, cy, dw = octant_plant(noise, octant, g, h)
    r_cov = dw @ dw.T
    p = solve_continuous_are(a.T, cy.T, bw @ bw.T, r_cov)
    gain = -np.linalg.solve(r_cov, cy @ p).T
    return gain, float(np.sqrt(np.trace(p)))


def check_schedule(gains, gammas, noise, g, h) -> list[str]:
    """Every octant gain and gamma against the CARE; every closed loop Hurwitz."""
    problems = []
    g, h = np.asarray(g, float), np.asarray(h, float)
    for octant in range(len(OCTANT_EULER)):
        gain, gamma = care_gain(noise, octant, g, h)
        gain_rel = np.linalg.norm(gains[octant] - gain) / np.linalg.norm(gain)
        gamma_rel = abs(gammas[octant] - gamma) / gamma
        a, _, cy, _ = octant_plant(noise, octant, g, h)
        abscissa = np.linalg.eigvals(a + gains[octant] @ cy).real.max()
        if gain_rel > GAIN_TOL or gamma_rel > GAIN_TOL or abscissa >= 0.0:
            problems.append(
                f"octant {octant}: gain mismatch {gain_rel:.2e}, gamma mismatch "
                f"{gamma_rel:.2e}, spectral abscissa {abscissa:.3f}"
            )
    return problems


def check_dataset(arrays: dict, read_back: dict, n_rows: int, noise, g, h) -> list[str]:
    """Generated arrays: row count, bit-identical read-back, unit truth, noise levels.

    arrays and read_back map t, w_m, a_m, m_m, q_true, b_true to arrays;
    noise is (n_a, n_m).
    """
    problems = []
    for name, values in arrays.items():
        if values.shape[0] != n_rows:
            problems.append(f"{name} has {values.shape[0]} rows, expected {n_rows}")
        if not np.array_equal(values, read_back[name]):
            problems.append(f"{name} read back differs from what was written")
    norm_err = float(np.abs(np.linalg.norm(arrays["q_true"], axis=1) - 1.0).max())
    if norm_err > 1e-12:
        problems.append(f"truth quaternion norm off by {norm_err:.2e}")
    c = body_matrices(arrays["q_true"])
    tol = NOISE_SIGMAS / np.sqrt(2.0 * (n_rows - 1))
    for name, ref, sigma in (("a_m", g, noise[0]), ("m_m", h, noise[1])):
        residual = arrays[name] - c @ np.asarray(ref, float)
        ratio = residual.std(axis=0, ddof=1) / sigma
        if np.abs(ratio - 1.0).max() > tol:
            problems.append(f"{name} noise std / intensity per axis {np.round(ratio, 4)}, tolerance {tol:.3f}")
    return problems


def vertical_crossings(q_true) -> int:
    """Sign changes of C[0, 0]; on a pitch-only attitude, where pitch passes 90 deg."""
    c00 = body_matrices(q_true)[:, 0, 0]
    signs = np.sign(c00[c00 != 0.0])
    return int(np.count_nonzero(np.diff(signs)))


def relative_mismatch(measured, expected) -> float:
    measured, expected = np.asarray(measured, float), np.asarray(expected, float)
    return float(np.max(np.abs(measured - expected) / np.maximum(np.abs(expected), 1e-300)))
