"""Quaternion and direction-cosine utilities.

Conventions used throughout the package:

- Quaternions are scalar-last numpy arrays (q1, q2, q3, q4) with unit norm;
  (q1, q2, q3) is the vector part.
- dcm_of(q) returns the frame transform inertial -> body, so for an inertial
  vector v the body-frame coordinates are dcm_of(q) @ v.
- quat_multiply satisfies dcm_of(a (x) b) = dcm_of(a) @ dcm_of(b), i.e.
  composition of frame transforms.
- Kinematics: q_dot = 0.5 * Omega(w) q with w the body angular rate, where
  Omega(w) q = (w3 q2 - w2 q3 + w1 q4, -w3 q1 + w1 q3 + w2 q4,
  w2 q1 - w1 q2 + w3 q4, -w1 q1 - w2 q2 - w3 q3).
- q and -q encode the same attitude; normalization canonicalizes q4 >= 0.
- Euler angles are aerospace Z-Y-X (yaw, pitch, roll), radians.
"""

from __future__ import annotations

import math

import numpy as np

UNIT_TOL = 1e-9


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix: skew(v) @ u == np.cross(v, u)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def normalize(q: np.ndarray) -> np.ndarray:
    """Scale to unit norm and canonicalize the sign so q4 >= 0.

    |q|^2 is summed left to right on Python floats. q @ q would go to the
    BLAS dot product, whose order of summation and use of fused
    multiply-adds depend on the BLAS build and the CPU.
    """
    q = np.asarray(q, dtype=float)
    q1, q2, q3, q4 = q.tolist()
    nn = q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4
    if nn == 0.0 or not math.isfinite(nn):
        raise ValueError("cannot normalize quaternion with zero or non-finite norm")
    q = q / math.sqrt(nn)
    if q4 < 0.0:
        q = -q
    return q


def _check_unit(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    # written so that a NaN norm fails too
    if not abs(np.dot(q, q) - 1.0) <= 1e-6:
        raise ValueError(f"quaternion is not unit norm: |q|^2 = {np.dot(q, q)!r}")
    return q


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quaternion product a (x) b composing frame transforms.

    Satisfies dcm_of(quat_multiply(a, b)) == dcm_of(a) @ dcm_of(b):
    vector part a4 bv + b4 av - av x bv, scalar part a4 b4 - av . bv.
    """
    a = _check_unit(a)
    b = _check_unit(b)
    a1, a2, a3, a4 = a
    b1, b2, b3, b4 = b
    return np.array(
        [
            a4 * b1 + b4 * a1 - (a2 * b3 - a3 * b2),
            a4 * b2 + b4 * a2 - (a3 * b1 - a1 * b3),
            a4 * b3 + b4 * a3 - (a1 * b2 - a2 * b1),
            a4 * b4 - (a1 * b1 + a2 * b2 + a3 * b3),
        ]
    )


def dcm_of(q: np.ndarray) -> np.ndarray:
    """Direction cosine matrix (inertial -> body) of a unit quaternion.

    Expanded form of (q4^2 - v.v) I + 2 v v^T - 2 q4 skew(v). An array
    stack of quaternions (..., 4) gives the stack of matrices (..., 3, 3),
    each equal bit for bit to dcm_of of its row.
    """
    if getattr(q, "ndim", 1) > 1:
        return _dcm_stack(np.asarray(q, dtype=float))
    q = _check_unit(q)
    q1, q2, q3, q4 = q
    s11, s22, s33, s44 = q1 * q1, q2 * q2, q3 * q3, q4 * q4
    return np.array(
        [
            [
                s44 + s11 - s22 - s33,
                2.0 * (q1 * q2 + q4 * q3),
                2.0 * (q1 * q3 - q4 * q2),
            ],
            [
                2.0 * (q1 * q2 - q4 * q3),
                s44 - s11 + s22 - s33,
                2.0 * (q2 * q3 + q4 * q1),
            ],
            [
                2.0 * (q1 * q3 + q4 * q2),
                2.0 * (q2 * q3 - q4 * q1),
                s44 - s11 - s22 + s33,
            ],
        ]
    )


def _dcm_stack(q: np.ndarray) -> np.ndarray:
    """dcm_of's expression evaluated over a stack of quaternions (..., 4)."""
    norm_err = np.abs(np.sum(q * q, axis=-1) - 1.0)
    if not np.all(norm_err <= 1e-6):
        raise ValueError(f"quaternion is not unit norm: max ||q|^2 - 1| = {norm_err.max()!r}")
    q1, q2, q3, q4 = np.moveaxis(q, -1, 0)
    s11, s22, s33, s44 = q1 * q1, q2 * q2, q3 * q3, q4 * q4
    c = np.empty(q.shape[:-1] + (3, 3))
    c[..., 0, 0] = s44 + s11 - s22 - s33
    c[..., 0, 1] = 2.0 * (q1 * q2 + q4 * q3)
    c[..., 0, 2] = 2.0 * (q1 * q3 - q4 * q2)
    c[..., 1, 0] = 2.0 * (q1 * q2 - q4 * q3)
    c[..., 1, 1] = s44 - s11 + s22 - s33
    c[..., 1, 2] = 2.0 * (q2 * q3 + q4 * q1)
    c[..., 2, 0] = 2.0 * (q1 * q3 + q4 * q2)
    c[..., 2, 1] = 2.0 * (q2 * q3 - q4 * q1)
    c[..., 2, 2] = s44 - s11 - s22 + s33
    return c


def small_angle_quat(dtheta: np.ndarray) -> np.ndarray:
    """First-order error quaternion (dtheta/2, 1) of a small rotation vector.

    Returned un-normalized; follow with renormalize(). Inputs with norm
    >= 1 rad are outside the approximation regime and are flagged.
    """
    dtheta = np.asarray(dtheta, dtype=float)
    if float(dtheta @ dtheta) >= 1.0:
        import warnings

        warnings.warn(
            "small_angle_quat called with |dtheta| >= 1 rad; "
            "first-order approximation degraded",
            stacklevel=2,
        )
    d1, d2, d3 = dtheta
    return np.array([0.5 * d1, 0.5 * d2, 0.5 * d3, 1.0])


def renormalize(qraw: np.ndarray) -> np.ndarray:
    """Unit-norm recovery of an error quaternion from its vector part.

    The scalar part of qraw is ignored and reconstructed: if dq.dq <= 1 the
    scalar is sqrt(1 - dq.dq); otherwise (dq, 1) is scaled by
    1/sqrt(1 + dq.dq). Both branches return an exactly unit quaternion.
    """
    qraw = np.asarray(qraw, dtype=float)
    d1, d2, d3 = qraw[0], qraw[1], qraw[2]
    nn = float(d1 * d1 + d2 * d2 + d3 * d3)
    if not math.isfinite(nn):
        raise ValueError("non-finite error quaternion")
    if nn <= 1.0:
        return np.array([d1, d2, d3, math.sqrt(1.0 - nn)])
    return np.array([d1, d2, d3, 1.0]) / math.sqrt(1.0 + nn)


def _exp_step(q1, q2, q3, q4, w1, w2, w3, dt):
    """integrate_step's arithmetic on Python floats, one rounded operation at
    a time in a fixed order; returns the normalized quaternion as a 4-tuple.

    expm(0.5 * Omega(w) * dt) = cos(a/2) I + sin(a/2)/|w| Omega(w), a = |w| dt,
    applied componentwise as c q + k Omega(w) q, then scaled to unit norm with
    |p|^2 summed left to right and the sign canonicalized so q4 >= 0.
    """
    wn = math.sqrt(w1 * w1 + w2 * w2 + w3 * w3)
    half = 0.5 * wn * dt
    if wn < 1e-12:
        # series limit: sin(a/2)/|w| -> dt/2
        c, k = 1.0, 0.5 * dt
    else:
        c, k = math.cos(half), math.sin(half) / wn
    p1 = c * q1 + k * (w3 * q2 - w2 * q3 + w1 * q4)
    p2 = c * q2 + k * (-w3 * q1 + w1 * q3 + w2 * q4)
    p3 = c * q3 + k * (w2 * q1 - w1 * q2 + w3 * q4)
    p4 = c * q4 + k * (-w1 * q1 - w2 * q2 - w3 * q3)
    nn = p1 * p1 + p2 * p2 + p3 * p3 + p4 * p4
    if nn == 0.0 or not math.isfinite(nn):
        raise ValueError("cannot normalize quaternion with zero or non-finite norm")
    s = math.sqrt(nn)
    if p4 < 0.0:
        return -(p1 / s), -(p2 / s), -(p3 / s), -(p4 / s)
    return p1 / s, p2 / s, p3 / s, p4 / s


def integrate_step(q: np.ndarray, w: np.ndarray, dt: float) -> np.ndarray:
    """Propagate q over dt at constant body rate w via the exact exponential.

    The arithmetic is _exp_step's, on Python floats, which round each
    operation as numpy scalars do at a fraction of the cost.
    """
    q1, q2, q3, q4 = _check_unit(q).tolist()
    w1, w2, w3 = np.asarray(w, dtype=float).tolist()
    return np.array(_exp_step(q1, q2, q3, q4, w1, w2, w3, dt))


def integrate_sequence(q0: np.ndarray, w: np.ndarray, dt: float) -> np.ndarray:
    """Attitudes of the constant-rate recursion from q0 over the rates w (n, 3).

    Returns q (n + 1, 4) with q[0] = q0 and, bit for bit,
    q[k + 1] == integrate_step(q[k], w[k], dt). q0 is checked once; the
    loop runs _exp_step on tuples and builds the array at the end.
    """
    q = tuple(_check_unit(q0).tolist())
    dt = float(dt)
    rows = [q]
    for w1, w2, w3 in np.asarray(w, dtype=float).tolist():
        q = _exp_step(*q, w1, w2, w3, dt)
        rows.append(q)
    return np.array(rows)


def axis_quat(axis: int, angle: float) -> np.ndarray:
    """Quaternion of a frame rotation by angle about a body axis (0, 1 or 2)."""
    q = np.zeros(4)
    q[axis] = np.sin(0.5 * angle)
    q[3] = np.cos(0.5 * angle)
    return q


def quat_of_euler(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Quaternion of Z-Y-X Euler angles (applied yaw, then pitch, then roll)."""
    return quat_multiply(
        axis_quat(0, roll), quat_multiply(axis_quat(1, pitch), axis_quat(2, yaw))
    )


def quat_of_dcm(c: np.ndarray) -> np.ndarray:
    """Unit quaternion of a direction cosine matrix (Shepperd's method)."""
    c = np.asarray(c, dtype=float)
    tr = np.trace(c)
    # pick the largest of (q4^2, q1^2, q2^2, q3^2) for numerical safety
    choices = [tr, c[0, 0], c[1, 1], c[2, 2]]
    k = int(np.argmax(choices))
    if k == 0:
        s = 2.0 * np.sqrt(1.0 + tr)
        q = np.array(
            [
                (c[1, 2] - c[2, 1]) / s,
                (c[2, 0] - c[0, 2]) / s,
                (c[0, 1] - c[1, 0]) / s,
                0.25 * s,
            ]
        )
    elif k == 1:
        s = 2.0 * np.sqrt(1.0 + 2.0 * c[0, 0] - tr)
        q = np.array(
            [
                0.25 * s,
                (c[0, 1] + c[1, 0]) / s,
                (c[2, 0] + c[0, 2]) / s,
                (c[1, 2] - c[2, 1]) / s,
            ]
        )
    elif k == 2:
        s = 2.0 * np.sqrt(1.0 + 2.0 * c[1, 1] - tr)
        q = np.array(
            [
                (c[0, 1] + c[1, 0]) / s,
                0.25 * s,
                (c[1, 2] + c[2, 1]) / s,
                (c[2, 0] - c[0, 2]) / s,
            ]
        )
    else:
        s = 2.0 * np.sqrt(1.0 + 2.0 * c[2, 2] - tr)
        q = np.array(
            [
                (c[2, 0] + c[0, 2]) / s,
                (c[1, 2] + c[2, 1]) / s,
                0.25 * s,
                (c[0, 1] - c[1, 0]) / s,
            ]
        )
    return normalize(q)


def body_rates_from_euler(angles: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Body angular velocity from Z-Y-X Euler angles and their time derivatives.

    Broadcasts over leading axes: angles and rates (..., 3) give (..., 3),
    each row equal bit for bit to the result for that row alone.
    """
    angles = np.asarray(angles, dtype=float)
    rates = np.asarray(rates, dtype=float)
    roll, pitch = angles[..., 0], angles[..., 1]
    droll, dpitch, dyaw = rates[..., 0], rates[..., 1], rates[..., 2]
    sr, cr = np.sin(roll), np.cos(roll)
    sp, cp = np.sin(pitch), np.cos(pitch)
    return np.stack(
        [
            droll - dyaw * sp,
            dpitch * cr + dyaw * cp * sr,
            -dpitch * sr + dyaw * cp * cr,
        ],
        axis=-1,
    )
