"""Quaternion measuring tools for the tests.

The package has no caller for these, so they live with the tests that
measure with them. Conventions follow attiq.quat: scalar-last unit
quaternions composing frame transforms.
"""

import math

import numpy as np


def quat_inverse(q):
    """Conjugate of a unit quaternion: the inverse frame transform."""
    q = np.asarray(q, dtype=float)
    return np.array([-q[0], -q[1], -q[2], q[3]])


def angular_distance(a, b):
    """Rotation angle (rad) between two attitudes, sign-of-q invariant."""
    d = min(1.0, abs(float(np.dot(a, b))))
    return 2.0 * math.acos(d)


def euler_of_quat(q):
    """Z-Y-X Euler angles (roll, pitch, yaw) of a unit quaternion.

    Pitch is in [-pi/2, pi/2]; roll and yaw are in (-pi, pi]. Uses the five
    direction-cosine entries atan2(C12, C22), -asin(C02), atan2(C01, C00).
    """
    q1, q2, q3, q4 = np.asarray(q, dtype=float).tolist()
    if not abs(q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4 - 1.0) <= 1e-6:
        raise ValueError("quaternion is not unit norm")
    s11, s22, s33, s44 = q1 * q1, q2 * q2, q3 * q3, q4 * q4
    c02 = 2.0 * (q1 * q3 - q4 * q2)
    roll = math.atan2(2.0 * (q2 * q3 + q4 * q1), s44 - s11 - s22 + s33)
    pitch = -math.asin(min(1.0, max(-1.0, c02)))
    yaw = math.atan2(2.0 * (q1 * q2 + q4 * q3), s44 + s11 - s22 - s33)
    return np.array([roll, pitch, yaw])
