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
