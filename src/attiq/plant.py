"""Linearized attitude/bias error model shared by both filters.

State is the 6-vector (attitude error angle, gyro bias error). About a
hover/nominal-rate operating point the attitude error integrates the bias
error and the gyro noise, while the vector observations (gravity and
magnetic field rotated into the body frame) see the attitude error through
the cross-product of the predicted body-frame reference vectors. Gain
synthesis takes the model at each octant center (build_plant), the EKF over
one sample interval (sampled_model) with its measurement_matrix at every
predicted attitude.

The scheduling grid is eight octants, each named by a roll/pitch/yaw
triple of 0s and pis. Their centers are only four physical attitudes: the
identity and the half-turns about x, y and z, each reached by two triples.
One quaternion component of each center is +-1, so the nearest center of
an attitude is its component of largest magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quat import dcm_of, quat_of_euler, skew
from .sim import DEFAULT_FIELD, DEFAULT_GRAVITY, NoiseParams

# roll/pitch/yaw of the eight octant centers, in scheduling order
OCTANT_TRIPLES = (
    (0.0, 0.0, 0.0),
    (0.0, 0.0, np.pi),
    (0.0, np.pi, 0.0),
    (np.pi, 0.0, 0.0),
    (0.0, np.pi, np.pi),
    (np.pi, np.pi, 0.0),
    (np.pi, 0.0, np.pi),
    (np.pi, np.pi, np.pi),
)

N_OCTANTS = len(OCTANT_TRIPLES)

# index, among (q1, q2, q3, q4), of the +-1 component of each octant center
CENTER_AXIS = tuple(
    int(np.argmax(np.abs(quat_of_euler(*triple)))) for triple in OCTANT_TRIPLES
)
# the octant scheduled at each center, indexed like CENTER_AXIS: of the two
# octants there, the one with zero pitch
CENTER_OCTANT = tuple(
    next(k for k in range(N_OCTANTS) if CENTER_AXIS[k] == axis and OCTANT_TRIPLES[k][1] == 0.0)
    for axis in range(4)
)

# relative tolerance of is_detectable's PBH test, scaled by max(|a|, |c|, 1)
DETECTABILITY_TOL = 1e-8


def octant_rotation(octant: int) -> np.ndarray:
    """Inertial-to-body DCM at the center attitude of an octant."""
    if not 0 <= octant < N_OCTANTS:
        raise ValueError(f"octant must be 0..{N_OCTANTS - 1}, got {octant}")
    return dcm_of(quat_of_euler(*OCTANT_TRIPLES[octant]))


@dataclass
class LinearErrorPlant:
    """State-space data (a, bw, cy, dw, cz) of one estimation error model.

    x' = a x + bw w,  y = cy x + dw v,  z = cz x, with w and v independent
    unit-intensity white noises.
    """

    a: np.ndarray
    bw: np.ndarray
    cy: np.ndarray
    dw: np.ndarray
    cz: np.ndarray

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.bw = np.atleast_2d(np.asarray(self.bw, dtype=float))
        self.cy = np.atleast_2d(np.asarray(self.cy, dtype=float))
        self.dw = np.atleast_2d(np.asarray(self.dw, dtype=float))
        self.cz = np.atleast_2d(np.asarray(self.cz, dtype=float))
        n = self.a.shape[0]
        p = self.cy.shape[0]
        if self.a.shape != (n, n):
            raise ValueError(f"a must be square, got {self.a.shape}")
        if self.bw.shape[0] != n:
            raise ValueError(f"bw must have {n} rows, got {self.bw.shape}")
        if self.cy.shape[1] != n:
            raise ValueError(f"cy must have {n} columns, got {self.cy.shape}")
        if self.dw.shape[0] != p:
            raise ValueError(f"dw must have {p} rows, got {self.dw.shape}")
        if self.cz.shape[1] != n:
            raise ValueError(f"cz must have {n} columns, got {self.cz.shape}")

    @property
    def n_states(self) -> int:
        return self.a.shape[0]


def closed_loop(plant: LinearErrorPlant, l: np.ndarray):
    """Estimator closed loop: (a + l cy, [bw, l dw]) driven by (w, v)."""
    l = np.atleast_2d(np.asarray(l, dtype=float))
    acl = plant.a + l @ plant.cy
    bcl = np.hstack([plant.bw, l @ plant.dw])
    return acl, bcl


def is_detectable(a, c) -> bool:
    """PBH test: every eigenvalue of a with Re >= 0 is observable through c."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    n = a.shape[0]
    tol = DETECTABILITY_TOL * max(np.linalg.norm(a), np.linalg.norm(c), 1.0)
    # a repeated eigenvalue has one pencil, so test each distinct one once
    for lam in np.unique(np.linalg.eigvals(a)):
        if lam.real < -tol:
            continue
        pencil = np.vstack([lam * np.eye(n) - a, c])
        if np.linalg.svd(pencil, compute_uv=False)[-1] <= tol:
            return False
    return True


def measurement_matrix(g_body, h_body) -> np.ndarray:
    """cy at predicted body-frame gravity and field directions."""
    cy = np.zeros((6, 6))
    cy[:3, :3] = skew(g_body)
    cy[3:, :3] = skew(h_body)
    return cy


def error_model(noise: NoiseParams):
    """(a, bw, dw) of the error model at zero rate for the given noise levels.

    Requires strictly positive noise intensities: they scale the disturbance
    channels, and a zero one leaves a channel undriven or unweighted.
    """
    for name in ("n_w", "n_b", "n_a", "n_m"):
        if getattr(noise, name) <= 0.0:
            raise ValueError(f"{name} must be > 0 in the error model")
    a = np.zeros((6, 6))
    a[:3, 3:] = -np.eye(3)
    bw = np.diag([-noise.n_w] * 3 + [noise.n_b] * 3)
    dw = np.diag([noise.n_a] * 3 + [noise.n_m] * 3)
    return a, bw, dw


@dataclass
class SampledModel:
    """The error model over one sample interval dt, as the EKF propagates it."""

    phi: np.ndarray  # transition at zero rate, I + a dt
    qd: np.ndarray  # process noise covariance, bw bw^T dt
    r: np.ndarray  # measurement noise covariance, dw dw^T


def sampled_model(noise: NoiseParams, dt: float) -> SampledModel:
    a, bw, dw = error_model(noise)
    return SampledModel(np.eye(6) + a * dt, bw @ bw.T * dt, dw @ dw.T)


def build_plant(
    noise: NoiseParams,
    octant: int = 0,
    g=DEFAULT_GRAVITY,
    h=DEFAULT_FIELD,
) -> LinearErrorPlant:
    """Error model at one octant center for the given sensor noise levels.

    Requires strictly positive noise intensities (see error_model) and
    non-parallel gravity/field directions (otherwise rotation about the
    common axis is unobservable).
    """
    a, bw, dw = error_model(noise)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    cross = np.linalg.norm(np.cross(g, h))
    if cross <= 1e-8 * np.linalg.norm(g) * np.linalg.norm(h):
        raise ValueError(
            "gravity and field directions are parallel; attitude about their "
            "common axis is unobservable"
        )

    r = octant_rotation(octant)
    return LinearErrorPlant(a, bw, measurement_matrix(r @ g, r @ h), dw, np.eye(6))
