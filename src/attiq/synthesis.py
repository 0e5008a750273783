"""Offline estimator gain synthesis over the octant schedule.

Each correction gain minimizes the noise-to-error energy (H2) of the
linearized estimation error dynamics. Two independent routes compute it:

- a trace-minimizing linear matrix inequality in P^-1, the gain-free
  form of the filter Riccati inequality, solved with the primal-dual
  interior-point solver in sdp.py, and
- the stabilizing solution of the filter Riccati equation (scipy's
  solve_continuous_are).

The scheduling grid is eight octants, each named by a roll/pitch/yaw
triple of 0s and pis. Their centers are only four physical attitudes: the
identity and the half-turns about x, y and z, each reached by two triples.
One quaternion component of each center is +-1, so the nearest center of
an attitude is its component of largest magnitude (CENTER_AXIS).

The error plant is rotation-equivariant, skew(R g) = R skew(g) R^T, so the
schedule constructor synthesizes one plant, the identity attitude's: it
solves the LMI there, refuses to emit gains when the Riccati route
disagrees with that gain or its performance level, and rotates the gain to
the four center attitudes; each twin octant takes its center's gain. So a
regression in either route cannot ship silently; the tests pin the
symmetry map against the Riccati gain of every octant's plant.

The solver stack loads on first use: scipy.linalg when h2_norm,
solve_h2_care or the LMI start point first runs, and sdp.py when
solve_h2_lmi does. Importing this module, and loading or saving a gain
file, needs only numpy, so ``attiq gen`` and ``attiq run`` never load scipy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import sensor_model_from_dict, sensor_model_to_dict
from .plant import LinearErrorPlant, build_plant, closed_loop, is_detectable
from .quat import dcm_of, quat_of_euler
from .sim import DEFAULT_FIELD, DEFAULT_GRAVITY, NoiseParams

GAIN_FORMAT_VERSION = 1

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

# relative tolerance of the schedule's LMI/Riccati cross-check
CROSS_CHECK_TOL = 1e-3


class SynthesisError(RuntimeError):
    """Gain synthesis failure: ill-posed plant or route disagreement."""


class GainFileError(ValueError):
    """Malformed gain schedule file."""


def default_design_noise(sample_rate: float = 150.0) -> NoiseParams:
    """Disturbance weights the default gain schedule is synthesized with.

    Measurement intensities match the MPU-9250-class sensor model so the
    innovation weighting stays physical. The bias random-walk intensity is
    deliberately much larger than the datasheet value: it is the knob that
    places the bias-estimation poles, and the datasheet figure would put
    them near -1e-3/s (minutes-scale convergence). 5e-2 keeps every
    closed-loop pole left of -0.88/s at 150 Hz rates, so initialization
    and bias errors die within seconds for a small noise-floor cost.
    """
    sensor = NoiseParams.mpu9250(sample_rate)
    return NoiseParams(n_w=sensor.n_w, n_b=5e-2, n_a=sensor.n_a, n_m=sensor.n_m)


def _lyapunov(a, q):
    """Solve a X + X a^T = q with scipy, which loads on the first call."""
    from scipy.linalg import solve_continuous_lyapunov

    return solve_continuous_lyapunov(a, q)


def h2_norm(acl, bcl, cz) -> float:
    """H2 norm of x' = acl x + bcl w, z = cz x; raises when not Hurwitz."""
    acl = np.atleast_2d(np.asarray(acl, dtype=float))
    bcl = np.atleast_2d(np.asarray(bcl, dtype=float))
    cz = np.atleast_2d(np.asarray(cz, dtype=float))
    if np.linalg.eigvals(acl).real.max() >= 0.0:
        raise SynthesisError("closed loop is not Hurwitz; H2 norm is unbounded")
    gram = _lyapunov(acl, -bcl @ bcl.T)
    return float(np.sqrt(max(np.trace(cz @ gram @ cz.T), 0.0)))


def _riccati_gain(plant: LinearErrorPlant, p: np.ndarray) -> np.ndarray:
    """The filter gain L = -P cy^T R^-1 of an error covariance P, R = dw dw^T."""
    return -p @ plant.cy.T @ np.linalg.inv(plant.dw @ plant.dw.T)


def solve_h2_care(plant: LinearErrorPlant):
    """Riccati route: returns (gain, gamma, error covariance).

    P is the stabilizing solution of a P + P a^T - P cy^T R^-1 cy P +
    bw bw^T = 0 with R = dw dw^T, and the gain is L = -P cy^T R^-1. P also
    solves the Lyapunov equation of the closed loop (a + L cy, [bw, L dw]),
    so the H2 level is gamma = sqrt(trace(cz P cz^T)) without a second
    solve. Raises SynthesisError when a + L cy is not Hurwitz.
    """
    from scipy.linalg import solve_continuous_are

    a, bw, cy, dw = plant.a, plant.bw, plant.cy, plant.dw
    if not is_detectable(a, cy):
        raise SynthesisError("(a, cy) is not detectable")
    if not is_detectable(a.T, bw.T):
        raise SynthesisError("(a, bw) is not stabilizable")
    try:
        p = solve_continuous_are(a.T, cy.T, bw @ bw.T, dw @ dw.T)
        l = _riccati_gain(plant, p)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SynthesisError(f"Riccati solve failed: {exc}") from None
    if np.linalg.eigvals(a + l @ cy).real.max() >= 0.0:
        raise SynthesisError("Riccati gain does not stabilize the estimator")
    gamma = float(np.sqrt(np.trace(plant.cz @ p @ plant.cz.T)))
    return l, gamma, p


def care_cross_check(plant: LinearErrorPlant, l: np.ndarray, gamma: float):
    """Compare a gain and its performance level with the Riccati route.

    Returns the relative mismatch of l against the Riccati gain of the
    plant, of gamma against the Riccati gamma, and of gamma against the H2
    norm that l attains (inf when a + l cy is not Hurwitz), then the
    spectral abscissa of a + l cy.
    """
    l_care, gamma_care, _ = solve_h2_care(plant)
    abscissa = float(np.linalg.eigvals(plant.a + l @ plant.cy).real.max())
    if abscissa < 0.0:
        attained = h2_norm(*closed_loop(plant, l), plant.cz)
        attained_rel = abs(gamma - attained) / attained
    else:
        attained_rel = np.inf
    return (
        _relative(l, l_care),
        abs(gamma - gamma_care) / gamma_care,
        attained_rel,
        abscissa,
    )


def _relative(x: np.ndarray, ref: np.ndarray) -> float:
    """Frobenius norm of x - ref relative to that of ref."""
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def default_stabilizer(plant: LinearErrorPlant) -> np.ndarray:
    """A crude stabilizing output-injection gain used to seed the LMI solve.

    Zero suffices when the plant is already Hurwitz. For the 6-state
    attitude/bias structure, injecting the cross-product blocks of cy with
    opposite signs on the two state halves always stabilizes: the common
    factor skew(u)^2 + skew(v)^2 is negative definite whenever the two
    reference directions are independent.
    """
    a, cy = plant.a, plant.cy
    n = plant.n_states
    if np.linalg.eigvals(a).real.max() < 0.0:
        return np.zeros((n, cy.shape[0]))
    attitude_shape = (
        n == 6
        and cy.shape == (6, 6)
        and np.allclose(cy[:, 3:], 0.0)
        and np.allclose(cy[:3, :3], -cy[:3, :3].T)
        and np.allclose(cy[3:, :3], -cy[3:, :3].T)
    )
    if attitude_shape:
        su, sv = cy[:3, :3], cy[3:, :3]
        scale = 0.5 * (np.sum(su * su) + np.sum(sv * sv))  # |u|^2 + |v|^2
        l0 = np.block([[su / scale, sv / scale], [-su / scale, -sv / scale]])
        if np.linalg.eigvals(a + l0 @ cy).real.max() < 0.0:
            return l0
    raise SynthesisError("no default stabilizing gain for this plant")


def _feasible_start(plant: LinearErrorPlant, l0: np.ndarray):
    """Strictly feasible (Y, Q) coordinates from one Lyapunov solve."""
    acl, bcl = closed_loop(plant, l0)
    w_cov = bcl @ bcl.T
    margin = 0.05 * np.linalg.norm(w_cov, 2) + 1e-12
    p = _lyapunov(acl, -(w_cov + margin * np.eye(plant.n_states)))
    p = 0.5 * (p + p.T)
    y_mat = np.linalg.inv(p)
    y_mat = 0.5 * (y_mat + y_mat.T)
    zpz = plant.cz @ p @ plant.cz.T
    q_mat = 1.1 * zpz + (0.1 * np.linalg.norm(zpz, 2) + 1e-12) * np.eye(zpz.shape[0])
    return np.concatenate(
        [y_mat[np.triu_indices(len(y_mat))], q_mat[np.triu_indices(len(q_mat))]]
    )


def solve_h2_lmi(plant: LinearErrorPlant):
    """LMI route: returns (gain, gamma, solver result).

    Variables are a symmetric certificate Y = P^-1 and a symmetric bound Q
    on the output covariance cz P cz^T; the objective is trace(Q), so
    gamma = sqrt(trace Q) at the optimum. With R = dw dw^T, the first block
    is the filter Riccati inequality a P + P a^T - P cy^T R^-1 cy P +
    bw bw^T < 0 multiplied by Y on both sides, so the gain does not enter
    it (Boyd, El Ghaoui, Feron & Balakrishnan 1994); the gain is
    L = -P cy^T R^-1 of the optimal P. The solve starts from a strictly
    feasible point built around the crude stabilizing gain of
    default_stabilizer; SynthesisError when it fails.
    """
    from .sdp import LmiBlock, SdpError, solve_sdp, sym_basis

    a, bw, cy, dw, cz = plant.a, plant.bw, plant.cy, plant.dw, plant.cz
    n = plant.n_states
    qw = bw.shape[1]
    nz = cz.shape[0]

    ey = sym_basis(n)
    eq = sym_basis(nz)
    ny = len(ey)
    m = ny + len(eq)

    # block 1: [Y a + a^T Y - cy^T R^-1 cy, Y bw; bw^T Y, -I] < 0
    n1 = n + qw
    f0_1 = np.zeros((n1, n1))
    f0_1[:n, :n] = -cy.T @ np.linalg.solve(dw @ dw.T, cy)
    f0_1[n:, n:] = -np.eye(qw)
    c1 = np.zeros((m, n1, n1))
    ya = ey @ a
    c1[:ny, :n, :n] = ya + ya.transpose(0, 2, 1)
    yb = ey @ bw
    c1[:ny, :n, n:] = yb
    c1[:ny, n:, :n] = yb.transpose(0, 2, 1)

    # block 2: [-Q, cz; cz^T, -Y] < 0, i.e. Q > cz Y^-1 cz^T by Schur complement
    n2 = nz + n
    f0_2 = np.zeros((n2, n2))
    f0_2[:nz, nz:] = cz
    f0_2[nz:, :nz] = cz.T
    c2 = np.zeros((m, n2, n2))
    c2[:ny, nz:, nz:] = -ey
    c2[ny:, :nz, :nz] = -eq

    c_obj = np.concatenate([np.zeros(ny), np.trace(eq, axis1=1, axis2=2)])

    x0 = _feasible_start(plant, default_stabilizer(plant))
    try:
        result = solve_sdp(c_obj, [LmiBlock(f0_1, c1), LmiBlock(f0_2, c2)], x0=x0)
    except SdpError as exc:
        raise SynthesisError(f"LMI route failed: {exc}") from None

    y_mat = np.tensordot(result.x[:ny], ey, axes=1)
    l = _riccati_gain(plant, np.linalg.inv(y_mat))
    gamma = float(np.sqrt(max(result.value, 0.0)))
    return l, gamma, result


def octant_rotation(octant: int) -> np.ndarray:
    """Inertial-to-body DCM at the center attitude of an octant."""
    if not 0 <= octant < N_OCTANTS:
        raise ValueError(f"octant must be 0..{N_OCTANTS - 1}, got {octant}")
    return dcm_of(quat_of_euler(*OCTANT_TRIPLES[octant]))


def gain_symmetry_transform(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Map a 6x6 gain between octants whose centers differ by rotation r."""
    t = np.zeros((6, 6))
    t[:3, :3] = r
    t[3:, 3:] = r
    return t @ l @ t.T


@dataclass
class GainSchedule:
    """Synthesized correction gains, one per octant, with certificates."""

    gains: np.ndarray  # (8, 6, 6)
    gammas: np.ndarray  # (8,)
    noise: NoiseParams
    g: tuple
    h: tuple
    # synthesis certificates, kept in memory only (gain files do not store
    # them): the relative mismatch of the LMI gain against the Riccati gain
    # of the identity plant, and the LMI solve's duality gap <Z, S>, its
    # interior-point iterations and its Schur-system solves
    care_mismatch: float | None = None
    lmi_gap: float | None = None
    lmi_outer_iterations: int | None = None
    lmi_newton_iterations: int | None = None


def synthesize_schedule(
    noise: NoiseParams, g=DEFAULT_GRAVITY, h=DEFAULT_FIELD
) -> GainSchedule:
    """Synthesize all octant gains from one plant plus symmetry.

    Solves the LMI on the identity attitude's plant, build_plant(noise, g,
    h), for the gain L0 and level gamma0, and checks both once against the
    Riccati solution of that plant. Raises SynthesisError when the gain or
    performance level disagrees beyond CROSS_CHECK_TOL, or when the closed
    loop fails to be Hurwitz. The gain at each of the four center attitudes
    is T_k L0 T_k^T with T_k = blkdiag(R_k, R_k) and R_k the center rotation
    of the octant scheduled there (CENTER_OCTANT); each twin octant takes
    its center's gain, and every octant shares gamma0.
    """
    plant = build_plant(noise, g, h)
    l0, gamma0, lmi = solve_h2_lmi(plant)
    mismatch, gamma_care_rel, gamma_attained_rel, _ = care_cross_check(plant, l0, gamma0)
    if mismatch > CROSS_CHECK_TOL:
        raise SynthesisError(
            f"LMI and Riccati gains disagree (relative mismatch {mismatch:.3e})"
        )
    if gamma_care_rel > CROSS_CHECK_TOL:
        raise SynthesisError(
            "LMI and Riccati performance levels disagree "
            f"(relative mismatch {gamma_care_rel:.3e})"
        )
    if gamma_attained_rel > CROSS_CHECK_TOL:
        raise SynthesisError(
            f"bound {gamma0:.6e} does not match the achieved closed-loop norm "
            f"(relative mismatch {gamma_attained_rel:.3e})"
        )
    gains = np.array(
        [gain_symmetry_transform(l0, octant_rotation(CENTER_OCTANT[axis])) for axis in CENTER_AXIS]
    )
    return GainSchedule(
        gains=gains,
        gammas=np.full(N_OCTANTS, gamma0),
        noise=noise,
        g=tuple(float(v) for v in g),
        h=tuple(float(v) for v in h),
        care_mismatch=mismatch,
        lmi_gap=lmi.gap,
        lmi_outer_iterations=lmi.outer_iterations,
        lmi_newton_iterations=lmi.newton_iterations,
    )


def schedule_to_dict(schedule: GainSchedule) -> dict:
    return {
        "format_version": GAIN_FORMAT_VERSION,
        **sensor_model_to_dict(schedule.noise, schedule.g, schedule.h),
        "gammas": [float(v) for v in schedule.gammas],
        "gains": [[[float(v) for v in row] for row in gain] for gain in schedule.gains],
    }


def schedule_from_dict(data: dict) -> GainSchedule:
    if not isinstance(data, dict):
        raise GainFileError("gain file must contain a JSON object")
    version = data.get("format_version")
    if version != GAIN_FORMAT_VERSION:
        raise GainFileError(
            f"unsupported gain format_version {version!r}; "
            f"expected {GAIN_FORMAT_VERSION}"
        )
    required = {"noise", "g", "h", "gammas", "gains"}
    missing = sorted(required - set(data))
    if missing:
        raise GainFileError(f"missing gain file keys: {', '.join(missing)}")
    noise, g, h = sensor_model_from_dict(data, GainFileError)
    gains = np.asarray(data["gains"], dtype=float)
    gammas = np.asarray(data["gammas"], dtype=float)
    if gains.shape != (N_OCTANTS, 6, 6):
        raise GainFileError(f"gains must have shape (8, 6, 6), got {gains.shape}")
    if gammas.shape != (N_OCTANTS,):
        raise GainFileError(f"gammas must have length 8, got {gammas.shape}")
    if not (np.all(np.isfinite(gains)) and np.all(np.isfinite(gammas))):
        raise GainFileError("gain file contains non-finite values")
    return GainSchedule(gains=gains, gammas=gammas, noise=noise, g=g, h=h)


def save_gains(schedule: GainSchedule, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(schedule_to_dict(schedule), indent=2, sort_keys=True) + "\n")
    return path


def load_gains(path) -> GainSchedule:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise GainFileError(f"{path}: invalid JSON: {exc}") from None
    try:
        return schedule_from_dict(data)
    except GainFileError as exc:
        raise GainFileError(f"{path}: {exc}") from None
