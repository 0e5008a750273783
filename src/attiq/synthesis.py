"""Offline estimator gain synthesis over the octant schedule.

Each correction gain minimizes the noise-to-error energy (H2) of the
linearized estimation error dynamics. Two independent routes compute it:

- a trace-minimizing linear matrix inequality solved with the interior
  point solver in sdp.py, and
- the stabilizing solution of the filter Riccati equation (scipy's
  solve_continuous_are).

The error plant is rotation-equivariant, skew(R g) = R skew(g) R^T, so the
schedule constructor solves the LMI once, at octant 0, and rotates that
gain to the other seven octants. It then solves the Riccati equation on
every octant's own plant and refuses to emit gains when any octant's
rotated gain or performance level disagrees with it, so a regression in
either route or in the symmetry map cannot ship silently.

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
from .plant import (
    N_OCTANTS,
    LinearErrorPlant,
    build_plant,
    closed_loop,
    is_detectable,
    octant_rotation,
)
from .sim import DEFAULT_FIELD, DEFAULT_GRAVITY, NoiseParams

GAIN_FORMAT_VERSION = 1

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


def solve_h2_care(plant: LinearErrorPlant):
    """Riccati route: returns (gain, gamma, error covariance).

    P is the stabilizing solution of a P + P a^T - P cy^T R^-1 cy P +
    bw bw^T = 0 with R = dw dw^T, and the gain is L = -P cy^T R^-1.
    """
    from scipy.linalg import solve_continuous_are

    a, bw, cy, dw = plant.a, plant.bw, plant.cy, plant.dw
    if not is_detectable(a, cy):
        raise SynthesisError("(a, cy) is not detectable")
    if not is_detectable(a.T, bw.T):
        raise SynthesisError("(a, bw) is not stabilizable")
    r_cov = dw @ dw.T
    try:
        p = solve_continuous_are(a.T, cy.T, bw @ bw.T, r_cov)
        l = -p @ cy.T @ np.linalg.inv(r_cov)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SynthesisError(f"Riccati solve failed: {exc}") from None
    gamma = h2_norm(*closed_loop(plant, l), plant.cz)
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
    attained = h2_norm(*closed_loop(plant, l), plant.cz) if abscissa < 0.0 else np.inf
    return (
        float(np.linalg.norm(l - l_care) / np.linalg.norm(l_care)),
        abs(gamma - gamma_care) / gamma_care,
        abs(gamma - attained) / attained,
        abscissa,
    )


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


def _refine_stabilizer(plant: LinearErrorPlant, l0: np.ndarray) -> np.ndarray:
    """Improve a stabilizing gain by successive output-injection updates.

    Each round solves one Lyapunov equation for the disturbance covariance
    of the current closed loop and re-injects through the measurement
    channel; iterates stay stabilizing, so any round can be kept. A crude
    seed gain can leave nearly marginal closed-loop modes whose covariance
    is huge, which makes a terrible barrier starting point; a few rounds of
    this fix the scaling at negligible cost.
    """
    cy, dw = plant.cy, plant.dw
    try:
        rinv = np.linalg.inv(dw @ dw.T)
    except np.linalg.LinAlgError:
        return l0
    l = l0
    for _ in range(8):
        acl, bcl = closed_loop(plant, l)
        w_cov = bcl @ bcl.T
        ridge = 1e-12 * np.linalg.norm(w_cov, 2) + 1e-300
        p = _lyapunov(acl, -(w_cov + ridge * np.eye(acl.shape[0])))
        p = 0.5 * (p + p.T)
        l_new = -p @ cy.T @ rinv
        if not np.all(np.isfinite(l_new)):
            break
        if np.linalg.eigvals(plant.a + l_new @ cy).real.max() >= 0.0:
            break
        if np.linalg.norm(l_new - l) <= 1e-9 * max(np.linalg.norm(l), 1.0):
            return l_new
        l = l_new
    return l


def _feasible_start(plant: LinearErrorPlant, l0: np.ndarray):
    """Strictly feasible (X, W, Q) coordinates from one Lyapunov solve."""
    l0 = _refine_stabilizer(plant, l0)
    acl, bcl = closed_loop(plant, l0)
    w_cov = bcl @ bcl.T
    margin = 0.05 * np.linalg.norm(w_cov, 2) + 1e-12
    p = _lyapunov(acl, -(w_cov + margin * np.eye(plant.n_states)))
    p = 0.5 * (p + p.T)
    x_mat = np.linalg.inv(p)
    x_mat = 0.5 * (x_mat + x_mat.T)
    w_mat = x_mat @ l0
    zpz = plant.cz @ p @ plant.cz.T
    q_mat = 1.1 * zpz + (0.1 * np.linalg.norm(zpz, 2) + 1e-12) * np.eye(zpz.shape[0])
    n = plant.n_states
    nz = plant.cz.shape[0]
    x_coords = [x_mat[i, j] for i in range(n) for j in range(i, n)]
    q_coords = [q_mat[i, j] for i in range(nz) for j in range(i, nz)]
    return np.concatenate([x_coords, w_mat.ravel(), q_coords])


def solve_h2_lmi(plant: LinearErrorPlant):
    """LMI route: returns (gain, gamma, solver result).

    Variables are a symmetric certificate X, the transformed gain W = X L,
    and a symmetric bound Q on the output covariance; the objective is
    trace(Q), so gamma = sqrt(trace Q) at the optimum. Process and
    measurement noises enter as separate disturbance columns. The barrier
    solve starts from a strictly feasible point built around the crude
    stabilizing gain of default_stabilizer; SynthesisError when it fails.
    """
    from .sdp import LmiBlock, SdpError, full_basis, solve_sdp, sym_basis

    a, bw, cy, dw, cz = plant.a, plant.bw, plant.cy, plant.dw, plant.cz
    n = plant.n_states
    p_dim = cy.shape[0]
    qw = bw.shape[1]
    qv = dw.shape[1]
    nz = cz.shape[0]

    ex = sym_basis(n)
    ew = full_basis(n, p_dim)
    eq = sym_basis(nz)
    m = len(ex) + len(ew) + len(eq)

    # block 1: [He(X a + W cy), X bw, W dw; *, -I, 0; *, 0, -I] < 0
    n1 = n + qw + qv
    f0_1 = np.zeros((n1, n1))
    f0_1[n : n + qw, n : n + qw] = -np.eye(qw)
    f0_1[n + qw :, n + qw :] = -np.eye(qv)
    c1 = np.zeros((m, n1, n1))
    for k, e in enumerate(ex):
        he = e @ a
        c1[k, :n, :n] = he + he.T
        eb = e @ bw
        c1[k, :n, n : n + qw] = eb
        c1[k, n : n + qw, :n] = eb.T
    for k, f in enumerate(ew):
        hf = f @ cy
        idx = len(ex) + k
        c1[idx, :n, :n] = hf + hf.T
        fd = f @ dw
        c1[idx, :n, n + qw :] = fd
        c1[idx, n + qw :, :n] = fd.T

    # block 2: [-Q, cz; cz^T, -X] < 0, i.e. Q > cz X^-1 cz^T by Schur complement
    n2 = nz + n
    f0_2 = np.zeros((n2, n2))
    f0_2[:nz, nz:] = cz
    f0_2[nz:, :nz] = cz.T
    c2 = np.zeros((m, n2, n2))
    for k, e in enumerate(ex):
        c2[k, nz:, nz:] = -e
    for k, e in enumerate(eq):
        c2[len(ex) + len(ew) + k, :nz, :nz] = -e

    c_obj = np.zeros(m)
    for k, e in enumerate(eq):
        c_obj[len(ex) + len(ew) + k] = np.trace(e)

    x0 = _feasible_start(plant, default_stabilizer(plant))
    try:
        result = solve_sdp(c_obj, [LmiBlock(f0_1, c1), LmiBlock(f0_2, c2)], x0=x0)
    except SdpError as exc:
        raise SynthesisError(f"LMI route failed: {exc}") from None

    x_mat = np.tensordot(result.x[: len(ex)], ex, axes=1)
    w_mat = np.tensordot(result.x[len(ex) : len(ex) + len(ew)], ew, axes=1)
    l = np.linalg.solve(x_mat, w_mat)
    gamma = float(np.sqrt(max(result.value, 0.0)))
    return l, gamma, result


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
    # (8,) relative mismatch of each gain against its octant's Riccati gain,
    # as synthesis measured it; gain files do not store it
    care_mismatch: np.ndarray | None = None


def synthesize_schedule(
    noise: NoiseParams, g=DEFAULT_GRAVITY, h=DEFAULT_FIELD
) -> GainSchedule:
    """Synthesize all octant gains from one LMI solve plus symmetry.

    Octant k's gain is T_k L0 T_k^T with T_k = blkdiag(R_k, R_k), where L0
    is the LMI gain at octant 0 and R_k the octant's center rotation; every
    octant shares octant 0's performance level. Raises SynthesisError when
    an octant's gain or performance level disagrees with the Riccati
    solution of that octant's own plant beyond CROSS_CHECK_TOL, or when any
    closed loop fails to be Hurwitz.
    """
    plants = [build_plant(noise, octant, g, h) for octant in range(N_OCTANTS)]
    l0, gamma0, _ = solve_h2_lmi(plants[0])
    gains = np.zeros((N_OCTANTS, 6, 6))
    care_mismatch = np.zeros(N_OCTANTS)
    for octant, plant in enumerate(plants):
        l = gain_symmetry_transform(l0, octant_rotation(octant))
        mismatch, gamma_care_rel, gamma_attained_rel, _ = care_cross_check(plant, l, gamma0)
        if mismatch > CROSS_CHECK_TOL:
            raise SynthesisError(
                f"octant {octant}: LMI and Riccati gains disagree "
                f"(relative mismatch {mismatch:.3e})"
            )
        if gamma_care_rel > CROSS_CHECK_TOL:
            raise SynthesisError(
                f"octant {octant}: LMI and Riccati performance levels disagree "
                f"(relative mismatch {gamma_care_rel:.3e})"
            )
        if gamma_attained_rel > CROSS_CHECK_TOL:
            raise SynthesisError(
                f"octant {octant}: bound {gamma0:.6e} does not match the achieved "
                f"closed-loop norm (relative mismatch {gamma_attained_rel:.3e})"
            )
        gains[octant] = l
        care_mismatch[octant] = mismatch
    return GainSchedule(
        gains=gains,
        gammas=np.full(N_OCTANTS, gamma0),
        noise=noise,
        g=tuple(float(v) for v in g),
        h=tuple(float(v) for v in h),
        care_mismatch=care_mismatch,
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
