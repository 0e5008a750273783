"""Truth trajectory generation and IMU measurement synthesis.

Scenario cases:

- I    sequential single-axis excursions (roll, then pitch, then yaw)
- II   simultaneous three-axis excursions
- III  pitch sweep passing through the vertical
- IV   scripted flight: take-off transient, three heading changes, landing

Truth quaternions are produced by integrating the sampled body-rate sequence
with the exact constant-rate exponential, so a filter fed the noiseless rate
samples can track the truth to floating-point accuracy.

Generation works on whole arrays. A case's Euler profile is a function of
the time array, giving (n, 3) angles and rates; the body rates and the
stacked DCMs of all samples are each one array expression. The truth
quaternion recursion is one quat.integrate_sequence call, whose steps equal
bit for bit the quat.integrate_step the filters propagate with.

A Dataset holds one (n, k) array per quantity, one row per sample. Its
w_true is None when it was read from a file, which does not store the truth
angular rates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .quat import body_rates_from_euler, dcm_of, integrate_sequence, quat_of_euler

DEFAULT_GRAVITY = (0.0, 0.0, 9.81)  # NED, m/s^2
DEFAULT_FIELD = (22.5, 1.5, 42.0)  # NED, uT

CASES = ("I", "II", "III", "IV")

# (duration s, characteristic angular rate rad/s) per case
CASE_DEFAULTS = {
    "I": (50.0, np.pi / 50.0),
    "II": (10.0, np.pi / 3.0),
    "III": (10.0, np.pi / 2.0),
    "IV": (60.0, 0.45),
}


@dataclass(frozen=True)
class NoiseParams:
    """Sensor noise intensities and initial gyro bias.

    n_w  gyro white-noise std per axis, rad/s
    n_b  gyro bias random-walk intensity per axis, rad/s/sqrt(s)
    n_a  accelerometer white-noise std per axis, m/s^2
    n_m  magnetometer white-noise std per axis, uT
    b0   initial gyro bias, rad/s
    """

    n_w: float
    n_b: float
    n_a: float
    n_m: float
    b0: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        for name in ("n_w", "n_b", "n_a", "n_m"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        if len(self.b0) != 3 or not all(np.isfinite(v) for v in self.b0):
            raise ValueError(f"b0 must be a finite 3-vector, got {self.b0!r}")

    @classmethod
    def mpu9250(cls, sample_rate: float = 150.0) -> "NoiseParams":
        """Consumer-grade MEMS IMU class defaults at a given sample rate."""
        root_rate = np.sqrt(sample_rate)
        return cls(
            n_w=8.7e-4 * root_rate,
            n_b=1e-5,
            n_a=8e-3 * root_rate,
            n_m=0.6,
            b0=(0.02, -0.01, 0.015),
        )

    @classmethod
    def zero(cls) -> "NoiseParams":
        """Noise-free sensing with zero initial bias."""
        return cls(n_w=0.0, n_b=0.0, n_a=0.0, n_m=0.0, b0=(0.0, 0.0, 0.0))


@dataclass(frozen=True)
class ScenarioConfig:
    case: str
    seed: int
    duration: float
    sample_rate: float
    angular_rate: float
    noise: NoiseParams
    g: tuple[float, float, float] = DEFAULT_GRAVITY
    h: tuple[float, float, float] = DEFAULT_FIELD

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}; expected one of {CASES}")
        if not (np.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError(f"duration must be > 0, got {self.duration!r}")
        if not (np.isfinite(self.sample_rate) and self.sample_rate > 0.0):
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate!r}")
        if not np.isfinite(self.angular_rate) or self.angular_rate < 0.0:
            raise ValueError(f"angular_rate must be >= 0, got {self.angular_rate!r}")

    @classmethod
    def for_case(cls, case: str, seed: int, **overrides) -> "ScenarioConfig":
        if case not in CASES:
            raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
        duration, angular_rate = CASE_DEFAULTS[case]
        rate = overrides.pop("sample_rate", 150.0)
        noise = overrides.pop("noise", NoiseParams.mpu9250(rate))
        cfg = cls(
            case=case,
            seed=seed,
            duration=overrides.pop("duration", duration),
            sample_rate=rate,
            angular_rate=overrides.pop("angular_rate", angular_rate),
            noise=noise,
        )
        return replace(cfg, **overrides) if overrides else cfg

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * self.sample_rate))

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate


class SensorStreams:
    """Independent per-channel random substreams for one scenario seed."""

    def __init__(self, seed: int):
        children = np.random.SeedSequence(seed).spawn(4)
        self.gyro = np.random.Generator(np.random.PCG64(children[0]))
        self.accel = np.random.Generator(np.random.PCG64(children[1]))
        self.mag = np.random.Generator(np.random.PCG64(children[2]))
        self.bias = np.random.Generator(np.random.PCG64(children[3]))


def _keyframes(t: np.ndarray, segments) -> tuple[np.ndarray, np.ndarray]:
    """Value and rate at times t of a channel scripted as a sorted list of
    (t0, t1, from, to) smoothstep segments.

    A sample takes the last segment starting at or before it: C2
    interpolation from `from` at t0 to `to` at t1, held at `to` after t1.
    Samples before the first segment hold its `from` value.
    """
    t0, t1, a, b = (np.array(column) for column in zip(*segments))
    i = np.searchsorted(t0, t, side="right") - 1
    started = i >= 0
    i = np.maximum(i, 0)
    t0, t1, a, b = t0[i], t1[i], a[i], b[i]
    inside = started & (t > t0) & (t < t1)
    u = (t - t0) / (t1 - t0)
    s = u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)
    ds = 30.0 * u * u * (1.0 - u) * (1.0 - u) / (t1 - t0)
    value = np.where(inside, a + (b - a) * s, np.where(started & (t >= t1), b, a))
    rate = np.where(inside, (b - a) * ds, 0.0)
    return value, rate


def _euler_profile(config: ScenarioConfig):
    """Analytic Euler angle/rate profile of a case.

    Returns profile(t) giving the (n, 3) angles and rates at the times t (n,).
    """
    case = config.case
    duration = config.duration
    rho = config.angular_rate

    if case == "I":
        # one (1 - cos) excursion per axis, one axis at a time, peak rate rho
        seg = duration / 3.0
        amp = rho * seg / np.pi

        def profile(t):
            rows = np.arange(len(t))
            axis = np.minimum((t / seg).astype(int), 2)
            tau = t - axis * seg
            angles = np.zeros((len(t), 3))
            rates = np.zeros((len(t), 3))
            angles[rows, axis] = 0.5 * amp * (1.0 - np.cos(2.0 * np.pi * tau / seg))
            rates[rows, axis] = amp * (np.pi / seg) * np.sin(2.0 * np.pi * tau / seg)
            return angles, rates

        return profile

    if case == "II":
        # simultaneous three-axis excursions; per-axis peak rate rho/sqrt(3)
        per_axis = rho / np.sqrt(3.0)
        cycles = np.array([3.0, 3.0, 2.0])
        amp = per_axis * duration / (np.pi * cycles)
        amp[1] = -amp[1]  # pitch dips while roll and yaw rise

        def profile(t):
            phase = 2.0 * np.pi * cycles * t[:, None] / duration
            angles = 0.5 * amp * (1.0 - np.cos(phase))
            rates = amp * (np.pi * cycles / duration) * np.sin(phase)
            return angles, rates

        return profile

    if case == "III":
        # pitch-only sweep to 120 deg and back, peak rate rho, level lead-in
        amp = 2.0 * np.pi / 3.0
        lead = min(2.0, 0.2 * duration)
        if rho > 0.0:
            sweep = amp * np.pi / rho
            if sweep > duration - lead:
                sweep = duration - lead
                amp = rho * sweep / np.pi
        else:
            sweep = duration - lead
            amp = 0.0

        def profile(t):
            angles = np.zeros((len(t), 3))
            rates = np.zeros((len(t), 3))
            tau = t - lead
            sweeping = (0.0 <= tau) & (tau < sweep)
            angle = 0.5 * amp * (1.0 - np.cos(2.0 * np.pi * tau / sweep))
            rate = amp * (np.pi / sweep) * np.sin(2.0 * np.pi * tau / sweep)
            angles[:, 1] = np.where(sweeping, angle, 0.0)
            rates[:, 1] = np.where(sweeping, rate, 0.0)
            return angles, rates

        return profile

    # case IV: scripted keyframes, times scaled to the configured duration,
    # amplitudes scaled by angular_rate relative to the case default
    scale_t = duration / CASE_DEFAULTS["IV"][0]
    scale_a = rho / CASE_DEFAULTS["IV"][1]

    def seg(t0, t1, a, b):
        return (t0 * scale_t, t1 * scale_t, a * scale_a, b * scale_a)

    roll_segs = [
        seg(3.0, 4.5, 0.0, 0.05),
        seg(4.5, 6.0, 0.05, 0.0),
        seg(14.0, 17.0, 0.0, 0.25),
        seg(17.0, 20.0, 0.25, 0.0),
        seg(28.0, 31.0, 0.0, 0.25),
        seg(31.0, 34.0, 0.25, 0.0),
        seg(42.0, 45.0, 0.0, 0.25),
        seg(45.0, 48.0, 0.25, 0.0),
    ]
    pitch_segs = [
        seg(2.0, 5.0, 0.0, 0.18),
        seg(8.0, 11.0, 0.18, 0.0),
        seg(48.0, 52.0, 0.0, -0.10),
        seg(54.0, 57.0, -0.10, 0.03),
        seg(57.0, 59.0, 0.03, 0.0),
    ]
    yaw_segs = [
        seg(14.0, 20.0, 0.0, 1.2),
        seg(28.0, 34.0, 1.2, 2.6),
        seg(42.0, 48.0, 2.6, 4.0),
    ]

    def profile(t):
        channels = [_keyframes(t, segs) for segs in (roll_segs, pitch_segs, yaw_segs)]
        angles, rates = (np.stack(part, axis=-1) for part in zip(*channels))
        return angles, rates

    return profile


def generate_truth(config: ScenarioConfig, streams: SensorStreams | None = None):
    """Sampled truth for a scenario: times, attitude, body rate and gyro bias.

    Returns the arrays (t, q, w, b) of shapes (n,), (n, 4), (n, 3) and
    (n, 3). The quaternion sequence integrates the sampled rates exactly
    (constant rate over each interval), so consecutive samples are separated
    by exactly |w_k| * dt of rotation: q[k + 1] == integrate_step(q[k], w[k], dt),
    all n steps taken by one quat.integrate_sequence call.
    """
    if streams is None:
        streams = SensorStreams(config.seed)
    profile = _euler_profile(config)
    n = config.n_samples
    dt = config.dt
    t = np.arange(n) * dt
    angles, rates = profile(t)
    w = body_rates_from_euler(angles, rates)
    q0 = quat_of_euler(*profile(np.zeros(1))[0][0])
    # the step over the last sample's rate ends after the last sample; [:n]
    # drops it and keeps one row per sample for any n, 0 included
    q = integrate_sequence(q0, w, dt)[:n]

    b0 = np.array(config.noise.b0, dtype=float)
    walk_std = config.noise.n_b * np.sqrt(dt)
    if walk_std > 0.0:
        # stacking b0 ahead of the steps keeps the sequential summation order
        steps = walk_std * streams.bias.standard_normal((n, 3))
        b = np.cumsum(np.vstack([b0, steps]), axis=0)[:n]
    else:
        b = np.tile(b0, (n, 1))
    return t, q, w, b


def measure(
    q: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    noise: NoiseParams,
    streams: SensorStreams,
    g=DEFAULT_GRAVITY,
    h=DEFAULT_FIELD,
):
    """IMU samples for a truth sequence: biased, noisy gyro plus body-frame
    gravity and field. Returns the arrays (w_m, a_m, m_m), each (n, 3)."""
    n = len(q)
    c = dcm_of(q)
    w_m = w + b + noise.n_w * streams.gyro.standard_normal((n, 3))
    a_m = _rotate(c, g) + noise.n_a * streams.accel.standard_normal((n, 3))
    m_m = _rotate(c, h) + noise.n_m * streams.mag.standard_normal((n, 3))
    return w_m, a_m, m_m


def _rotate(c: np.ndarray, v) -> np.ndarray:
    """c @ v for (n, 3, 3) DCMs, summed column by column in a fixed order.

    A matrix product goes to BLAS, whose order of summation and use of fused
    multiply-adds depend on the BLAS build and the CPU.
    """
    v1, v2, v3 = (float(x) for x in v)
    return c[:, :, 0] * v1 + c[:, :, 1] * v2 + c[:, :, 2] * v3


@dataclass
class Dataset:
    """One scenario's samples as arrays, one row per sample.

    w_true is None when the dataset was read from a file, which does not
    carry the truth angular rates.
    """

    config: ScenarioConfig
    t: np.ndarray  # (n,) s
    w_m: np.ndarray  # (n, 3) rad/s
    a_m: np.ndarray  # (n, 3) m/s^2
    m_m: np.ndarray  # (n, 3) uT
    q_true: np.ndarray  # (n, 4) unit quaternion, inertial -> body
    b_true: np.ndarray  # (n, 3) gyro bias, rad/s
    w_true: np.ndarray | None = None  # (n, 3) body angular rate, rad/s


def simulate_scenario(config: ScenarioConfig) -> Dataset:
    """Generate truth and measurements for a scenario config."""
    streams = SensorStreams(config.seed)
    t, q, w, b = generate_truth(config, streams)
    w_m, a_m, m_m = measure(q, w, b, config.noise, streams, config.g, config.h)
    return Dataset(
        config=config, t=t, w_m=w_m, a_m=a_m, m_m=m_m, q_true=q, b_true=b, w_true=w
    )
