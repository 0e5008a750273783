import numpy as np
import pytest

from attiq import sim
from attiq.quat import dcm_of, integrate_step
from attiq.sim import (
    CASE_DEFAULTS,
    CASES,
    NoiseParams,
    ScenarioConfig,
    SensorStreams,
    generate_truth,
    measure,
    simulate_scenario,
)
from quat_reference import angular_distance, euler_of_quat


def quiet_config(case, seed=1, **kw):
    kw.setdefault("noise", NoiseParams.zero())
    return ScenarioConfig.for_case(case, seed=seed, **kw)


# the case defaults and the edge configurations the exactness tests cover
EDGES = {
    "default": {},
    "half_second": {"duration": 0.5},
    "no_rate": {"angular_rate": 0.0},
    "37_hz": {"sample_rate": 37.0},
}
CASE_EDGES = [pytest.param(case, kw, id=f"{case}-{name}") for case in CASES for name, kw in EDGES.items()]


def rotated(c, v):
    # reference: c @ v summed column by column, one rounded numpy-scalar
    # operation at a time; a BLAS product may sum in another order or fuse
    return np.array([c[i, 0] * v[0] + c[i, 1] * v[1] + c[i, 2] * v[2] for i in range(3)])


class TestNoiseParams:
    def test_rejects_negative_std(self):
        with pytest.raises(ValueError):
            NoiseParams(n_w=-1e-3, n_b=0.0, n_a=0.0, n_m=0.0)

    def test_mpu_defaults_scale_with_rate(self):
        p = NoiseParams.mpu9250(150.0)
        assert p.n_w == pytest.approx(8.7e-4 * np.sqrt(150.0))
        assert p.n_a == pytest.approx(8e-3 * np.sqrt(150.0))


class TestScenarioConfig:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ScenarioConfig.for_case("I", seed=1, sample_rate=0.0)

    def test_rejects_unknown_case(self):
        with pytest.raises(ValueError):
            ScenarioConfig.for_case("V", seed=1)

    def test_sample_count(self):
        cfg = ScenarioConfig.for_case("I", seed=1)
        assert cfg.n_samples == 7500


class TestTruth:
    def test_case_one_starts_level_at_rest(self):
        _, q, w, _ = generate_truth(quiet_config("I"))
        np.testing.assert_allclose(q[0], [0.0, 0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(w[0], 0.0, atol=1e-15)

    def test_all_cases_start_level(self):
        for case in ("I", "II", "III", "IV"):
            _, q, _, _ = generate_truth(quiet_config(case))
            assert angular_distance(q[0], np.array([0, 0, 0, 1.0])) < 1e-12

    def test_case_one_single_axis_bounded(self):
        cfg = quiet_config("I")
        t, q, _, _ = generate_truth(cfg)
        limit = np.radians(30.0)
        seg = cfg.duration / 3.0
        for t_k, q_k in zip(t, q):
            angles = euler_of_quat(q_k)
            assert np.max(np.abs(angles)) < limit
            # axes other than the active one stay at rest
            active = min(int(t_k / seg), 2)
            others = np.delete(np.abs(angles), active)
            assert np.max(others) < 1e-3

    def test_case_two_excursions_exceed_thirty_deg(self):
        _, q, w, _ = generate_truth(quiet_config("II"))
        angles = np.array([euler_of_quat(q_k) for q_k in q])
        assert np.all(np.max(np.abs(angles), axis=0) > np.radians(30.0))
        rates = np.linalg.norm(w, axis=1)
        assert rates.max() > 0.8 * CASE_DEFAULTS["II"][1]

    def test_case_three_pitch_passes_vertical(self):
        _, q, w, _ = generate_truth(quiet_config("III"))
        # the sweep is a pure y-axis rotation, so the physical pitch is the
        # rotation angle about y
        pitch = 2.0 * np.arctan2(q[:, 1], q[:, 3])
        assert pitch.max() > np.pi / 2
        rates = np.linalg.norm(w, axis=1)
        assert rates.max() == pytest.approx(CASE_DEFAULTS["III"][1], rel=1e-2)

    def test_case_four_script_has_three_heading_changes(self):
        _, q, _, _ = generate_truth(quiet_config("IV"))
        angles = np.array([euler_of_quat(q_k) for q_k in q])
        yaw = np.unwrap(angles[:, 2])
        assert yaw[-1] == pytest.approx(4.0, abs=0.01)
        pitch = angles[:, 1]
        assert pitch.max() > np.radians(5.0)  # take-off transient
        assert pitch.min() < np.radians(-3.0)  # descent

    def test_consecutive_samples_within_rate_bound(self):
        for case in ("I", "II", "III", "IV"):
            cfg = quiet_config(case, duration=6.0)
            _, q, w, _ = generate_truth(cfg)
            for k in range(len(q) - 1):
                bound = np.linalg.norm(w[k]) * cfg.dt + 1e-6
                assert angular_distance(q[k], q[k + 1]) <= bound

    def test_zero_angular_rate_is_static(self):
        _, q, w, _ = generate_truth(quiet_config("I", angular_rate=0.0, duration=2.0))
        for q_k in q:
            assert angular_distance(q_k, np.array([0, 0, 0, 1.0])) < 1e-14
        np.testing.assert_allclose(w, 0.0, atol=1e-15)

    def test_bias_constant_when_walk_disabled(self):
        noise = NoiseParams(n_w=0.0, n_b=0.0, n_a=0.0, n_m=0.0, b0=(0.02, -0.01, 0.015))
        _, _, _, b = generate_truth(quiet_config("II", noise=noise, duration=2.0))
        for b_k in b:
            np.testing.assert_array_equal(b_k, [0.02, -0.01, 0.015])

    def test_bias_walk_matches_sequential_sum(self):
        # reference: the walk accumulated one step at a time from the bias stream
        cfg = ScenarioConfig.for_case("IV", seed=7)
        _, _, _, b = generate_truth(cfg)
        bias = SensorStreams(cfg.seed).bias
        walk_std = cfg.noise.n_b * np.sqrt(cfg.dt)
        b_k = np.array(cfg.noise.b0)
        for k in range(cfg.n_samples):
            assert np.array_equal(b[k], b_k)
            b_k = b_k + walk_std * bias.standard_normal(3)

    def test_bias_walks_with_configured_intensity(self):
        noise = NoiseParams(n_w=0.0, n_b=1e-3, n_a=0.0, n_m=0.0)
        cfg = quiet_config("I", noise=noise, angular_rate=0.0, duration=40.0)
        _, _, _, b = generate_truth(cfg)
        steps = np.diff(b, axis=0)
        expected = 1e-3 * np.sqrt(cfg.dt)
        assert np.std(steps) == pytest.approx(expected, rel=0.05)


class TestExactness:
    @pytest.mark.parametrize("case, kw", CASE_EDGES)
    def test_truth_steps_are_integrate_step(self, case, kw):
        cfg = ScenarioConfig.for_case(case, seed=3, **kw)
        _, q, w, _ = generate_truth(cfg)
        for k in range(cfg.n_samples - 1):
            assert np.array_equal(q[k + 1], integrate_step(q[k], w[k], cfg.dt)), k

    @pytest.mark.parametrize("case, kw", CASE_EDGES)
    def test_noiseless_measurements_are_dcm_products(self, case, kw):
        cfg = quiet_config(case, seed=3, **kw)
        ds = simulate_scenario(cfg)
        _, _, w, _ = generate_truth(cfg)
        g, h = np.array(ds.config.g), np.array(ds.config.h)
        assert np.array_equal(ds.w_m, w)
        for k in range(len(ds.t)):
            c = dcm_of(ds.q_true[k])
            assert np.array_equal(ds.a_m[k], rotated(c, g)), k
            assert np.array_equal(ds.m_m[k], rotated(c, h)), k

    def test_keyframes_match_per_sample_reference(self):
        # reference: the per-sample segment walk the array form replaces
        def smoothstep(t, t0, t1, a, b):
            if t <= t0:
                return a, 0.0
            if t >= t1:
                return b, 0.0
            u = (t - t0) / (t1 - t0)
            s = u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)
            ds = 30.0 * u * u * (1.0 - u) * (1.0 - u) / (t1 - t0)
            return a + (b - a) * s, (b - a) * ds

        def channel(t, segments):
            value, rate = segments[0][2], 0.0
            for t0, t1, a, b in segments:
                if t < t0:
                    break
                value, rate = smoothstep(t, t0, t1, a, b)
                if t < t1:
                    return value, rate
            return value, rate

        segments = [(1.0, 2.5, 0.3, -0.2), (2.5, 4.0, -0.2, 0.7), (6.0, 7.0, 0.7, 0.0)]
        edges = [t for seg in segments for t in seg[:2]]
        t = np.sort(np.concatenate([np.linspace(0.0, 8.0, 801), edges, np.nextafter(edges, 9.0)]))
        value, rate = sim._keyframes(t, segments)
        expected = np.array([channel(t_k, segments) for t_k in t.tolist()])
        assert np.array_equal(value, expected[:, 0])
        assert np.array_equal(rate, expected[:, 1])


class TestMeasure:
    def test_rotation_sum_order_is_fixed(self):
        rng = np.random.default_rng(31)
        q = rng.standard_normal((500, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        g, h = rng.standard_normal(3), rng.standard_normal(3)
        zeros = np.zeros((500, 3))
        _, a_m, m_m = measure(q, zeros, zeros, NoiseParams.zero(), SensorStreams(1), g, h)
        for k, q_k in enumerate(q):
            c = dcm_of(q_k)
            assert np.array_equal(a_m[k], rotated(c, g)), k
            assert np.array_equal(m_m[k], rotated(c, h)), k

    def test_noise_free_measurements_are_exact(self):
        cfg = quiet_config("II", duration=2.0)
        ds = simulate_scenario(cfg)
        _, _, w, _ = generate_truth(cfg)
        np.testing.assert_allclose(ds.w_m, w, atol=1e-15)
        for q_k, a_k in zip(ds.q_true, ds.a_m):
            np.testing.assert_allclose(a_k, dcm_of(q_k) @ [0.0, 0.0, 9.81], atol=1e-12)

    def test_gyro_includes_bias(self):
        noise = NoiseParams(n_w=0.0, n_b=0.0, n_a=0.0, n_m=0.0, b0=(0.01, 0.02, -0.03))
        cfg = quiet_config("I", noise=noise, duration=1.0)
        ds = simulate_scenario(cfg)
        _, _, w, _ = generate_truth(cfg)
        for bias in ds.w_m - w:
            np.testing.assert_allclose(bias, [0.01, 0.02, -0.03])

    def test_determinism(self):
        cfg = ScenarioConfig.for_case("II", seed=99, duration=2.0)
        a = simulate_scenario(cfg)
        b = simulate_scenario(cfg)
        np.testing.assert_array_equal(a.w_m, b.w_m)
        np.testing.assert_array_equal(a.a_m, b.a_m)
        np.testing.assert_array_equal(a.m_m, b.m_m)
        np.testing.assert_array_equal(a.q_true, b.q_true)
        np.testing.assert_array_equal(a.b_true, b.b_true)

    def test_seeds_decorrelate(self):
        a = simulate_scenario(ScenarioConfig.for_case("II", seed=1, duration=1.0))
        b = simulate_scenario(ScenarioConfig.for_case("II", seed=2, duration=1.0))
        assert not np.array_equal(a.w_m, b.w_m)

    def test_noise_statistics(self):
        # long static scenario: per-channel noise std within 5 percent and
        # accelerometer residual mean within 3 sigma / sqrt(N)
        noise = NoiseParams(n_w=2e-3, n_b=0.0, n_a=0.05, n_m=0.4)
        cfg = ScenarioConfig.for_case(
            "I", seed=7, angular_rate=0.0, duration=1000.0, sample_rate=100.0,
            noise=noise,
        )
        ds = simulate_scenario(cfg)
        n = len(ds.t)
        assert n == 100000
        gyro_res = ds.w_m - ds.b_true
        accel_res = ds.a_m - np.array([0.0, 0.0, 9.81])
        mag_res = ds.m_m - np.array(cfg.h)
        for res, std in ((gyro_res, 2e-3), (accel_res, 0.05), (mag_res, 0.4)):
            assert np.std(res) == pytest.approx(std, rel=0.05)
        assert np.all(np.abs(accel_res.mean(axis=0)) < 3.0 * 0.05 / np.sqrt(n))

    @pytest.mark.parametrize("case", ["I", "II", "III", "IV"])
    def test_matches_per_sample_reference(self, case):
        # reference: one DCM and one draw per channel for each sample in turn
        cfg = ScenarioConfig.for_case(case, seed=7, duration=5.0)
        ds = simulate_scenario(cfg)
        _, _, w, _ = generate_truth(cfg)
        streams = SensorStreams(cfg.seed)
        noise, g, h = cfg.noise, np.array(cfg.g), np.array(cfg.h)
        for k in range(cfg.n_samples):
            c = dcm_of(ds.q_true[k])
            w_m = w[k] + ds.b_true[k] + noise.n_w * streams.gyro.standard_normal(3)
            a_m = rotated(c, g) + noise.n_a * streams.accel.standard_normal(3)
            m_m = rotated(c, h) + noise.n_m * streams.mag.standard_normal(3)
            assert np.array_equal(ds.w_m[k], w_m)
            assert np.array_equal(ds.a_m[k], a_m)
            assert np.array_equal(ds.m_m[k], m_m)

    def test_streams_are_independent_channels(self):
        # consuming the gyro stream must not shift accel or mag draws
        noise = NoiseParams(n_w=1e-3, n_b=0.0, n_a=1e-2, n_m=0.5)
        cfg = quiet_config("I", noise=noise, duration=1.0)
        _, q, w, b = generate_truth(cfg)
        s1 = SensorStreams(cfg.seed)
        s2 = SensorStreams(cfg.seed)
        s2.gyro.standard_normal(3000)  # burn the gyro channel only
        w1, a1, m1 = measure(q, w, b, noise, s1)
        w2, a2, m2 = measure(q, w, b, noise, s2)
        assert not np.array_equal(w1, w2)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(m1, m2)
