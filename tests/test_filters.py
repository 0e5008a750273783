from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attiq.filters import (
    H2State,
    attitude_errors,
    ekf_step,
    evaluate_run,
    h2_step,
    initial_ekf_state,
    predict_measurement,
    run_filter,
    select_octant,
    triad_attitude,
)
from attiq.plant import LinearErrorPlant, build_plant, measurement_matrix, sampled_model
from attiq.quat import (
    dcm_of,
    normalize,
    quat_multiply,
    quat_of_euler,
    renormalize,
)
from attiq.sim import (
    DEFAULT_FIELD,
    DEFAULT_GRAVITY,
    NoiseParams,
    ScenarioConfig,
    simulate_scenario,
)
from attiq.synthesis import (
    N_OCTANTS,
    OCTANT_TRIPLES,
    default_design_noise,
    octant_rotation,
    solve_h2_care,
    synthesize_schedule,
)
from quat_reference import angular_distance, quat_inverse

G = np.array(DEFAULT_GRAVITY)
H = np.array(DEFAULT_FIELD)
DT = 1.0 / 150.0

OCTANT_OF = {triple: idx for idx, triple in enumerate(OCTANT_TRIPLES)}
PI = np.pi


@pytest.fixture(scope="module")
def schedule():
    return synthesize_schedule(default_design_noise(150.0))


def random_quat(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def ideal_vectors(q):
    """Noise-free accelerometer and magnetometer measurements at attitude q."""
    c = dcm_of(q)
    return c @ G, c @ H


def static_config(seed, duration=10.0, **overrides):
    """Constant identity-attitude truth with default sensor noise."""
    return ScenarioConfig.for_case(
        "I", seed=seed, angular_rate=0.0, duration=duration, **overrides
    )


class TestTriad:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_recovery(self, seed):
        rng = np.random.default_rng(seed)
        q = random_quat(rng)
        a_m, m_m = ideal_vectors(q)
        q_hat = triad_attitude(a_m, m_m, G, H)
        # the metric itself saturates near sqrt(eps) for tiny angles
        assert angular_distance(q_hat, q) < 1e-7

    def test_noise_gives_small_error(self):
        rng = np.random.default_rng(7)
        q = random_quat(rng)
        a_m, m_m = ideal_vectors(q)
        a = a_m + 0.098 * rng.standard_normal(3)
        m = m_m + 0.6 * rng.standard_normal(3)
        assert np.degrees(angular_distance(triad_attitude(a, m, G, H), q)) < 3.0

    def test_parallel_references_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            triad_attitude(G, 2.0 * G, G, 2.0 * G)


class TestSelectOctant:
    def test_identity(self):
        assert select_octant(np.array([0.0, 0.0, 0.0, 1.0])) == OCTANT_OF[(0.0, 0.0, 0.0)]

    @pytest.mark.parametrize(
        "angles",
        [(PI, 0.0, 0.0), (0.0, 0.0, PI), (PI, 0.0, PI)],
    )
    def test_flipped_axes(self, angles):
        q = quat_of_euler(*angles)
        assert select_octant(q) == OCTANT_OF[angles]

    def test_boundary_without_history_is_strict(self):
        just_past = quat_of_euler(PI / 2 + 0.01, 0.0, 0.0)
        assert select_octant(just_past) == OCTANT_OF[(PI, 0.0, 0.0)]
        just_short = quat_of_euler(PI / 2 - 0.01, 0.0, 0.0)
        assert select_octant(just_short) == OCTANT_OF[(0.0, 0.0, 0.0)]

    def test_full_roll_sweep_switches_exactly_twice(self):
        octant = select_octant(quat_of_euler(0.0, 0.0, 0.0))
        changes = 0
        for roll in np.linspace(0.0, 2.0 * PI, 3000):
            new = select_octant(quat_of_euler(roll, 0.0, 0.0))
            changes += new != octant
            octant = new
        assert changes == 2
        assert octant == OCTANT_OF[(0.0, 0.0, 0.0)]


class TestNearestCenter:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="unit norm"):
            select_octant(np.array([np.nan, 0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="unit norm"):
            select_octant(np.array([0.0, 0.0, 0.0, np.nan]))

    def test_without_history_picks_the_nearest_center(self):
        rng = np.random.default_rng(31)
        q = rng.standard_normal((10_000, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        centers = np.array([octant_rotation(k) for k in range(N_OCTANTS)])
        # trace(R^T C) = 1 + 2 cos(angle between the attitudes)
        closeness = np.einsum("kij,nij->nk", centers, dcm_of(q))
        for q_n, close_n in zip(q, closeness):
            octant = select_octant(q_n)
            assert octant in (0, 1, 3, 6)
            assert close_n[octant] >= close_n.max() - 1e-12


class TestNoiselessTracking:
    @pytest.mark.parametrize("case", ["I", "II", "III"])
    @pytest.mark.parametrize("method", ["h2", "ekf"])
    def test_exact_init_tracks_truth(self, case, method, schedule):
        cfg = ScenarioConfig.for_case(case, seed=1, noise=NoiseParams.zero())
        ds = simulate_scenario(cfg)
        run = run_filter(ds, method, schedule=schedule)
        res = evaluate_run(ds, run)
        assert res.max_total_deg < 1e-6
        assert np.max(np.abs(np.linalg.norm(run.q_est, axis=1) - 1.0)) < 1e-9
        assert np.allclose(run.b_est, 0.0, atol=1e-9)


class TestH2Step:
    def test_zero_innovation_is_fixed_point(self, schedule):
        q = quat_of_euler(0.2, -0.1, 0.3)
        state = H2State(q=q, b=np.zeros(3), octant=select_octant(q))
        after = h2_step(state, np.zeros(3), *ideal_vectors(q), schedule, DT, G, H)
        assert angular_distance(after.q, q) < 1e-12
        assert np.allclose(after.b, 0.0)

    def test_small_error_contracts(self, schedule):
        q_true = np.array([0.0, 0.0, 0.0, 1.0])
        dq = renormalize(np.array([0.005, 0.0, 0.0, 1.0]))  # ~0.57 deg roll error
        state = H2State(q=quat_multiply(dq, q_true), b=np.zeros(3), octant=0)
        before = angular_distance(state.q, q_true)
        after = h2_step(state, np.zeros(3), *ideal_vectors(q_true), schedule, DT, G, H)
        assert angular_distance(after.q, q_true) < before

    def test_bias_error_strictly_decreases(self, schedule):
        b_true = np.array([0.005, -0.003, 0.004])
        q = np.array([0.0, 0.0, 0.0, 1.0])
        a_m, m_m = ideal_vectors(q)
        state = H2State(q=q, b=np.zeros(3), octant=0)
        norms = []
        for _ in range(100):
            # the gyro reads pure bias
            state = h2_step(state, b_true, a_m, m_m, schedule, DT, G, H)
            norms.append(np.linalg.norm(state.b - b_true))
        assert all(b < a for a, b in zip(norms, norms[1:]))


class TestConvergence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_20deg_error_recovers_within_5s(self, seed, schedule):
        ds = simulate_scenario(static_config(seed))
        rng = np.random.default_rng(100 + seed)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        half = np.deg2rad(20.0) / 2.0
        dq = np.array([*(np.sin(half) * axis), np.cos(half)])
        q0 = normalize(quat_multiply(dq, ds.q_true[0]))
        run = run_filter(ds, "h2", schedule=schedule, q0=q0)
        _, totals = attitude_errors(run.q_est, ds.q_true)
        assert np.degrees(totals[0]) == pytest.approx(20.0, abs=1e-6)
        assert np.degrees(totals[ds.t >= 5.0]).max() < 1.0


class TestMagneticDisturbance:
    """Case III, seed 1, with +15 uT on body-x of m_m for 4 <= t < 9 s: a
    magnetic anomaly while pitch sweeps through the vertical. The bound is
    on the last second, just after the window."""

    @pytest.fixture(scope="class")
    def disturbed(self):
        ds = simulate_scenario(ScenarioConfig.for_case("III", seed=1))
        m_m = ds.m_m.copy()
        m_m[(ds.t >= 4.0) & (ds.t < 9.0), 0] += 15.0
        return replace(ds, m_m=m_m)

    @staticmethod
    def last_second_max_deg(ds, run):
        _, totals = attitude_errors(run.q_est, ds.q_true)
        return np.degrees(totals[ds.t >= ds.config.duration - 1.0]).max()

    @pytest.mark.xfail(
        strict=True,
        reason="the octant schedule locks about 180 deg off after this "
        "disturbance (ROADMAP: octant schedule locks on Case III)",
    )
    def test_h2_recovers(self, disturbed, schedule):
        run = run_filter(disturbed, "h2", schedule=schedule)
        assert self.last_second_max_deg(disturbed, run) < 10.0

    def test_ekf_recovers(self, disturbed):
        run = run_filter(disturbed, "ekf")
        assert self.last_second_max_deg(disturbed, run) < 10.0


class TestEkf:
    def test_covariance_stays_symmetric_psd(self):
        ds = simulate_scenario(ScenarioConfig.for_case("II", seed=4))
        model = sampled_model(default_design_noise(150.0), DT)
        state = initial_ekf_state(triad_attitude(ds.a_m[0], ds.m_m[0], G, H))
        for k in range(1, len(ds.t)):
            state = ekf_step(state, ds.w_m[k - 1], ds.a_m[k], ds.m_m[k], model, DT, G, H)
            assert np.max(np.abs(state.p - state.p.T)) < 1e-10
        assert np.linalg.eigvalsh(state.p).min() > -1e-12

    def test_steady_state_gain_matches_riccati(self):
        # the discrete update with per-sample measurement variance R behaves
        # like a continuous filter with measurement intensity R*dt, so the
        # converged Kalman gain should be dt * the Riccati gain of that
        # rescaled plant; agreement tightens as dt -> 0
        noise = NoiseParams(n_w=1.07e-2, n_b=5e-2, n_a=9.8e-2, n_m=0.6)
        dt = 1.0 / 600.0
        model = sampled_model(noise, dt)
        state = initial_ekf_state(np.array([0.0, 0.0, 0.0, 1.0]))
        a_m, m_m = ideal_vectors(state.q)
        for _ in range(8000):
            state = ekf_step(state, np.zeros(3), a_m, m_m, model, dt, G, H)

        # at zero rate the EKF's transition is the plant's
        p_pred = model.phi @ state.p @ model.phi.T + model.qd
        y_pred = predict_measurement(state.q, G, H)
        jac = measurement_matrix(y_pred[:3], y_pred[3:])
        k_inf = p_pred @ jac.T @ np.linalg.inv(jac @ p_pred @ jac.T + model.r)

        plant = build_plant(noise)
        rescaled = LinearErrorPlant(
            a=plant.a, bw=plant.bw, cy=plant.cy, dw=plant.dw * np.sqrt(dt), cz=plant.cz
        )
        l_care, _, _ = solve_h2_care(rescaled)
        # k applies to (y - y_hat), l to (y_hat - y)
        assert np.linalg.norm(k_inf + dt * l_care) < 0.05 * np.linalg.norm(dt * l_care)


class TestStaticAgreement:
    def test_filters_settle_to_same_attitude(self, schedule):
        noise = default_design_noise(150.0)
        ds = simulate_scenario(static_config(3, duration=20.0))
        run_h2 = run_filter(ds, "h2", schedule=schedule)
        run_ekf = run_filter(ds, "ekf", noise_model=noise)
        tail = ds.t >= 15.0
        mean_h2 = attitude_errors(run_h2.q_est, ds.q_true)[0][tail].mean(axis=0)
        mean_ekf = attitude_errors(run_ekf.q_est, ds.q_true)[0][tail].mean(axis=0)
        assert np.degrees(np.linalg.norm(mean_h2 - mean_ekf)) < 0.2


class TestRunFilter:
    def test_unknown_method_rejected(self, schedule):
        ds = simulate_scenario(static_config(1, duration=1.0))
        with pytest.raises(ValueError, match="unknown method"):
            run_filter(ds, "ukf", schedule=schedule)

    def test_h2_requires_schedule(self):
        ds = simulate_scenario(static_config(1, duration=1.0))
        with pytest.raises(ValueError, match="schedule"):
            run_filter(ds, "h2")

    def test_schedule_reference_vectors_checked(self, schedule):
        cfg = static_config(1, duration=1.0, h=(40.0, 0.0, 10.0))
        ds = simulate_scenario(cfg)
        with pytest.raises(ValueError, match="reference vectors"):
            run_filter(ds, "h2", schedule=schedule)

    def test_ekf_defaults_to_design_noise(self):
        # the dataset's own (datasheet) noise does not tune the EKF
        ds = simulate_scenario(ScenarioConfig.for_case("II", seed=1, duration=2.0))
        default = run_filter(ds, "ekf")
        design = run_filter(ds, "ekf", noise_model=default_design_noise(150.0))
        assert np.array_equal(default.q_est, design.q_est)
        assert np.array_equal(default.b_est, design.b_est)

    @pytest.mark.parametrize("field", ["n_w", "n_b", "n_a", "n_m"])
    def test_ekf_zero_intensity_rejected(self, field):
        ds = simulate_scenario(static_config(1, duration=1.0))
        noise = replace(default_design_noise(150.0), **{field: 0.0})
        with pytest.raises(ValueError, match=field):
            run_filter(ds, "ekf", noise_model=noise)

    @pytest.mark.parametrize("method", ["h2", "ekf"])
    def test_q0_starts_the_filter(self, method, schedule):
        ds = simulate_scenario(static_config(1, duration=1.0))
        q0 = quat_of_euler(0.3, -0.2, 2.5)
        run = run_filter(ds, method, schedule=schedule, q0=q0)
        assert np.array_equal(run.q_est[0], q0)
        assert np.array_equal(run.b_est[0], np.zeros(3))
        if method == "h2":
            assert run.octants[0] == select_octant(q0)
        default = run_filter(ds, method, schedule=schedule)
        triad = triad_attitude(ds.a_m[0], ds.m_m[0], G, H)
        assert np.array_equal(default.q_est[0], triad)

    @pytest.mark.parametrize(
        "q0", [[0.0, 0.0, 0.0, 1.1], [np.nan, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
    )
    @pytest.mark.parametrize("method", ["h2", "ekf"])
    def test_bad_q0_rejected(self, method, q0, schedule):
        ds = simulate_scenario(static_config(1, duration=1.0))
        with pytest.raises(ValueError, match="unit norm|shape"):
            run_filter(ds, method, schedule=schedule, q0=np.array(q0))

    def test_first_sample_must_be_finite(self, schedule):
        for channel in ("a_m", "m_m"):
            ds = simulate_scenario(static_config(1, duration=1.0))
            getattr(ds, channel)[0] = [np.nan, 0.0, 0.0]
            for method in ("h2", "ekf"):
                with pytest.raises(ValueError, match="first sample"):
                    run_filter(ds, method, schedule=schedule)

    @pytest.mark.parametrize("method", ["h2", "ekf"])
    def test_non_finite_first_rate_holds_first_step(self, method, schedule):
        # initialization reads only a_m[0] and m_m[0]; w_m[0] spans step 1
        ds = simulate_scenario(ScenarioConfig.for_case("II", seed=1, duration=1.0))
        ds.w_m[0] = np.nan
        run = run_filter(ds, method, schedule=schedule)
        assert np.array_equal(run.q_est[1], run.q_est[0])
        assert np.array_equal(run.skipped, np.arange(len(ds.t)) == 1)
        assert np.all(np.isfinite(run.q_est)) and np.all(np.isfinite(run.b_est))

    @pytest.mark.parametrize("method", ["h2", "ekf"])
    def test_dropout_holds_state_and_flags(self, method, schedule):
        ds = simulate_scenario(static_config(2, duration=2.0))
        clean = run_filter(ds, method, schedule=schedule)
        j = 100
        ds.w_m[j] = [np.inf, 0.0, 0.0]
        run = run_filter(ds, method, schedule=schedule)
        # step j propagates with the finite w_m[j-1] and corrects with sample
        # j; step j+1 loses its spanning rate and holds the state
        assert np.array_equal(run.skipped, np.arange(len(ds.t)) == j + 1)
        assert np.array_equal(run.q_est[: j + 1], clean.q_est[: j + 1])
        assert np.array_equal(run.b_est[: j + 1], clean.b_est[: j + 1])
        assert np.array_equal(run.q_est[j + 1], run.q_est[j])
        assert np.array_equal(run.b_est[j + 1], run.b_est[j])
        assert not np.array_equal(run.q_est[j + 2], run.q_est[j + 1])
        assert np.all(np.isfinite(run.q_est))

    @pytest.mark.parametrize("method", ["h2", "ekf"])
    def test_missing_vectors_keep_gyro_propagation(self, method, schedule):
        # Case II turns at about 0.9 rad/s around sample 600: holding the
        # state over the 15 missing samples would leave a ~5 deg error
        ds = simulate_scenario(ScenarioConfig.for_case("II", seed=1))
        ds.a_m[600:615] = np.nan
        run = run_filter(ds, method, schedule=schedule, noise_model=schedule.noise)
        gap = np.zeros(len(ds.t), dtype=bool)
        gap[600:615] = True
        assert np.array_equal(run.skipped, gap)
        _, totals = attitude_errors(run.q_est, ds.q_true)
        assert np.degrees(totals[616]) < 1.0
        assert np.all(np.isfinite(run.q_est)) and np.all(np.isfinite(run.b_est))

    def test_deterministic_reruns(self, schedule):
        ds = simulate_scenario(ScenarioConfig.for_case("II", seed=9))
        a = run_filter(ds, "h2", schedule=schedule)
        b = run_filter(ds, "h2", schedule=schedule)
        assert np.array_equal(a.q_est, b.q_est)
        assert np.array_equal(a.b_est, b.b_est)
        assert np.array_equal(a.octants, b.octants)

    def test_case_three_rides_through_gimbal_lock(self, schedule):
        ds = simulate_scenario(ScenarioConfig.for_case("III", seed=1))
        res = evaluate_run(ds, run_filter(ds, "h2", schedule=schedule))
        assert np.all(np.isfinite(res.rms_axis_deg))
        assert res.max_total_deg < 5.0
        assert res.rms_axis_deg[1] < 0.5

    def test_octant_trace_follows_truth(self, schedule):
        ds = simulate_scenario(ScenarioConfig.for_case("III", seed=1))
        run = run_filter(ds, "h2", schedule=schedule)
        # past 90 deg pitch the Z-Y-X angles read (pi, pi - theta, pi), whose
        # center rotation equals the pitch-flip sign matrix, so the sweep to
        # 120 deg must schedule the (pi, 0, pi) gain
        assert OCTANT_OF[(PI, 0.0, PI)] in set(run.octants)
        assert run.octants[0] == OCTANT_OF[(0.0, 0.0, 0.0)]


class TestEvaluate:
    def test_summary_fields(self, schedule):
        ds = simulate_scenario(ScenarioConfig.for_case("I", seed=5, duration=5.0))
        run = run_filter(ds, "h2", schedule=schedule)
        res = evaluate_run(ds, run)
        assert res.method == "h2"
        assert res.rms_axis_deg.shape == (3,) and np.all(res.rms_axis_deg >= 0.0)
        assert res.rms_total_deg >= np.max(res.rms_axis_deg)
        assert res.max_total_deg >= res.rms_total_deg
        assert res.median_step_ns > 0.0
        assert res.n_skipped == 0

    def test_attitude_errors_match_per_sample_reference(self, schedule):
        def reference(q_est, q_true):
            comps, totals = np.zeros((len(q_est), 3)), np.zeros(len(q_est))
            for k in range(len(q_est)):
                dq = quat_multiply(normalize(q_est[k]), quat_inverse(normalize(q_true[k])))
                s = np.linalg.norm(dq[:3])
                totals[k] = 2.0 * np.arctan2(s, abs(dq[3]))
                if s > 0.0:
                    comps[k] = totals[k] / s * dq[:3] * (np.sign(dq[3]) or 1.0)
            return comps, totals

        ds = simulate_scenario(ScenarioConfig.for_case("III", seed=1))
        run = run_filter(ds, "h2", schedule=schedule)
        rng = np.random.default_rng(5)
        q_a = rng.standard_normal((500, 4))
        q_b = rng.standard_normal((500, 4)) * rng.choice([-1.0, 1.0], size=(500, 1))
        q_b[::7] = -q_a[::7]  # same attitude, opposite sign
        for q_est, q_true in ((run.q_est, ds.q_true), (q_a, q_b), (-q_a, q_b)):
            comps, totals = attitude_errors(q_est, q_true)
            ref_comps, ref_totals = reference(q_est, q_true)
            assert np.max(np.abs(comps - ref_comps)) <= 1e-12
            assert np.max(np.abs(totals - ref_totals)) <= 1e-12

    def test_attitude_errors_sign_invariant(self):
        rng = np.random.default_rng(11)
        q = np.array([random_quat(rng) for _ in range(8)])
        comps, totals = attitude_errors(q, -q)
        assert np.allclose(totals, 0.0, atol=1e-12)
        assert np.allclose(comps, 0.0, atol=1e-12)

    def test_error_components_match_axis_rotation(self):
        q_true = np.tile([0.0, 0.0, 0.0, 1.0], (3, 1))
        angle = 0.02
        q_est = np.array(
            [quat_of_euler(angle, 0, 0), quat_of_euler(0, angle, 0), quat_of_euler(0, 0, angle)]
        )
        comps, totals = attitude_errors(q_est, q_true)
        assert np.allclose(totals, angle, atol=1e-9)
        assert np.allclose(comps, angle * np.eye(3), atol=1e-9)


def rotated_frame(ds, r):
    """The same body-frame samples seen from an inertial frame rotated by r:
    g and h become R g and R h with R = dcm_of(r), and the truth q_true (x) r^-1."""
    big_r = dcm_of(r)
    config = replace(
        ds.config,
        g=tuple((big_r @ np.asarray(ds.config.g)).tolist()),
        h=tuple((big_r @ np.asarray(ds.config.h)).tolist()),
    )
    r_inv = quat_inverse(r)
    q_true = np.array([quat_multiply(q, r_inv) for q in ds.q_true])
    return replace(ds, config=config, q_true=q_true)


unit_quaternions = (
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 0.1)
    .map(lambda v: v / np.linalg.norm(v))
)


class TestFrameInvariance:
    """Rotating the inertial frame, with the body-frame samples kept, is the
    same flight described otherwise; an estimator's errors should not see it."""

    @pytest.fixture(scope="class")
    def flights(self):
        return {
            case: simulate_scenario(ScenarioConfig.for_case(case, seed=1, duration=3.0))
            for case in ("II", "IV")
        }

    @pytest.fixture(scope="class")
    def ekf_runs(self, flights):
        return {case: run_filter(ds, "ekf") for case, ds in flights.items()}

    @pytest.mark.parametrize("case", ["II", "IV"])
    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(r=unit_quaternions)
    def test_ekf_errors_do_not_see_the_frame(self, case, r, flights, ekf_runs):
        rotated = rotated_frame(flights[case], r)
        run = run_filter(rotated, "ekf")
        comps, _ = attitude_errors(run.q_est, rotated.q_true)
        ref_comps, _ = attitude_errors(ekf_runs[case].q_est, flights[case].q_true)
        assert np.max(np.abs(comps - ref_comps)) <= 1e-12
        assert np.max(np.abs(run.b_est - ekf_runs[case].b_est)) <= 1e-12

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the octant schedule's centers are fixed in the inertial frame, "
        "so a yawed frame schedules other gains (ROADMAP direction 1)",
    )
    @pytest.mark.parametrize("case", ["II", "IV"])
    def test_h2_errors_at_a_quarter_turn_of_yaw(self, case, flights, schedule):
        rotated = rotated_frame(flights[case], quat_of_euler(0.0, 0.0, PI / 2))
        config = rotated.config
        turned = synthesize_schedule(default_design_noise(150.0), g=config.g, h=config.h)
        comps, _ = attitude_errors(run_filter(rotated, "h2", schedule=turned).q_est, rotated.q_true)
        run = run_filter(flights[case], "h2", schedule=schedule)
        ref_comps, _ = attitude_errors(run.q_est, flights[case].q_true)
        assert np.max(np.abs(comps - ref_comps)) <= 1e-12


class TestSignInvariance:
    @pytest.mark.parametrize("method", ["h2", "ekf"])
    def test_negated_start_gives_the_same_estimates(self, method, schedule):
        ds = simulate_scenario(ScenarioConfig.for_case("II", seed=1, duration=2.0))
        q0 = triad_attitude(ds.a_m[0], ds.m_m[0], G, H)
        pos = run_filter(ds, method, schedule=schedule, q0=q0)
        neg = run_filter(ds, method, schedule=schedule, q0=-q0)
        assert np.array_equal(pos.q_est[0], q0)
        assert np.array_equal(neg.q_est[0], -q0)
        assert np.array_equal(neg.q_est[1:], pos.q_est[1:])
        assert np.array_equal(neg.b_est, pos.b_est)


class TestLargeAngles:
    """Case II at 30 s: roll and pitch reach about +-110 deg and yaw 165 deg,
    so the attitude crosses quarter turns between the octant centers."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_h2_does_not_lock_on_long_case_two(self, seed, schedule):
        ds = simulate_scenario(ScenarioConfig.for_case("II", seed=seed, duration=30.0))
        res = evaluate_run(ds, run_filter(ds, "h2", schedule=schedule))
        assert res.max_total_deg < 90.0
