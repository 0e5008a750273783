import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_continuous_are

from attiq import synthesis
from attiq.plant import LinearErrorPlant, build_plant, closed_loop
from attiq.quat import dcm_of, quat_of_euler
from attiq.sim import DEFAULT_FIELD, DEFAULT_GRAVITY, NoiseParams
from attiq.synthesis import (
    CENTER_AXIS,
    CENTER_OCTANT,
    CROSS_CHECK_TOL,
    N_OCTANTS,
    OCTANT_TRIPLES,
    GainFileError,
    SynthesisError,
    care_cross_check,
    default_design_noise,
    default_stabilizer,
    gain_symmetry_transform,
    h2_norm,
    load_gains,
    octant_rotation,
    save_gains,
    schedule_from_dict,
    schedule_to_dict,
    solve_h2_care,
    solve_h2_lmi,
    synthesize_schedule,
)

NOISE = NoiseParams(n_w=1e-3, n_b=1e-4, n_a=1e-2, n_m=0.5)

G = np.array(DEFAULT_GRAVITY)
H = np.array(DEFAULT_FIELD)

SCALAR = LinearErrorPlant(a=[[-1.0]], bw=[[1.0]], cy=[[1.0]], dw=[[1.0]], cz=[[1.0]])


def octant_plant(noise, octant, g=G, h=H):
    """The error plant at an octant's center attitude."""
    r = octant_rotation(octant)
    return build_plant(noise, r @ g, r @ h)


def random_plant(seed):
    """A small random Hurwitz plant with an exact H2-optimal estimator."""
    rng = np.random.default_rng(seed)
    n = 3
    a = rng.standard_normal((n, n))
    a -= (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(n)
    bw = np.diag(0.5 + rng.random(n))
    cy = rng.standard_normal((2, n))
    dw = np.diag(0.5 + rng.random(2))
    cz = np.eye(n)
    return LinearErrorPlant(a=a, bw=bw, cy=cy, dw=dw, cz=cz)


class TestOctantRotations:
    def test_count_and_orthogonality(self):
        assert N_OCTANTS == 8
        for i in range(N_OCTANTS):
            r = octant_rotation(i)
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0)

    def test_first_octant_is_identity(self):
        np.testing.assert_allclose(octant_rotation(0), np.eye(3), atol=1e-12)

    def test_centers_are_sign_matrices(self):
        # every center is diag(+-1) with det 1; four distinct, each twice
        seen = {}
        for i in range(N_OCTANTS):
            r = octant_rotation(i)
            signs = tuple(int(round(v)) for v in np.diag(r))
            np.testing.assert_allclose(r, np.diag(signs), atol=1e-12)
            seen.setdefault(signs, []).append(i)
        assert len(seen) == 4
        assert all(len(v) == 2 for v in seen.values())
        # the two octants at one attitude share its +-1 quaternion component,
        # so a twin can take its center's gain
        axes = [{CENTER_AXIS[i] for i in octants} for octants in seen.values()]
        assert all(len(a) == 1 for a in axes)
        assert set.union(*axes) == {0, 1, 2, 3}

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            octant_rotation(8)

    def test_triples_use_only_zero_and_pi(self):
        for triple in OCTANT_TRIPLES:
            for angle in triple:
                assert angle in (0.0, np.pi)


class TestH2Norm:
    def test_scalar_closed_form(self):
        # integrator -1 with unit input and output has H2 norm 1/sqrt(2)
        assert h2_norm([[-1.0]], [[1.0]], [[1.0]]) == pytest.approx(
            1.0 / np.sqrt(2.0), abs=1e-9
        )

    def test_diagonal_closed_form(self):
        val = h2_norm(-2.0 * np.eye(2), np.eye(2), np.eye(2))
        assert val == pytest.approx(np.sqrt(0.5), abs=1e-9)

    def test_rejects_unstable(self):
        with pytest.raises(SynthesisError, match="Hurwitz"):
            h2_norm([[1.0]], [[1.0]], [[1.0]])


class TestCareLevel:
    @pytest.mark.parametrize(
        "plant",
        [SCALAR, *(octant_plant(default_design_noise(150.0), k) for k in range(N_OCTANTS))],
        ids=["scalar", *(f"octant{k}" for k in range(N_OCTANTS))],
    )
    def test_level_is_the_h2_norm_of_its_closed_loop(self, plant):
        # sqrt(trace(cz P cz^T)) from the Riccati P, against a Lyapunov solve
        l, gamma, _ = solve_h2_care(plant)
        assert gamma == pytest.approx(h2_norm(*closed_loop(plant, l), plant.cz), rel=1e-12)


class TestScalarClosedForms:
    def test_care_route(self):
        l, gamma, p = solve_h2_care(SCALAR)
        root2 = np.sqrt(2.0)
        assert p[0, 0] == pytest.approx(root2 - 1.0, abs=1e-9)
        assert l[0, 0] == pytest.approx(-(root2 - 1.0), abs=1e-9)
        assert gamma**2 == pytest.approx(root2 - 1.0, abs=1e-9)

    def test_lmi_route(self):
        l, gamma, _ = solve_h2_lmi(SCALAR)
        root2 = np.sqrt(2.0)
        assert l[0, 0] == pytest.approx(-(root2 - 1.0), abs=1e-6)
        assert gamma**2 == pytest.approx(root2 - 1.0, abs=1e-6)


class TestCareAgainstScipy:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_riccati_solution_matches(self, seed):
        plant = random_plant(seed)
        l, _, p = solve_h2_care(plant)
        a, bw, cy, dw = plant.a, plant.bw, plant.cy, plant.dw
        p_ref = solve_continuous_are(a.T, cy.T, bw @ bw.T, dw @ dw.T)
        np.testing.assert_allclose(p, p_ref, rtol=1e-8, atol=1e-12)
        # P solves the filter Riccati equation and L stabilizes the estimator
        rinv = np.linalg.inv(dw @ dw.T)
        resid = a @ p + p @ a.T - p @ cy.T @ rinv @ cy @ p + bw @ bw.T
        assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(p)
        assert np.linalg.eigvals(a + l @ cy).real.max() < 0.0

    def test_unstabilizing_solution_raises_synthesis_error(self, monkeypatch):
        # P = 0 gives L = 0, and the attitude plant's a has six zero eigenvalues
        monkeypatch.setattr(
            scipy.linalg, "solve_continuous_are", lambda a, b, q, r: np.zeros_like(q)
        )
        with pytest.raises(SynthesisError, match="stabilize"):
            solve_h2_care(build_plant(NOISE))

    def test_undetectable_plant_raises_synthesis_error(self):
        # the unstable mode is invisible to the measurement
        plant = LinearErrorPlant(
            a=[[1.0, 0.0], [0.0, -1.0]], bw=np.eye(2), cy=[[0.0, 1.0]], dw=[[1.0]], cz=np.eye(2)
        )
        with pytest.raises(SynthesisError, match="detectable"):
            solve_h2_care(plant)


class TestRouteAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_plants(self, seed):
        plant = random_plant(seed)
        l_lmi, gamma_lmi, _ = solve_h2_lmi(plant)
        l_care, gamma_care, _ = solve_h2_care(plant)
        assert np.linalg.norm(l_lmi - l_care) / np.linalg.norm(l_care) < 1e-5
        assert gamma_lmi == pytest.approx(gamma_care, rel=1e-6)

    def test_attitude_plant(self):
        plant = build_plant(NOISE)
        l_lmi, gamma_lmi, _ = solve_h2_lmi(plant)
        l_care, gamma_care, _ = solve_h2_care(plant)
        assert np.linalg.norm(l_lmi - l_care) / np.linalg.norm(l_care) < 1e-4
        assert gamma_lmi == pytest.approx(gamma_care, rel=1e-5)

    def test_random_design_the_damped_step_stalled_on(self):
        # draw 20 of the 40 random designs below; a log-barrier solver whose
        # Newton step was damped to 1 / (1 + lambda) stalled on it at gap 1.4e-8
        noise = NoiseParams(
            n_w=1.7619101205280516,
            n_b=2.441977537283041,
            n_a=0.0011258280564161284,
            n_m=1.0537566196510713,
        )
        plant = build_plant(noise)
        l_lmi, gamma_lmi, _ = solve_h2_lmi(plant)
        mismatch, gamma_rel, attained_rel, abscissa = care_cross_check(plant, l_lmi, gamma_lmi)
        assert mismatch <= CROSS_CHECK_TOL
        assert gamma_rel <= CROSS_CHECK_TOL
        assert attained_rel <= CROSS_CHECK_TOL
        assert abscissa < 0.0

    def test_lmi_bound_is_achieved(self):
        plant = build_plant(NOISE)
        l, gamma, _ = solve_h2_lmi(plant)
        acl, bcl = closed_loop(plant, l)
        assert h2_norm(acl, bcl, plant.cz) == pytest.approx(gamma, rel=1e-5)


class TestCrossCheck:
    def test_unstabilizing_gain_is_an_infinite_mismatch(self):
        plant = build_plant(NOISE)
        _, gamma, _ = solve_h2_care(plant)
        _, _, attained_rel, abscissa = care_cross_check(plant, np.zeros((6, 6)), gamma)
        assert abscissa >= 0.0
        assert attained_rel == np.inf


class TestDefaultStabilizer:
    def test_zero_for_hurwitz(self):
        np.testing.assert_array_equal(default_stabilizer(SCALAR), np.zeros((1, 1)))

    def test_stabilizes_attitude_plant(self):
        for octant in range(N_OCTANTS):
            plant = octant_plant(NOISE, octant)
            l0 = default_stabilizer(plant)
            acl, _ = closed_loop(plant, l0)
            assert np.linalg.eigvals(acl).real.max() < 0.0

    def test_raises_without_structure(self):
        # unstable plant without the attitude block layout
        plant = LinearErrorPlant(
            a=[[1.0]], bw=[[1.0]], cy=[[1.0]], dw=[[1.0]], cz=[[1.0]]
        )
        with pytest.raises(SynthesisError):
            default_stabilizer(plant)


@pytest.fixture(scope="module")
def schedule():
    return synthesize_schedule(NOISE)


class TestSchedule:
    def test_shapes(self, schedule):
        assert schedule.gains.shape == (8, 6, 6)
        assert schedule.gammas.shape == (8,)
        assert np.all(schedule.gammas > 0.0)

    def test_gammas_equal_across_octants(self, schedule):
        # octant centers are orthogonal transforms of each other and the
        # error weight is the identity, so the optimal cost is shared
        np.testing.assert_allclose(schedule.gammas, schedule.gammas[0], rtol=1e-6)

    def test_gains_related_by_symmetry(self, schedule):
        l0 = schedule.gains[0]
        for octant in range(N_OCTANTS):
            r = octant_rotation(octant)
            np.testing.assert_allclose(
                schedule.gains[octant],
                gain_symmetry_transform(l0, r),
                atol=1e-6 * np.linalg.norm(l0),
            )

    def test_every_closed_loop_is_hurwitz(self, schedule):
        for octant in range(N_OCTANTS):
            plant = octant_plant(NOISE, octant)
            acl, _ = closed_loop(plant, schedule.gains[octant])
            assert np.linalg.eigvals(acl).real.max() < 0.0

    def test_more_measurement_noise_costs_more(self, schedule):
        noisier = NoiseParams(n_w=1e-3, n_b=1e-4, n_a=5e-2, n_m=2.5)
        plant = build_plant(noisier)
        _, gamma_noisy, _ = solve_h2_care(plant)
        assert gamma_noisy > schedule.gammas[0]


class TestLmiCertificate:
    def test_default_design_certificate(self):
        schedule = synthesize_schedule(default_design_noise(150.0))
        # solve_sdp's gap target, with trace Q = gamma^2 as the objective
        assert 0.0 < schedule.lmi_gap <= 1e-9 * max(1.0, schedule.gammas[0] ** 2)
        # 19 predictor-corrector iterations of two Schur solves each here
        assert 1 <= schedule.lmi_outer_iterations <= 25
        assert schedule.lmi_newton_iterations == 2 * schedule.lmi_outer_iterations


def forty_random_designs():
    """40 designs: intensities log-uniform in [1e-3, 10^0.5], random octant."""
    rng = np.random.default_rng(0)
    designs = []
    for _ in range(40):
        n_w, n_b, n_a, n_m = 10 ** rng.uniform(-3, 0.5, 4)
        designs.append((NoiseParams(n_w=n_w, n_b=n_b, n_a=n_a, n_m=n_m), int(rng.integers(8))))
    return designs


class TestRandomDesigns:
    def test_all_forty_pass_the_cross_check(self):
        # the log-barrier solver this replaced stalled on 11 of these,
        # e.g. draw 11 (octant 6) at gap 1.9e-4
        refused = []
        for k, (noise, octant) in enumerate(forty_random_designs()):
            plant = octant_plant(noise, octant)
            try:
                l, gamma, _ = solve_h2_lmi(plant)
            except SynthesisError as exc:
                refused.append((k, str(exc)))
                continue
            mismatch, gamma_rel, attained_rel, abscissa = care_cross_check(plant, l, gamma)
            if max(mismatch, gamma_rel, attained_rel) > CROSS_CHECK_TOL or abscissa >= 0.0:
                refused.append((k, mismatch, gamma_rel, attained_rel, abscissa))
        assert refused == []


THREADS_SCRIPT = """
import sys

from attiq.synthesis import default_design_noise, synthesize_schedule

schedule = synthesize_schedule(default_design_noise(150.0))
sys.stdout.write(schedule.gains.tobytes().hex() + " " + schedule.gammas.tobytes().hex())
"""


class TestBlasThreading:
    def test_gains_do_not_depend_on_openblas_threads(self):
        src = str(Path(synthesis.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", None):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
                env.pop(name, None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run(
                [sys.executable, "-c", THREADS_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestScheduleCrossCheck:
    def test_one_lmi_solve_and_a_riccati_solve_per_attitude(self, monkeypatch):
        calls = {"lmi": [], "care": []}

        def counted(name, fn):
            def wrapper(plant):
                calls[name].append(plant)
                return fn(plant)

            return wrapper

        monkeypatch.setattr(synthesis, "solve_h2_lmi", counted("lmi", solve_h2_lmi))
        monkeypatch.setattr(synthesis, "solve_h2_care", counted("care", solve_h2_care))
        noise = default_design_noise(150.0)
        synthesize_schedule(noise)
        # one solve of each route, both on the identity attitude's plant
        assert len(calls["lmi"]) == 1
        assert len(calls["care"]) == 1
        identity = build_plant(noise).cy
        np.testing.assert_array_equal(calls["lmi"][0].cy, identity)
        np.testing.assert_array_equal(calls["care"][0].cy, identity)

    def test_twins_share_their_center_verdict(self):
        schedule = synthesize_schedule(default_design_noise(150.0))
        assert isinstance(schedule.care_mismatch, float)
        assert schedule.care_mismatch <= CROSS_CHECK_TOL
        for octant, axis in enumerate(CENTER_AXIS):
            center = CENTER_OCTANT[axis]
            np.testing.assert_array_equal(schedule.gains[octant], schedule.gains[center])

    @pytest.mark.parametrize(
        "corrupt, message",
        [("gain", "gains disagree"), ("gamma", "performance levels disagree")],
    )
    def test_disagreeing_routes_are_refused(self, monkeypatch, corrupt, message):
        # the LMI gain rotated by 1 degree about x, or its level 1% high
        tilt = dcm_of(quat_of_euler(np.radians(1.0), 0.0, 0.0))

        def corrupted(plant):
            l, gamma, result = solve_h2_lmi(plant)
            if corrupt == "gain":
                return gain_symmetry_transform(l, tilt), gamma, result
            return l, 1.01 * gamma, result

        monkeypatch.setattr(synthesis, "solve_h2_lmi", corrupted)
        with pytest.raises(SynthesisError, match=f"^LMI and Riccati {message}"):
            synthesize_schedule(default_design_noise(150.0))


@st.composite
def designs(draw):
    """Noise intensities log-uniform in [1e-3, 10^0.5] and non-parallel g, h."""
    n_w, n_b, n_a, n_m = (10.0 ** draw(st.floats(-3.0, 0.5)) for _ in range(4))
    component = st.floats(-50.0, 50.0)
    g = np.array([draw(component) for _ in range(3)])
    h = np.array([draw(component) for _ in range(3)])
    assume(np.linalg.norm(g) > 1.0 and np.linalg.norm(h) > 1.0)
    assume(np.linalg.norm(np.cross(g, h)) > 0.1 * np.linalg.norm(g) * np.linalg.norm(h))
    return NoiseParams(n_w=n_w, n_b=n_b, n_a=n_a, n_m=n_m), g, h


design_settings = settings(max_examples=20, derandomize=True, database=None, deadline=None)


class TestScheduleSymmetry:
    """The symmetry map synthesize_schedule rotates its one gain with."""

    @design_settings
    @given(designs())
    def test_riccati_gains_are_the_rotated_identity_gain(self, design):
        # exact in exact arithmetic; the Riccati solves' own rounding leaves
        # 3.4e-15 at the default design and up to 2e-10 at ill-conditioned ones
        noise, g, h = design
        l_identity, _, _ = solve_h2_care(build_plant(noise, g, h))
        for octant in range(N_OCTANTS):
            l_octant, _, _ = solve_h2_care(octant_plant(noise, octant, g, h))
            rotated = gain_symmetry_transform(l_identity, octant_rotation(octant))
            assert np.linalg.norm(l_octant - rotated) <= 1e-9 * np.linalg.norm(l_octant)

    @design_settings
    @given(designs())
    def test_every_gain_passes_its_octants_cross_check(self, design):
        noise, g, h = design
        schedule = synthesize_schedule(noise, g, h)
        for octant in range(N_OCTANTS):
            plant = octant_plant(noise, octant, g, h)
            gain, gamma = schedule.gains[octant], schedule.gammas[octant]
            mismatch, gamma_rel, attained_rel, abscissa = care_cross_check(plant, gain, gamma)
            assert max(mismatch, gamma_rel, attained_rel) <= CROSS_CHECK_TOL
            assert abscissa < 0.0


class TestGainFile:
    def test_round_trip(self, schedule, tmp_path):
        path = save_gains(schedule, tmp_path / "gains.json")
        loaded = load_gains(path)
        assert loaded.care_mismatch is None
        assert loaded.lmi_newton_iterations is None
        np.testing.assert_array_equal(loaded.gains, schedule.gains)
        np.testing.assert_array_equal(loaded.gammas, schedule.gammas)
        assert loaded.noise == schedule.noise
        assert loaded.g == schedule.g
        assert loaded.h == schedule.h

    def test_rewrite_is_byte_identical(self, schedule, tmp_path):
        p1 = save_gains(schedule, tmp_path / "a.json")
        p2 = save_gains(load_gains(p1), tmp_path / "b.json")
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_wrong_version(self, schedule):
        data = schedule_to_dict(schedule)
        data["format_version"] = 99
        with pytest.raises(GainFileError, match="format_version"):
            schedule_from_dict(data)

    def test_rejects_missing_keys(self, schedule):
        data = schedule_to_dict(schedule)
        del data["gammas"]
        with pytest.raises(GainFileError, match="gammas"):
            schedule_from_dict(data)

    def test_rejects_bad_shape(self, schedule):
        data = schedule_to_dict(schedule)
        data["gains"] = data["gains"][:4]
        with pytest.raises(GainFileError, match="shape"):
            schedule_from_dict(data)

    def test_rejects_non_finite(self, schedule):
        data = schedule_to_dict(schedule)
        data["gains"][0][0][0] = float("nan")
        with pytest.raises(GainFileError, match="finite"):
            schedule_from_dict(data)

    def test_format_error_names_file(self, schedule, tmp_path):
        data = schedule_to_dict(schedule)
        data["noise"]["n_q"] = 0.1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(GainFileError, match=f"^{re.escape(str(path))}: unknown noise keys: n_q"):
            load_gains(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(GainFileError, match="JSON"):
            load_gains(path)
