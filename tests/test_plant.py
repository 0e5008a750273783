import numpy as np
import pytest

from attiq.plant import (
    N_OCTANTS,
    OCTANT_TRIPLES,
    LinearErrorPlant,
    build_plant,
    closed_loop,
    is_detectable,
    octant_rotation,
)
from attiq.quat import skew
from attiq.sim import NoiseParams

NOISE = NoiseParams(n_w=1e-3, n_b=1e-4, n_a=1e-2, n_m=0.5)


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

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            octant_rotation(8)

    def test_triples_use_only_zero_and_pi(self):
        for triple in OCTANT_TRIPLES:
            for angle in triple:
                assert angle in (0.0, np.pi)


class TestBuildPlant:
    def test_dynamics_layout(self):
        p = build_plant(NOISE, 0)
        expected_a = np.zeros((6, 6))
        expected_a[:3, 3:] = -np.eye(3)
        np.testing.assert_array_equal(p.a, expected_a)
        np.testing.assert_allclose(p.bw[:3, :3], -1e-3 * np.eye(3))
        np.testing.assert_allclose(p.bw[3:, 3:], 1e-4 * np.eye(3))
        np.testing.assert_allclose(p.dw[:3, :3], 1e-2 * np.eye(3))
        np.testing.assert_allclose(p.dw[3:, 3:], 0.5 * np.eye(3))
        np.testing.assert_array_equal(p.cz, np.eye(6))

    def test_output_map_uses_rotated_references(self):
        g = (0.0, 0.0, 9.81)
        h = (22.5, 1.5, 42.0)
        for octant in range(N_OCTANTS):
            p = build_plant(NOISE, octant, g, h)
            r = octant_rotation(octant)
            np.testing.assert_allclose(p.cy[:3, :3], skew(r @ g), atol=1e-12)
            np.testing.assert_allclose(p.cy[3:, :3], skew(r @ h), atol=1e-12)
            np.testing.assert_array_equal(p.cy[:, 3:], np.zeros((6, 3)))

    def test_rejects_parallel_references(self):
        with pytest.raises(ValueError, match="parallel"):
            build_plant(NOISE, 0, g=(0.0, 0.0, 9.81), h=(0.0, 0.0, 50.0))

    def test_rejects_zero_noise(self):
        bad = NoiseParams(n_w=0.0, n_b=1e-4, n_a=1e-2, n_m=0.5)
        with pytest.raises(ValueError, match="n_w"):
            build_plant(bad, 0)

    def test_detectable_for_default_references(self):
        p = build_plant(NOISE, 0)
        assert is_detectable(p.a, p.cy)


class TestDetectability:
    def test_flags_unobservable_integrator(self):
        a = np.zeros((2, 2))
        c = np.array([[1.0, 0.0]])
        assert not is_detectable(a, c)

    def test_stable_hidden_mode_is_fine(self):
        a = np.diag([-1.0, -2.0])
        c = np.array([[1.0, 0.0]])
        assert is_detectable(a, c)

    def test_one_pbh_test_per_distinct_eigenvalue(self, monkeypatch):
        # the attitude plant's six eigenvalues are all 0
        p = build_plant(NOISE, 0)
        svd = np.linalg.svd
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert is_detectable(p.a, p.cy)
        assert len(calls) == 1

    def test_full_observation(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        assert is_detectable(a, np.eye(3))


class TestClosedLoop:
    def test_shapes_and_content(self):
        p = build_plant(NOISE, 0)
        l = np.full((6, 6), 0.5)
        acl, bcl = closed_loop(p, l)
        np.testing.assert_allclose(acl, p.a + l @ p.cy)
        assert bcl.shape == (6, 12)
        np.testing.assert_allclose(bcl[:, :6], p.bw)
        np.testing.assert_allclose(bcl[:, 6:], l @ p.dw)


class TestValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LinearErrorPlant(
                a=np.zeros((2, 3)),
                bw=np.zeros((2, 2)),
                cy=np.zeros((1, 2)),
                dw=np.zeros((1, 1)),
                cz=np.eye(2),
            )

    def test_scalar_plant_promotes_dims(self):
        p = LinearErrorPlant(a=[[-1.0]], bw=[[1.0]], cy=[[1.0]], dw=[[1.0]], cz=[[1.0]])
        assert p.n_states == 1
