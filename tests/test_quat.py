import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from attiq.quat import (
    axis_quat,
    body_rates_from_euler,
    dcm_of,
    integrate_sequence,
    integrate_step,
    normalize,
    quat_multiply,
    quat_of_dcm,
    quat_of_euler,
    renormalize,
    small_angle_quat,
    skew,
)
from quat_reference import angular_distance, euler_of_quat, quat_inverse


def random_quats(n, seed):
    rng = np.random.default_rng(seed)
    return [normalize(q) for q in rng.standard_normal((n, 4))]


def rodrigues(axis, angle):
    """Active rotation matrix about a unit axis (test-local oracle)."""
    axis = np.asarray(axis, dtype=float)
    k = skew(axis)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def quat_derivative(q, w, h=1e-6):
    """Central difference of the integrate_step flow at dt = 0: the rate of
    change of the attitude integrate_step propagates, q_dot."""
    q = np.asarray(q, dtype=float)
    ahead, behind = integrate_step(q, w, h), integrate_step(q, w, -h)
    # integrate_step canonicalizes q4 >= 0; undo a flip across q4 = 0
    ahead = ahead if np.dot(ahead, q) > 0 else -ahead
    behind = behind if np.dot(behind, q) > 0 else -behind
    return (ahead - behind) / (2.0 * h)


def product_form_derivative(q, w):
    """q_dot = 0.5 * (w, 0) (x) q, expanded by hand as an independent path."""
    v = q[3] * w - np.cross(w, q[:3])
    s = -np.dot(w, q[:3])
    return 0.5 * np.concatenate([v, [s]])


class TestQuatDerivative:
    # integrate_step is the exact flow of q_dot = 0.5 * Omega(w) q; its
    # derivative at dt = 0 pins the kinematics independently of the
    # closed-form exponential
    def test_identity_roll_rate(self):
        qd = quat_derivative(np.array([0.0, 0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(qd, [0.5, 0.0, 0.0, 0.0], atol=1e-9)

    def test_matches_product_form(self):
        rng = np.random.default_rng(3)
        for q in random_quats(50, 4):
            w = rng.standard_normal(3)
            np.testing.assert_allclose(
                quat_derivative(q, w), product_form_derivative(q, w), atol=1e-9
            )

    def test_norm_preserving(self):
        rng = np.random.default_rng(5)
        for q in random_quats(100, 6):
            w = rng.standard_normal(3)
            assert abs(np.dot(q, quat_derivative(q, w))) < 1e-9


class TestQuatMultiply:
    def test_ninety_deg_x_then_y(self):
        qa = np.array([np.sin(np.pi / 4), 0.0, 0.0, np.cos(np.pi / 4)])
        qb = np.array([0.0, np.sin(np.pi / 4), 0.0, np.cos(np.pi / 4)])
        np.testing.assert_allclose(
            dcm_of(quat_multiply(qa, qb)), dcm_of(qa) @ dcm_of(qb), atol=1e-14
        )

    def test_homomorphism_random(self):
        for a, b in zip(random_quats(300, 7), random_quats(300, 8)):
            np.testing.assert_allclose(
                dcm_of(quat_multiply(a, b)), dcm_of(a) @ dcm_of(b), atol=1e-12
            )

    def test_matches_scipy_composition(self):
        # frame-transform composition corresponds to reversed rotation order
        for a, b in zip(random_quats(100, 9), random_quats(100, 10)):
            ab = quat_multiply(a, b)
            ref = (Rotation.from_quat(b) * Rotation.from_quat(a)).as_quat()
            sign = np.sign(np.dot(ab, ref))
            np.testing.assert_allclose(ab, sign * ref, atol=1e-12)

    def test_identity_element(self):
        e = np.array([0.0, 0.0, 0.0, 1.0])
        for q in random_quats(20, 11):
            np.testing.assert_allclose(quat_multiply(q, e), q, atol=1e-15)
            np.testing.assert_allclose(quat_multiply(e, q), q, atol=1e-15)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            quat_multiply(np.array([1.0, 1.0, 0.0, 0.0]), np.array([0, 0, 0, 1.0]))

    def test_rejects_nan(self):
        nan_q = np.array([np.nan, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="unit norm"):
            quat_multiply(nan_q, np.array([0, 0, 0, 1.0]))
        with pytest.raises(ValueError, match="unit norm"):
            quat_multiply(np.array([0, 0, 0, 1.0]), nan_q)


class TestQuatInverse:
    def test_inverse_composes_to_identity(self):
        for q in random_quats(100, 12):
            qi = quat_multiply(q, quat_inverse(q))
            np.testing.assert_allclose(np.abs(qi), [0, 0, 0, 1.0], atol=1e-13)

    def test_dcm_transpose(self):
        for q in random_quats(50, 13):
            np.testing.assert_allclose(
                dcm_of(quat_inverse(q)), dcm_of(q).T, atol=1e-13
            )


class TestDcm:
    def test_yaw_ninety(self):
        q = axis_quat(2, np.pi / 2)
        # frame transform of a +90 deg yaw: inertial x maps to body -y
        expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(dcm_of(q), expected, atol=1e-15)

    def test_frame_transform_is_transpose_of_rotation(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(-np.pi, np.pi)
            q = np.concatenate([np.sin(angle / 2) * axis, [np.cos(angle / 2)]])
            np.testing.assert_allclose(
                dcm_of(q), rodrigues(axis, angle).T, atol=1e-13
            )

    def test_matches_scipy(self):
        for q in random_quats(100, 15):
            np.testing.assert_allclose(
                dcm_of(q), Rotation.from_quat(q).as_matrix().T, atol=1e-13
            )

    def test_orthogonality_residual(self):
        for q in random_quats(300, 16):
            c = dcm_of(q)
            assert np.linalg.norm(c.T @ c - np.eye(3)) < 1e-12
            assert abs(np.linalg.det(c) - 1.0) < 1e-12

    def test_stack_equals_rows_bit_for_bit(self):
        q = np.array(random_quats(200, 17)).reshape(2, 100, 4)
        c = dcm_of(q)
        assert c.shape == (2, 100, 3, 3)
        for i, j in np.ndindex(2, 100):
            assert np.array_equal(c[i, j], dcm_of(q[i, j]))

    def test_stack_rejects_non_unit_row(self):
        q = np.array(random_quats(5, 18))
        q[3] *= 1.1
        with pytest.raises(ValueError, match="unit norm"):
            dcm_of(q)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="unit norm"):
            dcm_of(np.array([np.nan, 0.0, 0.0, 1.0]))

    def test_stack_rejects_nan_row(self):
        q = np.array(random_quats(5, 19))
        q[2, 0] = np.nan
        with pytest.raises(ValueError, match="unit norm"):
            dcm_of(q)


class TestSmallAngleQuat:
    def test_example(self):
        np.testing.assert_allclose(
            small_angle_quat(np.array([0.02, 0.0, 0.0])), [0.01, 0.0, 0.0, 1.0]
        )

    def test_recovered_angle(self):
        dtheta = np.array([0.01, 0.0, 0.0])
        q = renormalize(small_angle_quat(dtheta))
        angle = 2.0 * np.arctan2(np.linalg.norm(q[:3]), q[3])
        assert abs(angle - 0.01) < 1e-6

    def test_flags_large_input(self):
        with pytest.warns(UserWarning):
            small_angle_quat(np.array([1.5, 0.0, 0.0]))


class TestRenormalize:
    def test_inside_unit_ball(self):
        np.testing.assert_allclose(
            renormalize(np.array([0.6, 0.0, 0.0, 0.0])), [0.6, 0.0, 0.0, 0.8]
        )

    def test_outside_unit_ball(self):
        expected = np.array([2.0, 0.0, 0.0, 1.0]) / np.sqrt(5.0)
        np.testing.assert_allclose(renormalize(np.array([2.0, 0.0, 0.0, 0.0])), expected)

    def test_unit_norm_for_any_finite_input(self):
        rng = np.random.default_rng(17)
        for scale in (1e-8, 0.5, 1.0, 10.0, 1e8):
            for _ in range(60):
                dq = scale * rng.standard_normal(3)
                q = renormalize(np.concatenate([dq, [0.0]]))
                assert abs(np.linalg.norm(q) - 1.0) < 1e-12


class TestIntegrateStep:
    def test_half_turn_roll(self):
        q = integrate_step(np.array([0.0, 0.0, 0.0, 1.0]), np.array([np.pi, 0, 0]), 1.0)
        np.testing.assert_allclose(np.abs(q), [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_two_half_steps_equal_full_step(self):
        rng = np.random.default_rng(18)
        for q in random_quats(100, 19):
            w = rng.standard_normal(3)
            full = integrate_step(q, w, 0.02)
            half = integrate_step(integrate_step(q, w, 0.01), w, 0.01)
            assert np.linalg.norm(full - half) < 1e-12

    def test_zero_rate_fixed_point(self):
        for q in random_quats(20, 20):
            np.testing.assert_allclose(
                integrate_step(q, np.zeros(3), 0.1), q, atol=1e-15
            )

    def test_matches_axis_angle_closed_form(self):
        rng = np.random.default_rng(21)
        e = np.array([0.0, 0.0, 0.0, 1.0])
        for _ in range(200):
            w = rng.standard_normal(3)
            dt = rng.uniform(0.001, 0.5)
            angle = np.linalg.norm(w) * dt
            axis = w / np.linalg.norm(w)
            expected = np.concatenate(
                [np.sin(angle / 2) * axis, [np.cos(angle / 2)]]
            )
            if expected[3] < 0:
                expected = -expected
            np.testing.assert_allclose(integrate_step(e, w, dt), expected, atol=1e-13)

    def test_operation_order_is_fixed(self):
        # reference: the exponential one rounded operation at a time on numpy
        # scalars, in the order simulated datasets were first written with
        rng = np.random.default_rng(23)
        for q, scale in zip(random_quats(200, 24), np.logspace(-14, 2, 200)):
            w = scale * rng.standard_normal(3)
            w1, w2, w3 = w
            q1, q2, q3, q4 = q
            wn = math.sqrt(w1 * w1 + w2 * w2 + w3 * w3)
            if wn < 1e-12:
                c, k = 1.0, 0.5 * 0.01
            else:
                c, k = math.cos(0.5 * wn * 0.01), math.sin(0.5 * wn * 0.01) / wn
            expected = normalize(
                np.array(
                    [
                        c * q1 + k * (w3 * q2 - w2 * q3 + w1 * q4),
                        c * q2 + k * (-w3 * q1 + w1 * q3 + w2 * q4),
                        c * q3 + k * (w2 * q1 - w1 * q2 + w3 * q4),
                        c * q4 + k * (-w1 * q1 - w2 * q2 - w3 * q3),
                    ]
                )
            )
            assert np.array_equal(integrate_step(q, w, 0.01), expected)

    def test_angle_accumulates_linearly(self):
        w = np.array([0.3, -0.2, 0.5])
        q = np.array([0.0, 0.0, 0.0, 1.0])
        for k in range(1, 51):
            q = integrate_step(q, w, 0.01)
            expected = np.linalg.norm(w) * 0.01 * k
            assert abs(angular_distance(q, np.array([0, 0, 0, 1.0])) - expected) < 1e-9


class TestIntegrateSequence:
    @staticmethod
    def step_recursion(q0, w, dt):
        q = [np.asarray(q0, dtype=float)]
        for w_k in w:
            q.append(integrate_step(q[-1], w_k, dt))
        return np.array(q)

    def test_equals_step_recursion_bit_for_bit(self):
        # rates from 1e-14 to 1e2 rad/s in random directions, with exact zero
        # rows and rates under 1e-12 taking the series branch
        rng = np.random.default_rng(28)
        scales = np.logspace(-14, 2, 400)
        w = scales[:, None] * rng.standard_normal((400, 3))
        w[::9] = 0.0
        for q0 in random_quats(5, 29):
            for dt in (1.0 / 150.0, 0.05):
                q = integrate_sequence(q0, w, dt)
                assert q.shape == (401, 4)
                assert np.array_equal(q[0], q0)
                assert np.array_equal(q, self.step_recursion(q0, w, dt))

    def test_sign_flip_steps(self):
        # a roll through 180 deg drives q4 below zero; each such step comes
        # back canonicalized, anti-aligned with the attitude it started from
        q0 = axis_quat(0, np.pi - 0.02)
        w = np.tile([1.0, 0.0, 0.0], (50, 1))
        w[25:] = [-3.0, 0.5, 0.0]
        q = integrate_sequence(q0, w, 0.01)
        flips = np.sum(q[:-1] * q[1:], axis=1) < 0.0
        assert flips.any()
        assert np.all(q[:, 3] >= 0.0)
        assert np.array_equal(q, self.step_recursion(q0, w, 0.01))

    def test_no_rates_gives_q0(self):
        q0 = random_quats(1, 30)[0]
        q = integrate_sequence(q0, np.zeros((0, 3)), 0.01)
        assert q.shape == (1, 4) and np.array_equal(q[0], q0)

    def test_rejects_non_unit_q0(self):
        with pytest.raises(ValueError, match="unit norm"):
            integrate_sequence(np.array([0.0, 0.0, 0.1, 1.0]), np.zeros((3, 3)), 0.01)

    def test_rejects_nan_rate_row(self):
        w = np.zeros((5, 3))
        w[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            integrate_sequence(np.array([0.0, 0.0, 0.0, 1.0]), w, 0.01)
        with pytest.raises(ValueError, match="non-finite"):
            integrate_step(np.array([0.0, 0.0, 0.0, 1.0]), w[3], 0.01)


class TestAngularDistance:
    def test_sign_invariance(self):
        for q in random_quats(100, 22):
            assert angular_distance(q, -q) < 1e-7
            assert angular_distance(q, q) < 1e-7

    def test_quarter_turn(self):
        assert abs(angular_distance(axis_quat(2, np.pi / 2), np.array([0, 0, 0, 1.0])) - np.pi / 2) < 1e-12


class TestEuler:
    def test_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            ang = np.array(
                [
                    rng.uniform(-np.pi, np.pi),
                    rng.uniform(-np.pi / 2 + 0.05, np.pi / 2 - 0.05),
                    rng.uniform(-np.pi, np.pi),
                ]
            )
            back = euler_of_quat(quat_of_euler(*ang))
            np.testing.assert_allclose(back, ang, atol=1e-9)

    def test_matches_scipy(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            roll = rng.uniform(-np.pi, np.pi)
            pitch = rng.uniform(-1.4, 1.4)
            yaw = rng.uniform(-np.pi, np.pi)
            r = Rotation.from_euler("ZYX", [yaw, pitch, roll])
            np.testing.assert_allclose(
                dcm_of(quat_of_euler(roll, pitch, yaw)), r.as_matrix().T, atol=1e-12
            )

    def test_pure_axes(self):
        np.testing.assert_allclose(
            euler_of_quat(axis_quat(0, 0.3)), [0.3, 0.0, 0.0], atol=1e-12
        )
        np.testing.assert_allclose(
            euler_of_quat(axis_quat(1, -0.4)), [0.0, -0.4, 0.0], atol=1e-12
        )
        np.testing.assert_allclose(
            euler_of_quat(axis_quat(2, 2.0)), [0.0, 0.0, 2.0], atol=1e-12
        )


class TestQuatOfDcm:
    def test_round_trip_covers_all_branches(self):
        # near-180 deg rotations about each axis exercise each Shepperd branch
        cases = [axis_quat(i, np.pi - 1e-3) for i in range(3)]
        cases += [axis_quat(i, 1e-3) for i in range(3)]
        cases += random_quats(200, 25)
        for q in cases:
            q2 = quat_of_dcm(dcm_of(q))
            assert angular_distance(q, q2) < 1e-7


class TestBodyRates:
    def test_consistent_with_quaternion_derivative(self):
        # smooth Euler path: central difference of q(t) must match the
        # kinematic equation at the analytic body rate
        def angles(t):
            return np.array(
                [0.3 * np.sin(t), 0.2 * np.sin(2 * t + 0.3), 0.5 * np.sin(0.7 * t)]
            )

        def rates(t):
            return np.array(
                [0.3 * np.cos(t), 0.4 * np.cos(2 * t + 0.3), 0.35 * np.cos(0.7 * t)]
            )

        eps = 1e-6
        for t in np.linspace(0.0, 6.0, 25):
            q = quat_of_euler(*angles(t))
            qp = quat_of_euler(*angles(t + eps))
            qm = quat_of_euler(*angles(t - eps))
            if np.dot(qp, q) < 0:
                qp = -qp
            if np.dot(qm, q) < 0:
                qm = -qm
            qdot_num = (qp - qm) / (2 * eps)
            w = body_rates_from_euler(angles(t), rates(t))
            np.testing.assert_allclose(product_form_derivative(q, w), qdot_num, atol=1e-7)


    def test_stack_equals_rows_bit_for_bit(self):
        rng = np.random.default_rng(27)
        angles = rng.uniform(-np.pi, np.pi, (3, 50, 3))
        rates = rng.standard_normal((3, 50, 3))
        w = body_rates_from_euler(angles, rates)
        assert w.shape == (3, 50, 3)
        for i, j in np.ndindex(3, 50):
            assert np.array_equal(w[i, j], body_rates_from_euler(angles[i, j], rates[i, j]))


class TestNormalize:
    def test_canonical_sign(self):
        rng = np.random.default_rng(26)
        for raw in rng.standard_normal((100, 4)):
            q = normalize(raw)
            assert q[3] >= 0.0
            assert abs(np.linalg.norm(q) - 1.0) < 1e-14

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            normalize(np.zeros(4))

    def test_norm_sum_order_is_fixed(self):
        # reference: |q|^2 summed left to right, one rounded numpy-scalar
        # operation at a time; dataset bytes rest on this order, which the
        # BLAS dot product does not keep
        for raw in np.random.default_rng(5).standard_normal((20000, 4)):
            nn = raw[0] * raw[0] + raw[1] * raw[1] + raw[2] * raw[2] + raw[3] * raw[3]
            expected = raw / math.sqrt(nn)
            if expected[3] < 0.0:
                expected = -expected
            assert np.array_equal(normalize(raw), expected)
