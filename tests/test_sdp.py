import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov, svdvals
from scipy.linalg.lapack import dpotrf

from attiq.sdp import (
    LmiBlock,
    _Barrier,
    SdpError,
    _solve_newton_system,
    full_basis,
    solve_sdp,
    sym_basis,
)


def scalar_block(f0, coeffs):
    return LmiBlock(np.array([[float(f0)]]), np.array([[[float(c)]] for c in coeffs]))


class TestScalarProblems:
    def test_minimize_x_above_one(self):
        # minimize x subject to 1 - x < 0
        res = solve_sdp([1.0], [scalar_block(1.0, [-1.0])], x0=[2.0])
        assert res.value == pytest.approx(1.0, abs=1e-8)
        assert res.gap <= 1e-9

    def test_box_with_tilted_objective(self):
        # minimize x1 - x2 over (0,1)^2 -> (0, 1)
        blocks = [
            scalar_block(0.0, [-1.0, 0.0]),  # x1 > 0
            scalar_block(-1.0, [1.0, 0.0]),  # x1 < 1
            scalar_block(0.0, [0.0, -1.0]),  # x2 > 0
            scalar_block(-1.0, [0.0, 1.0]),  # x2 < 1
        ]
        res = solve_sdp([1.0, -1.0], blocks, x0=[0.5, 0.5])
        np.testing.assert_allclose(res.x, [0.0, 1.0], atol=1e-8)

    def test_start_not_strictly_feasible_raises(self):
        # x > 1: the boundary point and an outside point are both refused
        for x0 in ([1.0], [-3.0]):
            with pytest.raises(SdpError, match="strictly feasible"):
                solve_sdp([1.0], [scalar_block(1.0, [-1.0])], x0=x0)


class TestEigenvalueBound:
    def test_matches_eigvalsh(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        a = 0.5 * (a + a.T)
        x0 = [np.linalg.eigvalsh(a).max() + 1.0]
        res = solve_sdp([1.0], [LmiBlock(a, -np.eye(5)[None])], x0=x0)
        assert res.value == pytest.approx(np.linalg.eigvalsh(a).max(), rel=1e-8)


class TestSpectralNorm:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_largest_singular_value(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 4))
        n = 7
        f0 = np.zeros((n, n))
        f0[:3, 3:] = -a
        f0[3:, :3] = -a.T
        x0 = [np.linalg.eigvalsh(f0).max() + 1.0]
        res = solve_sdp([1.0], [LmiBlock(f0, -np.eye(n)[None])], x0=x0)
        assert res.value == pytest.approx(svdvals(a)[0], rel=1e-8)


class TestLyapunovTrace:
    def test_min_trace_hits_lyapunov_solution(self):
        # minimize tr(P) s.t. A^T P + P A + I < 0, P > 0; the optimum is the
        # Lyapunov solution of A^T P + P A = -I
        rng = np.random.default_rng(11)
        a = -np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        assert np.linalg.eigvals(a).real.max() < 0.0
        basis = sym_basis(4)
        lyap_coeffs = np.array([a.T @ e + e @ a for e in basis])
        blocks = [
            LmiBlock(np.eye(4), lyap_coeffs),
            LmiBlock(np.zeros((4, 4)), -basis),
        ]
        c = np.array([np.trace(e) for e in basis])
        p_star = solve_continuous_lyapunov(a.T, -np.eye(4))
        # P = 2 P* gives A^T P + P A + I = -I
        x0 = [2.0 * p_star[i, j] for i in range(4) for j in range(i, 4)]
        res = solve_sdp(c, blocks, x0=x0)
        assert res.value == pytest.approx(np.trace(p_star), rel=1e-6)
        p = np.tensordot(res.x, basis, axes=1)
        assert np.linalg.eigvalsh(p).min() > 0.0
        np.testing.assert_allclose(a.T @ p + p @ a, -np.eye(4), atol=1e-4)


class TestBarrierDerivatives:
    """grad_hess against grad_i = tr(S^-1 Fi), H_ij = tr(S^-1 Fi S^-1 Fj), S = -F(x)."""

    @staticmethod
    def direct(blocks, x):
        grad, hess = 0.0, 0.0
        for b in blocks:
            p = np.linalg.solve(-(b.f0 + np.tensordot(x, b.coeffs, axes=1)), b.coeffs)
            grad = grad + np.trace(p, axis1=1, axis2=2)
            hess = hess + np.einsum("ikl,jlk->ij", p, p)
        return grad, hess

    @staticmethod
    def two_blocks(rng, s_big, m=6):
        """Blocks of sizes len(s_big) and 3 with -F(x) = s_big in the first."""
        x = rng.standard_normal(m)
        blocks = []
        for s in (s_big, np.eye(3) + 0.1 * np.diag(rng.uniform(size=3))):
            n = s.shape[0]
            fs = rng.standard_normal((m, n, n))
            fs = 0.5 * (fs + fs.transpose(0, 2, 1))
            blocks.append(LmiBlock(-s - np.tensordot(x, fs, axes=1), fs))
        return blocks, x

    def check(self, blocks, x):
        bar = _Barrier(blocks)
        grad, hess = bar.grad_hess(bar.chol(x))
        grad_ref, hess_ref = self.direct(blocks, x)
        assert np.linalg.norm(grad - grad_ref) <= 1e-9 * np.linalg.norm(grad_ref)
        assert np.linalg.norm(hess - hess_ref) <= 1e-9 * np.linalg.norm(hess_ref)

    def test_random_two_block_problem(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((5, 5))
        self.check(*self.two_blocks(rng, a @ a.T + np.eye(5)))

    def test_ill_conditioned_slack(self):
        # cond(S) >= 1e8 as near the end of the central path. The spread sits
        # in a diagonal scaling, where Cholesky, triangular inverse and LU all
        # stay accurate; ill-conditioning along arbitrary directions limits any
        # backward-stable evaluation, the direct one included, to cond * eps.
        rng = np.random.default_rng(22)
        a = rng.standard_normal((6, 6))
        d = np.logspace(0, -4, 6)
        s = d[:, None] * (a @ a.T + 6.0 * np.eye(6)) * d[None, :]
        assert np.linalg.cond(s) >= 1e8
        self.check(*self.two_blocks(rng, s))


class TestNewtonSystem:
    """_solve_newton_system at the size of the attitude LMI (78 variables)."""

    def test_spd_matches_numpy_solve(self):
        rng = np.random.default_rng(31)
        b = rng.standard_normal((78, 78))
        hess = b @ b.T + 78.0 * np.eye(78)
        rhs = rng.standard_normal(78)
        step = _solve_newton_system(hess, rhs)
        ref = np.linalg.solve(hess, rhs)
        assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_singular_psd_takes_the_ridge(self):
        # three zero rows and columns: the Cholesky factorization of hess
        # itself breaks down, so only the ridge gives a step
        rng = np.random.default_rng(32)
        b = rng.standard_normal((78, 78))
        b[:3] = 0.0
        hess = b @ b.T
        assert dpotrf(hess, lower=1)[1] > 0
        rhs = hess @ rng.standard_normal(78)
        step = _solve_newton_system(hess, rhs)
        assert np.all(np.isfinite(step))
        np.testing.assert_array_equal(step[:3], 0.0)
        np.testing.assert_allclose(hess @ step, rhs, rtol=0.0, atol=1e-8 * np.abs(rhs).max())

    def test_indefinite_raises(self):
        hess = np.diag(np.where(np.arange(78) % 2 == 0, 1.0, -1.0))
        with pytest.raises(SdpError, match="singular"):
            _solve_newton_system(hess, np.ones(78))


class TestSolverBehavior:
    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        a = 0.5 * (a + a.T)
        block = LmiBlock(a, -np.eye(4)[None])
        x0 = [np.linalg.eigvalsh(a).max() + 1.0]
        r1 = solve_sdp([1.0], [block], x0=x0)
        r2 = solve_sdp([1.0], [block], x0=x0)
        np.testing.assert_array_equal(r1.x, r2.x)

    def test_feasible_warm_start(self):
        block = scalar_block(1.0, [-1.0])
        cold = solve_sdp([1.0], [block], x0=[2.0])
        warm = solve_sdp([1.0], [block], x0=[5.0])
        assert warm.value == pytest.approx(cold.value, abs=1e-8)

    def test_unbounded_raises(self):
        # maximize x with only x > 1 has no finite optimum
        with pytest.raises(SdpError):
            solve_sdp([-1.0], [scalar_block(1.0, [-1.0])], x0=[2.0], max_outer=25)

    def test_gap_certificate_reported(self):
        res = solve_sdp([1.0], [scalar_block(1.0, [-1.0])], x0=[2.0], rel_gap=1e-6)
        assert res.gap <= 1e-6
        assert res.value - 1.0 <= 2e-6


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            LmiBlock(np.zeros((2, 3)), np.zeros((1, 2, 3)))

    def test_rejects_coeff_shape_mismatch(self):
        with pytest.raises(ValueError):
            LmiBlock(np.zeros((2, 2)), np.zeros((1, 3, 3)))

    def test_rejects_objective_length_mismatch(self):
        with pytest.raises(ValueError):
            solve_sdp([1.0, 2.0], [scalar_block(1.0, [-1.0])], x0=[2.0, 2.0])

    def test_rejects_empty_blocks(self):
        with pytest.raises(ValueError):
            solve_sdp([1.0], [], x0=[2.0])


class TestBases:
    def test_sym_basis_spans_symmetric(self):
        basis = sym_basis(3)
        assert basis.shape == (6, 3, 3)
        rng = np.random.default_rng(0)
        s = rng.standard_normal((3, 3))
        s = 0.5 * (s + s.T)
        coords = [s[i, j] for i in range(3) for j in range(i, 3)]
        np.testing.assert_allclose(np.tensordot(coords, basis, axes=1), s)

    def test_full_basis_row_major(self):
        basis = full_basis(2, 3)
        assert basis.shape == (6, 2, 3)
        m = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(np.tensordot(m.ravel(), basis, axes=1), m)
