"""Dense log-barrier interior-point solver for linear matrix inequalities.

Solves  minimize c^T x  subject to  F0 + sum_i x_i Fi < 0  (negative
definite) over a list of symmetric blocks, with the log-det barrier
method: damped Newton on  t c^T x - sum log det(-F(x))  for a
geometrically increasing sequence of t. The bound nu / t on the duality
gap (nu = total cone dimension) is the termination certificate. There is
no feasibility phase: the caller supplies a strictly feasible start.

Everything is dense and deterministic. Problem sizes here are tens of
variables and cone blocks of a few tens of rows, where Cholesky-based
Newton steps are fast and robust.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtri


# largest initial barrier weight and its growth factor per outer iteration
T0 = 1.0
MU = 20.0


class SdpError(RuntimeError):
    """Solver failure: no convergence or an ill-posed problem."""


@dataclass
class LmiBlock:
    """One constraint block f0 + sum_i x_i coeffs[i] < 0 (negative definite)."""

    f0: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        f0 = np.asarray(self.f0, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if f0.ndim != 2 or f0.shape[0] != f0.shape[1]:
            raise ValueError(f"f0 must be square, got shape {f0.shape}")
        n = f0.shape[0]
        if coeffs.ndim != 3 or coeffs.shape[1:] != (n, n):
            raise ValueError(f"coeffs must have shape (m, {n}, {n}), got {coeffs.shape}")
        self.f0 = 0.5 * (f0 + f0.T)
        self.coeffs = 0.5 * (coeffs + coeffs.transpose(0, 2, 1))

    @property
    def size(self) -> int:
        return self.f0.shape[0]

    @property
    def n_vars(self) -> int:
        return self.coeffs.shape[0]


@dataclass
class SdpResult:
    x: np.ndarray
    value: float
    gap: float  # certified duality-gap bound nu / t
    outer_iterations: int
    newton_iterations: int


class _Barrier:
    def __init__(self, blocks: list[LmiBlock]):
        self.f0s = [b.f0 for b in blocks]
        self.coeffs = [b.coeffs for b in blocks]
        self.nu = sum(b.size for b in blocks)
        self.m = blocks[0].n_vars

    def chol(self, x):
        """Cholesky factors of -F(x) per block, or None when infeasible."""
        factors = []
        for f0, fs in zip(self.f0s, self.coeffs):
            s = -(f0 + np.tensordot(x, fs, axes=1))
            try:
                factors.append(np.linalg.cholesky(s))
            except np.linalg.LinAlgError:
                return None
        return factors

    def value(self, factors) -> float:
        return -2.0 * sum(np.log(np.diag(l)).sum() for l in factors)

    def grad_hess(self, factors):
        grad = np.zeros(self.m)
        hess = np.zeros((self.m, self.m))
        for l, fs in zip(factors, self.coeffs):
            # v[i] = L^-1 Fi L^-T, so grad_i = tr(v[i]), hess_ij = <v[i], v[j]>.
            # One small triangular inverse plus stacked n x n products: a
            # triangular solve against all m coefficients side by side is a
            # wide TRSM that threaded BLAS runs an order of magnitude slower.
            linv, _ = dtrtri(l, lower=1)
            v = np.matmul(np.matmul(linv, fs), linv.T)
            grad += v.diagonal(axis1=1, axis2=2).sum(axis=1)
            flat = v.reshape(self.m, -1)
            hess += flat @ flat.T
        return grad, hess


def _solve_newton_system(hess, rhs):
    ridge = 0.0
    scale = max(np.trace(hess) / hess.shape[0], 1.0)
    for _ in range(6):
        try:
            l = np.linalg.cholesky(hess + ridge * np.eye(hess.shape[0]))
        except np.linalg.LinAlgError:
            ridge = max(ridge * 100.0, 1e-14 * scale)
            continue
        y = solve_triangular(l, rhs, lower=True)
        return solve_triangular(l.T, y, lower=False)
    raise SdpError("Newton system is numerically singular")


def _newton(bar, c_vec, t, x, factors, tol=1e-10, max_iter=250):
    """Center t*c^T x + barrier; returns (x, factors, converged, iterations)."""
    phi = bar.value(factors)
    for it in range(max_iter):
        grad_phi, hess = bar.grad_hess(factors)
        grad = t * c_vec + grad_phi
        step = _solve_newton_system(hess, -grad)
        lam2 = float(grad @ -step)
        if lam2 <= 2.0 * tol:
            return x, factors, True, it
        # damped step keeps long Newton directions inside the cone
        lam = np.sqrt(lam2)
        alpha = 1.0 if lam < 0.25 else 1.0 / (1.0 + lam)
        slope = t * float(c_vec @ step)  # objective decrease evaluated
        for _ in range(60):  # incrementally to dodge cancellation at large t
            x_new = x + alpha * step
            factors_new = bar.chol(x_new)
            if factors_new is not None:
                phi_new = bar.value(factors_new)
                if alpha * slope + (phi_new - phi) <= -0.25 * alpha * lam2:
                    break
            alpha *= 0.5
        else:
            # line search exhausted: accept only if already well centered
            return x, factors, lam2 <= 1e-6, it
        x, factors, phi = x_new, factors_new, phi_new
    return x, factors, False, max_iter


def solve_sdp(
    c, blocks, *, x0, rel_gap: float = 1e-9, max_outer: int = 100
) -> SdpResult:
    """Minimize c^T x subject to every block being negative definite.

    blocks is a list of LmiBlock. The barrier path starts at x0, which must
    be strictly feasible. Raises SdpError when it is not, and when the
    central path cannot be followed to a duality gap of
    rel_gap * max(1, |c^T x|).
    """
    c = np.asarray(c, dtype=float)
    if not blocks:
        raise ValueError("at least one LMI block is required")
    for b in blocks:
        if b.n_vars != c.size:
            raise ValueError(
                f"block has {b.n_vars} variable coefficients, objective has {c.size}"
            )
    bar = _Barrier(blocks)

    x = np.array(x0, dtype=float)
    factors = bar.chol(x)
    if factors is None:
        raise SdpError("x0 is not strictly feasible")

    # start where the centering step from x0 is shortest; starts past T0 can stall
    grad, hess = bar.grad_hess(factors)
    h_inv_c = _solve_newton_system(hess, c)
    t_star = -float(grad @ h_inv_c) / max(float(c @ h_inv_c), 1e-300)
    t = min(T0, t_star) if t_star > 0.0 else T0
    newton_total = 0
    centered = None  # last iterate Newton actually centered, with its gap
    for outer in range(1, max_outer + 1):
        x, factors, ok, iters = _newton(bar, c, t, x, factors)
        newton_total += iters
        value = float(c @ x)
        gap = bar.nu / t
        target = rel_gap * max(1.0, abs(value))
        if ok:
            if gap <= target:
                return SdpResult(x, value, gap, outer, newton_total)
            centered = SdpResult(x.copy(), value, gap, outer, newton_total)
        else:
            # centering failed (float conditioning wall); the previous
            # centered iterate keeps its certificate, use it if close enough
            if centered is not None and centered.gap <= 1e-8 * max(
                1.0, abs(centered.value)
            ):
                return centered
            raise SdpError(f"Newton stalled with duality gap {gap:.3e}")
        # never push t far past what the gap target requires
        t = min(t * MU, bar.nu / (0.5 * target))
    raise SdpError("barrier method did not reach the requested gap")


def sym_basis(n: int) -> np.ndarray:
    """Basis (n(n+1)/2, n, n) for symmetric matrices: E_ii, then E_ij + E_ji."""
    mats = []
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            e[j, i] = 1.0
            mats.append(e)
    return np.array(mats)


def full_basis(rows: int, cols: int) -> np.ndarray:
    """Basis (rows*cols, rows, cols) for general matrices, row-major order."""
    mats = np.zeros((rows * cols, rows, cols))
    for k in range(rows * cols):
        mats[k, k // cols, k % cols] = 1.0
    return mats
