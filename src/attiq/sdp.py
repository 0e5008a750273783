"""Dense primal-dual interior-point solver for linear matrix inequalities.

Solves  minimize c^T x  subject to  F0 + sum_i x_i Fi < 0  (negative
definite) over a list of symmetric blocks. With the slack S = -F(x), the
dual problem is  maximize <F0, Z>  subject to  <Fi, Z> = -c_i  and Z >= 0,
and c^T x - <F0, Z> = <Z, S> once Z is dual feasible.

The method is Mehrotra's predictor-corrector along the HKM direction
(Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 1996). The primal
iterate stays strictly feasible from the caller's start x0, so S is always
-F(x) itself; the dual iterate starts at Z = I and reaches feasibility along
the way. Each iteration forms the Schur matrix once and solves it twice, for
the predictor and for the corrector. The solve stops when both the gap
<Z, S> and the dual residual c_i + <Fi, Z> are small.

Everything is dense and deterministic. Problem sizes here are tens of
variables and cone blocks of a few tens of rows, where dense Cholesky
factorizations are fast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri


# stop when <Z, S> <= REL_GAP * max(1, |c^T x|) and the dual residual is at
# most REL_GAP * (1 + |c|)
REL_GAP = 1e-9
MAX_ITERATIONS = 100
# each step goes this fraction of the way to the boundary of the cone
STEP_TO_BOUNDARY = 0.98
# x or Z this many times larger than at the start means the solve diverges:
# the objective is unbounded below or the dual is infeasible
DIVERGED = 1e12


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
    gap: float  # duality gap <Z, S> at x
    outer_iterations: int  # interior-point iterations
    newton_iterations: int  # Schur-system solves, two per iteration


def _solve_newton_system(hess, rhs):
    """Solve hess @ step = rhs by Cholesky (LAPACK potrf/potrs).

    A numerically singular hess gets a growing ridge; SdpError when the
    largest ridge still leaves it indefinite.
    """
    ridge = 0.0
    scale = max(np.trace(hess) / hess.shape[0], 1.0)
    for _ in range(6):
        l, info = dpotrf(hess + ridge * np.eye(hess.shape[0]), lower=1, clean=0)
        if info == 0:
            return dpotrs(l, rhs, lower=1)[0]
        ridge = max(ridge * 100.0, 1e-14 * scale)
    raise SdpError("Newton system is numerically singular")


def _chol(mats):
    """Lower Cholesky factors of each matrix, or None when one is not PD."""
    factors = []
    for mat in mats:
        l, info = dpotrf(mat, lower=1, clean=1)
        if info != 0:
            return None
        factors.append(l)
    return factors


def _step_length(inv_factors, steps):
    """Step a along d, capped at 1, that goes STEP_TO_BOUNDARY of the way to
    where some L L^T + a d stops being positive definite; takes each L^-1."""
    lam = 0.0
    for linv, d in zip(inv_factors, steps):
        lam = min(lam, np.linalg.eigvalsh(linv @ d @ linv.T)[0])
    return 1.0 if lam >= -STEP_TO_BOUNDARY else -STEP_TO_BOUNDARY / lam


def _halve_until_pd(alpha, point):
    """Halve alpha until every matrix of point(alpha) is positive definite.

    Returns alpha, the matrices and their Cholesky factors.
    """
    for _ in range(60):
        mats = point(alpha)
        factors = _chol(mats)
        if factors is not None:
            return alpha, mats, factors
        alpha *= 0.5
    raise SdpError("step stalled at the boundary of the cone")


def solve_sdp(c, blocks, *, x0) -> SdpResult:
    """Minimize c^T x subject to every block being negative definite.

    blocks is a list of LmiBlock; x0 must be strictly feasible. Raises
    SdpError when it is not, when the iterates diverge, and when
    MAX_ITERATIONS do not reach the REL_GAP tolerances.
    """
    c = np.asarray(c, dtype=float)
    if not blocks:
        raise ValueError("at least one LMI block is required")
    for b in blocks:
        if b.n_vars != c.size:
            raise ValueError(
                f"block has {b.n_vars} variable coefficients, objective has {c.size}"
            )

    def slack(x):
        return [-(b.f0 + np.tensordot(x, b.coeffs, axes=1)) for b in blocks]

    def adjoint(mats):  # <Fi, M> summed over the blocks
        return sum(np.tensordot(b.coeffs, m, axes=2) for b, m in zip(blocks, mats))

    x = np.array(x0, dtype=float)
    s = slack(x)
    l_s = _chol(s)
    if l_s is None:
        raise SdpError("x0 is not strictly feasible")
    z = [np.eye(b.size) for b in blocks]
    l_z = z  # the Cholesky factor of I is I
    nu = sum(b.size for b in blocks)
    x_limit = DIVERGED * max(1.0, np.abs(x).max())
    resid_tol = REL_GAP * (1.0 + np.linalg.norm(c))

    for it in range(MAX_ITERATIONS):
        gap = sum(float(np.sum(zb * sb)) for zb, sb in zip(z, s))
        value = float(c @ x)
        resid = np.linalg.norm(c + adjoint(z))
        if gap <= REL_GAP * max(1.0, abs(value)) and resid <= resid_tol:
            return SdpResult(x, value, gap, it, 2 * it)
        if np.abs(x).max() > x_limit or max(np.abs(zb).max() for zb in z) > DIVERGED:
            raise SdpError(
                f"iterates diverge: unbounded objective or infeasible dual "
                f"(gap {gap:.3e}, dual residual {resid:.3e})"
            )

        # Schur matrix M_ij = sum tr(Fi Z Fj S^-1) = <Gi, Gj>, Gi = Ls^-1 Fi Lz
        schur = np.zeros((c.size, c.size))
        ls_inv = [dtrtri(l, lower=1)[0] for l in l_s]
        lz_inv = [dtrtri(l, lower=1)[0] for l in l_z]
        for b, linv, lz in zip(blocks, ls_inv, l_z):
            g = np.matmul(np.matmul(linv, b.coeffs), lz).reshape(c.size, -1)
            schur += g @ g.T
        s_inv = [linv.T @ linv for linv in ls_inv]

        def direction(shift):
            """Step with <Fi, Z + dZ> = -c_i: M dx = -c - <Fi, shift>,
            dS = -F(dx) and dZ = shift - Z - Z dS S^-1, symmetrized."""
            dx = _solve_newton_system(schur, -c - adjoint(shift))
            ds = [-np.tensordot(dx, b.coeffs, axes=1) for b in blocks]
            dz = []
            for sh, zb, dsb, si in zip(shift, z, ds, s_inv):
                d = sh - zb - zb @ dsb @ si
                dz.append(0.5 * (d + d.T))
            return dx, ds, dz, _step_length(ls_inv, ds), _step_length(lz_inv, dz)

        # predictor: the affine-scaling step, aimed at <Z, S> = 0
        dx, ds, dz, a_p, a_d = direction([np.zeros_like(zb) for zb in z])
        gap_aff = sum(
            float(np.sum((zb + a_d * dzb) * (sb + a_p * dsb)))
            for zb, dzb, sb, dsb in zip(z, dz, s, ds)
        )
        sigma = min(1.0, max(gap_aff, 0.0) / gap) ** 3

        # corrector: aim at sigma times the mean mu of <Z, S> and take out
        # the predictor's second-order term dZ dS
        mu = gap / nu
        shift = [sigma * mu * si - dzb @ dsb @ si for si, dzb, dsb in zip(s_inv, dz, ds)]
        dx, ds, dz, a_p, a_d = direction(shift)

        a_p, s, l_s = _halve_until_pd(a_p, lambda a: slack(x + a * dx))
        x = x + a_p * dx
        a_d, z, l_z = _halve_until_pd(a_d, lambda a: [zb + a * dzb for zb, dzb in zip(z, dz)])

    raise SdpError(
        f"no convergence in {MAX_ITERATIONS} iterations "
        f"(gap {gap:.3e}, dual residual {resid:.3e})"
    )


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
