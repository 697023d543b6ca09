"""Dense primal-dual interior-point engine for block Hermitian SDPs.

Standard form handled here:

    maximize    sum_k <C_k, X_k>         (<A, B> = Re Tr[A^dag B])
    subject to  sum_k <A_ik, X_k> = b_i  for each constraint i
                X_k >= 0                 (PSD, one block per k)

Complex Hermitian blocks are mapped to real symmetric ones through
``realify``: A -> [[Re A, -Im A], [Im A, Re A]], which preserves positive
semidefiniteness and doubles inner products. ``solve`` absorbs the factor
2 at its boundary: right-hand sides are doubled going in, objective values
and the primal residual are halved coming out. The dual residual is linear
in the data and is reported unscaled.

Blocks of equal dimension form a group: one ``(n_g, D, D)`` stack (D = 2d)
with its constraint rows as one ``(n_g, m, D(D+1)/2)`` svec stack, worked
on by batched numpy calls. Sums over blocks run in the caller's order, and
triangular inverses and the Schur sum make one LAPACK/BLAS call per block,
so that the rounding does not depend on how the blocks are grouped.

The algorithm is infeasible-start path following with Nesterov-Todd
scaling and a Mehrotra-style predictor-corrector, solving the dense
Schur complement by Cholesky. A presolve pass removes linearly dependent
constraint rows (rank-revealing QR, pivot threshold 1e-10) and checks
that the removed rows are consistent; dual multipliers for removed rows
are reported as zero, which keeps the returned ``dual`` vector a valid
certificate in the original row order. Each iteration's gap and residuals
are logged at DEBUG level on the ``steercert`` logger.
"""

from __future__ import annotations

import enum
import json
import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .qlin import dagger, is_hermitian, matrix_to_json

_log = logging.getLogger("steercert")


class SolverStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_TROUBLE = "numerical_trouble"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class LinearConstraint:
    """One scalar equality sum_k <coeffs[k], X_k> = rhs (coeffs Hermitian)."""

    coeffs: dict[int, np.ndarray]
    rhs: float


@dataclass
class _Group:
    """The blocks of one dimension, with their coefficients stacked."""

    blocks: np.ndarray  # their indices in the caller's order, ascending
    objective: np.ndarray  # (n_g, dim, dim), zero for a None objective
    coeffs: np.ndarray  # (nnz, dim, dim): every constraint coefficient on them
    rows: np.ndarray  # the constraint of each coefficient
    ks: np.ndarray  # the block of each coefficient


@dataclass
class SdpProblem:
    """Block-diagonal Hermitian SDP in the standard (maximization) form."""

    block_dims: tuple[int, ...]
    objective: list[np.ndarray | None]
    constraints: list[LinearConstraint]

    def validate(self) -> list[_Group]:
        """Check every shape, and Hermiticity one stack per dimension; return
        the blocks grouped by dimension, in order of first appearance."""
        if len(self.objective) != len(self.block_dims):
            raise ValueError("objective must provide one entry per block (None for zero)")
        terms = {d: [] for d in self.block_dims}  # (constraint, block, matrix); -1: the objective

        def where(i, k):
            return f"objective block {k}" if i < 0 else f"constraint {i} block {k}"

        for i, k, a in [(-1, k, c) for k, c in enumerate(self.objective)] + [
            (i, k, a) for i, con in enumerate(self.constraints) for k, a in con.coeffs.items()
        ]:
            d = self.block_dims[k]
            if a is not None and a.shape != (d, d):
                raise ValueError(f"{where(i, k)} has shape {a.shape}, expected ({d}, {d})")
            terms[d].append((i, k, np.zeros((d, d)) if a is None else a))
        groups = []
        for d, entries in terms.items():
            rows, ks, mats = (np.array(v) for v in zip(*entries))
            defect = np.max(np.abs(mats - dagger(mats)), axis=(-2, -1))
            bad = np.flatnonzero(defect > 1e-10)
            if bad.size:
                j = bad[0]
                raise ValueError(f"{where(rows[j], ks[j])} is not Hermitian (defect {defect[j]:.2e})")
            n_g = int(np.sum(rows < 0))  # the objective entries come first
            groups.append(_Group(ks[:n_g], mats[:n_g], mats[n_g:], rows[n_g:], ks[n_g:]))
        return groups

    def to_debug_json(self) -> dict:
        """Problem dump (blocks, constraints, rhs) for offline inspection."""
        return {
            "block_dims": list(self.block_dims),
            "objective": [None if c is None else matrix_to_json(c) for c in self.objective],
            "constraints": [
                {
                    "coeffs": {str(k): matrix_to_json(a) for k, a in con.coeffs.items()},
                    "rhs": float(con.rhs),
                }
                for con in self.constraints
            ],
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_debug_json(), fh)


@dataclass
class SdpSolution:
    """``primal_residual``: the largest violation of a kept row; ``dual_residual``:
    the largest real or imaginary part of an entry of sum_i y_i A_i - C - Z."""

    primal: list[np.ndarray]
    dual: np.ndarray
    dual_slacks: list[np.ndarray]
    primal_value: float
    dual_value: float
    gap: float
    status: SolverStatus
    iterations: int
    primal_residual: float = np.inf
    dual_residual: float = np.inf
    dropped_rows: tuple[int, ...] = field(default_factory=tuple)


def realify(a: np.ndarray) -> np.ndarray:
    """Real symmetric image [[Re A, -Im A], [Im A, Re A]] of a Hermitian A, or of a stack.
    A is PSD iff the image is PSD; Tr[image] = 2 Tr[A]."""
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a, tol=1e-9):
        raise ValueError("realify requires a Hermitian matrix")
    re, im = a.real, a.imag
    return np.block([[re, -im], [im, re]])


def derealify(m: np.ndarray) -> np.ndarray:
    """Recover the Hermitian matrix (or stack) whose realification best matches ``m``."""
    d = m.shape[-1] // 2
    re = 0.5 * (m[..., :d, :d] + m[..., d:, d:])
    im = 0.5 * (m[..., d:, :d] - m[..., :d, d:])
    h = re + 1j * im
    return 0.5 * (h + dagger(h))


def _svec_indices(dim: int):
    """Lower-triangle entries (ii, jj), column by column, and their scales."""
    jj, ii = np.triu_indices(dim)
    return ii, jj, np.where(ii == jj, 1.0, np.sqrt(2.0))


def _svec(mats: np.ndarray, idx) -> np.ndarray:
    ii, jj, scale = idx
    return mats[..., ii, jj] * scale


def _unsvec(vec: np.ndarray, dim: int, idx) -> np.ndarray:
    ii, jj, scale = idx
    out = np.zeros(vec.shape[:-1] + (dim, dim))
    vals = vec / scale
    out[..., ii, jj] = vals
    out[..., jj, ii] = vals
    return out


def _t(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + _t(a))


def _tril_inv(lower: np.ndarray) -> np.ndarray:
    """Inverse of each lower-triangular matrix in a stack, by LAPACK trtrs."""
    eye = np.eye(lower.shape[-1])
    return np.stack([sla.lapack.dtrtrs(q.T, eye, lower=0, trans=1)[0] for q in lower])


def _nt_scaling(x: np.ndarray, z: np.ndarray):
    """Nesterov-Todd scaling of stacks of blocks, G^-1 X G^-T = G^T Z G = diag(lam):
    G, G^-1, lam, T = G G^T and the inverse Cholesky factors of X and Z."""
    lx, lz = np.linalg.cholesky(x), np.linalg.cholesky(z)
    _, lam, wt = np.linalg.svd(_t(lz) @ lx)
    lxinv = _tril_inv(lx)
    lam = np.maximum(lam, 1e-300)
    g = lx @ _t(wt) * (lam[..., None, :] ** -0.5)
    return g, (lam[..., :, None] ** 0.5) * (wt @ lxinv), lam, g @ _t(g), lxinv, _tril_inv(lz)


def _max_step(inv_factors: list[np.ndarray], deltas: list[np.ndarray]) -> float:
    """sup {alpha : M + alpha*Delta >= 0 in every block}, given L^-1 for each M = L L^T."""
    lam_min = min(float(np.min(np.linalg.eigvalsh(_sym(linv @ delta @ _t(linv)))[..., 0]))
                  for linv, delta in zip(inv_factors, deltas))
    return np.inf if lam_min >= 0.0 else -1.0 / lam_min


def _independent_rows(mat: np.ndarray, b: np.ndarray, pivot_tol: float, consistency_tol: float):
    """Select a full-rank subset of rows; report dropped rows and consistency."""
    m = mat.shape[0]
    if m == 0:
        return np.array([], dtype=int), np.array([], dtype=int), True, 0.0
    _, r, piv = sla.qr(mat.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    scale = diag[0] if diag.size else 0.0
    if scale == 0.0:
        rank = 0
    else:
        rank = int(np.sum(diag > pivot_tol * scale))
    keep = np.sort(piv[:rank])
    drop = np.sort(piv[rank:])
    violation = 0.0
    if drop.size:
        if rank == 0:
            violation = float(np.max(np.abs(b[drop])))
        else:
            coef, *_ = np.linalg.lstsq(mat[keep].T, mat[drop].T, rcond=None)
            violation = float(np.max(np.abs(b[drop] - coef.T @ b[keep])))
    return keep, drop, violation <= consistency_tol, violation


def solve(
    problem: SdpProblem,
    *,
    max_iters: int = 200,
    gap_tol: float = 1e-9,
    gap_accept: float = 1e-8,
    feas_tol: float = 1e-9,
    feas_accept: float = 1e-8,
    step_frac: float = 0.98,
) -> SdpSolution:
    """Solve the SDP; the returned status honestly reflects termination.

    ``gap_tol``/``feas_tol`` are the targets the iteration aims for;
    ``gap_accept``/``feas_accept`` are the thresholds a solution must meet
    to be declared Optimal.
    """
    groups = problem.validate()
    m = len(problem.constraints)
    if m == 0:
        raise ValueError("a well-formed problem needs at least one constraint")
    dims = [2 * g.objective.shape[-1] for g in groups]
    idx = [_svec_indices(d) for d in dims]
    cmats = [realify(g.objective) for g in groups]
    b = np.array([2.0 * con.rhs for con in problem.constraints], dtype=float)
    order = np.argsort(np.concatenate([g.blocks for g in groups]))

    def in_order(stacks):
        """The blocks of one stack per group, listed in the caller's order."""
        flat = [x for stack in stacks for x in stack]
        return [flat[i] for i in order]

    # constraint rows in svec coordinates, one (n_g, m, s) stack per group
    a3 = [np.zeros((len(g.blocks), m, len(ix[0]))) for g, ix in zip(groups, idx)]
    for a, g, ix in zip(a3, groups, idx):
        a[np.searchsorted(g.blocks, g.ks), g.rows] = _svec(realify(g.coeffs), ix)
    b_scale = max(1.0, float(np.max(np.abs(b))))
    keep, drop, consistent, violation = _independent_rows(
        np.hstack(in_order(a3)), b, pivot_tol=1e-10, consistency_tol=feas_accept * b_scale
    )

    def objective(xs):
        return 0.5 * sum(in_order([np.sum(c * x, axis=(-2, -1)) for c, x in zip(cmats, xs)]))

    def _package(xs, y_red, zs, status, iters, pres, dres):
        y = np.zeros(m)
        if y_red is not None:
            y[keep] = y_red
        pval = objective(xs)
        dval = 0.5 * float(b @ y)
        gap = abs(pval - dval) / (1.0 + abs(pval))
        primal, slacks = in_order([derealify(x) for x in xs]), in_order([derealify(z) for z in zs])
        return SdpSolution(primal, y, slacks, float(pval), dval, float(gap), status, iters, pres, dres,
                           tuple(int(i) for i in drop))

    zero_xs = [np.zeros_like(c) for c in cmats]
    if not consistent:
        return _package(zero_xs, None, zero_xs, SolverStatus.INFEASIBLE, 0, violation, np.inf)

    b_red = b[keep]
    mr = len(keep)
    a3 = [np.ascontiguousarray(a[:, keep]) for a in a3]  # BLAS rounding depends on the layout
    # the rows as matrices laid out (n_g, D, mr * D), so that T A_i T for
    # every row i takes two batched products
    amats = [_unsvec(a, d, ix).transpose(0, 2, 1, 3).reshape(len(a), d, -1) for a, d, ix in zip(a3, dims, idx)]

    def op_a(xs):
        return sum(in_order([np.matmul(a, _svec(x, ix)[..., None])[..., 0] for a, x, ix in zip(a3, xs, idx)]))

    def op_at(y):
        return [_unsvec(np.matmul(y, a), d, ix) for a, d, ix in zip(a3, dims, idx)]

    # infeasible start: scaled identities sized from the data
    row_norms = np.linalg.norm(np.hstack(in_order(a3)), axis=1)
    xi_p = max(1.0, float(np.max(np.abs(b_red) / (1.0 + row_norms))) if mr else 1.0)
    xi_d = max(1.0, max(float(np.linalg.norm(c)) for c in in_order(cmats)))
    sqrt_dim = np.sqrt(max(dims))
    xi_p *= sqrt_dim
    xi_d *= sqrt_dim
    xs = [xi_p * np.tile(np.eye(d), (len(c), 1, 1)) for d, c in zip(dims, cmats)]
    zs = [xi_d * np.tile(np.eye(d), (len(c), 1, 1)) for d, c in zip(dims, cmats)]
    y = np.zeros(mr)
    n_total = float(2 * sum(problem.block_dims))

    best = None
    best_merit = np.inf
    status = SolverStatus.MAX_ITERATIONS
    iters_done = 0

    for it in range(max_iters):
        iters_done = it
        pobj = objective(xs)
        dobj = 0.5 * float(b_red @ y)
        rp = b_red - op_a(xs)
        rd = [aty - c - z for aty, c, z in zip(op_at(y), cmats, zs)]

        pres = 0.5 * float(np.max(np.abs(rp))) if mr else 0.0
        dres = max(float(np.max(np.abs(r))) for r in rd)
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj))
        merit = max(relgap, pres, dres)
        _log.debug("iter %3d  gap %9.2e  pres %9.2e  dres %9.2e", it, relgap, pres, dres)
        if merit < best_merit:
            best_merit = merit
            best = ([x.copy() for x in xs], y.copy(), [z.copy() for z in zs], pres, dres)
        if relgap <= gap_tol and pres <= feas_tol and dres <= feas_tol:
            status = SolverStatus.OPTIMAL
            break

        # divergence guard: a growing dual iterate whose direction improves the
        # dual objective while staying dual-feasible certifies infeasibility
        y_norm = float(np.linalg.norm(y, np.inf))
        if y_norm > 1e8 * b_scale:
            ray = y / y_norm
            ray_psd = all(np.min(np.linalg.eigvalsh(_sym(s))[..., 0]) >= -1e-6 for s in op_at(ray))
            if ray_psd and float(b_red @ ray) < -1e-6:
                status = SolverStatus.INFEASIBLE
                break
            status = SolverStatus.NUMERICAL_TROUBLE
            break

        try:
            gmats, ginvs, lams, tmats, lxinvs, lzinvs = zip(*[_nt_scaling(x, z) for x, z in zip(xs, zs)])
        except np.linalg.LinAlgError:
            status = SolverStatus.NUMERICAL_TROUBLE
            break

        mu = sum(in_order([np.matmul(lam[:, None, :], lam[:, :, None])[:, 0, 0] for lam in lams])) / n_total

        # Schur complement S_ij = sum_k <A_ik, T_k A_jk T_k>
        tat_sv = []
        for am, t, d, (ii, jj, scale) in zip(amats, tmats, dims, idx):
            tat = ((t @ am).reshape(len(t), d * mr, d) @ t).reshape(len(t), d, mr, d)
            tat_sv.append(np.ascontiguousarray((tat[:, ii, :, jj] * scale[:, None, None]).transpose(1, 2, 0)))
        schur = np.zeros((mr, mr))
        for p, a in zip(in_order(tat_sv), in_order(a3)):
            schur += p @ a.T
        schur = 0.5 * (schur + schur.T)

        diag_mean = max(float(np.mean(np.diag(schur))), 1e-300)
        schur_chol = None
        for reg in (0.0, 1e-13, 1e-11, 1e-9, 1e-7):
            try:
                schur_chol = sla.cho_factor(schur + reg * diag_mean * np.eye(mr), lower=True)
                break
            except np.linalg.LinAlgError:
                continue
        if schur_chol is None:
            status = SolverStatus.NUMERICAL_TROUBLE
            break

        def newton_step(dmats):
            """Solve for (dx, dy, dz) given the scaled complementarity target."""
            gdg = [g @ dm @ _t(g) for g, dm in zip(gmats, dmats)]
            trdt = [t @ r @ t for t, r in zip(tmats, rd)]
            rhs = op_a(gdg) - op_a(trdt) - rp
            dy = sla.cho_solve(schur_chol, rhs)
            dz = [atdy + r for atdy, r in zip(op_at(dy), rd)]
            dx = [_sym(v - t @ w @ t) for v, t, w in zip(gdg, tmats, dz)]
            return dx, dy, [_sym(w) for w in dz]

        # predictor: aim at the complementarity target 0
        d_aff = [-lam[..., None] * np.eye(d) for lam, d in zip(lams, dims)]
        dx_aff, dy_aff, dz_aff = newton_step(d_aff)
        ap = min(1.0, _max_step(lxinvs, dx_aff))
        ad = min(1.0, _max_step(lzinvs, dz_aff))
        mu_aff = sum(in_order([np.sum((x + ap * dx) * (z + ad * dz), axis=(-2, -1))
                               for x, dx, z, dz in zip(xs, dx_aff, zs, dz_aff)])) / n_total
        sigma = min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3))

        # corrector with Mehrotra second-order term, in the scaled space
        dmats = []
        for g, ginv, lam, dxa, dza, d in zip(gmats, ginvs, lams, dx_aff, dz_aff, dims):
            dxt = ginv @ dxa @ _t(ginv)
            dzt = _t(g) @ dza @ g
            cross = 0.5 * (dxt @ dzt + dzt @ dxt)
            dmat = sigma * mu * np.eye(d) - (lam**2)[..., None] * np.eye(d) - cross
            dmats.append(2.0 * dmat / (lam[..., :, None] + lam[..., None, :]))
        dx, dy, dz = newton_step(dmats)

        ap = min(1.0, step_frac * _max_step(lxinvs, dx))
        ad = min(1.0, step_frac * _max_step(lzinvs, dz))
        if ap < 1e-10 and ad < 1e-10:
            status = SolverStatus.NUMERICAL_TROUBLE
            break
        xs = [_sym(x + ap * d) for x, d in zip(xs, dx)]
        zs = [_sym(z + ad * d) for z, d in zip(zs, dz)]
        y = y + ad * dy
    else:
        iters_done = max_iters

    if status is SolverStatus.INFEASIBLE:
        return _package(zero_xs, None, zero_xs, status, iters_done, np.inf, np.inf)

    xs_f, y_f, zs_f, pres_f, dres_f = best if best is not None else (xs, y, zs, np.inf, np.inf)
    pobj = objective(xs_f)
    dobj = 0.5 * float(b_red @ y_f)
    relgap = abs(pobj - dobj) / (1.0 + abs(pobj))
    if status is not SolverStatus.OPTIMAL:
        if relgap <= gap_accept and pres_f <= feas_accept and dres_f <= feas_accept:
            status = SolverStatus.OPTIMAL
    return _package(xs_f, y_f, zs_f, status, iters_done, pres_f, dres_f)
