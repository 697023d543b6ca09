"""Dense primal-dual interior-point engine for block Hermitian SDPs.

Standard form handled here:

    maximize    sum_k <C_k, X_k>         (<A, B> = Re Tr[A^dag B])
    subject to  sum_k <A_ik, X_k> = b_i  for each constraint i
                X_k >= 0                 (PSD, one block per k)

Complex Hermitian blocks are mapped to real symmetric ones through
``realify``: A -> [[Re A, -Im A], [Im A, Re A]], which preserves positive
semidefiniteness and doubles inner products. ``solve`` absorbs the factor
2 at its boundary: right-hand sides are doubled going in, objective values
and both primal residuals (of the iterate, and of inconsistent dropped
rows) are halved coming out. The dual residual is reported unscaled.

Blocks of equal dimension form a group: one ``(2 n_g, D, D)`` stack [X; Z] (D = 2d), worked
on by batched numpy calls: one Cholesky and one SVD for the NT scaling, and one ``eigvalsh`` for
both steps to the boundary, from the NT factors F (F X F^T = I). A group of d = 1 holds scalars a,
not a I_2 (D = 1, ``_scalar_coordinates``): its Cholesky is sqrt, its SVD a product and its step f delta f,
with no LAPACK call, and the objective, xi_d, mu and mu_aff count each a twice, as a I_2 did; so it solves
as a I_2 bit for bit, and reads a 1 x 1 objective by its real part. Rows enter the Newton loop in
d*d coordinates per Hermitian block (``_coordinates``), whose reads project onto the realified
image that rounding leaves; the matrices stay realified, since complex steps and scaling drift
off it. Right operands of batched matmuls are C-contiguous (numpy multiplies a transposed one
without BLAS). The Schur complement takes each block on the rows a it touches only, as a K a^T,
where K holds the coordinates of T E_l T over the d*d basis matrices E_l (``_kernels``); it and
every sum over blocks add the blocks in the caller's order. Cholesky, SVD and eigvalsh call
the gufuncs ``numpy.linalg`` dispatches to, without its wrappers, whose checks and per-call
``errstate`` cost more than factorising blocks of order 4 to 8; a failure's NaN is raised as
``LinAlgError``.

The algorithm is infeasible-start path following with Nesterov-Todd
scaling and a Mehrotra-style predictor-corrector, solving the dense
Schur complement with LAPACK potrf/potrs; when potrf fails, its diagonal
is shifted by 1e-13 to 1e-7 of its mean, and the shift is logged. A solve
whose best merit is at least 1 iteration old while each of its last 2 Schur
complements needed a shift has stalled: it stops there with NUMERICAL_TROUBLE
and, like any unfinished solve, returns its best-merit iterate, which further
steps would not have changed on any benchmark solve. A caller that
only asks whether the optimum exceeds a value passes it as ``stop_above``:
the first iterate that is primal feasible within ``feas_tol`` and whose value
beats it by more than an optimal end's gap ends the solve, and is returned as
it is with status BOUND_EXCEEDED (``solve`` derives the margin). A
presolve pass removes linearly dependent constraint rows (the R factor of
a pivoted QR, pivot threshold 1e-10, by LAPACK's dgeqp3 and dtrtrs, on the rows' D(D+1)/2 svec
coordinates per block, which the kept rows' d*d coordinates are then computed from) and checks, with
R11^-1 R12, that the removed rows are consistent; dual multipliers for removed rows
are reported as zero, which keeps the returned ``dual`` vector a valid
certificate in the original row order. Each iteration's gap and residuals
are logged at DEBUG level on the ``steercert`` logger.

Constraints are one type: an ``SdpProblem`` takes a list of ``MatrixEquality``s between
Hermitian matrices, and its ``constraints`` are their rows, d*d per equality in the order
of ``hermitian_basis``; ``fold`` returns each one's multiplier as a Hermitian matrix.
``solve`` builds its (m x N) row matrix from the term stacks in one pass: the distinct
stacks of one shape are checked, realified and svec'd as one stack and scattered into the
rows of every equality that uses them.

dgeqp3, dtrtrs, dpotrf and dpotrs, with the workspace and layouts ``scipy.linalg`` gives them, are scipy's
``linalg/_flapack`` extension, loaded from its file so that ``scipy/linalg/__init__.py`` never runs and kept in
``sys.modules`` as ``scipy.linalg._flapack`` for a later ``import scipy.linalg``; else ``scipy.linalg.lapack``'s.

A solve has a structural half and a data half. The structural half, a ``Structure``, depends
only on the block dimensions, the objective and the term stacks: the checked row matrix's
presolve (kept rows, dropped rows and R11^-1 R12), the kept rows' norms, their coordinate stacks,
the sparse Schur plan and the objective stacks, all read-only arrays derived from the
problem, none a caller's. The data half is the right-hand sides, the dropped rows' consistency
check, the start point and the Newton loop. The problems ``SdpProblem.with_rhs`` makes share
the structure its first call builds from their parent, and ``solve`` runs their data half
only: it reads a child's right-hand sides and that structure, nothing else, so a write to the
parent after that call changes no child's solve, which is bit for bit the solve of the same
problem built afresh. Every other problem, the parent included, gets a structure of its own.
"""

from __future__ import annotations

import enum
import functools
import importlib.util
import itertools
import logging
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from .qlin import dagger, eigvalsh, hermitian_basis, is_hermitian

_log = logging.getLogger("steercert")

# stall stop: the best merit is this many iterations old, and the Schur complement
# needed regularisation at each of this many last steps, the current one included
_STALL_ITERS = 1
_STALL_REGULARISED = 2
# an unfinished solve whose best iterate has a relative gap and residuals within this is Optimal
_ACCEPT_TOL = 1e-8
_STEP_FRAC = 0.98  # the fraction of the step to the PSD boundary taken

# the gufuncs numpy.linalg's cholesky, svd and eigvalsh call, without their wrappers
_cholesky = np.linalg._umath_linalg.cholesky_lo
_svd = np.linalg._umath_linalg.svd_f
_eigvalsh = np.linalg._umath_linalg.eigvalsh_lo


def _lapack():
    """scipy's ``_flapack``, loaded as the module docstring says, or ``scipy.linalg.lapack``."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    try:
        where = importlib.util.find_spec("scipy.linalg").submodule_search_locations[0]
        spec = importlib.util.spec_from_file_location(name, os.path.join(where, "_flapack" + EXTENSION_SUFFIXES[0]))
        spec.loader.exec_module(module := importlib.util.module_from_spec(spec))
    except (ImportError, OSError) as exc:
        _log.debug("scipy's _flapack did not load from its file (%s); importing scipy.linalg.lapack", exc)
        return importlib.import_module("scipy.linalg.lapack")
    sys.modules[name] = module
    return module


_dtrtrs, _dpotrf, _dpotrs, _dgeqp3 = (getattr(_lapack(), f) for f in ("dtrtrs", "dpotrf", "dpotrs", "dgeqp3"))


class SolverStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_TROUBLE = "numerical_trouble"
    BOUND_EXCEEDED = "bound_exceeded"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@functools.cache
def _basis(d: int) -> np.ndarray:
    """``hermitian_basis(d)``, read-only and cached."""
    basis = hermitian_basis(d)
    basis.setflags(write=False)
    return basis


@dataclass(frozen=True)
class MatrixEquality:
    """An equality sum_k T_k(X_k) = rhs between d x d Hermitian matrices, whose rows are
    sum_k <T_k^dag(E_r), X_k> = <E_r, rhs> for the elements E_r of ``hermitian_basis(d)``.
    Each term is given by its adjoint on that basis: ``terms[k]`` is the (d*d, d_k, d_k)
    stack of T_k^dag(E_r) (see ``term_stack``)."""

    terms: dict[int, np.ndarray]
    rhs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rhs", np.asarray(self.rhs, dtype=complex))


def term_stack(d: int, adjoint=None) -> np.ndarray:
    """The stack T^dag(E_r), r = 1 .. d*d, of a term T with d x d Hermitian values, given its
    adjoint as a function of a stack of matrices; the identity term when ``adjoint`` is None."""
    return _basis(d) if adjoint is None else adjoint(_basis(d))


def LinearConstraint(coeffs: dict[int, np.ndarray], rhs: float) -> MatrixEquality:
    """The scalar equality sum_k <coeffs[k], X_k> = rhs (coeffs Hermitian), as a 1 x 1 ``MatrixEquality``."""
    return MatrixEquality({k: np.asarray(a)[None] for k, a in coeffs.items()}, np.full((1, 1), rhs))


@dataclass(eq=False)
class _Rows(Sequence):  # an ``SdpProblem``'s equalities, read as their rows
    equalities: list[MatrixEquality]

    def __len__(self) -> int:
        return sum(eq.rhs.shape[-1] ** 2 for eq in self.equalities)

    def __getitem__(self, i):
        return self._rows[i]

    @functools.cached_property
    def _rows(self) -> list[MatrixEquality]:
        rhs = iter(_rhs_rows(self.equalities))
        return [LinearConstraint({k: t[r] for k, t in eq.terms.items()}, next(rhs))
                for eq in self.equalities for r in range(eq.rhs.shape[-1] ** 2)]


def _by_dimension(equalities: list[MatrixEquality]):
    """Per dimension d of the equalities: d, the positions of its equalities, and their rows' indices."""
    dims = [eq.rhs.shape[-1] for eq in equalities]
    starts = np.cumsum([0] + [d * d for d in dims])
    for d in dict.fromkeys(dims):
        at = [q for q, dq in enumerate(dims) if dq == d]
        yield d, at, starts[at, None] + np.arange(d * d)


def _rhs_rows(equalities: list[MatrixEquality]) -> np.ndarray:
    """The right-hand side <E_r, rhs> of each row of each equality in turn, one stack per dimension."""
    out = np.empty(sum(eq.rhs.shape[-1] ** 2 for eq in equalities))
    for d, at, rows in _by_dimension(equalities):
        stack = np.array([equalities[q].rhs for q in at])
        # within the tolerance of Assemblage and realify, which every valid assemblage meets
        _check_hermitian(stack, lambda j: f"the right-hand side of equality {at[j]}", tol=1e-9)
        out[rows.ravel()] = (np.conj(_basis(d)) * stack[:, None]).sum(axis=(-2, -1)).real.ravel()
    return out


def fold(equalities: list[MatrixEquality], y: np.ndarray) -> list[np.ndarray]:
    """Each equality's multiplier Y = sum_r y_r E_r, as a Hermitian matrix, from the multipliers
    ``y`` of its rows: the terms y_r E_r added one after another to a zero, in basis order, for all
    the equalities of one dimension at once."""
    out = [None] * len(equalities)
    for d, at, rows in _by_dimension(equalities):
        terms = y[rows][..., None, None] * _basis(d)
        sums = np.add.accumulate(np.concatenate([np.zeros((len(at), 1, d, d)), terms], 1), axis=1)[:, -1]
        for q, total in zip(at, sums):
            out[q] = total
    return out


@dataclass
class SdpProblem:
    """Block-diagonal Hermitian SDP in the standard (maximization) form."""

    block_dims: tuple[int, ...]
    objective: list[np.ndarray | None]
    # given as a list of equalities, kept as their rows: d*d per equality in basis order, each a 1 x 1
    # equality with every coefficient kept, zero or not, made only when read (``solve`` reads the equalities)
    constraints: Sequence[MatrixEquality]
    # the structure of the parent whose ``with_rhs`` made this problem, shared with its siblings
    _shared: Structure | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):  # a problem's own rows, as ``dataclasses.replace`` passes them, give their equalities
        self.constraints = _Rows(list(getattr(self.constraints, "equalities", self.constraints)))

    @functools.cached_property
    def _children_structure(self) -> Structure:
        return Structure(self)

    def with_rhs(self, rhs) -> SdpProblem:
        """This problem with the right-hand side rhs[q] on equality q. Every problem made here
        shares one structure, built from this one at its first call: ``solve`` runs their data half only."""
        equalities = self.constraints.equalities
        rhs = [np.asarray(r, dtype=complex) for r in rhs]
        if len(rhs) != len(equalities):
            raise ValueError(f"{len(rhs)} right-hand sides for {len(equalities)} equalities")
        for q, (eq, r) in enumerate(zip(equalities, rhs)):
            if r.shape != eq.rhs.shape:
                raise ValueError(f"right-hand side {q} has shape {r.shape}, not {eq.rhs.shape}")
        child = SdpProblem(self.block_dims, list(self.objective),
                           [MatrixEquality(eq.terms, r) for eq, r in zip(equalities, rhs)])
        child._shared = self._children_structure
        return child


@dataclass
class SdpSolution:
    """``primal_residual``: the largest violation of a kept row; ``dual_residual``:
    the largest real or imaginary part of an entry of sum_i y_i A_i - C - Z;
    ``regularised_steps``: the iterations whose Schur complement needed a diagonal shift."""

    primal: list[np.ndarray]
    dual: np.ndarray
    dual_slacks: list[np.ndarray]
    primal_value: float
    dual_value: float
    status: SolverStatus
    iterations: int
    primal_residual: float = np.inf
    dual_residual: float = np.inf
    dropped_rows: tuple[int, ...] = field(default_factory=tuple)
    regularised_steps: int = 0

    @property
    def gap(self) -> float:
        """The relative duality gap |p - d| / (1 + |p|)."""
        return abs(self.primal_value - self.dual_value) / (1.0 + abs(self.primal_value))


def realify(a: np.ndarray) -> np.ndarray:
    """Real symmetric image [[Re A, -Im A], [Im A, Re A]] of a Hermitian A, or of a stack.
    A is PSD iff the image is PSD; Tr[image] = 2 Tr[A]."""
    if not is_hermitian(a := np.asarray(a, dtype=complex), tol=1e-9):
        raise ValueError("realify requires a Hermitian matrix")
    return _realify(a)


def _realify(a: np.ndarray) -> np.ndarray:
    """``realify`` without its Hermiticity check, for stacks ``_assemble`` has checked."""
    re, im = a.real, a.imag
    return np.concatenate([np.concatenate([re, -im], -1), np.concatenate([im, re], -1)], -2)


def derealify(m: np.ndarray) -> np.ndarray:
    """Recover the Hermitian matrix (or stack) whose realification best matches ``m``."""
    d = m.shape[-1] // 2
    re = 0.5 * (m[..., :d, :d] + m[..., d:, d:])
    im = 0.5 * (m[..., d:, :d] - m[..., :d, d:])
    h = re + 1j * im
    return 0.5 * (h + dagger(h))


@functools.cache
def _svec_indices(dim: int):
    """The flat positions of the lower-triangle entries, column by column, and their scales; read-only, cached."""
    jj, ii = np.triu_indices(dim)
    return tuple(np.broadcast_to(a, a.shape) for a in (ii * dim + jj, np.where(ii == jj, 1.0, np.sqrt(2.0))))


def _svec(mats: np.ndarray, idx) -> np.ndarray:
    dim = mats.shape[-1]
    return mats.reshape(mats.shape[:-2] + (dim * dim,)).take(idx[0], axis=-1) * idx[1]


@functools.cache
def _coordinates(d: int):
    """The d*d coordinates of a realified Hermitian block, its Frobenius products with the basis realify(B_k) / norm,
    B_k in ``hermitian_basis(d)``: the sum of each one's 2 or 4 signed copies times 1/sqrt(copies), the projection onto
    realifications. Returns the (D*D, d*d) signs, their transpose, the scales, the svec-to-these map and the (d*d, D, D)
    basis matrices E_l themselves; read-only."""
    copies_t = np.sign(_realify(_basis(d))).reshape(d * d, -1)
    scale = 1.0 / np.sqrt(np.abs(copies_t).sum(axis=1))
    basis = (copies_t * scale[:, None]).reshape(d * d, 2 * d, 2 * d)
    from_svec = np.ascontiguousarray(_svec(basis, _svec_indices(2 * d)).T)
    out = np.ascontiguousarray(copies_t.T), copies_t, scale, from_svec, basis
    for a in out:
        a.setflags(write=False)
    return out


def _coords(mats: np.ndarray, coordinates) -> np.ndarray:
    """The coordinates of a stack of D x D matrices, by one GEMM."""
    copies, _, scale, *_ = coordinates
    return (mats.reshape(-1, len(copies)) @ copies).reshape(mats.shape[:-2] + scale.shape) * scale


@functools.cache
def _scalar_coordinates():
    """``_coordinates(1)`` for scalars a, not a I_2: one copy of weight 2, the basis [[scale]]; read-only."""
    copies, copies_t, scale, from_svec, basis = _coordinates(1)
    (two := copies.sum(0, keepdims=True)).setflags(write=False)
    return two, copies_t[:, :1], scale, from_svec, basis[:, :1, :1]


def _matrices(coords: np.ndarray, coordinates) -> np.ndarray:
    """The D x D matrices sum_k c_k E_k of a stack of coordinates, by one GEMM."""
    _, copies_t, scale, *_ = coordinates
    dim = math.isqrt(copies_t.shape[-1])
    return ((coords * scale).reshape(-1, len(scale)) @ copies_t).reshape(coords.shape[:-1] + (dim, dim))


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.mT)


def _nt_scaling(xz: np.ndarray, eye: np.ndarray):
    """Nesterov-Todd scaling of a group's blocks, given as one stack [X; Z]: G^-1 X G^-T = G^T Z G
    = diag(lam) = W, with G = L_X V W^-1/2 and G^-T = L_Z U W^-1/2 from L_Z^T L_X = U W V^T. Returns
    G, G^T, G^-T, lam, W, T = G G^T and [F_X^T; F_Z^T] = [G^-T; G] W^-1/2, all C-contiguous."""
    n = len(xz) // 2
    if xz.shape[-1] == 1:  # L = sqrt, the SVD a product; a block outside (0, inf) raises, as potrf's NaN does
        if not ((xz > 0.0) & (xz < np.inf)).all():
            raise np.linalg.LinAlgError("[X; Z] is not positive definite")
        lx, lz = (root := np.sqrt(xz))[:n], root[n:]
        scale = (lam := np.maximum((lz * lx)[..., 0], 1e-300))[..., None] ** -0.5
        g, ginv_t = lx * scale, lz * scale
        return g, g, ginv_t, lam, lam[..., None] * eye, g * g, np.concatenate([ginv_t * scale, g * scale])
    with np.errstate(invalid="ignore"):  # a failed factorisation is NaN, and so are its products
        chol = _cholesky(xz, signature="d->d")
        lx, lz = chol[:n], chol[n:]
        u, lam, vt = _svd(lz.mT @ lx, signature="d->ddd")
    if np.isnan(lam).any():
        raise np.linalg.LinAlgError("[X; Z] is not positive definite, or its SVD did not converge")
    scale = (lam := np.maximum(lam, 1e-300))[..., None, :] ** -0.5
    g = lx @ np.ascontiguousarray(vt.mT) * scale
    ginv_t = lz @ u * scale
    gt = np.ascontiguousarray(g.mT)
    return g, gt, ginv_t, lam, lam[..., None] * eye, g @ gt, np.concatenate([ginv_t * scale, g * scale])


def _max_steps(factors: list[np.ndarray], deltas: list[np.ndarray]) -> tuple[float, float]:
    """sup {alpha : M + alpha*Delta >= 0 in every block}, for X and for Z at once, given per
    group [F_X^T; F_Z^T] (F M F^T = I, so M + alpha*Delta >= 0 iff I + alpha F Delta F^T >= 0)."""
    lam_p = lam_d = np.inf
    for ft, delta in zip(factors, deltas):
        lam = ((ft * delta * ft)[:, 0] if ft.shape[-1] == 1 else
               _eigvalsh(_sym(ft.mT @ delta @ ft), signature="d->d"))[:, 0]
        n = len(lam) // 2
        lo_p, lo_d = lam[:n].min(), lam[n:].min()
        if lo_p != lo_p or lo_d != lo_d:  # NaN: eigvalsh did not converge
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        lam_p, lam_d = min(lam_p, float(lo_p)), min(lam_d, float(lo_d))
    return tuple(np.inf if lam >= 0.0 else -1.0 / lam for lam in (lam_p, lam_d))


def _sparse_rows(a3: list[np.ndarray], order):
    """Per group (coordinate stack (n_g, mr, q)), each block's coefficients on the rows it touches,
    padded to the widest block with a dummy row mr, zero on the padding: as C-contiguous (n_g, r_g, q)
    and (n_g, q, r_g) stacks; and the bincount plan of ``_schur``, given the caller's order of the
    blocks of all groups (None: the groups' blocks are in it)."""
    mr = a3[0].shape[1]
    rows = []
    for a in a3:
        touched = (a != 0.0).any(axis=-1)
        width = int(touched.sum(axis=1).max())
        # each block's rows in order, then the dummy row; width 1 would take ddot
        rows.append(np.sort(np.where(touched, np.arange(mr), mr), axis=1)[:, :max(width, min(2, mr, 2 * width))])
    a_sp = [np.concatenate([a, np.zeros((len(a), 1, a.shape[-1]))], 1)[np.arange(len(a))[:, None], r]
            for a, r in zip(a3, rows)]
    a_t = [np.ascontiguousarray(a.mT) for a in a_sp]
    return a_sp, a_t, (_joined([r[:, :, None] * (mr + 1) + r[:, None, :] for r in rows], order), order, mr)


def _joined(stacks: list[np.ndarray], order) -> np.ndarray:
    """The blocks of per-group stacks, each raveled, joined in the caller's order; ``order``
    None when the groups' blocks are already in it."""
    if order is None:
        return np.concatenate([stack.ravel() for stack in stacks])
    flat = [x.ravel() for stack in stacks for x in stack]
    return np.concatenate([flat[k] for k in order])


def _kernels(t: np.ndarray, coordinates) -> np.ndarray:
    """K[k, l, m] = <E_m, T_k E_l T_k> over the d*d basis matrices E_l of ``_coordinates``, for a
    group's stack T: two broadcast products make every T_k E_l T_k and one GEMM reads their coordinates."""
    t = t[:, None]
    return _coords(t @ coordinates[4] @ t, coordinates)


def _schur(tmats: list[np.ndarray], a_sp: list[np.ndarray], a_t: list[np.ndarray], coordinates: list, plan):
    """S_ij = sum_k <A_ik, T_k A_jk T_k> = sum_k a_ik K_k a_jk^T from each block's own rows a_k and
    ``_kernels``' K_k, which costs d*d products where T A_j T for each row costs r; np.bincount adds
    the blocks one after another in the caller's order, as the dense sum over all rows did, whose
    other terms were exact zeros."""
    prods = []
    for t, a, at, c in zip(tmats, a_sp, a_t, coordinates):
        k = _kernels(t, c)
        if k.shape[-1] == 1:
            # one coordinate makes a K a^T an outer product, which numpy's matmul makes without BLAS;
            # padded by a zero coordinate, BLAS makes it, adding only exact zeros
            prods.append(np.concatenate((a * k, np.zeros_like(a)), -1) @ np.concatenate((at, np.zeros_like(at)), -2))
        else:
            prods.append(a @ k @ at)
    bins, order, mr = plan
    schur = np.bincount(bins, _joined(prods, order), (mr + 1) ** 2).reshape(mr + 1, -1)
    schur = schur[:mr, :mr]
    return 0.5 * (schur + schur.T)


def _presolve(mat: np.ndarray, pivot_tol: float):
    """A full-rank subset of the rows of ``mat``: the pivot order of a pivoted QR of mat^T, the
    rank, and R11^-1 R12, which writes the dropped rows in terms of the kept ones (None: none dropped).
    dgeqp3 and dtrtrs get what ``scipy.linalg.qr(mat.T, mode="r", pivoting=True)`` and ``solve_triangular``
    give them, dgeqp3 the workspace it asks for (a smaller one rounds differently)."""
    if not np.isfinite(mat).all():
        raise ValueError("array must not contain infs or NaNs")
    if not mat.size:  # no row, no rank
        return np.arange(len(mat), dtype=np.int32), 0, np.zeros((0, len(mat))) if len(mat) else None
    r, piv = _dgeqp3(mat.T, int(_dgeqp3(mat.T, lwork=-1)[-2][0]))[:2]
    piv -= 1
    diag = np.abs(r.diagonal())
    rank = int(np.count_nonzero(diag > pivot_tol * diag[0]))
    if rank == len(piv):
        return piv, rank, None
    # mat.T P = Q R: the dropped rows are R11^-1 R12 times the kept ones, in pivot order; trtrs reads
    # R's upper triangle only, and gets R11 as solve_triangular passes scipy's C-ordered one
    r11, r12 = r[:rank, :rank], r[:rank, rank:]
    if not rank:
        return piv, rank, r12
    return piv, rank, (_dtrtrs(r11, r12) if rank == 1 else _dtrtrs(r11.T, r12, 1, 1))[0]


def _check_hermitian(stack: np.ndarray, where, tol: float = 1e-10) -> None:
    """Raise unless every matrix of a stack is Hermitian within ``tol``; ``where(*i)`` names its matrix i."""
    defect = np.abs(stack - dagger(stack)).max(axis=(-2, -1))
    if (defect > tol).any():
        bad = np.argwhere(defect > tol)[0]
        raise ValueError(f"{where(*bad)} is not Hermitian (defect {defect[tuple(bad)]:.2e})")


def _rhs(constraints: _Rows) -> np.ndarray:
    """b: the right-hand side of each row, doubled as realification doubles the rows."""
    return 2.0 * _rhs_rows(constraints.equalities)


def _assemble(problem: SdpProblem):
    """Check the problem; return its (m, N) row matrix (each row's realified svec coefficients,
    block after block in the caller's order), the blocks of each dimension in order of first
    appearance, their objective stacks (zero for None) and each block's first column."""
    dims = problem.block_dims
    if len(problem.objective) != len(dims):
        raise ValueError("objective must provide one entry per block (None for zero)")
    equalities = problem.constraints.equalities
    offsets = np.cumsum([0] + [d * (2 * d + 1) for d in dims])  # svec length of a realified block
    starts = list(itertools.accumulate((eq.rhs.shape[-1] ** 2 for eq in equalities), initial=0))
    uses = {}  # shape -> {id of a term stack of that shape: (the stack, [(first row, block) of each use])}
    for eq, start, stop in zip(equalities, starts, starts[1:]):
        for k, stack in eq.terms.items():
            if stack.shape != (shape := (stop - start, dims[k], dims[k])):
                raise ValueError(f"constraint {start} block {k} has coefficients of shape {stack.shape}, not {shape}")
            uses.setdefault(shape, {}).setdefault(id(stack), (stack, []))[1].append((start, k))
    rows = np.zeros((starts[-1], offsets[-1]))
    for (n, d, _), distinct in uses.items():  # the distinct stacks of one shape: checked, realified, svec'd at once
        stacks, at = zip(*distinct.values())
        _check_hermitian(big := np.array(stacks), lambda j, r: f"constraint {at[j][0][0] + r} block {at[j][0][1]}")
        svecs = _svec(_realify(big), _svec_indices(2 * d))
        which, first, block = np.array([(j, start, k) for j, at_j in enumerate(at) for start, k in at_j]).T
        rows[first[:, None, None] + np.arange(n)[:, None],
             offsets[block][:, None, None] + np.arange(svecs.shape[-1])] = svecs[which]
    for k, c in enumerate(problem.objective):
        if c is not None and np.shape(c) != (dims[k], dims[k]):
            raise ValueError(f"objective block {k} has shape {np.shape(c)}, expected ({dims[k]}, {dims[k]})")
    groups = [np.array([k for k, dk in enumerate(dims) if dk == d]) for d in dict.fromkeys(dims)]
    zero = {d: np.zeros((d, d)) for d in dict.fromkeys(dims)}
    objectives = [np.array([zero[dims[k]] if problem.objective[k] is None else problem.objective[k] for k in blocks])
                  for blocks in groups]
    for blocks, stack in zip(groups, objectives):
        _check_hermitian(stack, lambda j: f"objective block {blocks[j]}")
    return rows, groups, objectives, offsets


def _checked_start(start, block_dims: tuple[int, ...], groups: list[np.ndarray]) -> list[np.ndarray]:
    """The primal start as one Hermitised stack per group of blocks, after checking the blocks'
    count and shapes, that each is Hermitian within 1e-9 (the tolerance of ``realify``) and that
    each is positive definite: one check and one ``eigvalsh`` per group. A refusal names the first
    offending block in the caller's order, and a block's Hermitian defect before its definiteness."""
    if len(start) != len(block_dims):
        raise ValueError(f"start has {len(start)} blocks, the problem {len(block_dims)}")
    for k, (x, d) in enumerate(zip(start, block_dims)):
        if np.shape(x) != (d, d):
            raise ValueError(f"start block {k} has shape {np.shape(x)}, expected ({d}, {d})")
    stacks, defects, definite = [], np.empty(len(block_dims)), np.empty(len(block_dims), dtype=bool)
    for blocks in groups:
        x = np.array([start[k] for k in blocks], dtype=complex)
        adjoint = dagger(x)
        defects[blocks] = np.abs(x - adjoint).max(axis=(-2, -1))
        stacks.append(h := 0.5 * (x + adjoint))
        definite[blocks] = eigvalsh(h)[:, 0] > 0.0
    if (bad := np.flatnonzero((defects > 1e-9) | ~definite)).size:
        k = bad[0]
        if defects[k] > 1e-9:
            raise ValueError(f"start block {k} is not Hermitian (defect {defects[k]:.2e})")
        raise ValueError(f"start block {k} is not positive definite")
    return stacks


class Structure:
    """The half of ``solve`` that depends only on a problem's block dimensions, objective and term
    stacks, never on its right-hand sides: the checked row matrix's presolve (kept and dropped rows,
    R11^-1 R12), the kept rows' norms, their coordinate stacks, the sparse Schur plan and the objective
    stacks; every array derived from the problem and read-only, none the caller's. ``solve``
    builds one per problem, except for the problems ``SdpProblem.with_rhs`` makes, which share one."""

    def __init__(self, problem: SdpProblem):
        rows, groups, objectives, offsets = _assemble(problem)
        self.block_dims, self.m = tuple(problem.block_dims), len(rows)
        self.dims = [2 * c.shape[-1] for c in objectives]
        self.sizes = [len(blocks) for blocks in groups]
        self.scalar = [c.shape[-1] == 1 for c in objectives]  # groups of 1 x 1 blocks, kept as scalars
        self.coordinates = [_scalar_coordinates() if s else _coordinates(len(c[0]))
                            for c, s in zip(objectives, self.scalar)]
        self.cmats = [np.ascontiguousarray(c.real) if s else _realify(c) for c, s in zip(objectives, self.scalar)]
        self.eyes = [np.eye(c.shape[-1]) for c in self.cmats]
        self.groups = groups
        flat = [k for blocks in groups for k in blocks.tolist()]
        self.order = None if flat == sorted(flat) else np.argsort(flat)  # None: already in it
        piv, rank, coef = _presolve(rows, pivot_tol=1e-10)
        self.keep, self.drop = np.sort(piv[:rank]), np.sort(piv[rank:])
        self.pivots, self.coef_t = (piv[:rank], piv[rank:]), None if coef is None else coef.T
        kept = rows[self.keep]
        self.row_norms = np.sqrt(np.add.reduce(kept * kept, axis=1))  # np.linalg.norm's, for the start point
        # the largest Frobenius norm of a realified objective block, each by one ddot as in np.linalg.norm
        sq = max(float(f.max()) for f in self.doubled([(f[:, None, :] @ f[:, :, None])
                                                        for f in (c.reshape(len(c), -1) for c in self.cmats)]))
        self.xi_d = max(1.0, np.sqrt(sq)) * np.sqrt(max(self.dims))
        self.z_start = [self.xi_d * eye[None].repeat(n, axis=0) for eye, n in zip(self.eyes, self.sizes)]
        self.a3 = self.a_sp = self.a_t = self.schur_plan = None
        if rank:
            # the kept rows in d*d coordinates, one C-contiguous (n_g, mr, q) stack per group
            self.a3 = [(rows[self.keep[None, :, None], (offsets[blocks][:, None] + np.arange(len(f)))[:, None, :]]
                        .reshape(-1, len(f)) @ f).reshape(len(blocks), rank, -1)
                       for blocks, (*_, f, _) in zip(groups, self.coordinates)]
            self.a_sp, self.a_t, self.schur_plan = _sparse_rows(self.a3, self.order)
        for value in vars(self).values():  # every array made here, also in a list or tuple (coordinates' are read-only)
            for array in value if isinstance(value, (list, tuple)) else (value,):
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)

    def violation(self, b: np.ndarray) -> float:
        """The largest amount by which b breaks the linear dependencies of the dropped rows."""
        kept, dropped = self.pivots
        return float(np.max(np.abs(b[dropped] - self.coef_t @ b[kept]))) if len(dropped) else 0.0

    def in_order(self, stacks):
        """The blocks of one stack per group, listed in the caller's order."""
        flat = [x for stack in stacks for x in stack]
        return flat if self.order is None else [flat[i] for i in self.order]

    def block_sum(self, parts):
        """Sum over the blocks of per-group stacks, one block after another in the
        caller's order (np.add.reduce would add a lone column pairwise)."""
        blocks = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return np.add.accumulate(blocks if self.order is None else blocks[self.order])[-1]

    def doubled(self, parts):
        """Per-group parts, a scalar group's doubled, as its realified a I_2 counted each a twice."""
        return [2.0 * p if s else p for p, s in zip(parts, self.scalar)]

    def objective(self, xzs):
        return 0.5 * self.block_sum(self.doubled([(c * xz[:n]).sum(axis=(-2, -1))
                                                  for c, xz, n in zip(self.cmats, xzs, self.sizes)]))

    def op_a(self, mats):
        parts = []
        for a, x, c in zip(self.a3, mats, self.coordinates):
            v = _coords(x, c)
            # with one coordinate, one product per entry, which a matmul with inner dimension 1 makes without BLAS
            parts.append(a[..., 0] * v if a.shape[-1] == 1 else np.matmul(a, v[..., None])[..., 0])
        return self.block_sum(parts)

    def op_at(self, y):
        return [_matrices(np.matmul(y, a), c) for a, c in zip(self.a3, self.coordinates)]


def solve(
    problem: SdpProblem,
    *,
    max_iters: int = 200,
    gap_tol: float = 1e-9,
    feas_tol: float = 1e-9,
    start: Sequence[np.ndarray] | None = None,
    stop_above: float | None = None,
) -> SdpSolution:
    """Solve the SDP; the returned status honestly reflects termination.

    ``gap_tol``/``feas_tol`` are the targets the iteration aims for. A solve
    that ends short of them is still declared Optimal when its best-merit
    iterate has a relative gap and both residuals within 1e-8. ``start``, one
    positive definite Hermitian matrix per block in the caller's order, replaces
    the primal start xi_p * I; the dual start xi_d * I, y = 0 is the same either way.

    ``stop_above`` is a bar for a caller that only needs to know whether the optimum
    exceeds it. The solve stops at the first iterate whose primal residual is within
    ``feas_tol`` and whose primal value p_k exceeds stop_above + 2 g (1 + |stop_above|),
    g = max(gap_tol, 1e-8), and returns that iterate with status BOUND_EXCEEDED: a
    feasible point whose value already beats the bar. The margin is the most an optimal
    end may leave. Such an end reports a primal value p_f within g (1 + |p_f|) of its dual
    value d_f, and weak duality puts d_f above the value of any feasible iterate, up to
    terms of order ``feas_tol``: so p_f >= p_k - g (1 + |p_f|) - O(feas_tol). Were p_f at
    most the bar, g (1 + |p_f|) would be g (1 + |stop_above|) to first order, and p_k
    would lie within that of the bar, plus the residual terms, which the second
    g (1 + |stop_above|) covers. So a solve that would end optimal at or below the bar
    never meets this stop, and takes the same steps with the bar as without it.
    """
    st = Structure(problem) if problem._shared is None else problem._shared
    if start is not None:
        start = _checked_start(start, st.block_dims, st.groups)
    b = _rhs(problem.constraints)
    sizes, eyes, cmats, keep = st.sizes, st.eyes, st.cmats, st.keep

    def _package(xzs, y_red, status, iters, pres, dres, shifted=0, pval=None):
        if xzs is None:
            xzs = [np.zeros((2 * len(z),) + z.shape[1:]) for z in st.z_start]
        y = np.zeros(st.m)
        if y_red is not None:
            y[keep] = y_red
        pval = st.objective(xzs) if pval is None else pval
        dval = 0.5 * float(b @ y)
        herms = [xz + 0j if s else derealify(xz) for xz, s in zip(xzs, st.scalar)]
        primal = st.in_order([h[:n] for h, n in zip(herms, sizes)])
        slacks = st.in_order([h[n:] for h, n in zip(herms, sizes)])
        return SdpSolution(primal, y, slacks, float(pval), dval, status, iters, pres, dres,
                           tuple(int(i) for i in st.drop), shifted)

    b_scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    violation = st.violation(b)
    if not violation <= _ACCEPT_TOL * b_scale:
        # the rows and right-hand sides are realified, which doubles the violation
        return _package(None, None, SolverStatus.INFEASIBLE, 0, 0.5 * violation, np.inf)

    b_red = b[keep]
    mr = len(keep)
    if mr == 0:
        raise ValueError("a well-formed problem needs at least one linearly independent constraint")
    op_a, op_at, block_sum, objective, doubled = st.op_a, st.op_at, st.block_sum, st.objective, st.doubled

    # infeasible start: scaled identities sized from the data, or the caller's primal blocks
    if start is None:
        xi_p = max(1.0, float(np.max(np.abs(b_red) / (1.0 + st.row_norms)))) * np.sqrt(max(st.dims))
        xs = [xi_p * eye[None].repeat(n, axis=0) for eye, n in zip(eyes, sizes)]
    else:
        xs = [stack.real if s else _realify(stack) for stack, s in zip(start, st.scalar)]
    # each group's X and Z blocks as one stack [X; Z]
    xzs = [np.concatenate([x, z]) for x, z in zip(xs, st.z_start)]
    y = np.zeros(mr)
    eye_m = np.eye(mr)
    # the primal value above which a feasible iterate ends the solve; see the docstring
    bar = np.inf if stop_above is None else stop_above + 2.0 * max(gap_tol, _ACCEPT_TOL) * (1.0 + abs(stop_above))
    n_total = float(2 * sum(st.block_dims))

    best = None
    best_merit = np.inf
    best_it = 0
    regularised = 0  # consecutive regularised Schur factorisations, this iteration's included
    regularised_steps = 0
    status = SolverStatus.MAX_ITERATIONS
    iters_done = 0

    for it in range(max_iters):
        iters_done = it
        pobj = objective(xzs)
        dobj = 0.5 * float(b_red @ y)
        rp = b_red - op_a([xz[:n] for xz, n in zip(xzs, sizes)])
        rd = [aty - c - xz[n:] for aty, c, xz, n in zip(op_at(y), cmats, xzs, sizes)]

        pres = 0.5 * float(abs(rp).max())
        dres = max(float(abs(r).max()) for r in rd)
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj))
        merit = max(relgap, pres, dres)
        _log.debug("iter %3d  gap %9.2e  pres %9.2e  dres %9.2e", it, relgap, pres, dres)
        if merit < best_merit:
            best_merit, best_it = merit, it
            best = (xzs, y, pres, dres, pobj, relgap)  # iterates are replaced, never changed in place
        if relgap <= gap_tol and pres <= feas_tol and dres <= feas_tol:
            status = SolverStatus.OPTIMAL
            break
        if pres <= feas_tol and pobj > bar:
            _log.debug("iter %3d  primal value %.12g beats the bar %.12g", it, pobj, stop_above)
            return _package(xzs, y, SolverStatus.BOUND_EXCEEDED, it, pres, dres, regularised_steps, pobj)

        # divergence guard: a growing dual iterate whose direction improves the
        # dual objective while staying dual-feasible certifies infeasibility
        y_norm = float(abs(y).max())
        if y_norm > 1e8 * b_scale:
            ray = y / y_norm
            ray_psd = all(np.min(eigvalsh(_sym(s))[..., 0]) >= -1e-6 for s in op_at(ray))
            if ray_psd and float(b_red @ ray) < -1e-6:
                status = SolverStatus.INFEASIBLE
                break
            status = SolverStatus.NUMERICAL_TROUBLE
            break

        try:
            gmats, gts, ginv_ts, lams, wmats, tmats, factors = zip(*[_nt_scaling(xz, eye) for xz, eye in zip(xzs, eyes)])
        except np.linalg.LinAlgError:
            status = SolverStatus.NUMERICAL_TROUBLE
            break

        mu = block_sum(doubled([np.matmul(lam[:, None, :], lam[:, :, None])[:, 0, 0] for lam in lams])) / n_total

        schur = _schur(tmats, st.a_sp, st.a_t, st.coordinates, st.schur_plan)
        diag_mean = max(float(schur.diagonal().sum()) / mr, 1e-300)
        for reg in (0.0, 1e-13, 1e-11, 1e-9, 1e-7):
            schur_chol, info = _dpotrf(schur + reg * diag_mean * eye_m, 1, 0)
            if info == 0:
                break
        else:
            status = SolverStatus.NUMERICAL_TROUBLE
            break
        regularised = regularised + 1 if reg else 0
        if reg:
            regularised_steps += 1
            _log.debug("iter %3d  Schur complement regularised by %.0e of its mean diagonal", it, reg)
        if it - best_it >= _STALL_ITERS and regularised >= _STALL_REGULARISED:
            _log.debug("iter %3d  stalled: best merit at iter %d, Schur complement regularised "
                       "at each of the last %d steps", it, best_it, regularised)
            status = SolverStatus.NUMERICAL_TROUBLE
            break

        # the same in the predictor and the corrector
        a_trdt = op_a([t @ r @ t for t, r in zip(tmats, rd)])

        def newton_step(dmats):
            """Solve for dy and, per group, the stack [dX; dZ], given the scaled
            complementarity target."""
            gdg = [g @ dm @ gt for g, gt, dm in zip(gmats, gts, dmats)]
            dy = _dpotrs(schur_chol, op_a(gdg) - a_trdt - rp, 1)[0]
            dz = [atdy + r for atdy, r in zip(op_at(dy), rd)]
            return [_sym(np.concatenate([v - t @ w @ t, w])) for v, t, w in zip(gdg, tmats, dz)], dy

        def stepped(ap, ad, dxzs):
            """Each group's [X + ap dX; Z + ad dZ]."""
            return [xz + np.array((ap, ad)).repeat(n)[:, None, None] * dxz for xz, dxz, n in zip(xzs, dxzs, sizes)]

        # predictor: aim at the complementarity target 0
        dxz_aff, _ = newton_step([-w for w in wmats])
        ap, ad = (min(1.0, s) for s in _max_steps(factors, dxz_aff))
        mu_aff = block_sum(doubled([(s[:n] * s[n:]).sum(axis=(-2, -1))
                                    for s, n in zip(stepped(ap, ad, dxz_aff), sizes)])) / n_total
        sigma = min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3))

        # corrector with Mehrotra second-order term, in the scaled space
        dmats = []
        for g, gt, ginv_t, lam, w, dxz, eye, n in zip(gmats, gts, ginv_ts, lams, wmats, dxz_aff, eyes, sizes):
            dxt = ginv_t.mT @ dxz[:n] @ ginv_t
            dzt = gt @ dxz[n:] @ g
            cross = 0.5 * (dxt @ dzt + dzt @ dxt)
            dmat = sigma * mu * eye - lam[..., None] * w - cross
            dmats.append(2.0 * dmat / (lam[..., :, None] + lam[..., None, :]))
        dxzs, dy = newton_step(dmats)

        ap, ad = (min(1.0, _STEP_FRAC * s) for s in _max_steps(factors, dxzs))
        if ap < 1e-10 and ad < 1e-10:
            status = SolverStatus.NUMERICAL_TROUBLE
            break
        xzs = [_sym(s) for s in stepped(ap, ad, dxzs)]
        y = y + ad * dy
    else:
        iters_done = max_iters

    if status is SolverStatus.INFEASIBLE:
        return _package(None, None, status, iters_done, np.inf, np.inf, regularised_steps)

    xzs_f, y_f, pres_f, dres_f, pobj, relgap = best if best is not None else (xzs, y, np.inf, np.inf, None, np.inf)
    if status is not SolverStatus.OPTIMAL:
        if relgap <= _ACCEPT_TOL and pres_f <= _ACCEPT_TOL and dres_f <= _ACCEPT_TOL:
            status = SolverStatus.OPTIMAL
    return _package(xzs_f, y_f, status, iters_done, pres_f, dres_f, regularised_steps, pobj)
