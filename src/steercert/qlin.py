"""Complex linear algebra and quantum-object primitives.

Matrices are dense ``numpy`` arrays with ``complex128`` entries. One global
convention is used everywhere: tensor factors are ordered Alice-major, i.e.
``np.kron(A, B)`` puts ``A`` on the slow (leftmost) index and composite
dimensions are written ``(d_A, d_B, ...)``.

A measurement (`Povm`) holds its elements as one read-only ``(n, d, d)``
stack, checked once on construction, so that callers contract whole stacks
in place of looping over elements. `partial_trace` takes such stacks too,
tracing each matrix over its last two axes. `normalised` (the square-root
normalisation, or pretty-good measurement) and `helstrom_pair` are the two
closed-form measurement builders that every caller shares.

Tolerances: 1e-12 for algebraic identities, 1e-10 for PSD / POVM validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ALG_TOL = 1e-12
PSD_TOL = 1e-10

_SUBSYSTEM_NAMES = {"A": 0, "B": 1, "E": 2}


def dagger(a: np.ndarray) -> np.ndarray:
    """Adjoint of a matrix, or of each matrix in a stack (last two axes)."""
    return np.conj(a).swapaxes(-1, -2)


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation between ``a`` and its adjoint (over a stack)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a - dagger(a)))) if a.size else 0.0


def is_hermitian(a: np.ndarray, tol: float = ALG_TOL) -> bool:
    return hermiticity_defect(a) <= tol


def eigh(a: np.ndarray):
    """``np.linalg.eigh(a)`` by the gufunc it calls, without the wrapper's checks and per-call ``errstate``,
    which cost more than a small eigensystem; a failure (NaN) raises ``LinAlgError``."""
    return _converged(*np.linalg._umath_linalg.eigh_lo(a, signature="D->dD" if np.iscomplexobj(a) else "d->dd"))


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(a)`` as ``eigh``."""
    return _converged(np.linalg._umath_linalg.eigvalsh_lo(a, signature="D->d" if np.iscomplexobj(a) else "d->d"))[0]


def _converged(vals, *vecs):
    if np.isnan(vals).any():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return (vals, *vecs)


def not_psd(stack: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """Which matrices of a stack are not Hermitian within ``tol`` with spectrum >= -tol,
    by one Hermiticity test and one ``eigvalsh`` of the whole stack."""
    adjoint = dagger(stack)
    hermitian = np.abs(stack - adjoint).max(axis=(-2, -1)) <= max(tol, ALG_TOL)
    h = 0.5 * (stack + adjoint)
    if not hermitian.all():
        h[~hermitian] = 0.0  # no eigvalsh of a NaN
    return ~(hermitian & (eigvalsh(h)[..., 0] >= -tol))


def partial_trace(m: np.ndarray, dims: tuple[int, ...], keep) -> np.ndarray:
    """Reduced operator on the kept subsystem(s); preserves the trace.

    ``m`` is one operator or a stack of them (the last two axes).
    ``dims`` lists the subsystem dimensions Alice-major; ``keep`` is a
    subsystem index, a sequence of indices, or one of the tags 'A'/'B'/'E'.
    """
    m = np.asarray(m, dtype=complex)
    dims = tuple(int(d) for d in dims)
    total = math.prod(dims)
    if m.ndim < 2 or m.shape[-2:] != (total, total):
        raise ValueError(f"operator dimension {m.shape} does not match subsystem dims {dims}")
    if isinstance(keep, str):
        keep = (_SUBSYSTEM_NAMES[keep.upper()],)
    elif isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = tuple(sorted(int(k) for k in keep))
    n = len(dims)
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep={keep} out of range for {n} subsystems")

    lead = m.shape[:-2]
    t = m.reshape(lead + dims + dims)
    traced = [i for i in range(n) if i not in keep]
    for count, i in enumerate(sorted(traced, reverse=True)):
        t = np.trace(t, axis1=len(lead) + i, axis2=len(lead) + i + n - count)
    d_keep = math.prod(dims[k] for k in keep)
    return t.reshape(lead + (d_keep, d_keep))


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of d x d Hermitian matrices, shape (d*d, d, d).

    Ordering: the d diagonal units, then (E_ij + E_ji)/sqrt(2) for i < j,
    then i(E_ij - E_ji)/sqrt(2) for i < j. Orthonormal under Tr[A B], so
    expansion coefficients of a Hermitian matrix are real.
    """
    basis = np.zeros((d * d, d, d), dtype=complex)
    idx = 0
    for i in range(d):
        basis[idx, i, i] = 1.0
        idx += 1
    s = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            basis[idx, i, j] = s
            basis[idx, j, i] = s
            idx += 1
    for i in range(d):
        for j in range(i + 1, d):
            basis[idx, i, j] = -1j * s
            basis[idx, j, i] = 1j * s
            idx += 1
    return basis


def hermitian_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product Re Tr[A^dag B] (the Hilbert-Schmidt product)."""
    return float(np.real(np.sum(np.conj(a) * b)))


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix with phase fix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def freeze(a) -> np.ndarray:
    """A read-only complex copy; C-ordered when ``a`` is a list of arrays."""
    out = np.array(a, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def square_grid(name: str, a, ndim: int) -> np.ndarray:
    """``freeze(a)``, checked to be a nonempty grid of d x d blocks: ``ndim`` axes, none of
    length 0, the last two of equal length. The grid's shape is then all its sizes."""
    grid = freeze(a)
    if grid.ndim != ndim or 0 in grid.shape or grid.shape[-1] != grid.shape[-2]:
        raise ValueError(f"{name} has shape {grid.shape}, expected {ndim} nonempty axes, the last two equal")
    return grid


@dataclass(frozen=True)
class Povm:
    """Measurement as a read-only (n_outcomes, d, d) stack of PSD elements
    summing to identity."""

    elements: np.ndarray

    def __init__(self, elements, *, tol: float = PSD_TOL):
        els = list(elements)  # the given matrices, or the rows of a given stack
        if not els:
            raise ValueError("a POVM needs at least one element")
        d = np.shape(els[0])[0]
        for k, e in enumerate(els):
            if np.shape(e) != (d, d):
                raise ValueError(f"element {k} has shape {np.shape(e)}, expected ({d}, {d})")
        stack = freeze(elements if isinstance(elements, np.ndarray) else els)
        if (bad := not_psd(stack, tol)).any():
            raise ValueError(f"element {np.flatnonzero(bad)[0]} is not PSD within {tol:g}")
        defect = np.abs(stack.sum(axis=0) - np.eye(stack.shape[1])).max()
        if defect > tol:
            raise ValueError(f"elements sum to identity only within {defect:.3e}")
        object.__setattr__(self, "elements", stack)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.elements.shape[0]

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, a: int) -> np.ndarray:
        return self.elements[a]


def basis_povm(vectors: np.ndarray) -> Povm:
    """Projective POVM from the columns of a unitary (one outcome per column)."""
    cols = np.asarray(vectors, dtype=complex).T
    return Povm(cols[:, :, None] * cols.conj()[:, None, :])


def normalised(stack: np.ndarray) -> np.ndarray:
    """T^-1/2 W_k T^-1/2 for each W_k of a stack, with T = sum_k W_k: complete
    whenever T has full rank. Applied to an ensemble it is the pretty-good
    measurement; applied to nearly complete POVM elements it restores
    completeness."""
    vals, vecs = eigh(stack.sum(axis=0))
    inv_sqrt = (vecs * np.maximum(vals, 1e-300) ** -0.5) @ dagger(vecs)
    return inv_sqrt @ stack @ inv_sqrt


def helstrom_pair(diff: np.ndarray) -> np.ndarray:
    """The stack [P, 1 - P], with P the projector onto the negative eigenspace of
    diff = W_0 - W_1: the two-outcome measurement minimising <W_0, M_0> + <W_1, M_1>
    (Helstrom's)."""
    vals, vecs = eigh(diff)
    neg = vecs[:, vals < 0.0]
    p = neg @ dagger(neg)
    return np.stack([p, np.eye(len(p), dtype=complex) - p])


def matrix_to_json(a: np.ndarray) -> list:
    """Complex matrix, or grid of matrices, as nested row-major lists of [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def matrix_from_json(rows: list) -> np.ndarray:
    """Inverse of `matrix_to_json`, for a matrix or a grid of matrices."""
    pairs = np.array(rows, dtype=float)
    if pairs.ndim < 3 or pairs.shape[-1] != 2 or pairs.shape[-3] != pairs.shape[-2]:
        raise ValueError("expected a square matrix encoding")
    return pairs.view(complex)[..., 0]
