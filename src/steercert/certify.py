"""Randomness certification SDPs and their dual witnesses.

Four optimization problems are assembled here, all over an eavesdropper's
decompositions of the observed data:

* local steering: how well can Eve guess the untrusted outcome at the
  target input, over all no-signalling decompositions sigma^e_{a|x} of
  the observed assemblage;
* global steering: Eve guesses the pair (untrusted outcome, trusted
  outcome of a fixed known measurement) via sigma^{ee'}_{a|x};
* prepare-and-measure: the shared state is trusted too, so Eve's freedom
  shrinks to joint measurement operators M^e_{a|x} on the untrusted side;
* the dual of the steering problems, whose coefficients F_{a|x} form a
  steering inequality that upper-bounds every outcome probability at the
  target input uniformly over no-signalling assemblages.

Degeneracy handling: whenever an observed block sigma_{a|x} is rank
deficient (pure conditional states, lossless no-click rows), every PSD
summand is supported inside its range, so the corresponding variables are
compressed onto that support before solving. This exact facial reduction
restores strict feasibility, which the interior-point engine needs to
reach certification-grade accuracy; dropped rank-0 blocks reappear as
explicit zero matrices in the reported strategy. The dual witness is read
off the primal solve's consistency multipliers either way; on reduced
instances it certifies the bound on the observed faces (where the reduced
pair attains strong duality). No SDP is solved where the data decide the
optimum: where every face kept has rank 1 (pure states measured projectively),
`_closed_form` gives it with a dual whose feasibility margin is checked; where
`loss_attack` or `lhs_attack` lets Eve guess Alice's outcome with certainty,
`_zero_bits` gives p = 1 with the trivial inequality. Such a result ignores
`stop_above`. Where a full-space witness is wanted, the
see-saw's `_stepping_functional` takes it from the certification of the
assemblage smoothed by uniform noise (`_smoothed`), which is not reduced; its
value exceeds the optimum by an amount that shrinks as sqrt(delta).

Every constraint is an equality between Hermitian matrices over a grid of
Eve's compressed blocks (`_EveGrid`), expanded into rows and folded back into
matrix multipliers by `sdp.MatrixEquality`, `sdp.expand` and `sdp.fold`.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import sdp
from .qlin import Povm, dagger, eigh, eigvalsh, freeze, hermitian_basis, matrix_to_json, partial_trace, square_grid
from .scenario import Assemblage, assemblage_from, steering_adjoint

CONSISTENCY_TOL = 1e-8
SUPPORT_CUTOFF = 1e-11  # relative eigenvalue threshold for facial reduction
# the steering parents kept, least recently used dropped first; keyed by face ranks, not isometries, and rebuilt
# in place only when a face leaves its subspace by more than 1e-12 (see _steering_parent): one per sweep, not eight
SHARED_STRUCTURES = 8


class CertificationError(RuntimeError):
    pass


@dataclass(frozen=True)
class JointAssemblage:
    """Eve-resolved grid sigma_e[e, a, x] of shape (eve_alphabet, n_outcomes, n_inputs, d, d);
    the primal variable of the steering certification problems."""

    sigma_e: np.ndarray

    def __init__(self, sigma_e):
        object.__setattr__(self, "sigma_e", square_grid("sigma_e", sigma_e, 5))

    @property
    def eve_alphabet(self) -> int:
        return self.sigma_e.shape[0]

    def min_block_eig(self) -> float:
        return float(np.min(np.linalg.eigvalsh(0.5 * (self.sigma_e + dagger(self.sigma_e)))[..., 0]))

    def consistency_defect(self, asm: Assemblage) -> float:
        return float(np.max(np.abs(self.sigma_e.sum(axis=0) - asm.sigma)))

    def signalling_defect(self) -> float:
        marg = self.sigma_e.sum(axis=1)  # (n_E, m, d, d)
        return float(np.max(np.abs(marg - marg[:, :1])))

    def validate(self, asm: Assemblage, tol: float = CONSISTENCY_TOL) -> None:
        if self.min_block_eig() < -tol:
            raise ValueError(f"joint assemblage block eigenvalue below -{tol:g}")
        defect = self.consistency_defect(asm)
        if defect > tol:
            raise ValueError(f"joint assemblage inconsistent with observations by {defect:.3e}")
        sig = self.signalling_defect()
        if sig > tol:
            raise ValueError(f"joint assemblage signals by {sig:.3e}")

    def guess_probability(self, x_star: int, guess_outcome=None) -> float:
        """sum_e Tr[sigma^e_{a = guess(e) | x_star}] for this strategy."""
        es = np.arange(self.eve_alphabet)
        blocks = self.sigma_e[es, es if guess_outcome is None else np.asarray(guess_outcome), x_star]
        return float(sum(np.trace(blocks, axis1=1, axis2=2).real))


@dataclass(frozen=True)
class SteeringFunctional:
    """Coefficients F[a, x] of a steering inequality witnessing the bound.

    For steering scenarios the stored multipliers G[e, x] certify dual
    feasibility: for every guess e, outcome a and input x the operator

        F[a, x] - delta_{a, guess_outcome[e]} delta_{x, x*} guess_target[e]
                - G[e, x] + delta_{x, x*} sum_x' G[e, x']

    is PSD (up to solver tolerance), which makes the functional's value a
    uniform upper bound on every outcome probability at x*.

    When the certification was facially reduced (rank-deficient observed
    blocks), the dual optimum of the full problem is not attained and the
    stored multipliers certify feasibility on the reduced faces only; the
    face isometries are kept in `supports` and `feasibility_margin`
    compresses onto them. The see-saw's `_stepping_functional` produces a
    globally feasible inequality when it needs one: that of the assemblage
    smoothed by uniform noise of weight delta, whose value exceeds the
    optimum by an amount that shrinks as sqrt(delta).

    In the prepare-and-measure scenario the dual carries an extra constant
    from the completeness multipliers, stored in `offset`, and no G grid.
    """

    F: np.ndarray
    x_star: int
    G: np.ndarray | None = None
    guess_outcome: np.ndarray | None = None
    guess_target: np.ndarray | None = None
    offset: float = 0.0
    supports: tuple[tuple[np.ndarray, ...], ...] | None = None

    def value_on(self, asm) -> float:
        sigma = asm.sigma if isinstance(asm, Assemblage) else np.asarray(asm)
        if sigma.shape != self.F.shape:
            raise ValueError(f"assemblage grid {sigma.shape} does not match F {self.F.shape}")
        return float(np.real(np.sum(np.conj(self.F) * sigma))) + self.offset

    def feasibility_margin(self) -> float:
        """Most negative eigenvalue over the dual-feasibility operators
        (compressed onto the certificate's faces when facially reduced)."""
        if self.G is None or self.guess_outcome is None or self.guess_target is None:
            raise ValueError("no dual multipliers stored for this functional")
        h = self.F[None] - self.G[:, None]  # the (n_guess, n_a, m, d, d) grid of operators
        h[:, :, self.x_star] += self.G.sum(axis=1)[:, None]
        h[np.arange(len(h)), self.guess_outcome, self.x_star] -= self.guess_target
        # compressed onto the faces of each rank at once, leaving out faces of rank 0
        faces = [(a, x, v) for a, row in enumerate(self.supports or ()) for x, v in enumerate(row) if v.shape[1]]
        blocks = [h] if self.supports is None else []
        for rank in dict.fromkeys(v.shape[1] for *_, v in faces):
            a, x, vs = map(np.array, zip(*(face for face in faces if face[2].shape[1] == rank)))
            blocks.append(vs.conj().mT @ h[:, a, x] @ vs)
        return min(float(np.min(eigvalsh(0.5 * (b + dagger(b))))) for b in blocks)

    def to_json(self) -> dict:
        data = {
            "x_star": int(self.x_star),
            "offset": float(self.offset),
            "F": matrix_to_json(self.F),
        }
        if self.G is not None:
            data["G"] = matrix_to_json(self.G)
        return data


@dataclass(frozen=True)
class CertificationResult:
    """Guessing probability and the dual witness of one solve; the min-entropy, the
    duality gap and the target input are read from them."""

    p_guess: float
    dual_value: float
    status: sdp.SolverStatus
    functional: SteeringFunctional
    joint: JointAssemblage | None = None
    pm_measurements: np.ndarray | None = None

    @property
    def h_min(self) -> float:
        return min_entropy(self.p_guess)

    @property
    def gap(self) -> float:
        """|p_guess - dual_value|. An optimal solve bounds the relative gap |p - d| / (1 + |p|) by its gap_tol
        (1e-9 by default) or, ended short of it, by 1e-8: so where p_guess is near 1 this can reach twice that."""
        return abs(self.p_guess - self.dual_value)

    @property
    def x_star(self) -> int:
        return self.functional.x_star

    def to_json(self) -> dict:
        return {
            "p_guess": float(self.p_guess),
            "h_min": float(self.h_min),
            "gap": float(self.gap),
            "status": str(self.status),
            "x_star": int(self.x_star),
            "dual_value": float(self.dual_value),
            "functional": self.functional.to_json(),
        }


def min_entropy(p_guess: float) -> float:
    """Extractable uniform bits per run, -log2 of the guessing probability."""
    if p_guess <= 0.0:
        raise ValueError(f"guessing probability must be positive, got {p_guess}")
    return float(0.0 - np.log2(p_guess))  # +0.0, not -0.0, at p = 1


def _check_x_star(n_inputs: int, x_star: int) -> None:
    if not 0 <= x_star < n_inputs:
        raise ValueError(f"x_star = {x_star} outside the {n_inputs} available inputs")


def _supports(mats: np.ndarray) -> list[list[np.ndarray]]:
    """The support isometry of each mats[a, x] of an (n_a, m, d, d) grid of PSD matrices: the eigenvectors
    of its Hermitian part (one batched ``eigh``) with eigenvalues above SUPPORT_CUTOFF times the largest of the
    grid, or the identity when all are, so that unreduced problems keep the plain, unrotated variables.
    Each is read-only: a cached steering parent's grid and a result's functional may hold the same one."""
    vals, vecs = eigh(0.5 * (mats + dagger(mats)))
    keep = vals > SUPPORT_CUTOFF * float(vals[..., -1].max())
    eye = np.eye(mats.shape[-1], dtype=complex)
    supports = [[eye if full else vecs[a, x][:, keep[a, x]] for x, full in enumerate(row)]
                for a, row in enumerate(keep.all(axis=-1).tolist())]
    for v in (v for row in supports for v in row):
        v.setflags(write=False)
    return supports


def _check_left_out(supports: list[list[np.ndarray]], observed: np.ndarray) -> None:
    """The data observed[a, x] of each face of rank 0, which no block reproduces, must vanish: each of its
    coefficients on ``hermitian_basis`` within CONSISTENCY_TOL."""
    for a, x in ((a, x) for a, row in enumerate(supports) for x, v in enumerate(row) if not v.shape[1]):
        coefficients = (np.conj(hermitian_basis(observed.shape[-1])) * observed[a, x]).sum(axis=(-2, -1)).real
        if np.abs(coefficients).max() > CONSISTENCY_TOL:
            raise CertificationError("observed data outside the supports the blocks were compressed onto")


class _EveGrid:
    """Eve's PSD blocks X[e, a, x] of a certification, each compressed onto the support
    V = supports[a][x] of what she must reproduce, so that her operator is V X V^dag.
    Blocks of rank 0 are left out; the others are numbered e-major."""

    def __init__(self, n_e: int, supports: list[list[np.ndarray]]):
        self.supports = supports
        self.shape = (n_e, len(supports), len(supports[0]))
        self.dim = supports[0][0].shape[0]
        faces = list(itertools.product(range(self.shape[1]), range(self.shape[2])))
        keys = [(e, a, x) for e in range(n_e) for a, x in faces if supports[a][x].shape[1] > 0]
        self.ids = {key: k for k, key in enumerate(keys)}
        self.dims = tuple(supports[a][x].shape[1] for _, a, x in keys)
        # the adjoint stacks of the embeddings X -> V X V^dag, V^dag E_r V for the faces of one rank at once,
        # each product with the operands and layout of ``compressed``'s
        self.embedded = {}
        for rank in dict.fromkeys(supports[a][x].shape[1] for a, x in faces):
            at = [(a, x) for a, x in faces if supports[a][x].shape[1] == rank]
            vs = np.array([supports[a][x] for a, x in at])
            self.embedded.update(zip(at, vs.conj().mT[:, None] @ sdp.term_stack(self.dim) @ vs[:, None]))

    def compressed(self, a: int, x: int, mats: np.ndarray) -> np.ndarray:
        """V^dag M V for a matrix or a stack M, with V = supports[a][x]."""
        v = self.supports[a][x]
        return v.conj().T @ mats @ v

    def terms(self, pairs) -> dict[int, np.ndarray]:
        """The terms of an equality, given as (block key, adjoint stack) pairs; the keys of
        left-out blocks are skipped."""
        return {self.ids[key]: stack for key, stack in pairs if key in self.ids}

    def consistency(self, stacks: dict, observed: np.ndarray) -> dict:
        """sum_e T_ax(X[e, a, x]) = observed[a, x] for each (a, x), where stacks[a, x] is
        the adjoint stack of T_ax."""
        n_e, n_a, m = self.shape
        return {
            (a, x): sdp.MatrixEquality(
                self.terms(((e, a, x), stacks[a, x]) for e in range(n_e)), observed[a, x]
            )
            for a, x in itertools.product(range(n_a), range(m))
        }

    def no_signalling(self, x_star: int) -> dict:
        """sum_a V X[e, a, x] V^dag = sum_a V X[e, a, x*] V^dag for each e and x != x*."""
        n_e, n_a, m = self.shape
        zero = np.zeros((self.dim, self.dim), dtype=complex)
        # 0.0 - s rather than -s leaves the zero coefficients +0
        negated = [0.0 - self.embedded[a, x_star] for a in range(n_a)]
        equalities = {}
        for e, x in itertools.product(range(n_e), range(m)):
            if x != x_star:
                plus = self.terms(((e, a, x), self.embedded[a, x]) for a in range(n_a))
                minus = self.terms(((e, a, x_star), negated[a]) for a in range(n_a))
                equalities[e, x] = sdp.MatrixEquality({**plus, **minus}, zero)
        return equalities

    def problem(self, targets: dict, groups: list[dict]) -> tuple[sdp.SdpProblem, list[dict]]:
        """The problem of maximising sum <targets[key], V X[key] V^dag> subject to the equalities
        of each group, a dict keyed by the caller, and those groups' equalities kept. An equality
        naming no block is left out: its data are checked by ``_check_left_out``."""
        kept = [{key: eq for key, eq in group.items() if eq.terms} for group in groups]
        objective: list[np.ndarray | None] = [None] * len(self.dims)
        for (e, a, x), target in targets.items():
            if (e, a, x) in self.ids:
                objective[self.ids[e, a, x]] = self.compressed(a, x, target)
        equalities = [eq for group in kept for eq in group.values()]
        return sdp.SdpProblem(self.dims, objective, sdp.expand(equalities)), kept

    def unpack(self, primal: list[np.ndarray]) -> np.ndarray:
        """Eve's operators V X V^dag as an (n_e, n_a, m, dim, dim) grid, zero on left-out blocks."""
        out = np.zeros(self.shape + (self.dim, self.dim), dtype=complex)
        for (e, a, x), k in self.ids.items():
            v = self.supports[a][x]
            out[e, a, x] = v @ primal[k] @ v.conj().T
        return out


def _solve(problem: sdp.SdpProblem, kept: list[dict], solver_opts: dict | None = None, start=None):
    """Solve a problem of ``_EveGrid.problem`` (or a problem its ``with_rhs`` made), from the
    primal ``start`` if given; returns the solution and, per group, the multiplier of each
    equality kept, keyed as in the group."""
    sol = sdp.solve(problem, **(solver_opts or {}), start=start)
    if sol.status is sdp.SolverStatus.INFEASIBLE:
        raise CertificationError("certification problem infeasible: inputs malformed")
    multipliers = iter(sdp.fold([eq for group in kept for eq in group.values()], sol.dual))
    return sol, [{key: next(multipliers) for key in group} for group in kept]


# (n_a, m, d, x*, guess outcomes, guess-target bytes, face ranks) -> (grid, parent, kept)
_steering_parents: OrderedDict = OrderedDict()


def _steering_parent(supports: list[list[np.ndarray]], x_star: int, guess_outcome, guess_target: np.ndarray):
    """The grid, parent problem and kept equalities of the steering certification on the faces
    ``supports``, whose consistency right-hand sides are the only data. An unreduced problem's
    faces are identities. Parents are keyed by all they are built from but the face isometries.
    An entry serves a call each of whose faces v spans the subspace of the face w it was built
    for, max|v - w w^dag v| <= 1e-12, and returns its own grid, on whose ``supports`` the caller
    compresses the data and reads the functional; a call on other subspaces rebuilds the entry
    in place. So a shared point's result can depend, at the rounding level, on which point
    built the entry."""
    n_a, m, d = len(supports), len(supports[0]), supports[0][0].shape[0]
    target = np.ascontiguousarray(guess_target, dtype=complex)
    key = (n_a, m, d, x_star, tuple(int(a) for a in guess_outcome), target.tobytes(),
           tuple(v.shape[1] for row in supports for v in row))
    entry = _steering_parents.pop(key, None)
    if entry is None or any(np.abs(v - w @ (w.conj().T @ v)).max(initial=0.0) > 1e-12
                            for row, built in zip(supports, entry[0].supports) for v, w in zip(row, built)):
        grid = _EveGrid(len(guess_outcome), supports)
        targets = {(e, int(a), x_star): target[e] for e, a in enumerate(guess_outcome)}
        unobserved = np.zeros((n_a, m, d, d), dtype=complex)
        entry = (grid, *grid.problem(
            targets, [grid.consistency(grid.embedded, unobserved), grid.no_signalling(x_star)]))
    _steering_parents[key] = entry
    if len(_steering_parents) > SHARED_STRUCTURES:
        _steering_parents.popitem(last=False)
    return entry


def _gridded(values: dict, shape: tuple[int, ...], d: int) -> np.ndarray:
    """A read-only (*shape, d, d) grid holding values[key] at key, and zero elsewhere."""
    out = np.zeros(shape + (d, d), dtype=complex)
    for key, value in values.items():
        out[key] = value
    out.setflags(write=False)
    return out


def _result(sol: sdp.SdpSolution, functional: SteeringFunctional, **unpacked) -> CertificationResult:
    """The result of a certification solve, whose primal value is the reported p_guess;
    ``unpacked`` holds Eve's strategy (``joint`` or ``pm_measurements``)."""
    return CertificationResult(sol.primal_value, sol.dual_value, sol.status, functional, **unpacked)


def _steering_functional(F, G, x_star: int, guess_outcome, guess_target, supports) -> SteeringFunctional:
    """The functional of a steering certification on the faces ``supports``, kept only when some face is reduced."""
    reduced = any(v.shape[1] < F.shape[-1] for row in supports for v in row)
    return SteeringFunctional(F, x_star, G, np.asarray(guess_outcome, dtype=int), freeze(np.asarray(guess_target)),
                              supports=tuple(map(tuple, supports)) if reduced else None)


def _closed_form(asm: Assemblage, supports, x_star: int, guess_outcome, guess_target) -> CertificationResult | None:
    """The certification of data whose kept faces all have rank 1 (pure states measured projectively),
    in closed form, or None. With w_e = Tr[T_e sigma_{o_e|x*}] for Eve's guess e of outcome o_e and
    target T_e, the guess e* maximising w_e holding all the data, X[e*] = sigma, is consistent,
    no-signalling and PSD, and guesses with p* = max_e w_e. The dual is F = (p*/m) 1 with the
    multipliers G from one least-squares solve that gives the operator of guess e, compressed onto
    each face, the slack (p* - w_e)/m. It is kept only with a feasibility margin of at least -1e-12,
    which by weak duality certifies p*: where no-signalling does not decouple Eve (a product state),
    the least-squares residual shows in the margin, and the caller solves the SDP."""
    if any(v.shape[1] > 1 for row in supports for v in row):
        return None
    n_a, m, d = asm.sigma.shape[:3]
    faces = np.array([(a, x) for a, row in enumerate(supports) for x, v in enumerate(row) if v.shape[1]])
    vs = np.array([supports[a][x][:, 0] for a, x in faces])
    target, outcome = np.asarray(guess_target, dtype=complex), np.asarray(guess_outcome, dtype=int)
    w = np.einsum("eij,eji->e", target, asm.sigma[outcome, x_star]).real
    p_star, n_guess, basis = float(w.max()), len(w), hermitian_basis(d)
    # row (a, x) reads <P_ax, G_ex> for x != x*, and -sum_x' <P_ax*, G_ex'> at x*, off the coefficients of G_ex'
    others = [x for x in range(m) if x != x_star]
    sign = (faces[:, 1:] == others) * 1.0 - (faces[:, 1:] == x_star)
    lhs = (sign[:, :, None] * np.einsum("ni,kij,nj->nk", vs.conj(), basis, vs).real[:, None]).reshape(len(vs), -1)
    # p*/m - delta_{a, o_e} delta_{x, x*} v^dag T_e v - (p* - w_e)/m, one column per guess e; p*/m cancels
    at_guess = (faces[:, :1] == outcome) & (faces[:, 1:] == x_star)
    rhs = w / m - at_guess * np.einsum("ni,eij,nj->ne", vs.conj(), target, vs).real
    g = np.linalg.lstsq(lhs, rhs)[0].T.reshape(n_guess, m - 1, d * d)
    G = np.zeros((n_guess, m, d, d), dtype=complex)
    G[:, others] = (g @ basis.reshape(d * d, -1)).reshape(n_guess, m - 1, d, d)
    F = freeze(np.broadcast_to(p_star / m * np.eye(d), (n_a, m, d, d)))
    functional = _steering_functional(F, freeze(G), x_star, outcome, target, supports)
    if not functional.feasibility_margin() >= -1e-12:
        return None
    joint = np.zeros((n_guess,) + asm.sigma.shape, dtype=complex)
    joint[np.argmax(w)] = asm.sigma
    return CertificationResult(p_star, functional.value_on(asm), sdp.SolverStatus.OPTIMAL, functional,
                               JointAssemblage(joint))


def _certain(joint: np.ndarray, asm: Assemblage, x_star: int) -> JointAssemblage | None:
    """Eve's ``joint`` if it passes ``validate`` at tol 1e-12 and guesses x_star's outcome within 1e-12 of 1."""
    strategy = JointAssemblage(joint)
    try:
        strategy.validate(asm, tol=1e-12)
    except ValueError:
        return None
    return strategy if abs(strategy.guess_probability(x_star) - 1.0) <= 1e-12 else None


def loss_attack(asm: Assemblage, x_star: int) -> JointAssemblage | None:
    """Eve's certain guess of the outcome at x_star through an outcome c, a detector's no-click, or None.
    Guess e != c holds sigma_{e|x*}, announced as c at every other input. Guess c holds sigma_{c|x*} and,
    at every other x, sigma_{b|x} for b != c and sigma_{c|x} + sigma_{c|x*} - rho_B, which one eigvalsh
    stack tests first; under uniform loss it is PSD exactly when eta <= 1/2, and with one input always."""
    sigma, (n_a, m) = asm.sigma, asm.sigma.shape[:2]
    others = [x for x in range(m) if x != x_star]
    slack = sigma[:, others] + sigma[:, x_star, None] - asm.reduced_state()
    lowest = eigvalsh(slack).min(axis=(1, 2), initial=np.inf)
    if lowest[c := int(np.argmax(lowest))] < -1e-12:
        return None
    joint = np.zeros((n_a,) + sigma.shape, dtype=complex)
    joint[:, c, others] = sigma[:, x_star, None]
    joint[c][:, others] = sigma[:, others]
    joint[c, c, others] = slack[c]
    joint[range(n_a), range(n_a), x_star] = sigma[:, x_star]
    return _certain(joint, asm, x_star)


def lhs_attack(asm: Assemblage, x_star: int) -> JointAssemblage | None:
    """Eve's certain guess of the outcome at x_star on two inputs with two outcomes each, or None. She
    holds (a0, a1) with the hidden states (sigma_{a0|0} + sigma_{a1|1})/2 - rho_B/4, which one eigvalsh
    stack tests first, and guesses a_{x*}; on Werner data under X/Z they are PSD exactly when v sqrt(2) <= 1."""
    sigma = asm.sigma
    hidden = (sigma[:, :1] + sigma[None, :, 1]) / 2 - asm.reduced_state() / 4 if sigma.shape[:2] == (2, 2) else None
    if hidden is None or eigvalsh(hidden).min() < -1e-12:
        return None
    joint = np.zeros((2,) + sigma.shape, dtype=complex)
    joint[[0, 1], [0, 1], x_star] = sigma[:, x_star]
    joint[:, :, 1 - x_star] = hidden if x_star == 0 else hidden.swapaxes(0, 1)
    return _certain(joint, asm, x_star)


def _zero_bits(asm: Assemblage, supports, x_star: int, guess_outcome, guess_target) -> CertificationResult | None:
    """p_guess = 1 exactly where Eve, guessing Alice's outcome with identity targets (``certify_local``),
    is certain by ``loss_attack`` or ``lhs_attack``, or None. The dual is the trivial inequality
    F[a, x] = delta_{x, x*} 1 with G = 0, whose operators are 0 or 1, of value sum_a Tr sigma_{a|x*} = 1."""
    n_a, m, d = asm.sigma.shape[:3]
    local = np.array_equal(guess_outcome, np.arange(n_a)) and (np.asarray(guess_target) == np.eye(d)).all()
    if not (joint := local and (loss_attack(asm, x_star) or lhs_attack(asm, x_star))):
        return None
    F = np.broadcast_to((np.arange(m) == x_star)[:, None, None] * np.eye(d), asm.sigma.shape)
    functional = _steering_functional(freeze(F), freeze(0 * F), x_star, guess_outcome, guess_target, supports)
    return CertificationResult(1.0, functional.value_on(asm), sdp.SolverStatus.OPTIMAL, functional, joint)


def _solve_steering(
    asm: Assemblage,
    x_star: int,
    guess_outcome: np.ndarray,
    guess_target: np.ndarray,
    solver_opts: dict | None = None,
) -> CertificationResult:
    """Shared engine for the local and global steering certifications: ``_closed_form`` or
    ``_zero_bits`` where either applies, else the SDP. The solve starts from Eve's trivial strategy
    X[e, a, x] = V^dag sigma_{a|x} V / n_guess, which is consistent, no-signalling and positive
    definite on every face kept."""
    n_a, m, d = asm.sigma.shape[:3]
    _check_x_star(m, x_star)
    n_guess = len(guess_outcome)

    supports = _supports(asm.sigma)
    _check_left_out(supports, asm.sigma)
    exact = (_closed_form(asm, supports, x_star, guess_outcome, guess_target)
             or _zero_bits(asm, supports, x_star, guess_outcome, guess_target))
    if exact is not None:
        return exact
    grid, parent, kept = _steering_parent(supports, x_star, guess_outcome, guess_target)
    # the observed blocks on the faces of rank > 0, then the no-signalling equalities' zeros
    problem = parent.with_rhs([*(asm.sigma[key] for key in kept[0]), *(eq.rhs for eq in kept[1].values())])
    # one compression per face of rank > 0, shared by Eve's guesses
    faces = {(a, x): grid.compressed(a, x, asm.sigma[a, x]) / n_guess for a, x in kept[0]}
    sol, (f, g) = _solve(problem, kept, solver_opts, [faces[a, x] for _, a, x in grid.ids])
    functional = _steering_functional(_gridded(f, (n_a, m), d), _gridded({key: -y for key, y in g.items()},
                                      (n_guess, m), d), x_star, guess_outcome, guess_target, grid.supports)
    return _result(sol, functional, joint=JointAssemblage(grid.unpack(sol.primal)))


def certify_local(asm: Assemblage, x_star: int = 0, *, solver_opts: dict | None = None) -> CertificationResult:
    """Optimal local guessing probability for the target input.

    Maximizes sum_e Tr[sigma^e_{a=e|x*}] over Eve-resolved assemblages that
    are PSD, reproduce the observed assemblage, and are no-signalling for
    each e. Eve's guess alphabet is the full outcome alphabet (including a
    loss outcome when present).

    The solve starts from Eve's trivial strategy, sigma_{a|x} split evenly
    over her guesses, a strictly feasible point. So when ``solver_opts``
    sets ``stop_above``, a solve cut short ends at a strategy of hers that
    guesses better than the bar: an explicit attack. A closed-form result (faces
    all of rank 1, or Eve certain by an attack) is exact and ignores ``stop_above``.
    """
    n_a, d = asm.sigma.shape[0], asm.sigma.shape[-1]
    targets = np.eye(d, dtype=complex)[None].repeat(n_a, axis=0)
    return _solve_steering(asm, x_star, np.arange(n_a), targets, solver_opts)


def certify_global(asm: Assemblage, x_star: int, bob_povm: Povm) -> CertificationResult:
    """Optimal probability of guessing the (untrusted, trusted) outcome pair.

    Eve holds one guess pair (e, e') per round; the primal variable is the
    pair-resolved assemblage sigma^{ee'}_{a|x} and the objective collects
    Tr[M_{b=e'} sigma^{ee'}_{a=e|x*}] for the fixed trusted measurement.
    """
    n_a, d = asm.sigma.shape[0], asm.sigma.shape[-1]
    if bob_povm.dim != d:
        raise ValueError("trusted measurement dimension does not match the assemblage")
    guess_outcome = np.repeat(np.arange(n_a), bob_povm.n_outcomes)
    guess_target = np.tile(bob_povm.elements, (n_a, 1, 1))
    return _solve_steering(asm, x_star, guess_outcome, guess_target)


def certify_pm(rho: np.ndarray, povms: list[Povm], x_star: int = 0) -> CertificationResult:
    """Guessing probability when the shared state itself is trusted.

    The channel to the untrusted side may be intercepted, so Eve controls
    joint operators M^e_{a|x} (outcome e kept by Eve, a forwarded) that must
    reproduce the observed assemblage on the trusted state, be no-signalling
    in e, complete, and PSD.
    """
    rho = np.asarray(rho, dtype=complex)
    if abs(np.trace(rho) - 1.0) > 1e-9:
        raise ValueError("trusted state must have unit trace")
    obs = assemblage_from(rho, povms)
    n_a, m, d_b = obs.sigma.shape[:3]
    _check_x_star(m, x_star)
    d_a = povms[0].dim
    eye_a = np.eye(d_a, dtype=complex)
    coef = sdp.term_stack(d_b, lambda basis: steering_adjoint(rho, basis))
    # The aggregates sum_e M^e_{a|x} are pinned to the given POVM elements
    # exactly when the consistency map is injective, that is when its adjoint
    # stack spans d_a^2 dimensions; only then is per-block support compression sound.
    svals = np.linalg.svd(coef.reshape(len(coef), -1), compute_uv=False)
    injective = svals.size >= d_a * d_a and svals[d_a * d_a - 1] > 1e-10 * max(svals[0], 1.0)

    if injective:
        supports = _supports(np.stack([p.elements for p in povms], axis=1))
    else:
        supports = [[eye_a for _ in range(m)] for _ in range(n_a)]

    grid = _EveGrid(n_a, supports)
    stacks = {}
    for a, x in np.ndindex(n_a, m):
        comp = grid.compressed(a, x, coef)
        stacks[a, x] = 0.5 * (comp + dagger(comp))
    completeness = {
        x: sdp.MatrixEquality(
            grid.terms(((e, a, x), grid.embedded[a, x]) for e, a in np.ndindex(n_a, n_a)), eye_a
        )
        for x in range(m)
    }
    _check_left_out(supports, obs.sigma)
    rho_a = partial_trace(rho, (d_a, d_b), keep="A")
    problem, kept = grid.problem(
        {(e, e, x_star): rho_a for e in range(n_a)},
        [grid.consistency(stacks, obs.sigma), grid.no_signalling(x_star), completeness],
    )
    sol, (f, _, complete) = _solve(problem, kept)
    # the completeness multipliers Y_x enter the dual value as sum_x <Y_x, 1>
    offset = float(sum(np.trace(y).real for y in complete.values()))
    functional = SteeringFunctional(F=_gridded(f, (n_a, m), d_b), x_star=x_star, offset=offset)
    return _result(sol, functional, pm_measurements=freeze(grid.unpack(sol.primal)))


def _smoothed(asm: Assemblage, delta: float) -> Assemblage:
    """Assemblage mixed with a weight-delta uniform-noise assemblage."""
    n_a, d = asm.sigma.shape[0], asm.sigma.shape[-1]
    noise = np.broadcast_to(np.eye(d, dtype=complex) / (d * n_a), asm.sigma.shape)
    return Assemblage((1.0 - delta) * asm.sigma + delta * noise)
