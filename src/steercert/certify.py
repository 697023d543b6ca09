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
pair attains strong duality). Where a full-space witness is wanted, the
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
from .qlin import Povm, dagger, eigh, freeze, matrix_to_json, partial_trace
from .scenario import Assemblage, Scenario, assemblage_from, steering_adjoint

CONSISTENCY_TOL = 1e-8
SUPPORT_CUTOFF = 1e-11  # relative eigenvalue threshold for facial reduction
# the steering parents kept, least recently used dropped first; keyed by face ranks, not isometry bytes
# (see _steering_parent), so a sweep whose faces turn point by point keeps one parent, not eight
SHARED_STRUCTURES = 8


class CertificationError(RuntimeError):
    pass


@dataclass(frozen=True)
class JointAssemblage:
    """Eve-resolved grid sigma_e[e, a, x]; the primal variable of the
    steering certification problems."""

    scenario: Scenario
    eve_alphabet: int
    sigma_e: np.ndarray

    def __init__(self, scenario: Scenario, eve_alphabet: int, sigma_e):
        sigma_e = freeze(np.asarray(sigma_e, dtype=complex))
        d = scenario.bob_dim
        expected = (eve_alphabet, scenario.n_outcomes, scenario.n_inputs, d, d)
        if sigma_e.shape != expected:
            raise ValueError(f"sigma_e has shape {sigma_e.shape}, expected {expected}")
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "eve_alphabet", eve_alphabet)
        object.__setattr__(self, "sigma_e", sigma_e)

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
        # compressed onto each face, leaving out faces of rank 0
        blocks = [h] if self.supports is None else [
            dagger(v) @ h[:, a, x] @ v
            for a, row in enumerate(self.supports) for x, v in enumerate(row) if v.shape[1]
        ]
        return min(float(np.min(np.linalg.eigvalsh(0.5 * (b + dagger(b))))) for b in blocks)

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
    """Guessing probability, min-entropy and the dual witness of one solve."""

    p_guess: float
    h_min: float
    gap: float
    status: sdp.SolverStatus
    functional: SteeringFunctional
    x_star: int
    dual_value: float
    joint: JointAssemblage | None = None
    pm_measurements: np.ndarray | None = None

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
    return float(-np.log2(p_guess))


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


def _check_left_out(equalities) -> None:
    """Each equality naming no block must hold at X = 0: every row's right-hand side within CONSISTENCY_TOL."""
    for eq in equalities:
        if not eq.terms and max(abs(row.rhs) for row in sdp.expand([eq])) > CONSISTENCY_TOL:
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
        naming no block is left out, after ``_check_left_out``."""
        _check_left_out(eq for group in groups for eq in group.values())
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


# (n_a, m, d, x*, guess outcomes, guess-target bytes, face ranks) -> (isometry bytes, grid, parent, kept)
_steering_parents: OrderedDict = OrderedDict()


def _steering_parent(supports: list[list[np.ndarray]], x_star: int, guess_outcome, guess_target: np.ndarray):
    """The grid, parent problem and kept equalities of the steering certification on the faces
    ``supports``, whose consistency right-hand sides are the only data. An unreduced problem's
    faces are identities. Parents are keyed by all they are built from but the face isometries,
    whose bytes each entry holds: a call on other isometries of the same ranks rebuilds its entry."""
    n_a, m, d = len(supports), len(supports[0]), supports[0][0].shape[0]
    target = np.ascontiguousarray(guess_target, dtype=complex)
    key = (n_a, m, d, x_star, tuple(int(a) for a in guess_outcome), target.tobytes(),
           tuple(v.shape[1] for row in supports for v in row))
    faces = b"".join(v.tobytes() for row in supports for v in row)
    entry = _steering_parents.pop(key, None)
    if entry is None or entry[0] != faces:
        grid = _EveGrid(len(guess_outcome), supports)
        targets = {(e, int(a), x_star): target[e] for e, a in enumerate(guess_outcome)}
        unobserved = np.zeros((n_a, m, d, d), dtype=complex)
        entry = (faces, grid, *grid.problem(
            targets, [grid.consistency(grid.embedded, unobserved), grid.no_signalling(x_star)]))
    _steering_parents[key] = entry
    if len(_steering_parents) > SHARED_STRUCTURES:
        _steering_parents.popitem(last=False)
    return entry[1:]


def _gridded(values: dict, shape: tuple[int, ...], d: int) -> np.ndarray:
    """A read-only (*shape, d, d) grid holding values[key] at key, and zero elsewhere."""
    out = np.zeros(shape + (d, d), dtype=complex)
    for key, value in values.items():
        out[key] = value
    out.setflags(write=False)
    return out


def _result(
    sol: sdp.SdpSolution, functional: SteeringFunctional, x_star: int, **unpacked
) -> CertificationResult:
    """The result of a certification solve, whose primal value is the reported p_guess;
    ``unpacked`` holds Eve's strategy (``joint`` or ``pm_measurements``)."""
    p_guess = sol.primal_value
    return CertificationResult(
        p_guess=p_guess,
        h_min=min_entropy(p_guess),
        gap=abs(p_guess - sol.dual_value),
        status=sol.status,
        functional=functional,
        x_star=x_star,
        dual_value=sol.dual_value,
        **unpacked,
    )


def _solve_steering(
    asm: Assemblage,
    x_star: int,
    guess_outcome: np.ndarray,
    guess_target: np.ndarray,
    solver_opts: dict | None = None,
) -> CertificationResult:
    """Shared engine for the local and global steering certifications. The solve starts from
    Eve's trivial strategy X[e, a, x] = V^dag sigma_{a|x} V / n_guess, which is consistent,
    no-signalling and positive definite on every face kept."""
    sc = asm.scenario
    _check_x_star(sc.n_inputs, x_star)
    n_a, m, d = sc.n_outcomes, sc.n_inputs, sc.bob_dim
    n_guess = len(guess_outcome)

    supports = _supports(asm.sigma)
    grid, parent, kept = _steering_parent(supports, x_star, guess_outcome, guess_target)
    # a face of rank 0 leaves its consistency equality without terms: its data must vanish
    _check_left_out(sdp.MatrixEquality({}, asm.sigma[key])
                    for key in itertools.product(range(n_a), range(m)) if key not in kept[0])
    # the observed blocks on the faces of rank > 0, then the no-signalling equalities' zeros
    problem = parent.with_rhs([*(asm.sigma[key] for key in kept[0]), *(eq.rhs for eq in kept[1].values())])
    # one compression per face of rank > 0, shared by Eve's guesses
    faces = {(a, x): grid.compressed(a, x, asm.sigma[a, x]) / n_guess for a, x in kept[0]}
    sol, (f, g) = _solve(problem, kept, solver_opts, [faces[a, x] for _, a, x in grid.ids])
    functional = SteeringFunctional(
        F=_gridded(f, (n_a, m), d),
        x_star=x_star,
        G=_gridded({key: -y for key, y in g.items()}, (n_guess, m), d),
        guess_outcome=np.asarray(guess_outcome, dtype=int),
        guess_target=freeze(np.asarray(guess_target)),
        supports=tuple(map(tuple, supports)) if any(v.shape[1] < d for row in supports for v in row) else None,
    )
    return _result(sol, functional, x_star, joint=JointAssemblage(sc, n_guess, grid.unpack(sol.primal)))


def certify_local(asm: Assemblage, x_star: int = 0, *, solver_opts: dict | None = None) -> CertificationResult:
    """Optimal local guessing probability for the target input.

    Maximizes sum_e Tr[sigma^e_{a=e|x*}] over Eve-resolved assemblages that
    are PSD, reproduce the observed assemblage, and are no-signalling for
    each e. Eve's guess alphabet is the full outcome alphabet (including a
    loss outcome when present).

    The solve starts from Eve's trivial strategy, sigma_{a|x} split evenly
    over her guesses, a strictly feasible point. So when ``solver_opts``
    sets ``stop_above``, a solve cut short ends at a strategy of hers that
    guesses better than the bar: an explicit attack.
    """
    n_a, d = asm.scenario.n_outcomes, asm.scenario.bob_dim
    targets = np.eye(d, dtype=complex)[None].repeat(n_a, axis=0)
    return _solve_steering(asm, x_star, np.arange(n_a), targets, solver_opts)


def certify_global(asm: Assemblage, x_star: int, bob_povm: Povm) -> CertificationResult:
    """Optimal probability of guessing the (untrusted, trusted) outcome pair.

    Eve holds one guess pair (e, e') per round; the primal variable is the
    pair-resolved assemblage sigma^{ee'}_{a|x} and the objective collects
    Tr[M_{b=e'} sigma^{ee'}_{a=e|x*}] for the fixed trusted measurement.
    """
    sc = asm.scenario
    if bob_povm.dim != sc.bob_dim:
        raise ValueError("trusted measurement dimension does not match the assemblage")
    guess_outcome = np.repeat(np.arange(sc.n_outcomes), bob_povm.n_outcomes)
    guess_target = np.tile(bob_povm.elements, (sc.n_outcomes, 1, 1))
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
    sc = obs.scenario
    _check_x_star(sc.n_inputs, x_star)
    d_a, d_b = povms[0].dim, sc.bob_dim
    n_a, m = sc.n_outcomes, sc.n_inputs
    eye_a = np.eye(d_a, dtype=complex)
    coef = sdp.term_stack(d_b, lambda basis: steering_adjoint(rho, basis, d_a))
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
    rho_a = partial_trace(rho, (d_a, d_b), keep="A")
    problem, kept = grid.problem(
        {(e, e, x_star): rho_a for e in range(n_a)},
        [grid.consistency(stacks, obs.sigma), grid.no_signalling(x_star), completeness],
    )
    sol, (f, _, complete) = _solve(problem, kept)
    # the completeness multipliers Y_x enter the dual value as sum_x <Y_x, 1>
    offset = float(sum(np.trace(y).real for y in complete.values()))
    functional = SteeringFunctional(F=_gridded(f, (n_a, m), d_b), x_star=x_star, offset=offset)
    return _result(sol, functional, x_star, pm_measurements=freeze(grid.unpack(sol.primal)))


def _smoothed(asm: Assemblage, delta: float) -> Assemblage:
    """Assemblage mixed with a weight-delta uniform-noise assemblage."""
    sc = asm.scenario
    noise = np.broadcast_to(
        np.eye(sc.bob_dim, dtype=complex) / (sc.bob_dim * sc.n_outcomes), asm.sigma.shape
    )
    return Assemblage(sc, (1.0 - delta) * asm.sigma + delta * noise)
