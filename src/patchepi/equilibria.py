"""One-patch steady states and the disconnected-system census.

Settles each patch's facts once (patch_facts): the disease-free state,
V - F there and the local R, the endemic equilibria (for HIV the roots of
a quadratic in the force of infection, multi-start Newton otherwise) and
their stability. It also detects the backward-bifurcation window and
enumerates the product equilibria of r disconnected patches.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import matalg
from .model import HivParams, PatchModel, PatchState, split_state

# Newton acceptance for a root, and merge distance for duplicates.
ROOT_RESIDUAL_TOL = 1e-9
ROOT_MERGE_TOL = 1e-7

# Seeds of the generic search that share one batched Newton; bounds the
# stacked Jacobians at SEED_BATCH * size^2 doubles. The seeds span the
# infected and susceptible unknowns only, so four groups need 3^8 seeds
# (two batches) and five 3^10.
SEED_BATCH = 4096

# Newton steps a seed of the generic search may take before it fails.
SEED_STEPS = 80

# The seed search's Armijo step lengths, tried in two stacked residual
# calls: the full step, then the halvings t = 2^-1, ..., 2^-19.
_SEED_STEP_LENGTHS = (np.ones(1), np.ldexp(1.0, -np.arange(1, 20)))

# |max real eigenvalue| at most this is a marginal equilibrium; those are
# excluded from continuation (the persistence theorem needs an invertible
# Jacobian).
STABILITY_MARGIN = 1e-9

class DegenerateModelError(RuntimeError):
    """Disease-free susceptible level non-unique, not finite or not
    positive, or V - F there not finite."""


class NoFoldError(RuntimeError):
    """The HIV patch has no fold: the bifurcation is forward."""


@dataclass(frozen=True)
class PatchEquilibrium:
    """A classified steady state of one disconnected patch."""
    state: PatchState
    kind: str                 # "disease_free" | "endemic"
    index: int                # 0 for the DFE, 1..e for endemic states
    stability: str            # "stable" | "unstable" | "marginal"
    jac_invertible: bool
    lam: Optional[float] = None   # force of infection of an HIV endemic state


@dataclass(frozen=True)
class EquilibriumPattern:
    """Per-region equilibrium choice labeling one product steady state.

    choices[i] = 0 picks region i's DFE, otherwise its choices[i]-th
    endemic state (sorted by force of infection).
    """
    choices: tuple

    def __post_init__(self):
        object.__setattr__(self, "choices", tuple(int(c) for c in self.choices))

    @property
    def is_dfe(self) -> bool:
        return all(c == 0 for c in self.choices)

    @property
    def is_all_endemic(self) -> bool:
        return all(c > 0 for c in self.choices)


@dataclass(frozen=True)
class BifurcationReport:
    """Endemic-root census of one patch.

    Regimes: below_Rc (no endemic states), backward_window (two positive
    roots while R < 1, or an HIV patch's double root at the fold),
    above_one (the unique root beyond the threshold).
    """
    R_local: float
    regime: str
    endemic_lambdas: tuple
    R_c_estimate: Optional[float] = None


@dataclass(frozen=True, eq=False)
class PatchFacts:
    """One disconnected patch's facts, each found once (patch_facts).

    system is the patch's one-region CoupledSystem, v_minus_f its V - F
    at the disease-free state and R its local reproduction number.
    equilibria holds its classified steady states: the DFE first, then
    the endemic states (by force of infection for the HIV family, which
    keeps each state's lam, by infected total otherwise).
    """
    model: PatchModel
    system: object
    v_minus_f: np.ndarray
    R: float
    equilibria: tuple


# ====================================================================
# Reproduction number and DFE
# ====================================================================

def _threshold(model: PatchModel) -> tuple:
    """(system, dfe, V - F, R): the facts of patch_facts before any search.

    system is the patch's one-region CoupledSystem (no travel), dfe its
    disease-free state, system.disease_free(0.0): the susceptible level
    solves g_const + g_lin y = 0. V - F is minus the x-x block of system's
    Jacobian at dfe: with x = 0 the incidence contributes F and nothing
    through N. R is the spectral radius of F V^{-1}, with F = V - (V - F).
    Raises DegenerateModelError when the susceptible level is not unique,
    not finite or not positive, or V - F is not finite, so numpy's
    overflow and invalid warnings on the way are silenced.
    """
    from .continuation import CoupledSystem
    from .network import from_edges

    system = CoupledSystem([model], from_edges([], 1, model.n, model.m,
                                               model.k))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            dfe = split_state(model, system.disease_free(0.0))
        except matalg.SingularMatrixError as exc:
            raise DegenerateModelError(
                "disease-free susceptible level is not unique") from exc
        if not np.all(np.isfinite(dfe.y)):
            raise DegenerateModelError(
                f"disease-free susceptible level not finite: {dfe.y} "
                "(the solve overflowed)")
        if np.any(dfe.y <= 0):
            raise DegenerateModelError(
                f"disease-free susceptible level not positive: {dfe.y}")
        v_minus_f = -system.jacobian(0.0, dfe.concat())[:model.n, :model.n]
    if not np.all(np.isfinite(v_minus_f)):
        raise DegenerateModelError(
            "V - F at the disease-free state not finite")
    F = model.V - v_minus_f
    R = matalg.spectral_radius(np.linalg.solve(model.V.T, F.T).T)
    return system, dfe, v_minus_f, R


def local_reproduction_number(model: PatchModel) -> float:
    """patch_facts(model).R, without the endemic search."""
    return _threshold(model)[3]


def stability_of(J: np.ndarray) -> tuple:
    """(label, top): top is the largest real part of an eigenvalue of J.

    The label is "stable" below -STABILITY_MARGIN, "unstable" above
    STABILITY_MARGIN and "marginal" in between, ends included. A stack
    J[..., n, n] gives (labels, tops) with one entry per matrix: a nested
    list of labels and an array of tops.
    """
    top = matalg.eigen_spectrum(J).real.max(axis=-1)
    label = np.where(top < -STABILITY_MARGIN, "stable",
                     np.where(top > STABILITY_MARGIN, "unstable", "marginal"))
    if np.ndim(J) == 2:
        return str(label), float(top)
    return label.tolist(), top


def _classified(system, states: Sequence[PatchState],
                lams: Optional[Sequence] = None) -> list:
    """The states, the DFE first, as PatchEquilibrium indexed from 0.

    One stacked Jacobian of the patch's system at alpha = 0 gives every
    stability label and, by its condition number, jac_invertible. lams,
    if given, holds each state's force of infection (None for the DFE).
    """
    J = system.jacobian(0.0, np.array([st.concat() for st in states]))
    labels, _ = stability_of(J)
    invertible = (matalg.condition_estimate(J) < matalg.COND_LIMIT).tolist()
    if lams is None:
        lams = [None] * len(states)
    return [PatchEquilibrium(state=st,
                             kind="endemic" if idx else "disease_free",
                             index=idx, stability=label,
                             jac_invertible=inv, lam=lam)
            for idx, (st, label, inv, lam) in enumerate(
                zip(states, labels, invertible, lams))]


# ====================================================================
# HIV endemic equilibria via the scalar force-of-infection reduction
# ====================================================================

def hiv_state_from_lambda(params: HivParams, lam: float) -> PatchState:
    """Back-substitute a force of infection into the full steady state."""
    pr = params
    SV = pr.p * pr.Lam / (pr.mu + pr.q * lam + pr.gam)
    S = ((1.0 - pr.p) * pr.Lam + pr.gam * SV) / (pr.mu + lam)
    Y1 = pr.rho1 * lam * S / (pr.mu + pr.sig1)
    Y2 = pr.rho2 * lam * S / (pr.mu + pr.sig2)
    W1 = pr.pi1 * pr.q * lam * SV / (pr.mu + pr.th1 * pr.sig1)
    W2 = pr.pi2 * pr.q * lam * SV / (pr.mu + pr.th2 * pr.sig2)
    A = (pr.sig1 * Y1 + pr.sig2 * Y2 + pr.th1 * pr.sig1 * W1
         + pr.th2 * pr.sig2 * W2) / (pr.delta + pr.mu)
    return PatchState(np.array([Y1, Y2, W1, W2]), np.array([S, SV]),
                      np.array([A]))


def _hiv_quadratic(params: HivParams) -> tuple:
    """(nd, i1, i2): N D, I1 D / lam and I2 D / lam, polynomials in lam.

    Coefficients come constant term first. D = (mu + lam)(mu + q lam + gam)
    clears every denominator of hiv_state_from_lambda, so the scalar
    residual lam - (beta1 I1 + beta2 I2) / N times N D / lam is the
    quadratic nd - beta1 i1 - beta2 i2; only that reads the betas. Its
    leading coefficient is positive, as 0 < p <= 1 (HivParams).
    """
    pr = params
    u = pr.Lam * np.array([pr.mu * (1.0 - pr.p) + pr.gam,
                           (1.0 - pr.p) * pr.q, 0.0])           # S D
    e = pr.p * pr.Lam * np.array([pr.mu, 1.0, 0.0])             # SV D
    y1 = pr.rho1 / (pr.mu + pr.sig1) * u
    y2 = pr.rho2 / (pr.mu + pr.sig2) * u
    w1 = pr.pi1 * pr.q / (pr.mu + pr.th1 * pr.sig1) * e
    w2 = pr.pi2 * pr.q / (pr.mu + pr.th2 * pr.sig2) * e
    # the infected classes carry the factor lam: one degree up
    nd = u + e + np.roll(y1 + y2 + w1 + w2, 1)
    return nd, y1 + pr.s1 * w1, y2 + pr.s2 * w2


def _quadratic_roots(c2: float, c1: float, c0: float) -> tuple:
    """The real roots of c2 x^2 + c1 x + c0 (c2 >= 0), a double root once.

    t = -(c1 + sign(c1) sqrt(c1^2 - 4 c2 c0)) / 2 gives the roots t / c2
    and c0 / t without cancellation (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 1.8). t = 0 gives none: then c1 = c2 c0 = 0.
    """
    disc = c1 * c1 - 4.0 * c2 * c0
    t = -0.5 * (c1 + math.copysign(math.sqrt(max(disc, 0.0)), c1))
    if disc < 0.0 or t == 0.0:
        return ()
    if disc == 0.0 or c2 == 0.0:
        return (c0 / t,)
    return (t / c2, c0 / t)


def hiv_lambda_roots(params: HivParams) -> list:
    """The positive roots of the quadratic of _hiv_quadratic, ascending.

    Its constant term is (N D)(0) (1 - R), so with R > 1 there is exactly
    one; below R = 1 there are none, two or, at the fold, a double root.
    """
    nd, i1, i2 = _hiv_quadratic(params)
    a0, a1, a2 = nd - params.beta1 * i1 - params.beta2 * i2
    # R = 1 to rounding (a0 / nd[0] and 1 - R differ by up to 4 eps near
    # it): the root a0 puts near lam = 0 is the DFE, whatever a0's sign
    if abs(a0) <= 16.0 * np.finfo(float).eps * nd[0]:
        a0 = 0.0
    return sorted(lam for lam in _quadratic_roots(a2, a1, a0) if lam > 0.0)


def hiv_reproduction_number(params: HivParams) -> float:
    """local_reproduction_number in closed form: (N D)(0) (1 - R) is the
    quadratic's constant term, so R = (beta1 i1 + beta2 i2)(0) / (N D)(0)."""
    nd, i1, i2 = _hiv_quadratic(params)
    return float((params.beta1 * i1[0] + params.beta2 * i2[0]) / nd[0])


def _regime_from(R: float, nroots: int) -> str:
    if nroots == 0:
        return "below_Rc"
    if nroots == 2 and R < 1.0:
        return "backward_window"
    if nroots == 1:
        return "above_one"
    raise RuntimeError(
        f"unclassifiable root census: R={R}, {nroots} positive roots")


def estimate_Rc(params: HivParams) -> float:
    """The local R at the fold of the backward bifurcation (_fold_beta1)."""
    return hiv_reproduction_number(replace(params, beta1=_fold_beta1(params)))


def _fold_beta1(params: HivParams) -> float:
    """The beta1 at which the endemic root count goes from 0 to 2.

    With a1 = A - beta1 B and a0 = C - beta1 E (_hiv_quadratic), the
    discriminant a1^2 - 4 a2 a0 is a quadratic in beta1, and at its roots
    the quadratic in lam has the double root -a1 / (2 a2). The fold is the
    root where that is positive; at most one is, whatever the configured
    beta1. Raises NoFoldError when none is: the bifurcation is forward.
    """
    nd, i1, i2 = _hiv_quadratic(params)
    A, C = nd[1] - params.beta2 * i2[1], nd[0] - params.beta2 * i2[0]
    B, E, a2 = i1[1], i1[0], nd[2]
    folds = [beta1 for beta1 in _quadratic_roots(
        B * B, 4.0 * a2 * E - 2.0 * A * B, A * A - 4.0 * a2 * C)
        if A - beta1 * B < 0.0]
    if not folds:
        raise NoFoldError("the endemic quadratic has no positive double "
                          "root: the bifurcation is forward")
    return float(folds[0])


def bifurcation_report(patch: PatchFacts) -> BifurcationReport:
    """Root census and regime of one patch, any family, from its PatchFacts.

    The endemic root count of its equilibria classifies the regime. The
    HIV family adds the forces of infection of its endemic states and,
    inside the backward window, the local R at the fold (estimate_Rc).
    An HIV patch with one root below R = 1 is inside it too: at the fold
    (a double root) or within rounding of R = 1 (hiv_lambda_roots).
    """
    R, nroots = patch.R, len(patch.equilibria) - 1
    if patch.model.family != "hiv_vaccination":
        return BifurcationReport(R_local=R, regime=_regime_from(R, nroots),
                                 endemic_lambdas=())
    window = nroots > 0 and R < 1.0
    return BifurcationReport(
        R_local=R,
        regime="backward_window" if window else _regime_from(R, nroots),
        endemic_lambdas=tuple(eq.lam for eq in patch.equilibria[1:]),
        R_c_estimate=(estimate_Rc(HivParams(**patch.model.params))
                      if window else None))


# ====================================================================
# Generic endemic equilibria by multi-start Newton
# ====================================================================

def _generic_roots(model: PatchModel, system, dfe: PatchState) -> tuple:
    """(states, discarded): the patch's endemic states, unclassified, and
    the number of seeds whose Newton iteration failed to converge or
    converged outside the open positive cone (dropped by design).

    The seeds span the n + m infected and susceptible unknowns only, 3^(n+m)
    grid points, and each takes its removed classes slaved to its infected
    ones, z = (Z x) / diag(D), which zeroes the z rows Z x - D z. Those rows
    are the only place z appears: the incidence and the standard-incidence
    N read x and y alone, and a full Newton step keeps z slaved. A grid
    over z as well repeats every (x, y) seed 3^k times and finds the same
    roots with 3^k times the discards (tests/reference.full_grid_roots).
    """
    free = model.n + model.m
    d = np.diag(model.D)

    def seeds(index):
        XY = _seed_rows(dfe, free, index)
        return np.hstack([XY, (XY[:, :model.n] @ model.Z.T) / d])

    return _search_roots(model, system, dfe, 3 ** free, seeds)


def _seed_rows(dfe: PatchState, width: int, index: np.ndarray) -> np.ndarray:
    """The seeds numbered index of a 3^width grid, one row each.

    Seed i takes 0.1, 1 or 10 times the DFE's total susceptible level in
    coordinate j by the base-3 digits of i, the last coordinate fastest:
    the order of itertools.product.
    """
    scale = float(np.sum(dfe.y))
    grid = np.array([0.1 * scale, 1.0 * scale, 10.0 * scale])
    place = 3 ** np.arange(width - 1, -1, -1)
    return grid[index[:, None] // place % 3]


def _search_roots(model: PatchModel, system, dfe: PatchState, nseeds: int,
                  seeds) -> tuple:
    """(states, discarded) of damped Newton from seeds(index), index < nseeds.

    Newton runs on up to SEED_BATCH seeds at once (_newton_seeds) on the
    patch's system; the acceptance tests then go through the seeds in grid
    order, so the first seed to reach a root is the one kept.
    """
    u_dfe = dfe.concat()
    roots = []
    discarded = 0
    for start in range(0, nseeds, SEED_BATCH):
        index = np.arange(start, min(start + SEED_BATCH, nseeds))
        U, converged = _newton_seeds(system, seeds(index))
        # the open positive cone only; a seed that slid back to the DFE
        # (x numerically zero) is the disease-free root, and a root pinned
        # to any face of the cone (a component at Newton roundoff scale)
        # is a boundary state outside the endemic dichotomy
        size = np.max(np.abs(U), axis=1)
        floor = ROOT_MERGE_TOL * (1.0 + size)
        to_dfe = (np.max(np.abs(U - u_dfe), axis=1)
                  / (1.0 + np.maximum(size, np.max(np.abs(u_dfe)))))
        endemic = (converged & ~np.any(U <= floor[:, None], axis=1)
                   & ~(to_dfe <= ROOT_MERGE_TOL))
        # a small residual is not yet a root where the Jacobian is nearly
        # singular (at R = 1 Newton crawls toward the DFE through states
        # with x of order 1e-6): a root's own Newton step must be within
        # the merge distance
        cand = np.flatnonzero(endemic)
        if cand.size:
            dU, solved = _newton_steps(system, U[cand],
                                       _residuals(system, U[cand]))
            endemic[cand] = solved & (np.max(np.abs(dU), axis=1)
                                      <= floor[cand])
        discarded += index.size - int(np.count_nonzero(endemic))
        for u in U[endemic]:
            if not any(_state_distance(u, v) <= ROOT_MERGE_TOL
                       for v in roots):
                roots.append(u)
    roots.sort(key=lambda u: float(np.sum(u[:model.n])))
    return [split_state(model, u) for u in roots], discarded


def _state_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b))
                 / (1.0 + max(np.max(np.abs(a)), np.max(np.abs(b)))))


def _newton_seeds(system, U0: np.ndarray) -> tuple:
    """Damped Newton for system.residual(0, u) = 0 from every row of U0.

    Returns (U, converged). Every row follows the rules of a single-start
    damped Newton on its own: it fails on an inadmissible start, a
    residual that is not finite or above 1e12, a singular Jacobian, no
    step length of t = 1, 1/2, ..., 2^-19 (nineteen Armijo halvings) with
    sufficient decrease, or SEED_STEPS steps; once its residual is at most
    ROOT_RESIDUAL_TOL it gets up to four full polishing steps, kept while
    the residual still improves. The rows only share the array
    operations, never a decision.

    Each Newton iteration makes two stacked residual calls: the full step
    of every active row, then all nineteen halvings at once for the rows
    whose full step failed; a row takes its first acceptable step length
    (tests/reference.newton_seeds is the one-halving-at-a-time oracle).
    continuation._newton_correct, the row-batched corrector of every
    branch but the linear disease-free one, batches its line search the
    same way, but this loop stays apart from it because the two take
    different steps. Its merit is the squared 2-norm, it tries twenty step
    lengths, it drops rows whose residual is not finite or above 1e12, and
    converged rows get polish steps; the branch corrector's merit is the
    squared sup norm, it tries twenty-one step lengths, with no polish.
    Run through this loop, the branch corrector takes another path on the
    hiv_mixed fixture and loses branch (2, 1, 1) at alpha = 0.1. This loop
    also keeps the seeds as one (B, size) stack for the kernel's
    matrix-matrix products, which are cheaper over thousands of seeds
    than the per-row matrix-vector products the branch corrector needs
    for exact bits.
    """
    U = np.array(U0, dtype=float)
    R = _residuals(system, U)
    converged = np.zeros(len(U), dtype=bool)
    idx = np.flatnonzero(np.isfinite(R).all(axis=1))   # the active rows
    for _ in range(SEED_STEPS):
        norm = np.abs(R[idx]).max(axis=1)
        done = norm <= ROOT_RESIDUAL_TOL
        converged[idx[done]] = True
        idx = idx[~done & (norm <= 1e12)]     # NaN and inf fail here too
        if not idx.size:
            break
        dU, solved = _newton_steps(system, U[idx], R[idx])
        idx, dU = idx[solved], dU[solved]
        # Armijo backtracking on the squared residual norm; trial[row, j]
        # is U + t[j] * dU, exact for a power of two t
        base = (R[idx] * R[idx]).sum(axis=1)
        stepped = np.zeros(len(U), dtype=bool)
        for t in _SEED_STEP_LENGTHS:
            if not idx.size:
                break
            trial = U[idx, None] + t[:, None] * dU[:, None]
            R_t = _residuals(system, trial.reshape(-1, U.shape[1]))
            R_t = R_t.reshape(trial.shape)
            ok = (R_t * R_t).sum(axis=2) <= (1 - 1e-4 * t) * base[:, None]
            took = ok.any(axis=1)
            first = ok.argmax(axis=1)[took]       # the largest acceptable t
            rows = idx[took]
            U[rows], R[rows] = trial[took, first], R_t[took, first]
            stepped[rows] = True
            idx, dU, base = idx[~took], dU[~took], base[~took]
        idx = np.flatnonzero(stepped)           # a row with no step fails
    # polish: keep iterating while the residual still improves
    idx = np.flatnonzero(converged)
    for _ in range(4):
        if not idx.size:
            break
        dU, solved = _newton_steps(system, U[idx], R[idx])
        trial = U[idx] + dU
        R_t = _residuals(system, trial)
        better = solved & (np.max(np.abs(R_t), axis=1)
                           < np.max(np.abs(R[idx]), axis=1))
        idx, trial, R_t = idx[better], trial[better], R_t[better]
        U[idx], R[idx] = trial, R_t
    return U, converged


def _residuals(system, U: np.ndarray) -> np.ndarray:
    """Residual of every row of U at alpha = 0; NaN rows where inadmissible.

    A row's bits depend on the stack it is evaluated in: numpy takes a
    matrix-vector path for a one-row stack, whose last bits differ from
    the same row's inside a stack of two or more rows (which all agree).
    """
    ok = system.admissible(U)
    if ok.all():
        return system.residual(0.0, U)
    R = np.full_like(U, np.nan)
    if ok.any():
        R[ok] = system.residual(0.0, U[ok])
    return R


def _newton_steps(system, U: np.ndarray, R: np.ndarray) -> tuple:
    """(dU, solved): the Newton step J(u) du = -r of every row.

    A row is solved when its step is finite: a singular Jacobian gives a
    NaN step and fails its own row only.
    """
    J = system.jacobian(0.0, U)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        dU = matalg._solve(J, -R)
    return dU, np.isfinite(dU).all(axis=1)


# ====================================================================
# Product-system census
# ====================================================================

def patch_facts(model: PatchModel) -> PatchFacts:
    """The patch's PatchFacts: one system and one DFE serve them all.

    V - F and R come from _threshold. The HIV family finds its endemic
    states through the scalar force-of-infection reduction, other
    families through the generic multi-start Newton on the patch's
    system, and that system classifies every state.
    """
    system, dfe, v_minus_f, R = _threshold(model)
    lams = None
    if model.family == "hiv_vaccination":
        params = HivParams(**model.params)
        roots = sorted(hiv_lambda_roots(params))
        endemic = [hiv_state_from_lambda(params, lam) for lam in roots]
        lams = [None] + roots
    else:
        endemic, _ = _generic_roots(model, system, dfe)
    return PatchFacts(model, system, v_minus_f, R,
                      tuple(_classified(system, [dfe] + endemic, lams)))


def patch_equilibria(model: PatchModel) -> tuple:
    """patch_facts(model).equilibria: the DFE, then the endemic states."""
    return patch_facts(model).equilibria


def enumerate_patterns(counts: Sequence[int]) -> list:
    """All product patterns over per-region endemic counts, DFE first.

    Returns the full lexicographic list of prod(e_i + 1) patterns; the
    all-zero entry is the DFE pattern.
    """
    counts = [int(e) for e in counts]
    if any(e < 0 for e in counts):
        raise ValueError("endemic counts must be nonnegative")
    return [EquilibriumPattern(choices)
            for choices in itertools.product(*[range(e + 1) for e in counts])]
