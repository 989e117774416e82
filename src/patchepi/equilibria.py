"""One-patch steady states and the disconnected-system census.

Settles each patch's facts once (patch_facts): the disease-free state,
V - F there and the local R, the endemic equilibria (scalar force-of-
infection reduction for HIV, multi-start Newton for everything else) and
their stability. It also detects the backward-bifurcation window and
enumerates the product equilibria of r disconnected patches.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import matalg
from .model import (HivParams, PatchModel, PatchState, hiv_vaccination,
                    split_state)

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

# |max real eigenvalue| at most this is a marginal equilibrium; those are
# excluded from continuation (the persistence theorem needs an invertible
# Jacobian).
STABILITY_MARGIN = 1e-9

# Scalar force-of-infection scan used for the HIV family.
LAMBDA_SCAN_LO = 1e-8
LAMBDA_SCAN_HI = 50.0
LAMBDA_SCAN_POINTS = 4000
LAMBDA_BISECT_TOL = 1e-12
LAMBDA_GRID = np.geomspace(LAMBDA_SCAN_LO, LAMBDA_SCAN_HI, LAMBDA_SCAN_POINTS)


class DegenerateModelError(RuntimeError):
    """Disease-free susceptible level non-unique, not finite or not
    positive, or V - F there not finite."""


class NoFoldError(RuntimeError):
    """No fold on the force-of-infection scan: the bifurcation is forward."""


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
    roots while R < 1), above_one (the unique root beyond the threshold).
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

def _susceptible_equilibrium(model: PatchModel) -> np.ndarray:
    """The disease-free susceptible level, the root of g_const + g_lin y."""
    try:
        y0 = matalg.solve_linear(-model.g_lin, model.g_const)
    except matalg.SingularMatrixError as exc:
        raise DegenerateModelError(
            "disease-free susceptible level is not unique") from exc
    if not np.all(np.isfinite(y0)):
        raise DegenerateModelError(
            f"disease-free susceptible level not finite: {y0}")
    if np.any(y0 <= 0):
        raise DegenerateModelError(
            f"disease-free susceptible level not positive: {y0}")
    return y0


def _threshold(model: PatchModel) -> tuple:
    """(system, dfe, V - F, R): the facts of patch_facts before any search.

    system is the patch's one-region CoupledSystem (no travel), dfe its
    disease-free state. V - F is minus the x-x block of system's Jacobian
    at dfe: with x = 0 the incidence contributes F and nothing through N.
    R is the spectral radius of F V^{-1}, with F = V - (V - F). Raises
    DegenerateModelError when the DFE or V - F is not finite, so numpy's
    overflow and invalid warnings on the way are silenced.
    """
    from .continuation import CoupledSystem
    from .network import from_edges

    system = CoupledSystem([model], from_edges([], 1, model.n, model.m,
                                               model.k))
    with np.errstate(over="ignore", invalid="ignore"):
        dfe = PatchState(np.zeros(model.n), _susceptible_equilibrium(model),
                         np.zeros(model.k))
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
                first_index: int, lams: Optional[Sequence] = None) -> list:
    """The states as PatchEquilibrium, indexed from first_index (0: DFE).

    One stacked Jacobian of the patch's system at alpha = 0 gives every
    stability label and, by its condition number, jac_invertible. lams,
    if given, holds each state's force of infection (None for the DFE).
    """
    if not states:
        return []
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
                zip(states, labels, invertible, lams), start=first_index)]


# ====================================================================
# HIV endemic equilibria via the scalar force-of-infection reduction
# ====================================================================

def _hiv_compartments(params: HivParams, lam):
    """(S, SV, Y1, Y2, W1, W2, A) at force of infection lam.

    lam may be a scalar or an array; every compartment then has its shape.
    """
    pr = params
    SV = pr.p * pr.Lam / (pr.mu + pr.q * lam + pr.gam)
    S = ((1.0 - pr.p) * pr.Lam + pr.gam * SV) / (pr.mu + lam)
    Y1 = pr.rho1 * lam * S / (pr.mu + pr.sig1)
    Y2 = pr.rho2 * lam * S / (pr.mu + pr.sig2)
    W1 = pr.pi1 * pr.q * lam * SV / (pr.mu + pr.th1 * pr.sig1)
    W2 = pr.pi2 * pr.q * lam * SV / (pr.mu + pr.th2 * pr.sig2)
    A = (pr.sig1 * Y1 + pr.sig2 * Y2 + pr.th1 * pr.sig1 * W1
         + pr.th2 * pr.sig2 * W2) / (pr.delta + pr.mu)
    return S, SV, Y1, Y2, W1, W2, A


def hiv_state_from_lambda(params: HivParams, lam: float) -> PatchState:
    """Back-substitute a force of infection into the full steady state."""
    S, SV, Y1, Y2, W1, W2, A = _hiv_compartments(params, lam)
    return PatchState(np.array([Y1, Y2, W1, W2]), np.array([S, SV]),
                      np.array([A]))


def _hiv_incidence(params: HivParams, lam) -> tuple:
    """(N, I1, I2) at force of infection lam, scalar or array.

    The force of infection the state implies is (beta1 I1 + beta2 I2) / N,
    and no term of N, I1 or I2 reads beta1 or beta2.
    """
    S, SV, Y1, Y2, W1, W2, _ = _hiv_compartments(params, lam)
    return ((S + SV) + (((Y1 + Y2) + W1) + W2), Y1 + params.s1 * W1,
            Y2 + params.s2 * W2)


def _hiv_scalar_residual(params: HivParams, lam):
    """lam minus the force of infection it implies; scalar or array lam."""
    N, I1, I2 = _hiv_incidence(params, lam)
    return lam - (params.beta1 * I1 + params.beta2 * I2) / N


def _lambda_brackets(params: HivParams) -> tuple:
    """(grid, fa, brackets): the scan of the scalar residual over LAMBDA_GRID.

    fa holds the residual at every grid point but the last; brackets are
    the indices i whose interval [grid[i], grid[i + 1]] holds a root: the
    residual is zero at its left end or changes sign across it. The scan
    is one array expression.
    """
    vals = _hiv_scalar_residual(params, LAMBDA_GRID)
    fa, fb = vals[:-1], vals[1:]
    return LAMBDA_GRID, fa, np.flatnonzero((fa == 0.0) | (fa * fb < 0.0))


def hiv_lambda_roots(params: HivParams) -> list:
    """All positive roots of the scalar steady-state residual.

    Logarithmic scan (_lambda_brackets) followed by bisection on each
    sign change; the residual has at most a few isolated roots, so
    robustness beats speed here.
    """
    grid, fa, brackets = _lambda_brackets(params)
    roots = []
    for i in brackets:
        a, b = grid[i], grid[i + 1]
        if fa[i] == 0.0:
            roots.append(float(a))
            continue
        lo, hi, flo = a, b, fa[i]
        while hi - lo > LAMBDA_BISECT_TOL:
            mid = 0.5 * (lo + hi)
            fmid = _hiv_scalar_residual(params, mid)
            if flo * fmid <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append(0.5 * (lo + hi))
    return roots


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
    return local_reproduction_number(
        hiv_vaccination(replace(params, beta1=_fold_beta1(params))))


def _fold_beta1(params: HivParams) -> float:
    """The beta1 at which the scan's root count goes from 0 to 2.

    Each grid lambda of the scan is a steady state for exactly one beta1,

        beta1(lam) = (lam N - beta2 I2) / I1        (_hiv_incidence),

    since beta1 enters the scalar residual linearly and nothing else in
    it. The scan finds no root below the least of those beta1 and two
    just above it, so that minimum is the fold, whatever the configured
    beta1. Raises NoFoldError when the minimum is the grid's first point:
    beta1(lam) then only grows, and the bifurcation is forward.
    """
    N, I1, I2 = _hiv_incidence(params, LAMBDA_GRID)
    beta1 = (LAMBDA_GRID * N - params.beta2 * I2) / I1
    i = int(np.argmin(beta1))
    if i == 0:
        raise NoFoldError("the force-of-infection scan has no fold: "
                          "the bifurcation is forward")
    return float(beta1[i])


def bifurcation_report(patch: PatchFacts) -> BifurcationReport:
    """Root census and regime of one patch, any family, from its PatchFacts.

    The endemic root count of its equilibria classifies the regime. The
    HIV family adds the forces of infection of its endemic states and,
    inside the backward window, the local R at the fold (estimate_Rc).
    """
    R = patch.R
    regime = _regime_from(R, len(patch.equilibria) - 1)
    if patch.model.family != "hiv_vaccination":
        return BifurcationReport(R_local=R, regime=regime, endemic_lambdas=())
    params = HivParams(**patch.model.params)
    rc = estimate_Rc(params) if regime == "backward_window" else None
    return BifurcationReport(
        R_local=R, regime=regime,
        endemic_lambdas=tuple(eq.lam for eq in patch.equilibria[1:]),
        R_c_estimate=rc)


# ====================================================================
# Generic endemic equilibria by multi-start Newton
# ====================================================================

def endemic_equilibria_generic(model: PatchModel) -> tuple:
    """Strictly positive steady states from a deterministic seed grid.

    Returns (equilibria, discarded) where discarded counts seeds whose
    Newton iteration failed to converge or converged outside the open
    positive cone; those are dropped silently by design.
    """
    system, dfe, _, _ = _threshold(model)
    states, discarded = _generic_roots(model, system, dfe)
    return _classified(system, states, 1), discarded


def _generic_roots(model: PatchModel, system, dfe: PatchState) -> tuple:
    """(states, discarded): endemic_equilibria_generic's unclassified roots.

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
    residual that is not finite or above 1e12, a singular Jacobian,
    twenty Armijo halvings without sufficient decrease, or SEED_STEPS steps;
    once its residual is at most ROOT_RESIDUAL_TOL it gets up to four
    full polishing steps, kept while the residual still improves. The
    rows only share the array operations, never a decision.

    This loop stays apart from continuation._newton_correct, the row-batched
    corrector of the branches, because the two take different steps. Its
    merit is the squared 2-norm, it drops rows whose residual is not
    finite or above 1e12, and converged rows get polish steps; the branch
    corrector's merit is the squared sup norm, with no polish. Run through
    this loop, the branch corrector takes another path on the hiv_mixed
    fixture and loses branch (2, 1, 1) at alpha = 0.1. This loop also keeps
    the seeds as one (B, size) stack for the kernel's matrix-matrix
    products, which are cheaper over thousands of seeds than the per-row
    matrix-vector products the branch corrector needs for exact bits.
    """
    U = np.array(U0, dtype=float)
    R = _residuals(system, U)
    active = np.all(np.isfinite(R), axis=1)   # inadmissible starts fail
    converged = np.zeros(len(U), dtype=bool)
    for _ in range(SEED_STEPS):
        norm = np.max(np.abs(R), axis=1)
        done = active & (norm <= ROOT_RESIDUAL_TOL)
        converged |= done
        active &= ~done & np.isfinite(norm) & (norm <= 1e12)
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        dU, solved = _newton_steps(system, U[idx], R[idx])
        active[idx[~solved]] = False
        idx, dU = idx[solved], dU[solved]
        # Armijo backtracking on the squared residual norm
        base = np.sum(R[idx] * R[idx], axis=1)
        step = np.ones(idx.size)
        pending = np.ones(idx.size, dtype=bool)
        for _ in range(20):
            p = np.flatnonzero(pending)
            if not p.size:
                break
            trial = U[idx[p]] + step[p, None] * dU[p]
            R_t = _residuals(system, trial)
            ok = (np.sum(R_t * R_t, axis=1)
                  <= (1 - 1e-4 * step[p]) * base[p])
            U[idx[p[ok]]], R[idx[p[ok]]] = trial[ok], R_t[ok]
            pending[p[ok]] = False
            step[p[~ok]] *= 0.5
        active[idx[pending]] = False
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
    """Residual of every row of U at alpha = 0; NaN rows where inadmissible."""
    R = np.full_like(U, np.nan)
    ok = system.admissible(U)
    if ok.any():
        R[ok] = system.residual(0.0, U[ok])
    return R


def _newton_steps(system, U: np.ndarray, R: np.ndarray) -> tuple:
    """(dU, solved): the Newton step J(u) du = -r of every row.

    A singular Jacobian fails its own row only (solved False).
    """
    J = system.jacobian(0.0, U)
    try:
        return (np.linalg.solve(J, -R[:, :, None])[:, :, 0],
                np.ones(len(U), dtype=bool))
    except np.linalg.LinAlgError:
        dU = np.zeros_like(U)
        solved = np.ones(len(U), dtype=bool)
        for i in range(len(U)):
            try:
                dU[i] = np.linalg.solve(J[i], -R[i])
            except np.linalg.LinAlgError:
                solved[i] = False
        return dU, solved


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
                      tuple(_classified(system, [dfe] + endemic, 0, lams)))


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
