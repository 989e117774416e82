"""One-patch steady states and the disconnected-system census.

Finds the disease-free equilibrium in closed form, locates endemic
equilibria (scalar force-of-infection reduction for the HIV family,
multi-start Newton for everything else), classifies local stability,
detects the backward-bifurcation window, and enumerates the product
equilibria of r disconnected patches.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import matalg
from .model import (HivParams, PatchModel, PatchState, hiv_vaccination,
                    new_infection_operator, patch_jacobian, split_state)

# Newton acceptance for a root, and merge distance for duplicates.
ROOT_RESIDUAL_TOL = 1e-9
ROOT_MERGE_TOL = 1e-7

# Seeds of the generic search that share one batched Newton; bounds the
# stacked Jacobians at SEED_BATCH * size^2 doubles (3^12 seeds for four
# groups would otherwise need gigabytes).
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


class DegenerateModelError(RuntimeError):
    """Disease-free susceptible level missing, non-unique, or not positive."""


class NoFoldError(RuntimeError):
    """Root-count fold absent from the requested parameter sweep."""


@dataclass(frozen=True)
class PatchEquilibrium:
    """A classified steady state of one disconnected patch."""
    state: PatchState
    kind: str                 # "disease_free" | "endemic"
    index: int                # 0 for the DFE, 1..e for endemic states
    stability: str            # "stable" | "unstable" | "marginal"
    jac_invertible: bool


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


# ====================================================================
# Reproduction number and DFE
# ====================================================================

def disease_free_equilibrium(model: PatchModel) -> PatchEquilibrium:
    """The unique steady state with all infected and removed classes zero.

    For affine recruitment y0 solves g_const + g_lin y = 0 directly; a
    custom g_func is solved by the single-start damped Newton of
    continuation, from the affine seed.
    """
    y0 = _susceptible_equilibrium(model)
    state = PatchState(np.zeros(model.n), y0, np.zeros(model.k))
    stability, invertible = _classify(model, state)
    return PatchEquilibrium(state=state, kind="disease_free", index=0,
                            stability=stability, jac_invertible=invertible)


def _susceptible_equilibrium(model: PatchModel) -> np.ndarray:
    from .continuation import CorrectionFailureError, _newton_correct

    try:
        y0 = matalg.solve_linear(-model.g_lin, model.g_const)
    except matalg.SingularMatrixError as exc:
        raise DegenerateModelError(
            "disease-free susceptible level is not unique") from exc
    if model.g_func is not None:
        try:
            y0, _ = _newton_correct(model.recruitment,
                                    model.recruitment_jacobian, y0, 0.0)
        except CorrectionFailureError as exc:
            raise DegenerateModelError(
                "susceptible-equilibrium Newton did not converge") from exc
    if np.any(y0 <= 0):
        raise DegenerateModelError(
            f"disease-free susceptible level not positive: {y0}")
    return y0


def local_reproduction_number(model: PatchModel) -> float:
    """Spectral radius of F V^{-1} with F evaluated at the patch DFE."""
    y0 = _susceptible_equilibrium(model)
    dfe_state = PatchState(np.zeros(model.n), y0, np.zeros(model.k))
    F = new_infection_operator(model, dfe_state)
    FVinv = np.linalg.solve(model.V.T, F.T).T
    return matalg.spectral_radius(FVinv)


def stability_of(J: np.ndarray) -> tuple:
    """(label, top): top is the largest real part of an eigenvalue of J.

    The label is "stable" below -STABILITY_MARGIN, "unstable" above
    STABILITY_MARGIN and "marginal" in between, ends included.
    """
    top = float(np.max(matalg.eigen_spectrum(J).real))
    if top < -STABILITY_MARGIN:
        return "stable", top
    if top > STABILITY_MARGIN:
        return "unstable", top
    return "marginal", top


def _classify(model: PatchModel, state: PatchState) -> tuple:
    J = patch_jacobian(model, state)
    stability, _ = stability_of(J)
    return stability, matalg.condition_estimate(J) < matalg.COND_LIMIT


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


def _hiv_scalar_residual(params: HivParams, lam):
    """lam minus the force of infection it implies; scalar or array lam."""
    pr = params
    S, SV, Y1, Y2, W1, W2, _ = _hiv_compartments(params, lam)
    N = (S + SV) + (((Y1 + Y2) + W1) + W2)
    foi = (pr.beta1 * (Y1 + pr.s1 * W1) + pr.beta2 * (Y2 + pr.s2 * W2)) / N
    return lam - foi


def hiv_lambda_roots(params: HivParams) -> list:
    """All positive roots of the scalar steady-state residual.

    Logarithmic scan, evaluated as one array expression, followed by
    bisection on each sign change; the residual has at most a few
    isolated roots, so robustness beats speed here.
    """
    grid = np.geomspace(LAMBDA_SCAN_LO, LAMBDA_SCAN_HI, LAMBDA_SCAN_POINTS)
    vals = _hiv_scalar_residual(params, grid)
    fa, fb = vals[:-1], vals[1:]
    roots = []
    for i in np.flatnonzero((fa == 0.0) | (fa * fb < 0.0)):
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


def endemic_equilibria_hiv(params: HivParams) -> BifurcationReport:
    """Endemic-root census of one HIV patch.

    An empty root list is a valid outcome (below the backward window).
    """
    model = hiv_vaccination(params)
    R = local_reproduction_number(model)
    roots = tuple(sorted(hiv_lambda_roots(params)))
    regime = _regime_from(R, len(roots))
    return BifurcationReport(R_local=R, regime=regime, endemic_lambdas=roots)


def _regime_from(R: float, nroots: int) -> str:
    if nroots == 0:
        return "below_Rc"
    if nroots == 2 and R < 1.0:
        return "backward_window"
    if nroots == 1:
        return "above_one"
    raise RuntimeError(
        f"unclassifiable root census: R={R}, {nroots} positive roots")


def estimate_Rc(params: HivParams, bifurcation_param: str = "beta1",
                param_range: tuple = (0.5, 0.85)) -> float:
    """Locate the fold of the backward bifurcation.

    Bisects the named parameter on the 0-to-2 change in the number of
    positive roots (relative accuracy 1e-6 on the parameter) and returns
    the local reproduction number at the fold.
    """
    lo, hi = map(float, param_range)

    def count(p):
        return len(hiv_lambda_roots(replace(params, **{bifurcation_param: p})))

    c_lo, c_hi = count(lo), count(hi)
    if {c_lo, c_hi} != {0, 2}:
        raise NoFoldError(
            f"sweep of {bifurcation_param} over {param_range} does not bracket "
            f"the fold (root counts {c_lo} and {c_hi})")
    # orient so that lo has no roots
    if c_lo == 2:
        lo, hi = hi, lo
    while abs(hi - lo) > 1e-6 * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if count(mid) == 0:
            lo = mid
        else:
            hi = mid
    fold_param = 0.5 * (lo + hi)
    model = hiv_vaccination(replace(params, **{bifurcation_param: fold_param}))
    return local_reproduction_number(model)


def bifurcation_report(model: PatchModel,
                       equilibria=None) -> BifurcationReport:
    """Root census and regime of one patch, any family.

    The HIV family gets its force-of-infection roots and, inside the
    backward window, a fold estimate from a parameter sweep below the
    configured transmission rate. Other families classify the regime
    from the endemic root count alone, taken from equilibria (the
    patch_equilibria of this model) when given instead of a new search.
    """
    if model.family == "hiv_vaccination":
        params = HivParams(**model.params)
        report = endemic_equilibria_hiv(params)
        if report.regime == "backward_window":
            try:
                rc = estimate_Rc(params, "beta1",
                                 (0.5 * params.beta1, params.beta1))
            except NoFoldError:
                rc = None
            return replace(report, R_c_estimate=rc)
        return report
    R = local_reproduction_number(model)
    if equilibria is None:
        nroots = len(endemic_equilibria_generic(model)[0])
    else:
        nroots = len(equilibria) - 1
    return BifurcationReport(R_local=R, regime=_regime_from(R, nroots),
                             endemic_lambdas=())


# ====================================================================
# Generic endemic equilibria by multi-start Newton
# ====================================================================

def endemic_equilibria_generic(model: PatchModel) -> tuple:
    """Strictly positive steady states from a deterministic seed grid.

    Returns (equilibria, discarded) where discarded counts seeds whose
    Newton iteration failed to converge or converged outside the open
    positive cone; those are dropped silently by design. Newton runs on
    up to SEED_BATCH seeds at once (_newton_seeds); the acceptance tests
    then go through the seeds in grid order, so the first seed to reach a
    root is the one kept.
    """
    from .continuation import CoupledSystem
    from .network import from_edges

    y0 = _susceptible_equilibrium(model)
    scale = float(np.sum(y0))
    grid = np.array([0.1 * scale, 1.0 * scale, 10.0 * scale])
    system = CoupledSystem([model], from_edges([], 1, model.n, model.m,
                                               model.k))
    u_dfe = PatchState(np.zeros(model.n), y0, np.zeros(model.k)).concat()
    # seed i takes grid[d_j] in coordinate j, d its base-3 digits with the
    # last coordinate fastest: the order of itertools.product
    place = 3 ** np.arange(model.size - 1, -1, -1)
    nseeds = 3 ** model.size
    roots = []
    discarded = 0
    for start in range(0, nseeds, SEED_BATCH):
        index = np.arange(start, min(start + SEED_BATCH, nseeds))
        U, converged = _newton_seeds(system, grid[index[:, None] // place % 3])
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
        discarded += index.size - int(np.count_nonzero(endemic))
        for u in U[endemic]:
            if not any(_state_distance(u, v) <= ROOT_MERGE_TOL
                       for v in roots):
                roots.append(u)
    roots.sort(key=lambda u: float(np.sum(u[:model.n])))
    out = []
    for idx, u in enumerate(roots, start=1):
        state = split_state(model, u)
        stability, invertible = _classify(model, state)
        out.append(PatchEquilibrium(state=state, kind="endemic", index=idx,
                                    stability=stability,
                                    jac_invertible=invertible))
    return out, discarded


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

    This loop stays apart from the single-start continuation._newton_correct,
    whose merit is the sup norm and which has no polish: run as a batch of
    one through this loop, the branch corrector takes another path on the
    hiv_mixed fixture and loses branch (2, 1, 1) at alpha = 0.1.
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

def patch_equilibria(model: PatchModel) -> list:
    """DFE plus endemic states of one patch, as classified equilibria.

    The HIV family goes through the scalar force-of-infection reduction;
    other families use the generic multi-start Newton.
    """
    out = [disease_free_equilibrium(model)]
    if model.family == "hiv_vaccination":
        params = HivParams(**model.params)
        for idx, lam in enumerate(sorted(hiv_lambda_roots(params)), start=1):
            state = hiv_state_from_lambda(params, lam)
            stability, invertible = _classify(model, state)
            out.append(PatchEquilibrium(state=state, kind="endemic", index=idx,
                                        stability=stability,
                                        jac_invertible=invertible))
    else:
        endemic, _ = endemic_equilibria_generic(model)
        out.extend(endemic)
    return out


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
