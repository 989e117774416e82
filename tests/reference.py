"""Reference equations and cross-checks the package is tested against.

patchepi evaluates the model equations through one path,
continuation.CoupledSystem, and reads the new-infection operator F off its
Jacobian. These functions write the same equations out directly, from F
and the transmission matrix B up, patch by patch and region by region, so
the tests can check the kernel (and the classifications built on it)
against an evaluation that shares no code with it. full_grid_roots is the
seed grid the generic equilibrium search used to run, kept as its oracle,
and endemic_equilibria_generic gives that search's classified roots with
the discard count patch_facts drops. scan_lambda_roots is the HIV
force-of-infection scan with bisection that the closed-form quadratic
replaced, kept as its oracle, and steady_beta1 checks the closed-form
fold. patch_susceptible_level is the direct solve of a patch's
disease-free susceptibles that the one-region CoupledSystem.disease_free
replaced. m_matrix_characterizations gives the two textbook tests the
package's M-matrix predicate is checked against. continue_branch is
continue_branches on one pattern, the single run a batch is checked
against. newton_seeds and newton_correct are the generic seed search and
the branch corrector backtracking one halving, and one residual call, at
a time, and classify_terminal the terminal classifier measuring one
equilibrium at a time: the oracles of their batched forms in the
package. pattern_verdicts runs the whole verdict rule on every pattern,
the oracle of SystemFacts.verdicts, which runs it once per EAT set. The
branch cross-checks at the end read continued branches against the
analytic derivatives of persist and tally their stability.
rodas_trajectory is an adaptive Rodas4 run, a one-step Rosenbrock method
that shares no step with sim.integrate's NDF, written plainly on the
kernel's residual and jacobian: the accuracy oracle of the integrator.
Nothing in the package imports them.
"""
import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from patchepi import equilibria, matalg, sim
from patchepi.continuation import (ACCEPT_TOL, ARMIJO_SLOPE, INADMISSIBLE,
                                   MAX_HALVINGS, MAX_NEWTON_ITERS, NEWTON_TOL,
                                   BranchRecord, CoupledSystem,
                                   _check_families, continue_branches,
                                   travel_matrix)
from patchepi.equilibria import enumerate_patterns
from patchepi.model import (HivParams, InadmissibleStateError, PatchModel,
                            PatchState, split_state)
from patchepi.network import MobilityNetwork
from patchepi.persist import BranchDerivative


def _population(s: PatchState) -> float:
    # population outside the removed classes; divisor of standard incidence
    return float(np.sum(s.y) + np.sum(s.x))


def transmission_matrix(model: PatchModel, s: PatchState) -> np.ndarray:
    """B(x, y, z): the m-by-n transmission matrix at a state."""
    if model.incidence == "mass_action":
        return model.beta.copy()
    N = _population(s)
    if N <= 0.0:
        raise InadmissibleStateError("standard incidence undefined at N = 0")
    return model.beta / N


def new_infection_operator(model: PatchModel, s: PatchState) -> np.ndarray:
    """F(x, y, z): inflow of new infections is F x.

    F[j, q] = sum_p eta[p, q][j] y[p] B[p, q]. Entrywise nonnegative for
    admissible states.
    """
    B = transmission_matrix(model, s)
    return _assemble_F(model.eta, s.y, B)


def _assemble_F(eta: np.ndarray, y: np.ndarray, B: np.ndarray) -> np.ndarray:
    # eta[p, q] is the n-vector over j; F[j, q] = sum_p eta[p, q, j] y[p] B[p, q]
    return np.einsum("pqj,p,pq->jq", eta, y, B)


def patch_residual(model: PatchModel, s: PatchState) -> np.ndarray:
    """Right-hand side of the patch ODE; the kernel's test reference."""
    B = transmission_matrix(model, s)
    F = _assemble_F(model.eta, s.y, B)
    rx = F @ s.x - model.V @ s.x
    ry = model.g_const + model.g_lin @ s.y - s.y * (B @ s.x)
    rz = -model.D @ s.z + model.Z @ s.x
    return np.concatenate([rx, ry, rz])


def patch_jacobian(model: PatchModel, s: PatchState) -> np.ndarray:
    """Analytic Jacobian of patch_residual at a state.

    At a disease-free state the upper-left block reduces to F - V and the
    x-row has no y/z coupling through the incidence terms.
    """
    n, m, k = model.n, model.m, model.k
    B = transmission_matrix(model, s)
    F = _assemble_F(model.eta, s.y, B)
    Bx = B @ s.x
    J = np.zeros((model.size, model.size))
    sl_x = slice(0, n)
    sl_y = slice(n, n + m)
    sl_z = slice(n + m, n + m + k)

    # dB/dw is zero under mass action; -B/N for every x- or y-component
    # under standard incidence (N = sum y + sum x).
    if model.incidence == "standard":
        N = _population(s)
        dB_scale = -1.0 / N  # dB/dw = dB_scale * B for w in x or y
    else:
        dB_scale = 0.0

    # x-rows: d(Fx - Vx)
    J[sl_x, sl_x] = F - model.V
    if dB_scale:
        # sum_q x_q sum_p eta[p,q,j] y_p dB[p,q] = dB_scale * (F x) per j
        J[sl_x, sl_x] += dB_scale * np.outer(F @ s.x, np.ones(n))
    for ell in range(m):
        col = _assemble_F(model.eta[[ell]], np.ones(1), B[[ell]]) @ s.x
        if dB_scale:
            col = col + dB_scale * (F @ s.x)
        J[sl_x, n + ell] = col

    # y-rows: d(g - diag(y) B x)
    J[sl_y, sl_y] = model.g_lin - np.diag(Bx)
    J[sl_y, sl_x] = -s.y[:, None] * B
    if dB_scale:
        # d(Bx)_p/dw picks up dB_scale (Bx)_p for every x- or y-component w
        J[sl_y, sl_x] -= dB_scale * np.outer(s.y * Bx, np.ones(n))
        J[sl_y, sl_y] -= dB_scale * np.outer(s.y * Bx, np.ones(m))

    # z-rows are exactly linear.
    J[sl_z, sl_x] = model.Z
    J[sl_z, sl_z] = -model.D
    return J


def full_grid_roots(model: PatchModel) -> tuple:
    """(states, discarded) of the generic search seeded over all unknowns.

    The 3^size grid seeds z as well as x and y; the package seeds x and y
    only and slaves z, which should find the same roots with 3^k times
    fewer discards. Newton, acceptance, merge and sort are the package's,
    on the system and the DFE of the patch's PatchFacts.
    """
    patch = equilibria.patch_facts(model)
    dfe = patch.equilibria[0].state
    return equilibria._search_roots(
        model, patch.system, dfe, 3 ** model.size,
        lambda index: equilibria._seed_rows(dfe, model.size, index))


def endemic_equilibria_generic(model: PatchModel) -> tuple:
    """(equilibria, discarded): the generic search's endemic states as
    PatchEquilibrium records, with its count of discarded seeds.

    The steps of patch_facts on a generic patch, with the discard count
    it drops: _threshold, _generic_roots, and _classified over the DFE
    and the roots, whose DFE record is left out.
    """
    system, dfe, _, _ = equilibria._threshold(model)
    states, discarded = equilibria._generic_roots(model, system, dfe)
    return equilibria._classified(system, [dfe] + states)[1:], discarded


def newton_seeds(system, U0: np.ndarray) -> tuple:
    """The generic seed search backtracking one halving, and one residual
    call, at a time: the oracle of equilibria._newton_seeds, which tries
    the full step and then every halving at once.

    Returns (U, converged) under the same rules: a row fails on an
    inadmissible start, a residual that is not finite or above 1e12, a
    singular Jacobian, nineteen Armijo halvings (t down to 2^-19) without
    sufficient decrease on the squared 2-norm, or SEED_STEPS steps, and a
    converged row gets up to four polish steps while its residual improves.
    """
    U = np.array(U0, dtype=float)
    R = equilibria._residuals(system, U)
    active = np.all(np.isfinite(R), axis=1)   # inadmissible starts fail
    converged = np.zeros(len(U), dtype=bool)
    for _ in range(equilibria.SEED_STEPS):
        norm = np.max(np.abs(R), axis=1)
        done = active & (norm <= equilibria.ROOT_RESIDUAL_TOL)
        converged |= done
        active &= ~done & np.isfinite(norm) & (norm <= 1e12)
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        dU, solved = equilibria._newton_steps(system, U[idx], R[idx])
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
            R_t = equilibria._residuals(system, trial)
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
        dU, solved = equilibria._newton_steps(system, U[idx], R[idx])
        trial = U[idx] + dU
        R_t = equilibria._residuals(system, trial)
        better = solved & (np.max(np.abs(R_t), axis=1)
                           < np.max(np.abs(R[idx]), axis=1))
        idx, trial, R_t = idx[better], trial[better], R_t[better]
        U[idx], R[idx] = trial, R_t
    return U, converged


def scalar_force_residual(params: HivParams, lam):
    """lam minus the force of infection its HIV steady state generates.

    Every compartment is written through the force of infection lam, a
    scalar or an array, from the model equations alone, without reusing
    library code.
    """
    p, Lam, mu, gam, q = params.p, params.Lam, params.mu, params.gam, params.q
    S_V = p * Lam / (mu + q * lam + gam)
    S = ((1.0 - p) * Lam + gam * S_V) / (mu + lam)
    Y = [params.rho1 * lam * S / (mu + params.sig1),
         params.rho2 * lam * S / (mu + params.sig2)]
    W = [params.pi1 * q * lam * S_V / (mu + params.th1 * params.sig1),
         params.pi2 * q * lam * S_V / (mu + params.th2 * params.sig2)]
    N = S + S_V + sum(Y) + sum(W)
    betas = [params.beta1, params.beta2]
    ss = [params.s1, params.s2]
    force = sum(b * (y + s * w) for b, y, s, w in zip(betas, Y, ss, W)) / N
    return lam - force


# The force-of-infection scan the HIV root search used to run: 4,000
# geometric points on [1e-8, 50].
SCAN_GRID = np.geomspace(1e-8, 50.0, 4000)


def scan_lambda_roots(params: HivParams) -> list:
    """The positive roots of scalar_force_residual on SCAN_GRID, ascending.

    Each grid interval whose residual changes sign (or is zero at its left
    end) is bisected until its midpoint is one of its ends. Two roots in
    one interval give no sign change, so the scan can miss a pair within
    about 1e-7 relative of the fold; it misses every root above lam = 50.
    """
    vals = scalar_force_residual(params, SCAN_GRID)
    roots = []
    for i in np.flatnonzero((vals[:-1] == 0.0)
                            | (vals[:-1] * vals[1:] < 0.0)):
        lo, hi, flo = SCAN_GRID[i], SCAN_GRID[i + 1], vals[i]
        while flo != 0.0 and lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            fmid = scalar_force_residual(params, mid)
            if flo * fmid <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append(float(lo if flo == 0.0 else 0.5 * (lo + hi)))
    return roots


def steady_beta1(params: HivParams, lam):
    """The beta1 at which the force of infection lam is a steady state.

    scalar_force_residual is affine in beta1, so this is its zero from its
    values at beta1 = 0 and 1; the fold is the least of these over lam > 0.
    """
    r0 = scalar_force_residual(replace(params, beta1=0.0), lam)
    r1 = scalar_force_residual(replace(params, beta1=1.0), lam)
    return r0 / (r0 - r1)


def patch_susceptible_level(model: PatchModel) -> np.ndarray:
    """The disease-free susceptible level, the root of g_const + g_lin y."""
    return matalg.solve_linear(-model.g_lin, model.g_const)


def m_matrix_characterizations(A: np.ndarray) -> tuple:
    """(inverse_nonneg, min_real_eig) of a square matrix.

    For a Z-pattern A, the two textbook tests of a nonsingular M-matrix:
    the inverse exists and is entrywise nonnegative, or min_real_eig > 0.
    """
    A = np.asarray(A, dtype=float)
    min_re = float(np.min(np.linalg.eigvals(A).real)) if A.size else 0.0
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return False, min_re
    return (bool(np.all(inv >= -1e-10 * (1.0 + np.max(np.abs(inv))))),
            min_re)


def _block_slices(r: int, n: int, m: int, k: int):
    s = n + m + k
    return [(slice(i * s, i * s + n),
             slice(i * s + n, i * s + n + m),
             slice(i * s + n + m, (i + 1) * s)) for i in range(r)]


def travel_operator(net: MobilityNetwork, X: np.ndarray) -> np.ndarray:
    """L(X), the travel part of coupled_residual: a test reference only."""
    n, m, k = net.block_sizes
    r = net.r
    slices = _block_slices(r, n, m, k)
    out = np.zeros_like(X)
    for c, pos in ((net.cx, 0), (net.cy, 1), (net.cz, 2)):
        outflow = c.sum(axis=0)                    # [i, :] = sum_j C^{ji}
        for i in range(r):
            sl = slices[i][pos]
            acc = -outflow[i] * X[sl]
            for j in range(r):
                if j != i:
                    acc = acc + c[i, j] * X[slices[j][pos]]
            out[sl] = acc
    return out


def coupled_residual(models: Sequence[PatchModel], net: MobilityNetwork,
                     alpha: float, X: np.ndarray) -> np.ndarray:
    """Stacked patch residuals plus alpha L(X); the kernel's test reference."""
    n, m, k = _check_families(models, net)
    s = n + m + k
    X = np.asarray(X, dtype=float)
    if X.shape != (net.r * s,):
        raise ValueError(f"state length {X.size}, expected {net.r * s}")
    res = np.empty_like(X)
    for i, mod in enumerate(models):
        res[i * s:(i + 1) * s] = patch_residual(
            mod, split_state(mod, X[i * s:(i + 1) * s]))
    if alpha != 0.0:
        res += alpha * travel_operator(net, X)
    return res


def coupled_jacobian(models: Sequence[PatchModel], net: MobilityNetwork,
                     alpha: float, X: np.ndarray) -> np.ndarray:
    """Stacked patch Jacobians plus alpha L; the kernel's test reference."""
    n, m, k = _check_families(models, net)
    s = n + m + k
    X = np.asarray(X, dtype=float)
    J = alpha * travel_matrix(net)
    for i, mod in enumerate(models):
        J[i * s:(i + 1) * s, i * s:(i + 1) * s] += patch_jacobian(
            mod, split_state(mod, X[i * s:(i + 1) * s]))
    return J


def continue_branch(pattern, system: CoupledSystem,
                    alpha_targets: Sequence[float], equilibria,
                    stop_at_exit: bool = True) -> BranchRecord:
    """continue_branches for one pattern: the single run a batch of
    patterns is checked against, record for record."""
    return continue_branches([pattern], system, alpha_targets, equilibria,
                             stop_at_exit)[0]


def newton_correct(system, alpha, X0):
    """Damped Newton for system.residual(alpha, X) = 0 from every row of X0,
    backtracking one halving at a time: the oracle of the branch corrector
    continuation._newton_correct, which tries every halving at once.

    Returns (X, rnorm, failures): per row the corrected state, its
    residual sup norm, and None or the message of its failure. The
    residual sees only rows that system.admissible accepts, each as
    X[:, None, :], so it is its own matrix-vector product with the bits of
    a single-state evaluation. It corrects every branch but the DFE's.

    Every row follows the single-start rules on its own, and the rows
    share only the array operations: merit is the squared residual sup
    norm, with Armijo backtracking; an inadmissible trial point halves the
    step; twenty halvings without sufficient decrease stall the row
    unless its residual is already within ACCEPT_TOL. A row fails on an
    inadmissible start, a singular Jacobian, a stall or MAX_NEWTON_ITERS
    iterations; the message names alpha, the point being solved.
    """
    def residual(X):
        return system.residual(alpha, X[:, None])[:, 0]

    X = np.array(X0, dtype=float)
    failures = [None] * len(X)
    res = np.zeros_like(X)
    rnorm = np.full(len(X), np.inf)
    active = system.admissible(X)
    for i in np.flatnonzero(~active):
        failures[i] = (f"corrector start inadmissible at alpha = {alpha:g}: "
                       f"{INADMISSIBLE}")
    if active.any():
        res[active] = residual(X[active])
        rnorm[active] = np.max(np.abs(res[active]), axis=1)
    for _ in range(MAX_NEWTON_ITERS):
        active &= ~(rnorm <= NEWTON_TOL)
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        step = matalg.solve_linear(system.jacobian(alpha, X[idx]), -res[idx])
        singular = np.isnan(step).any(axis=1)
        for i in idx[singular]:
            failures[i] = f"singular Jacobian at alpha = {alpha:g}"
        active[idx[singular]] = False
        idx, step = idx[~singular], step[~singular]
        merit = rnorm[idx] * rnorm[idx]
        t = np.ones(idx.size)
        pending = np.ones(idx.size, dtype=bool)
        for _ in range(MAX_HALVINGS + 1):
            p = np.flatnonzero(pending)
            if not p.size:
                break
            trial = X[idx[p]] + t[p, None] * step[p]
            ok = system.admissible(trial)
            res_t = np.zeros_like(trial)
            norm_t = np.full(p.size, np.inf)
            if ok.any():
                res_t[ok] = residual(trial[ok])
                norm_t[ok] = np.max(np.abs(res_t[ok]), axis=1)
            # float ** 2 is libm pow, which differs from x * x in the last
            # bit of about one value in a thousand; the Armijo test keeps it
            m_t = np.array([v ** 2 for v in norm_t.tolist()])
            ok &= m_t <= (1.0 - 2.0 * ARMIJO_SLOPE * t[p]) * merit[p]
            rows = idx[p[ok]]
            X[rows], res[rows], rnorm[rows] = trial[ok], res_t[ok], norm_t[ok]
            pending[p[ok]] = False
            t[p[~ok]] *= 0.5
        for i in idx[pending]:
            if not rnorm[i] <= ACCEPT_TOL:
                failures[i] = (f"Newton stalled at alpha = {alpha:g}, "
                               f"residual {rnorm[i]:.3e}")
        active[idx[pending]] = False
    for i in np.flatnonzero(active & ~(rnorm <= ACCEPT_TOL)):
        failures[i] = (f"Newton exceeded {MAX_NEWTON_ITERS} iterations at "
                       f"alpha = {alpha:g}")
    return X, rnorm, failures


def pattern_verdicts(facts, net: MobilityNetwork) -> list:
    """facts.verdicts(net) with the whole verdict rule run on every
    pattern, one at a time: the oracle of SystemFacts.verdicts, which runs
    it once per EAT set where every V - F is irreducible."""
    adj = net.adjacency().tolist()
    return [facts._verdict(pattern, net, adj)
            for pattern in enumerate_patterns([len(p.equilibria) - 1
                                               for p in facts.patches])]


def classify_terminal(X: np.ndarray, classified) -> str:
    """Label of the nearest classified equilibrium within tolerance, one
    equilibrium at a time: the oracle of sim._classify_terminal."""
    if not classified:
        return "unresolved"
    best_label, best_dist = "unresolved", np.inf
    for label, Xeq in classified:
        Xeq = np.asarray(Xeq, dtype=float)
        dist = float(np.max(np.abs(X - Xeq))) / (1.0 + float(np.max(np.abs(Xeq))))
        if dist <= sim.CLASSIFY_TOL and dist < best_dist:
            best_label, best_dist = label, dist
    return best_label


def branch_derivative_check(record: BranchRecord,
                            persist_derivative: BranchDerivative) -> float:
    """Relative discrepancy between the analytic branch derivative and
    finite differences of the continued branch on the DFAT x-block.

    Needs points at alpha in {0, h, 2h} with h <= 1e-6. Order 1 compares
    against the Richardson value 2 D(h) - D(2h); order 2 first checks the
    first difference vanishes and then compares the central second
    difference (f(0) - 2 f(h) + f(2h)) / h^2.
    """
    if len(record.points) < 3:
        raise ValueError("need branch points at alpha in {0, h, 2h}")
    p0, p1, p2 = record.points[:3]
    h = p1.alpha
    if p0.alpha != 0.0 or h > 1e-6 + 1e-18 or abs(p2.alpha - 2 * h) > 1e-15 * max(1.0, h):
        raise ValueError(
            f"grid ({p0.alpha:g}, {p1.alpha:g}, {p2.alpha:g}) is not "
            "(0, h, 2h) with h <= 1e-6")
    nblk = persist_derivative.value.size
    per_region = record.points[0].X.size // len(record.pattern.choices)
    sl = slice(persist_derivative.region * per_region,
               persist_derivative.region * per_region + nblk)
    f0, f1, f2 = p0.X[sl], p1.X[sl], p2.X[sl]
    if persist_derivative.order == 1:
        fd = 2.0 * (f1 - f0) / h - (f2 - f0) / (2.0 * h)
        ana = persist_derivative.value
    elif persist_derivative.order == 2:
        first = (f1 - f0) / h
        scale = max(float(np.max(np.abs(persist_derivative.value))) * h, 1e-12)
        if np.max(np.abs(first)) > 10.0 * scale:
            raise ValueError("first difference nonzero; order-2 check invalid")
        fd = (f0 - 2.0 * f1 + f2) / (h * h)
        ana = persist_derivative.value
    else:
        raise ValueError(f"unsupported derivative order {persist_derivative.order}")
    denom = float(np.max(np.abs(ana)))
    diff = float(np.max(np.abs(fd - ana)))
    if denom <= 1e-11:
        # zero analytic target: report the bare finite-difference size
        return diff
    return diff / denom


def count_stable(models: Sequence[PatchModel], net: MobilityNetwork,
                 alpha: float, equilibria) -> tuple:
    """(stable, unstable) tally over the branches that persist to alpha.

    Every pattern climbs the ladder alpha / 100, alpha / 10, alpha on its
    own, one continue_branches call per alpha; a branch that fails or
    violates the hypotheses raises.
    """
    patterns = enumerate_patterns([len(eq) - 1 for eq in equilibria])
    stable = unstable = 0
    for pattern, record in zip(patterns, continue_branches(
            patterns, CoupledSystem(models, net),
            [alpha / 100.0, alpha / 10.0, alpha], equilibria)):
        if record.failure is not None:
            raise RuntimeError(f"pattern {pattern.choices}: {record.failure}")
        if record.verdict_observed == "persists":
            stable += record.points[-1].stability == "stable"
            unstable += record.points[-1].stability == "unstable"
    return stable, unstable


# Rodas4 coefficients (Hairer & Wanner, Solving ODEs II, sec. VI.4, and
# rodas.f). Stage i solves
#   (I/(h gamma) - J) U_i = f(X + sum_j A[i, j] U_j) + sum_j C[i, j] U_j / h
# over j < i. The method is stiffly accurate: the last stage argument is
# the embedded order-3 solution and the step ends at it plus U_6, so U_6
# is the local error estimate.
RODAS_GAMMA = 0.25
RODAS_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1.544, 0.0, 0.0, 0.0, 0.0],
    [0.9466785280815826, 0.2557011698983284, 0.0, 0.0, 0.0],
    [3.314825187068521, 2.896124015972201, 0.9986419139977817, 0.0, 0.0],
    [1.221224509226641, 6.019134481288629, 12.53708332932087,
     -0.687886036105895, 0.0],
    [1.221224509226641, 6.019134481288629, 12.53708332932087,
     -0.687886036105895, 1.0],
])
RODAS_C = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [-5.6688, 0.0, 0.0, 0.0, 0.0],
    [-2.430093356833875, -0.2063599157091915, 0.0, 0.0, 0.0],
    [-0.1073529058151375, -9.594562251023355, -20.47028614809616, 0.0, 0.0],
    [7.496443313967647, -10.24680431464352, -33.99990352819905,
     11.7089089320616, 0.0],
    [8.083246795921522, -7.981132988064893, -31.52159432874371,
     16.31930543123136, -6.058818238834054],
])


def _rodas_step(system: CoupledSystem, alpha: float, X, f0, J, h: float,
                rtol: float, atol: float):
    """One trial Rodas4 step from X, where f0 and J are the kernel's
    residual and its Jacobian gathered into solve_order with np.ix_,
    through np.linalg.inv and @. Returns (err, X_new, f_new, J_new), err
    the RMS norm of the error estimate scaled by atol + rtol * max(|X|,
    |X_new|), inf and the rest None for a step refused whatever its
    accuracy: an inadmissible or non-finite stage or end state, a
    singular stage matrix or an undershoot below sim.UNDERSHOOT_TOL."""
    order = system.solve_order
    refused = np.inf, None, None, None
    M = -J
    M.ravel()[::X.size + 1] += 1.0 / (h * RODAS_GAMMA)
    try:
        W = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return refused
    U = np.empty((6, X.size))
    U[0][order] = W @ f0[order]
    try:
        for i in range(1, 6):
            a, c = RODAS_A[i, :i], RODAS_C[i, :i]
            b = system.residual(alpha, X + a @ U[:i]) + (c @ U[:i]) / h
            U[i][order] = W @ b[order]
        X_new = X + RODAS_A[5] @ U[:5] + U[5]
        e = U[5] / (atol + rtol * np.maximum(np.abs(X), np.abs(X_new)))
        err = math.sqrt((e * e).sum() / e.size)
        if not err <= 1.0:
            return (err if math.isfinite(err) else np.inf), None, None, None
        if X_new.min() < sim.UNDERSHOOT_TOL:
            return refused
        f_new = system.residual(alpha, X_new)
        J_new = system.jacobian(alpha, X_new)[np.ix_(order, order)]
    except InadmissibleStateError:
        return refused
    if not (np.isfinite(f_new).all() and np.isfinite(J_new).all()):
        return refused
    return err, X_new, f_new, J_new


def rodas_trajectory(system: CoupledSystem, alpha: float, X0, t_end: float,
                     rtol: float = sim.DEFAULT_RTOL,
                     atol: float = sim.DEFAULT_ATOL):
    """(times, states) of the Rodas4 run from X0 to t_end: each trial step
    is _rodas_step above; an accepted step grows h by 0.9 err^(-1/4)
    within [0.2, 5], a rejected one shrinks it by that factor, or halves
    it when refused, down to sim.integrate's step floor."""
    order = system.solve_order
    X = np.array(X0, dtype=float)
    t, times, states = 0.0, [0.0], [X]
    h_min = max(1e-14 * t_end, 1e-13)
    with np.errstate(over="ignore", invalid="ignore"):
        f, J = (system.residual(alpha, X),
                system.jacobian(alpha, X)[np.ix_(order, order)])
        h = sim._initial_step(f, X, t_end, rtol, atol)
        while t < t_end:
            last = h >= t_end - t
            if last:
                h = t_end - t
            err, X_new, f_new, J_new = _rodas_step(system, alpha, X, f, J,
                                                   h, rtol, atol)
            if err <= 1.0:
                t = t_end if last else t + h
                X, f, J = X_new, f_new, J_new
                times.append(t)
                states.append(X)
                factor = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.25)
                h *= max(factor, 0.2)
            elif np.isfinite(err):
                h *= max(0.2, 0.9 * err ** -0.25)
            else:
                h *= 0.5
            if t < t_end and not h >= h_min:
                raise sim.StepSizeUnderflowError(f"underflow at t = {t:g}")
    return np.asarray(times), np.asarray(states)
