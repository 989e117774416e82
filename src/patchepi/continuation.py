"""Continuation of product equilibria in the mobility parameter.

The coupled residual stacks the patch equations and is affine in alpha:

    T(alpha, X) = T_patch(X) + alpha * L(X),

where L moves each compartment class between regions at the connectivity
rates. Every disconnected product equilibrium is a root at alpha = 0;
each is followed along an increasing alpha grid by an Euler predictor
and a damped Newton corrector, recording component signs and linear
stability along the way. A branch is abandoned (never projected back)
once a component drops below the sign-noise band: outside the cone the
state has no epidemiological meaning.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import matalg
from .equilibria import EquilibriumPattern, enumerate_patterns, stability_of
from .model import (InadmissibleStateError, PatchModel,
                    patch_jacobian, patch_residual, split_state)
from .network import MobilityNetwork
from .persist import BranchDerivative

NEWTON_TOL = 1e-10        # corrector target, residual sup norm
ACCEPT_TOL = 1e-9         # accepted-point invariant
SIGN_EXIT_TOL = -1e-9     # below this a component counts as negative
MAX_NEWTON_ITERS = 60
MAX_HALVINGS = 20         # Armijo: step down to 2^-20
ARMIJO_SLOPE = 1e-4


class HypothesisViolationError(RuntimeError):
    """Coupled Jacobian singular where the theory requires otherwise."""


class CorrectionFailureError(RuntimeError):
    """Newton corrector failed to reach the residual target."""


@dataclass(frozen=True)
class CoupledState:
    """One accepted branch point of the coupled system."""
    alpha: float
    X: np.ndarray
    residual_norm: float
    stability: str            # "stable" | "unstable" | "marginal"
    min_component: float
    max_real_eig: float


@dataclass(frozen=True)
class BranchRecord:
    pattern: EquilibriumPattern
    points: List[CoupledState]
    exit_alpha: Optional[float]
    verdict_observed: Optional[str]   # "persists" | "vanishes"; None if failed
    failure: Optional[str] = None

    @property
    def complete(self) -> bool:
        return self.failure is None


def _check_families(models: Sequence[PatchModel], net: MobilityNetwork):
    if len(models) != net.r:
        raise ValueError("one patch model per region required")
    n, m, k = models[0].n, models[0].m, models[0].k
    for mod in models:
        if (mod.n, mod.m, mod.k) != (n, m, k):
            raise ValueError("all patches must share block sizes")
    if net.block_sizes != (n, m, k):
        raise ValueError("network connectivity sized for different blocks")
    return n, m, k


def _block_slices(r: int, n: int, m: int, k: int):
    s = n + m + k
    return [(slice(i * s, i * s + n),
             slice(i * s + n, i * s + n + m),
             slice(i * s + n + m, (i + 1) * s)) for i in range(r)]


# ====================================================================
# Coupled residual and Jacobian
# ====================================================================

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


def travel_matrix(net: MobilityNetwork) -> np.ndarray:
    """Dense matrix of the linear travel operator L."""
    n, m, k = net.block_sizes
    s = n + m + k
    r = net.r
    L = np.zeros((r, s, r, s))
    regions = np.arange(r)[:, None]
    for c, offset in ((net.cx, 0), (net.cy, n), (net.cz, n + m)):
        comp = offset + np.arange(c.shape[2])
        # L[i, comp, j, comp] = C^{ij}; the diagonal blocks of c are zero
        L[:, comp, :, comp] = c.transpose(2, 0, 1)
        L[regions, comp, regions, comp] -= c.sum(axis=0)
    return L.reshape(r * s, r * s)


class CoupledSystem:
    """The coupled residual T(alpha, X) and its Jacobian for one (models, net).

    Within patch i every incidence term is linear in the products
    P_i[p, q] = y_p x_q / N_i (x_q alone under mass action):

        T(alpha, X) = (M0 + alpha L) X + c + Q P(X) + G(X),
        dT/dX       =  M0 + alpha L        + Q dP/dX + dG/dX,

    where M0 holds each patch's linear terms (-V, g_lin, Z, -D), L is the
    travel matrix, c the constant recruitment, and Q maps the products to
    new infections, Q[x_j, P_pq] = eta[p, q, j] beta[p, q], and to
    susceptible losses, Q[y_p, P_pq] = -beta[p, q]. All four are built
    once, and M0 + alpha L once per alpha; an evaluation is then a few
    array operations over every patch at once. N and the dP/dN terms
    enter only for standard-incidence patches. A recruitment callback
    puts nothing into c or M0: G adds its g(y) to the patch's y rows and
    dG/dX its recruitment_jacobian(y) to the y-y block, state by state.

    X may carry leading batch axes, X[..., r * s]: residual and jacobian
    then evaluate every state of the batch at once, as the multi-start
    equilibrium search of one patch does (one region, alpha = 0).
    """

    def __init__(self, models: Sequence[PatchModel], net: MobilityNetwork):
        n, m, k = _check_families(models, net)
        self.net = net
        self.n, self.m, self.s = n, m, n + m + k
        self.L = travel_matrix(net)
        r, s = net.r, self.s
        self._standard_patch = np.array([mod.incidence == "standard"
                                         for mod in models])
        self._std = np.flatnonzero(self._standard_patch)
        self._mixed = 0 < self._std.size < r
        self._callbacks = [(mod, slice(i * s + n, i * s + n + m))
                           for i, mod in enumerate(models)
                           if mod.g_func is not None]
        self.M0 = np.zeros((r * s, r * s))
        self.c = np.zeros(r * s)
        self.Q = np.zeros((r * s, r * m * n))
        for i, mod in enumerate(models):
            base, cols = i * s, slice(i * m * n, (i + 1) * m * n)
            self.M0[base:base + n, base:base + n] = -mod.V
            if mod.g_func is None:
                self.M0[base + n:base + n + m, base + n:base + n + m] = mod.g_lin
                self.c[base + n:base + n + m] = mod.g_const
            self.M0[base + n + m:base + s, base:base + n] = mod.Z
            self.M0[base + n + m:base + s, base + n + m:base + s] = -mod.D
            self.Q[base:base + n, cols] = np.einsum(
                "pqj,pq->jpq", mod.eta, mod.beta).reshape(n, m * n)
            self.Q[base + n:base + n + m, cols] = (
                -np.eye(m)[:, :, None] * mod.beta).reshape(m, m * n)
        self._alpha = self._A = None
        # dP/dX is block diagonal; row P_i[p, q] meets column x_q of patch i
        # (d/dx_q = y_p / N), column y_p (d/dy_p = x_q / N) and, in a
        # standard-incidence patch, every x and y column (d/dN = -P / N)
        rows = np.arange(r * m * n).reshape(r, m, n)
        patch = np.arange(r)[:, None, None] * s
        self._dx = (rows, patch + np.arange(n))
        self._dy = (rows, patch + n + np.arange(m)[:, None])
        self._dN = (rows[self._std, ..., None],
                    self._std[:, None, None, None] * s + np.arange(n + m))

    def _linear(self, alpha: float) -> np.ndarray:
        """M0 + alpha L, formed again only when alpha changes."""
        if alpha != self._alpha:
            self._alpha, self._A = alpha, self.M0 + alpha * self.L
        return self._A

    def admissible(self, X: np.ndarray) -> np.ndarray:
        """Per state of the batch: every standard-incidence patch has N > 0.

        These are the states residual and jacobian are defined on; given
        any other, they raise InadmissibleStateError.
        """
        X = np.asarray(X, dtype=float)
        X3 = X.reshape(X.shape[:-1] + (self.net.r, self.s))
        Ns = X3[..., :self.n + self.m].sum(axis=-1)
        return np.all((Ns > 0.0) | ~self._standard_patch, axis=-1)

    def _products(self, X: np.ndarray):
        """(P, y, x_eff, 1/N) per patch; 1/N is None if no patch is standard."""
        X3 = X.reshape(X.shape[:-1] + (self.net.r, self.s))
        xs = X3[..., :self.n]
        ys = X3[..., self.n:self.n + self.m]
        inv_N = None
        if self._std.size:
            Ns = X3[..., :self.n + self.m].sum(axis=-1)
            if self._mixed:   # a mass-action patch divides by N = 1
                Ns = np.where(self._standard_patch, Ns, 1.0)
            if not Ns.min() > 0.0:
                raise InadmissibleStateError(
                    "standard incidence undefined at N = 0")
            inv_N = 1.0 / Ns
            xs = xs * inv_N[..., None]
        return ys[..., :, None] * xs[..., None, :], ys, xs, inv_N

    def residual(self, alpha: float, X: np.ndarray) -> np.ndarray:
        """T(alpha, X); equals coupled_residual(models, net, alpha, X)."""
        P = self._products(X)[0]
        res = (X @ self._linear(alpha).T + self.c
               + P.reshape(X.shape[:-1] + (-1,)) @ self.Q.T)
        for mod, rows in self._callbacks:
            for i in np.ndindex(X.shape[:-1]):
                res[i][rows] += mod.recruitment(X[i][rows])
        return res

    def jacobian(self, alpha: float, X: np.ndarray) -> np.ndarray:
        """dT/dX at (alpha, X); equals coupled_jacobian(models, net, alpha, X)."""
        P, ys, xeff, inv_N = self._products(X)
        dP = np.zeros(X.shape[:-1] + self.Q.shape[::-1])
        if inv_N is None:
            dP[..., self._dx[0], self._dx[1]] = ys[..., :, :, None]
        else:
            PN = P * inv_N[..., None, None]
            if self._mixed:
                PN = PN[..., self._std, :, :]
            dP[..., self._dN[0], self._dN[1]] = -PN[..., None]
            dP[..., self._dx[0], self._dx[1]] += (
                ys[..., :, :, None] * inv_N[..., None, None])
        dP[..., self._dy[0], self._dy[1]] += xeff[..., None, :]
        J = self._linear(alpha) + self.Q @ dP
        for mod, rows in self._callbacks:
            for i in np.ndindex(X.shape[:-1]):
                J[i][rows, rows] += mod.recruitment_jacobian(X[i][rows])
        return J


def build_rhs(models: Sequence[PatchModel], net: MobilityNetwork,
              alpha: float):
    """Function computing coupled_residual(models, net, alpha, X) fast.

    The coupled system is built once, so repeated evaluation (time
    integration) skips all construction and validation.
    """
    system = CoupledSystem(models, net)
    return lambda X: system.residual(alpha, X)


# ====================================================================
# Corrector
# ====================================================================

def _newton_correct(residual, jacobian, X0, alpha):
    """Damped Newton for residual(X) = 0 from X0. Returns (X, residual_norm).

    The package's one single-start Newton: the branch corrector, the exit
    refinement, the DFE branch (on the susceptible unknowns) and the
    disease-free level of a recruitment callback all solve with it.
    Merit is the squared residual sup norm, with Armijo backtracking; an
    InadmissibleStateError at a trial point halves the step. Failures
    raise CorrectionFailureError naming alpha, the point being solved.
    """
    X = np.array(X0, dtype=float)
    try:
        res = residual(X)
    except InadmissibleStateError as exc:
        raise CorrectionFailureError(
            f"corrector start inadmissible at alpha = {alpha:g}: {exc}"
        ) from exc
    rnorm = float(np.max(np.abs(res)))
    for _ in range(MAX_NEWTON_ITERS):
        if rnorm <= NEWTON_TOL:
            return X, rnorm
        try:
            step = matalg.solve_linear(jacobian(X), -res)
        except matalg.SingularMatrixError as exc:
            raise CorrectionFailureError(
                f"singular Jacobian at alpha = {alpha:g}") from exc
        merit = rnorm * rnorm
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            try:
                trial = X + t * step
                res_t = residual(trial)
                m_t = float(np.max(np.abs(res_t))) ** 2
                if m_t <= (1.0 - 2.0 * ARMIJO_SLOPE * t) * merit:
                    break
            except InadmissibleStateError:
                pass
            t *= 0.5
        else:
            if rnorm <= ACCEPT_TOL:
                return X, rnorm
            raise CorrectionFailureError(
                f"Newton stalled at alpha = {alpha:g}, residual {rnorm:.3e}")
        X = trial
        res = res_t
        rnorm = float(np.max(np.abs(res)))
    if rnorm <= ACCEPT_TOL:
        return X, rnorm
    raise CorrectionFailureError(
        f"Newton exceeded {MAX_NEWTON_ITERS} iterations at alpha = {alpha:g}")


def _accept(system, alpha, X, rnorm) -> CoupledState:
    stability, top = stability_of(system.jacobian(alpha, X))
    return CoupledState(alpha=float(alpha), X=X,
                        residual_norm=rnorm, stability=stability,
                        min_component=float(np.min(X)), max_real_eig=top)


# ====================================================================
# Branch continuation
# ====================================================================

def product_state(pattern: EquilibriumPattern, equilibria) -> np.ndarray:
    """Concatenated disconnected equilibrium: pattern.choices picks one
    of each patch's patch_equilibria."""
    parts = []
    for choice, eqs in zip(pattern.choices, equilibria):
        if not 0 <= choice < len(eqs):
            raise ValueError(f"pattern choice {choice} out of range")
        parts.append(eqs[choice].state.concat())
    return np.concatenate(parts)


def continue_branch(pattern: EquilibriumPattern,
                    models: Sequence[PatchModel],
                    net: MobilityNetwork,
                    alpha_targets: Sequence[float],
                    equilibria,
                    refine_exit: bool = False,
                    stop_at_exit: bool = True) -> BranchRecord:
    """Natural continuation of one product pattern over an alpha grid.

    The predictor is the previous point plus an Euler step using the
    exact branch slope -J^{-1} L(X); the corrector is damped Newton.
    Stops at the first point with a component below -1e-9 (recording
    exit_alpha) or at corrector failure (partial record with diagnostic).
    With stop_at_exit False the grid is finished anyway (the branch is a
    smooth curve regardless of the cone); exit_alpha still marks the
    first violation. Derivative cross-checks need this to reach their
    full difference stencil when a pattern vanishes immediately.
    equilibria holds each patch's patch_equilibria.
    """
    targets = sorted(float(a) for a in alpha_targets)
    if targets and targets[0] < 0.0:
        raise ValueError("alpha targets must be nonnegative")
    targets = [a for a in targets if a > 0.0]

    system = CoupledSystem(models, net)
    X0 = product_state(pattern, equilibria)
    J0 = system.jacobian(0.0, X0)
    if matalg.condition_estimate(J0) > matalg.COND_LIMIT:
        raise HypothesisViolationError(
            "theorem hypothesis violated: coupled Jacobian singular at "
            f"alpha = 0 for pattern {pattern.choices}")

    if pattern.is_dfe:
        return _continue_dfe(pattern, system, X0, targets)

    r0 = float(np.max(np.abs(system.residual(0.0, X0))))
    points = [_accept(system, 0.0, X0, r0)]
    exit_alpha = None
    failure = None
    prev_alpha, prev_X = 0.0, X0
    for alpha in targets:
        try:
            slope = matalg.solve_linear(
                system.jacobian(prev_alpha, prev_X), -(system.L @ prev_X))
            predictor = prev_X + (alpha - prev_alpha) * slope
        except matalg.SingularMatrixError:
            predictor = prev_X
        try:
            X, rnorm = _newton_correct(
                lambda X: system.residual(alpha, X),
                lambda X: system.jacobian(alpha, X), predictor, alpha)
        except CorrectionFailureError as exc:
            failure = str(exc)
            break
        points.append(_accept(system, alpha, X, rnorm))
        if points[-1].min_component < SIGN_EXIT_TOL and exit_alpha is None:
            exit_alpha = alpha
            if refine_exit:
                exit_alpha = _refine_exit(system, prev_alpha, prev_X, alpha)
            if stop_at_exit:
                break
        prev_alpha, prev_X = alpha, X
    verdict = ("vanishes" if exit_alpha is not None
               else None if failure is not None else "persists")
    return BranchRecord(pattern=pattern, points=points, exit_alpha=exit_alpha,
                        verdict_observed=verdict, failure=failure)


def _refine_exit(system, lo, X_lo, hi) -> float:
    """Bisect the first sign violation to about two significant digits."""
    for _ in range(40):
        if hi / max(lo, 1e-300) <= 1.05:
            break
        mid = np.sqrt(max(lo, hi * 1e-4) * hi) if lo == 0.0 else np.sqrt(lo * hi)
        try:
            X, _ = _newton_correct(lambda X: system.residual(mid, X),
                                   lambda X: system.jacobian(mid, X), X_lo, mid)
        except CorrectionFailureError:
            return hi
        if float(np.min(X)) < SIGN_EXIT_TOL:
            hi = mid
        else:
            lo, X_lo = mid, X
    return hi


def _continue_dfe(pattern, system, X0, targets) -> BranchRecord:
    """DFE branch via the susceptible unknowns of the coupled system.

    With the infected and removed classes pinned at zero their equations
    hold exactly, so Newton solves only the susceptible rows and columns
    of the coupled residual and Jacobian (an affine system for affine
    recruitment) at the state that embeds the susceptibles with exact
    zeros elsewhere. This keeps the continued DFE free of spurious
    infected-block drift.
    """
    n, m, s = system.n, system.m, system.s
    sus = (np.arange(system.net.r)[:, None] * s + n + np.arange(m)).ravel()

    def embed(Y):
        X = np.zeros(X0.size)
        X[sus] = Y
        return X

    Y = X0[sus]
    points = []
    failure = None
    for alpha in [0.0] + targets:
        try:
            Y, _ = _newton_correct(
                lambda Y: system.residual(alpha, embed(Y))[sus],
                lambda Y: system.jacobian(alpha, embed(Y))[np.ix_(sus, sus)],
                Y, alpha)
        except CorrectionFailureError as exc:
            failure = str(exc)
            break
        X = embed(Y)
        rnorm = float(np.max(np.abs(system.residual(alpha, X))))
        points.append(_accept(system, alpha, X, rnorm))
    return BranchRecord(pattern=pattern, points=points, exit_alpha=None,
                        verdict_observed=None if failure else "persists",
                        failure=failure)


# ====================================================================
# Cross-checks and census
# ====================================================================

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
                 alpha: float, equilibria):
    """(stable, unstable) tally over branches surviving at the given alpha.

    equilibria holds each patch's patch_equilibria.
    """
    counts = [len(eq) - 1 for eq in equilibria]
    ladder = [alpha / 100.0, alpha / 10.0, alpha]
    stable = unstable = 0
    for pattern in enumerate_patterns(counts):
        record = continue_branch(pattern, models, net, ladder, equilibria)
        if record.failure is not None:
            raise CorrectionFailureError(
                f"pattern {pattern.choices}: {record.failure}")
        if record.verdict_observed != "persists":
            continue
        last = record.points[-1]
        if last.stability == "stable":
            stable += 1
        elif last.stability == "unstable":
            unstable += 1
    return stable, unstable
