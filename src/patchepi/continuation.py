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

Continuation and the integrator of sim take a CoupledSystem, compiled
once per set of patches and network by the caller. continue_branches
moves all patterns of a system along the grid as the rows of one stack:
one stacked predictor, one Newton corrector over the rows still on the
grid and one stacked stability test per grid point. A row leaves the
stack when it exits the cone, fails or finishes, and takes no decision
from another row. Rows reach the kernel as X[:, None, :], so each
residual is its own matrix-vector product with the bits of a
single-state call; a plain (B, r s) stack would go through one
matrix-matrix product and differ in the last bits. The stacked
Jacobians, inverses, spectra and norms already give each row the bits it
gets alone, so a branch's record does not depend on its batch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import matalg
from .equilibria import EquilibriumPattern, enumerate_patterns, stability_of
from .model import InadmissibleStateError, PatchModel
from .network import MobilityNetwork

NEWTON_TOL = 1e-10        # corrector target, residual sup norm
ACCEPT_TOL = 1e-9         # accepted-point invariant
SIGN_EXIT_TOL = -1e-9     # below this a component counts as negative
MAX_NEWTON_ITERS = 60
MAX_HALVINGS = 20         # Armijo: step down to 2^-20
ARMIJO_SLOPE = 1e-4

# what a state outside CoupledSystem.admissible is refused with
INADMISSIBLE = "standard incidence undefined at N = 0"


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


# ====================================================================
# Coupled residual and Jacobian
# ====================================================================

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

        T(alpha, X) = (M0 + alpha L) X + c + Q P(X),
        dT/dX       =  M0 + alpha L        + Q dP/dX,

    where M0 holds each patch's linear terms (-V, g_lin, Z, -D), L is the
    travel matrix, c the constant recruitment, and Q maps the products to
    new infections, Q[x_j, P_pq] = eta[p, q, j] beta[p, q], and to
    susceptible losses, Q[y_p, P_pq] = -beta[p, q]. All four are built
    once, and M0 + alpha L once per alpha. So are flat index arrays over
    the products, in (region, p, q) order: the state index of each y_p
    and x_q factor, the region of each product, and the flat positions of
    the nonzero entries of dP/dX (at x_q, at y_p and, in a
    standard-incidence patch, at every x and y of the patch). An
    evaluation is then a few gathers and array operations over every
    patch at once:

        P = y[yi] * (x[xi] * (1/N)[region]),

    with 1/N = 1 for a mass-action patch and no N at all when every patch
    is mass-action.

    X may carry leading batch axes, X[..., r * s]: residual and jacobian
    then evaluate every state of the batch at once, as the multi-start
    equilibrium search and the stability classification of one patch's
    equilibria do (one region, alpha = 0). single_state gives the
    integrator a pair of evaluators for one state at a fixed alpha.

    solve_order puts every region's susceptibles first, then the infected
    and removed classes. Where no region holds infection, the Jacobian
    has no entry from a susceptible column into an infected or removed
    row. Eliminating the susceptible columns first then never pivots on
    those rows, so the inverse of I/(h gamma) - J has exact zeros in its
    infected/removed x susceptible block, the integrator's stages get
    exact zeros there, and the disease-free subspace stays invariant to
    the last bit, as the right-hand side keeps it. Its first r m entries
    are the susceptible unknowns of the DFE branch.
    """

    def __init__(self, models: Sequence[PatchModel], net: MobilityNetwork):
        n, m, k = _check_families(models, net)
        self.net = net
        self.m, self.s = m, n + m + k
        self.L = travel_matrix(net)
        r, s = net.r, self.s
        self.M0 = np.zeros((r * s, r * s))
        self.c = np.zeros(r * s)
        self.Q = np.zeros((r * s, r * m * n))
        for i, mod in enumerate(models):
            base, cols = i * s, slice(i * m * n, (i + 1) * m * n)
            self.M0[base:base + n, base:base + n] = -mod.V
            self.M0[base + n:base + n + m, base + n:base + n + m] = mod.g_lin
            self.c[base + n:base + n + m] = mod.g_const
            self.M0[base + n + m:base + s, base:base + n] = mod.Z
            self.M0[base + n + m:base + s, base + n + m:base + s] = -mod.D
            self.Q[base:base + n, cols] = np.einsum(
                "pqj,pq->jpq", mod.eta, mod.beta).reshape(n, m * n)
            self.Q[base + n:base + n + m, cols] = (
                -np.eye(m)[:, :, None] * mod.beta).reshape(m, m * n)
        self._alpha = self._A = None
        # product j = (region, p, q) in row-major order, Q's column order
        region, p, q = np.indices((r, m, n)).reshape(3, -1)
        self._region = region
        self._yi, self._xi = region * s + n + p, region * s + q
        standard = np.array([mod.incidence == "standard" for mod in models])
        self._std = np.flatnonzero(standard)
        self._N_of = self._std[:, None] * s + np.arange(n + m)
        self._mixed = 0 < self._std.size < r
        self._std_product = standard[region]
        # d/dN reaches every x and y column of a standard patch's products
        self._N_rows = np.flatnonzero(self._std_product)
        self._N_cols = region[self._N_rows, None] * s + np.arange(n + m)
        self._dP_at = self._dP_positions(np.arange(r * s))
        state = np.arange(r * s).reshape(r, s)
        self.solve_order = np.concatenate(
            (state[:, n:n + m], state[:, :n], state[:, n + m:]), axis=None)

    def _dP_positions(self, at):
        """Flat positions in dP/dX of its d/dN, d/dx and d/dy entries.

        dP/dX has a row per product and a column per state entry, the
        column of state index i at at[i]: the identity for residual and
        jacobian, the position in solve_order for single_state.
        """
        row = np.arange(self._region.size) * at.size
        return (row[self._N_rows, None] + at[self._N_cols],
                row + at[self._xi], row + at[self._yi])

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
        return np.all(_take(X, self._N_of).sum(axis=-1) > 0.0, axis=-1)

    def _products(self, X: np.ndarray):
        """(P, y, x / N, 1/N), each per product; 1/N is None if no patch
        divides by N."""
        ys, xs = _take(X, self._yi), _take(X, self._xi)
        if not self._std.size:
            return ys * xs, ys, xs, None
        Ns = _take(X, self._N_of).sum(axis=-1)
        if not Ns.min() > 0.0:
            raise InadmissibleStateError(INADMISSIBLE)
        inv_N = 1.0 / Ns
        if self._mixed:       # a mass-action patch divides by N = 1
            every = np.ones(X.shape[:-1] + (self.net.r,))
            every[..., self._std] = inv_N
            inv_N = every
        inv_N = _take(inv_N, self._region)
        xs = xs * inv_N
        return ys * xs, ys, xs, inv_N

    def _fill_dP(self, buf, products, at):
        """Write the nonzero entries of dP/dX into buf at positions at.

        The sums are those of writing -P/N over each standard patch's x
        and y columns of a zero buffer and adding y/N at x_q and x/N at
        y_p: a mass-action patch of a mixed system gets 0.0 + y and
        0.0 + x there (N = 1), and with no N at all x_q gets y and y_p
        0.0 + x. Every position at names is written, so buf may be reused.
        """
        P, ys, xeff, inv_N = products
        at_N, at_x, at_y = at
        if inv_N is None:
            buf[..., at_x] = ys
            buf[..., at_y] = 0.0 + xeff
            return
        PN = -(P * inv_N)
        if self._mixed:
            PN = np.where(self._std_product, PN, 0.0)
        buf[..., at_N] = _take(PN, self._N_rows)[..., None]
        buf[..., at_x] = PN + ys * inv_N
        buf[..., at_y] = PN + xeff

    def residual(self, alpha: float, X: np.ndarray) -> np.ndarray:
        """T(alpha, X), the right-hand side of the coupled ODE."""
        return self._residual(self._linear(alpha), X, self._products(X)[0])

    def _residual(self, A, X, P):
        """A X + c + Q P, with A = M0 + alpha L and P the products."""
        return X @ A.T + self.c + P @ self.Q.T

    def jacobian(self, alpha: float, X: np.ndarray) -> np.ndarray:
        """dT/dX at (alpha, X)."""
        batch = X.shape[:-1]
        products = self._products(X)
        dP = np.zeros(batch + self.Q.shape[::-1])
        self._fill_dP(dP.reshape(batch + (-1,)), products, self._dP_at)
        return self._linear(alpha) + self.Q @ dP

    def single_state(self, alpha: float):
        """(rhs, point): evaluators of one state X[r s] at a fixed alpha.

        rhs(X) is residual(alpha, X), and point(X) gives (rhs(X), J) with
        J = jacobian(alpha, X)[np.ix_(order, order)], order = solve_order:
        point writes dP/dX with its columns already in that order, into
        one buffer it reuses, and J = A_o + Q[order] @ dP_o, where A_o is
        M0 + alpha L in that order. M0 + alpha L and its ordered copy are
        formed once here. Both evaluate the right-hand side through the
        same _residual as residual, so every value has the bits of
        residual and jacobian.
        """
        order = self.solve_order
        A = self._linear(alpha)
        A_o, Q_o = A[np.ix_(order, order)], self.Q[order]
        at = np.empty_like(order)
        at[order] = np.arange(order.size)
        dP_at = self._dP_positions(at)
        dP = np.zeros(Q_o.shape[::-1])

        def rhs(X):
            return self._residual(A, X, self._products(X)[0])

        def point(X):
            products = self._products(X)
            self._fill_dP(dP.reshape(-1), products, dP_at)
            return self._residual(A, X, products[0]), A_o + Q_o @ dP

        return rhs, point


def _take(X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """X[..., idx]; the plain gather X[idx] of one state costs a fifth."""
    return X[idx] if X.ndim == 1 else X.take(idx, axis=-1)


# ====================================================================
# Corrector
# ====================================================================

def _newton_correct(residual, jacobian, X0, alpha, admissible):
    """Damped Newton for residual(X) = 0 from every row of X0.

    Returns (X, rnorm, failures): per row the corrected state, its
    residual sup norm, and None or the message of its failure. residual
    and jacobian take a stack of rows and return one residual or Jacobian
    per row; residual sees only rows that admissible accepts. The
    package's one damped Newton for a few unknowns: the branch corrector
    and the DFE branch (on the susceptible unknowns) both solve with it.

    Every row follows the single-start rules on its own, and the rows
    share only the array operations: merit is the squared residual sup
    norm, with Armijo backtracking; an inadmissible trial point halves the
    step; twenty halvings without sufficient decrease stall the row
    unless its residual is already within ACCEPT_TOL. A row fails on an
    inadmissible start, a singular Jacobian, a stall or MAX_NEWTON_ITERS
    iterations; the message names alpha, the point being solved.
    """
    X = np.array(X0, dtype=float)
    failures = [None] * len(X)
    res = np.zeros_like(X)
    rnorm = np.full(len(X), np.inf)
    active = admissible(X)
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
        step = matalg.solve_linear(jacobian(X[idx]), -res[idx])
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
            ok = admissible(trial)
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


def _correct(system, alpha, X):
    """_newton_correct on the coupled system at alpha, from every row of X.

    Rows reach the kernel as X[:, None, :], so each residual is its own
    matrix-vector product with the bits of a single-state evaluation.
    """
    return _newton_correct(lambda X: system.residual(alpha, X[:, None])[:, 0],
                           lambda X: system.jacobian(alpha, X), X, alpha,
                           system.admissible)


def _accepted(alpha, X, rnorm, J) -> list:
    """The accepted CoupledState of every row of X; J holds their Jacobians."""
    labels, tops = stability_of(J)
    return [CoupledState(alpha=float(alpha), X=x, residual_norm=float(r),
                         stability=label, min_component=float(x.min()),
                         max_real_eig=float(top))
            for x, r, label, top in zip(X, rnorm, labels, tops)]


# ====================================================================
# Branch continuation
# ====================================================================

def product_state(pattern: EquilibriumPattern, equilibria) -> np.ndarray:
    """Concatenated disconnected equilibrium: pattern.choices picks one
    of each patch's equilibria (its PatchFacts.equilibria)."""
    parts = []
    for choice, eqs in zip(pattern.choices, equilibria):
        if not 0 <= choice < len(eqs):
            raise ValueError(f"pattern choice {choice} out of range")
        parts.append(eqs[choice].state.concat())
    return np.concatenate(parts)


def continue_branches(patterns: Sequence[EquilibriumPattern],
                      system: CoupledSystem, alpha_targets: Sequence[float],
                      equilibria, stop_at_exit: bool = True) -> list:
    """Natural continuation of every given pattern of system over one grid.

    Returns one BranchRecord per pattern, in order. A pattern whose
    coupled Jacobian at alpha = 0 is singular (1-norm condition above
    COND_LIMIT) violates the theorem's hypotheses: its record has no
    points and says so in its failure. The grid is sorted and its zeros
    dropped; a negative alpha is refused.

    The predictor is the previous point plus an Euler step using the
    exact branch slope -J^{-1} L(X), with J the Jacobian of that point
    (the previous point itself if the solve refuses); the corrector is
    damped Newton. A branch stops at the first grid point with a component
    below SIGN_EXIT_TOL, and exit_alpha records that grid alpha: the exit
    is located to the grid's resolution. A branch also stops at corrector
    failure (partial record with diagnostic). With stop_at_exit False the
    grid is finished anyway (the branch is a smooth curve regardless of
    the cone); exit_alpha still marks the first violation. Derivative
    cross-checks need this to reach their full difference stencil when a
    pattern vanishes immediately. equilibria holds each patch's
    PatchFacts.equilibria.

    All patterns but the DFE move along the grid together: one stacked
    predictor, one corrector over the rows still on the grid and one
    stacked stability test per grid point. Every stacked operation gives
    each row the bits it would get alone, so a record does not depend on
    the other patterns of the call. The DFE pattern is continued on its
    susceptible unknowns (_continue_dfe).
    """
    targets = sorted(float(a) for a in alpha_targets)
    if targets and targets[0] < 0.0:
        raise ValueError("alpha targets must be nonnegative")
    targets = [a for a in targets if a > 0.0]

    patterns = list(patterns)
    if not patterns:
        return []
    X0 = np.array([product_state(pattern, equilibria) for pattern in patterns])
    J0 = system.jacobian(0.0, X0)
    cond = matalg.condition_estimate(J0)
    out = [None] * len(patterns)
    rows = []
    for b, pattern in enumerate(patterns):
        if cond[b] > matalg.COND_LIMIT:
            out[b] = BranchRecord(
                pattern, points=[], exit_alpha=None, verdict_observed=None,
                failure="theorem hypothesis violated: coupled Jacobian "
                f"singular at alpha = 0 for pattern {pattern.choices}")
        elif pattern.is_dfe:
            out[b] = _continue_dfe(pattern, system, X0[b], targets)
        else:
            rows.append(b)
    if rows:
        records = _continue_rows([patterns[b] for b in rows], system, X0[rows],
                                 J0[rows], targets, stop_at_exit)
        for b, record in zip(rows, records):
            out[b] = record
    return out


def _continue_rows(patterns, system, X0, J0, targets, stop_at_exit) -> list:
    """continue_branches for non-DFE patterns from X0, J0 = J(0, X0)."""
    r0 = np.max(np.abs(system.residual(0.0, X0[:, None])[:, 0]), axis=1)
    points = [[point] for point in _accepted(0.0, X0, r0, J0)]
    exit_alpha = [None] * len(patterns)
    failure = [None] * len(patterns)
    live = np.arange(len(patterns))       # the rows still on the grid
    prev_alpha, prev_X, prev_J = 0.0, X0, J0
    for alpha in targets:
        if not live.size:
            break
        slope = matalg.solve_linear(
            prev_J, -(system.L @ prev_X[:, :, None])[:, :, 0])
        predictor = prev_X + (alpha - prev_alpha) * slope
        refused = np.isnan(slope).any(axis=1)
        predictor[refused] = prev_X[refused]
        X, rnorm, failures = _correct(system, alpha, predictor)
        for b, f in zip(live, failures):
            failure[b] = f
        ok = np.array([f is None for f in failures])
        live, X, rnorm = live[ok], X[ok], rnorm[ok]
        if not live.size:
            break
        J = system.jacobian(alpha, X)
        keep = np.ones(live.size, dtype=bool)
        for j, (b, point) in enumerate(zip(live, _accepted(alpha, X, rnorm,
                                                           J))):
            points[b].append(point)
            if point.min_component < SIGN_EXIT_TOL and exit_alpha[b] is None:
                exit_alpha[b] = alpha
                keep[j] = not stop_at_exit
        live, prev_alpha, prev_X, prev_J = live[keep], alpha, X[keep], J[keep]
    return [BranchRecord(pattern=pattern, points=pts, exit_alpha=ex,
                         verdict_observed=("vanishes" if ex is not None
                                           else None if fail is not None
                                           else "persists"),
                         failure=fail)
            for pattern, pts, ex, fail in zip(patterns, points, exit_alpha,
                                              failure)]


def continue_branch(pattern: EquilibriumPattern, system: CoupledSystem,
                    alpha_targets: Sequence[float], equilibria,
                    stop_at_exit: bool = True) -> BranchRecord:
    """continue_branches for one pattern."""
    return continue_branches([pattern], system, alpha_targets, equilibria,
                             stop_at_exit)[0]


def continue_every_pattern(system: CoupledSystem, alpha: float,
                           equilibria) -> list:
    """(pattern, record) for every product pattern, continued to alpha.

    Each branch climbs the ladder [alpha / 100, alpha / 10, alpha]; at
    alpha = 0 its record holds just the alpha-0 point. A record is what
    continue_branches returns for the pattern. equilibria holds each
    patch's PatchFacts.equilibria.
    """
    patterns = enumerate_patterns([len(eq) - 1 for eq in equilibria])
    return list(zip(patterns, continue_branches(
        patterns, system, [alpha / 100.0, alpha / 10.0, alpha], equilibria)))


def _continue_dfe(pattern, system, X0, targets) -> BranchRecord:
    """DFE branch via the susceptible unknowns of the coupled system.

    With the infected and removed classes pinned at zero their equations
    hold exactly, so Newton solves only the susceptible rows and columns
    of the coupled residual and Jacobian (an affine system) at the state
    that embeds the susceptibles with exact zeros elsewhere. This keeps
    the continued DFE free of spurious infected-block drift. The
    susceptible unknowns are the first r m entries of system.solve_order.
    """
    sus = system.solve_order[:system.net.r * system.m]

    def embed(Y):
        X = np.zeros(Y.shape[:-1] + (X0.size,))
        X[..., sus] = Y
        return X

    Y = X0[sus]
    points = []
    failure = None
    for alpha in [0.0] + targets:
        Ys, _, failures = _newton_correct(
            lambda Y: system.residual(alpha, embed(Y)[:, None])[:, 0, sus],
            lambda Y: system.jacobian(alpha, embed(Y))[:, sus[:, None], sus],
            Y[None], alpha, lambda Y: system.admissible(embed(Y)))
        if failures[0] is not None:
            failure = failures[0]
            break
        Y = Ys[0]
        X = embed(Y)[None]
        rnorm = np.max(np.abs(system.residual(alpha, X[:, None])[:, 0]),
                       axis=1)
        points.extend(_accepted(alpha, X, rnorm, system.jacobian(alpha, X)))
    return BranchRecord(pattern=pattern, points=points, exit_alpha=None,
                        verdict_observed=None if failure else "persists",
                        failure=failure)
