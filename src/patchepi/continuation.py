"""Continuation of product equilibria in the mobility parameter.

The coupled residual stacks the patch equations and is affine in alpha:

    T(alpha, X) = T_patch(X) + alpha * L(X),

where L moves each compartment class between regions at the connectivity
rates. Every disconnected product equilibrium is a root at alpha = 0;
each is followed along an increasing alpha grid by an Euler predictor
and a damped Newton corrector, recording component signs and linear
stability along the way. The disease-free branch needs neither: with no
infection T is affine in the susceptibles, so its point at each alpha is
one linear solve (CoupledSystem.disease_free). A branch is abandoned
(never projected back) once a component drops below the sign-noise
band: outside the cone the state has no epidemiological meaning.

Continuation and the integrator of sim take a CoupledSystem, compiled
once per set of patches and network by the caller. continue_branches
moves all patterns of a system along the grid as the rows of one stack:
one stacked predictor, one Newton corrector over the rows still on the
grid (the disease-free row takes its solve instead) and one stacked
stability test per grid point. A row leaves the stack when it exits the
cone, fails or finishes, and takes no decision from another row. Rows reach the kernel as X[:, None, :], so each
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
from .equilibria import EquilibriumPattern, stability_of
from .model import InadmissibleStateError, PatchModel
from .network import MobilityNetwork

NEWTON_TOL = 1e-10        # corrector target, residual sup norm
ACCEPT_TOL = 1e-9         # accepted-point invariant
SIGN_EXIT_TOL = -1e-9     # below this a component counts as negative
MAX_NEWTON_ITERS = 60
MAX_HALVINGS = 20         # Armijo: step down to 2^-20
ARMIJO_SLOPE = 1e-4
# the Armijo step lengths: the full step, then its halvings, exact powers
# of two
_FULL_STEP = np.ones(1)
_HALVINGS = np.ldexp(1.0, -np.arange(1, MAX_HALVINGS + 1))

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
    are the susceptibles, the unknowns of disease_free.
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

    def disease_free(self, alpha: float) -> np.ndarray:
        """The disease-free state at alpha, the DFE branch's point there.

        Its infected and removed entries are +0.0, so every incidence
        product vanishes and T is affine in the susceptibles, the first
        r m entries of solve_order: they solve the susceptible rows and
        columns of M0 + alpha L against -c (matalg.solve_linear, which
        raises SingularMatrixError on a singular system).
        """
        sus = self.solve_order[:self.net.r * self.m]
        X = np.zeros(self.c.size)
        X[sus] = matalg.solve_linear(self._linear(alpha)[np.ix_(sus, sus)],
                                     -self.c[sus])
        return X

    def admissible(self, X: np.ndarray) -> np.ndarray:
        """Per state of the batch: every standard-incidence patch has N > 0.

        These are the states residual and jacobian are defined on; given
        any other, they raise InadmissibleStateError.
        """
        X = np.asarray(X, dtype=float)
        return np.all(X.take(self._N_of, axis=-1).sum(axis=-1) > 0.0, axis=-1)

    def _products(self, X: np.ndarray):
        """(P, y, x / N, 1/N), each per product; 1/N is None if no patch
        divides by N."""
        ys, xs = X.take(self._yi, axis=-1), X.take(self._xi, axis=-1)
        if not self._std.size:
            return ys * xs, ys, xs, None
        Ns = X.take(self._N_of, axis=-1).sum(axis=-1)
        if not Ns.min() > 0.0:
            raise InadmissibleStateError(INADMISSIBLE)
        inv_N = 1.0 / Ns
        if self._mixed:       # a mass-action patch divides by N = 1
            every = np.ones(X.shape[:-1] + (self.net.r,))
            every[..., self._std] = inv_N
            inv_N = every
        inv_N = inv_N.take(self._region, axis=-1)
        xs = xs * inv_N
        return ys * xs, ys, xs, inv_N

    def _fill_dP(self, buf, products):
        """Write the nonzero entries of dP/dX into buf.

        The sums are those of writing -P/N over each standard patch's x
        and y columns of a zero buffer and adding y/N at x_q and x/N at
        y_p: a mass-action patch of a mixed system gets 0.0 + y and
        0.0 + x there (N = 1), and with no N at all x_q gets y and y_p
        0.0 + x.
        """
        P, ys, xeff, inv_N = products
        at_N, at_x, at_y = self._dP_at
        if inv_N is None:
            buf[..., at_x] = ys
            buf[..., at_y] = 0.0 + xeff
            return
        PN = -(P * inv_N)
        if self._mixed:
            PN = np.where(self._std_product, PN, 0.0)
        buf[..., at_N] = PN.take(self._N_rows, axis=-1)[..., None]
        buf[..., at_x] = PN + ys * inv_N
        buf[..., at_y] = PN + xeff

    def residual(self, alpha: float, X: np.ndarray) -> np.ndarray:
        """T(alpha, X), the right-hand side of the coupled ODE:
        (M0 + alpha L) X + c + Q P with P the products."""
        return (X @ self._linear(alpha).T + self.c
                + self._products(X)[0] @ self.Q.T)

    def jacobian(self, alpha: float, X: np.ndarray) -> np.ndarray:
        """dT/dX at (alpha, X)."""
        batch = X.shape[:-1]
        products = self._products(X)
        dP = np.zeros(batch + self.Q.shape[::-1])
        self._fill_dP(dP.reshape(batch + (-1,)), products)
        return self._linear(alpha) + self.Q @ dP

    def single_state(self, alpha: float):
        """(rhs, point): evaluators of one state X[r s] at a fixed alpha.

        rhs(X) is residual(alpha, X), and point(X) gives (rhs(X), J) with
        J = jacobian(alpha, X)[np.ix_(order, order)], order = solve_order:
        point writes dP/dX with its columns already in that order, into
        one buffer it reuses, and J = A_o + Q[order] dP_o, where A_o is
        M0 + alpha L in that order. M0 + alpha L and its ordered copy are
        formed once here, and so is the choice between mass action alone
        (no N) and a system with a standard patch. numpy's cost per call
        dominates on one small state, so the closures do the work of
        _products, _fill_dP and residual inline, in the same operations
        and order, and multiply through ndarray.dot, which skips np.dot's
        dispatch: every value has the bits of residual and jacobian.
        """
        order = self.solve_order
        A, c, Q = self._linear(alpha), self.c, self.Q
        A_o, Q_o = A[np.ix_(order, order)], Q[order]
        at = np.empty_like(order)
        at[order] = np.arange(order.size)
        at_N, at_x, at_y = self._dP_positions(at)
        dP = np.zeros(Q_o.shape[::-1])
        buf = dP.reshape(-1)
        yi, xi = self._yi, self._xi

        if not self._std.size:
            def rhs(X):
                return A.dot(X) + c + Q.dot(X[yi] * X[xi])

            def point(X):
                ys, xs = X[yi], X[xi]
                buf[at_x] = ys
                buf[at_y] = 0.0 + xs
                return A.dot(X) + c + Q.dot(ys * xs), A_o + Q_o.dot(dP)

            return rhs, point

        N_of, std, region, N_rows = (self._N_of, self._std, self._region,
                                     self._N_rows)
        mixed, mass = self._mixed, np.flatnonzero(~self._std_product)
        every = np.ones(self.net.r)     # a mass-action patch divides by N = 1
        add, minimum = np.add.reduce, np.minimum.reduce

        def scaled(X):
            """(y, x / N, 1/N) per product."""
            Ns = add(X[N_of], axis=-1)
            if not minimum(Ns) > 0.0:
                raise InadmissibleStateError(INADMISSIBLE)
            inv_N = 1.0 / Ns
            if mixed:
                every[std] = inv_N
                inv_N = every
            inv_N = inv_N[region]
            return X[yi], X[xi] * inv_N, inv_N

        def rhs(X):
            ys, xs, _ = scaled(X)
            return A.dot(X) + c + Q.dot(ys * xs)

        def point(X):
            ys, xs, inv_N = scaled(X)
            P = ys * xs
            PN = -(P * inv_N)
            if mixed:
                PN[mass] = 0.0
            buf[at_N] = PN[N_rows][:, None]
            buf[at_x] = PN + ys * inv_N
            buf[at_y] = PN + xs
            return A.dot(X) + c + Q.dot(P), A_o + Q_o.dot(dP)

        return rhs, point


# ====================================================================
# Corrector
# ====================================================================

def _newton_correct(system, alpha, X0):
    """Damped Newton for system.residual(alpha, X) = 0 from every row of X0.

    Returns (X, rnorm, failures): per row the corrected state, its
    residual sup norm, and None or the message of its failure. The
    residual sees only rows that system.admissible accepts, each as
    X[:, None, :], so it is its own matrix-vector product with the bits of
    a single-state evaluation. It corrects every branch but the DFE's.

    Every row follows the single-start rules on its own, and the rows
    share only the array operations: merit is the squared residual sup
    norm, with Armijo backtracking over t = 1, 1/2, ..., 2^-MAX_HALVINGS;
    an inadmissible trial point fails its t; a row with no acceptable t
    stalls unless its residual is already within ACCEPT_TOL. A row fails
    on an inadmissible start, a singular Jacobian, a stall or
    MAX_NEWTON_ITERS iterations; the message names alpha, the point being
    solved.

    The backtracking takes two stacked residual calls per iteration: the
    full step of every row, then all twenty halvings at once for the rows
    whose full step failed, each taking its first acceptable t. Whether a
    t is acceptable depends on that t alone, so the t taken is the one a
    halving-at-a-time search stops at, and every trial point, residual and
    Armijo test has the same expression and bits as in that search.
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
        for t in (_FULL_STEP, _HALVINGS):
            ok, trial, res_t, norm_t = _armijo_trials(
                system, residual, X[idx], step, merit, t)
            took = ok.any(axis=1)
            first = ok.argmax(axis=1)[took]       # the largest acceptable t
            rows = idx[took]
            X[rows] = trial[took, first]
            res[rows], rnorm[rows] = res_t[took, first], norm_t[took, first]
            idx, step, merit = idx[~took], step[~took], merit[~took]
            if not idx.size:
                break
        for i in idx:
            if not rnorm[i] <= ACCEPT_TOL:
                failures[i] = (f"Newton stalled at alpha = {alpha:g}, "
                               f"residual {rnorm[i]:.3e}")
        active[idx] = False
    for i in np.flatnonzero(active & ~(rnorm <= ACCEPT_TOL)):
        failures[i] = (f"Newton exceeded {MAX_NEWTON_ITERS} iterations at "
                       f"alpha = {alpha:g}")
    return X, rnorm, failures


def _armijo_trials(system, residual, X, step, merit, t):
    """(ok, trial, res, norm) of the trial points X + t * step, each
    indexed [row, j] for the row of X and t[j]: ok marks the admissible
    points that pass the Armijo test against the row's merit."""
    trial = X[:, None] + t[:, None] * step[:, None]
    ok = system.admissible(trial)
    res = np.zeros_like(trial)
    norm = np.full(ok.shape, np.inf)
    if ok.any():
        r = residual(trial[ok])
        res[ok], norm[ok] = r, np.max(np.abs(r), axis=1)
    # float ** 2 is libm pow, which differs from x * x in the last bit of
    # about one value in a thousand; the Armijo test keeps it
    m_t = np.array([v ** 2 for v in norm.ravel().tolist()])
    ok &= (m_t.reshape(ok.shape)
           <= (1.0 - 2.0 * ARMIJO_SLOPE * t) * merit[:, None])
    return ok, trial, res, norm


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

    The disease-free pattern's point at each positive alpha is
    system.disease_free(alpha), one linear solve. Every other branch takes
    an Euler predictor step along the exact branch slope -J^{-1} L(X),
    with J the Jacobian of the previous point (the previous point itself
    if the solve refuses), and the damped Newton corrector. A branch stops
    at the first grid point with a component below SIGN_EXIT_TOL, and
    exit_alpha records that grid alpha: the exit is located to the grid's
    resolution. A branch also stops when its corrector or its disease-free
    solve fails (partial record with diagnostic). With stop_at_exit False
    the grid is finished anyway (the branch is a smooth curve regardless
    of the cone); exit_alpha still marks the first violation. Derivative
    cross-checks need this to reach their full difference stencil when a
    pattern vanishes immediately. equilibria holds each patch's
    PatchFacts.equilibria.

    All patterns move along the grid together: one stacked predictor, one
    corrector over the rows still on the grid and one stacked stability
    test per grid point. Every stacked operation gives each row the bits
    it would get alone, so a record does not depend on the other patterns
    of the call.
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
        else:
            rows.append(b)
    if rows:
        # a huge alpha overflows M0 + alpha L and the states: the rows then
        # fail with a message, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            records = _continue_rows([patterns[b] for b in rows], system,
                                     X0[rows], J0[rows], targets, stop_at_exit)
        for b, record in zip(rows, records):
            out[b] = record
    return out


def _continue_rows(patterns, system, X0, J0, targets, stop_at_exit) -> list:
    """continue_branches for patterns from X0, J0 = J(0, X0)."""
    r0 = np.max(np.abs(system.residual(0.0, X0[:, None])[:, 0]), axis=1)
    points = [[point] for point in _accepted(0.0, X0, r0, J0)]
    exit_alpha = [None] * len(patterns)
    failure = [None] * len(patterns)
    dfe = np.array([pattern.is_dfe for pattern in patterns])
    live = np.arange(len(patterns))       # the rows still on the grid
    prev_alpha, prev_X, prev_J = 0.0, X0, J0
    for alpha in targets:
        if not live.size:
            break
        X, rnorm, failures = _next_points(system, alpha, alpha - prev_alpha,
                                          prev_X, prev_J, dfe[live])
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


def _next_points(system, alpha, step, X, J, dfe):
    """(X, rnorm, failures) at alpha from the points X at alpha - step.

    J holds their Jacobians and dfe marks the disease-free row, which
    becomes _disease_free(system, alpha). Every other row is corrected by
    _newton_correct from the Euler predictor X + step * slope, slope =
    -J^{-1} L X (X itself where the solve refuses). A failed row keeps
    its X, and its rnorm is unset.
    """
    X_new, rnorm, failures = X.copy(), np.empty(len(X)), [None] * len(X)
    moved = np.flatnonzero(~dfe)
    slope = matalg.solve_linear(J[moved],
                                -(system.L @ X[moved, :, None])[:, :, 0])
    predictor = X[moved] + step * slope
    refused = np.isnan(slope).any(axis=1)
    predictor[refused] = X[moved[refused]]
    X_new[moved], rnorm[moved], corrected = _newton_correct(system, alpha,
                                                            predictor)
    for j, f in zip(moved, corrected):
        failures[j] = f
    for j in np.flatnonzero(dfe):
        x, failures[j] = _disease_free(system, alpha)
        if x is not None:
            X_new[j] = x
            rnorm[j] = np.max(np.abs(system.residual(alpha, x[None, None])))
    return X_new, rnorm, failures


def _disease_free(system, alpha):
    """(X, None) with X = system.disease_free(alpha), or (None, failure)
    when that system is singular or X is not finite or not admissible."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            X = system.disease_free(alpha)
    except matalg.SingularMatrixError:
        return None, f"singular disease-free system at alpha = {alpha:g}"
    if not np.isfinite(X).all():
        return None, f"disease-free state not finite at alpha = {alpha:g}"
    if not system.admissible(X):
        return None, (f"disease-free state inadmissible at alpha = "
                      f"{alpha:g}: {INADMISSIBLE}")
    return X, None
