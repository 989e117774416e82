"""Reference equations and cross-checks the package is tested against.

patchepi evaluates the model equations through one path,
continuation.CoupledSystem, and reads the new-infection operator F off its
Jacobian. These functions write the same equations out directly, from F
and the transmission matrix B up, patch by patch and region by region, so
the tests can check the kernel (and the classifications built on it)
against an evaluation that shares no code with it. full_grid_roots is the
seed grid the generic equilibrium search used to run, kept as its oracle.
m_matrix_characterizations gives the two textbook tests the package's
M-matrix predicate is checked against. The branch cross-checks at the end
read continued branches against the analytic derivatives of persist and
tally their stability. Nothing in the package imports them.
"""
from typing import Sequence

import numpy as np

from patchepi import equilibria
from patchepi.continuation import (BranchRecord, CoupledSystem,
                                   _check_families, continue_every_pattern,
                                   travel_matrix)
from patchepi.model import (InadmissibleStateError, PatchModel, PatchState,
                            split_state)
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

    Every pattern climbs continue_every_pattern's ladder, the one the
    simulate command labels trajectories with; a branch that fails or
    violates the hypotheses raises.
    """
    stable = unstable = 0
    for pattern, record in continue_every_pattern(
            CoupledSystem(models, net), alpha, equilibria):
        if record.failure is not None:
            raise RuntimeError(f"pattern {pattern.choices}: {record.failure}")
        if record.verdict_observed == "persists":
            stable += record.points[-1].stability == "stable"
            unstable += record.points[-1].stability == "unstable"
    return stable, unstable
