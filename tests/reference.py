"""Per-patch and coupled reference equations the kernel is tested against.

patchepi evaluates the model equations through one path,
continuation.CoupledSystem. These functions write the same equations out
directly, patch by patch and region by region, so the tests can check the
kernel (and the classifications built on it) against an independent
evaluation. Nothing in the package imports them.
"""
from typing import Sequence

import numpy as np

from patchepi.continuation import _check_families, travel_matrix
from patchepi.model import (PatchModel, PatchState, _assemble_F,
                            _population, split_state, transmission_matrix)
from patchepi.network import MobilityNetwork


def patch_residual(model: PatchModel, s: PatchState) -> np.ndarray:
    """Right-hand side of the patch ODE; the kernel's test reference."""
    B = transmission_matrix(model, s)
    F = _assemble_F(model.eta, s.y, B)
    rx = F @ s.x - model.V @ s.x
    ry = model.recruitment(s.y) - s.y * (B @ s.x)
    rz = -model.D @ s.z + model.Z @ s.x
    return np.concatenate([rx, ry, rz])


def patch_jacobian(model: PatchModel, s: PatchState) -> np.ndarray:
    """Jacobian of patch_residual at a state.

    Analytic apart from dg/dy, which the y-y block takes from
    recruitment_jacobian. At a disease-free state the upper-left block
    reduces to F - V and the x-row has no y/z coupling through the
    incidence terms.
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
    J[sl_y, sl_y] = model.recruitment_jacobian(s.y) - np.diag(Bx)
    J[sl_y, sl_x] = -s.y[:, None] * B
    if dB_scale:
        # d(Bx)_p/dw picks up dB_scale (Bx)_p for every x- or y-component w
        J[sl_y, sl_x] -= dB_scale * np.outer(s.y * Bx, np.ones(n))
        J[sl_y, sl_y] -= dB_scale * np.outer(s.y * Bx, np.ones(m))

    # z-rows are exactly linear.
    J[sl_z, sl_x] = model.Z
    J[sl_z, sl_z] = -model.D
    return J


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
