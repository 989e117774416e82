"""Time integration of the coupled patch system.

dX/dt equals the coupled residual, so equilibria of the continuation
module are rest points of these trajectories. The coupled system is stiff
(decay rates of the HIV patches span more than two orders of magnitude),
so the integrator is the variable-order (1 to 5) NDF of Shampine &
Reichelt ("The MATLAB ODE Suite", SIAM J. Sci. Comput. 18, 1997) on a
quasi-constant step with a backward-difference array (Byrne & Hindmarsh,
ACM TOMS 1, 1975), as scipy's solve_ivp(method="BDF") runs it. A trial
step predicts from the differences and corrects by simplified Newton,
at most four right-hand sides, through one inverse of I - c J
(c = h / alpha_k) reused until h, the order or J changes; J, the
analytic Jacobian, is renewed only when Newton fails with a stale one.
The caller's continuation.CoupledSystem gives the right-hand side of one
state at the trajectory's alpha (single_state), which serves Newton, and
J (jacobian), taken in the system's susceptible-first solve_order, where
the Newton systems are solved. numpy's cost per call dominates on such
small states, so the inverse comes from LAPACK directly (matalg._inverse)
and every product is ndarray.dot.

An accepted step may not take any component below -1e-9: undershoots
are rejected rather than clipped, which keeps trajectories honest about
forward invariance of the nonnegative cone. A trial step is also
refused, and h halved, when a Newton iterate or a renewed Jacobian is
inadmissible or not finite; a singular I - c J has a NaN inverse and is
refused so, and the stepping runs with numpy's overflow and invalid
warnings off. integrate refuses a non-finite start, and a horizon or
tolerance that is not finite and positive, with ValueError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import matalg
from .model import InadmissibleStateError

DEFAULT_T_END = 5e3           # trajectories settle well before (1/mu = 20)
DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10
UNDERSHOOT_TOL = -1e-9
CLASSIFY_TOL = 1e-4           # relative sup-norm distance to an equilibrium
MAX_STEPS = 2_000_000

# NDF of order k = 1..5 (Shampine & Reichelt, Table 1): kappa_k,
# gamma_k = 1 + 1/2 + ... + 1/k and alpha_k = (1 - kappa_k) gamma_k. The
# local error of order k is _ERROR_CONST[k] times the (k+1)-th difference.
_MAX_ORDER = 5
_NEWTON_MAXITER = 4
_KAPPA = np.array([0.0, -0.1850, -1 / 9, -0.0823, -0.0415, 0.0])
_GAMMA = np.hstack((0.0, np.cumsum(1.0 / np.arange(1, _MAX_ORDER + 1))))
_ALPHA = (1.0 - _KAPPA) * _GAMMA
_ERROR_CONST = (_KAPPA * _GAMMA + 1.0 / np.arange(1, _MAX_ORDER + 2)).tolist()
# Trajectory.work: right-hand sides (one per Jacobian included), Jacobians,
# inverses and refused trial steps by cause
WORK_COUNTS = ("rhs", "jacobians", "inverses", "rejected_error",
               "rejected_newton", "rejected_undershoot",
               "rejected_inadmissible")


def _order_matrices(k: int):
    """Order k's constants: predictor maps D[:k + 1] to the predicted
    state and psi = sum_j gamma_j D_j / alpha_k; update maps D[:k + 3], d
    in row k + 2, to the next step's D; R(factor) U rescales D[:k + 1] to
    step factor * h, R the cumulative row product of R0 - factor R1."""
    update = np.triu(np.ones((k + 3, k + 3)))
    update[:, k + 1] = 0.0
    update[k + 2, k + 1] = -1.0
    i = np.arange(1.0, k + 1)[:, None]
    R0, R1 = np.zeros((2, k + 1, k + 1))
    R0[0] = 1.0
    R0[1:, 1:] = (i - 1.0) / i
    R1[1:, 1:] = i.T / i
    return (np.vstack((np.ones(k + 1), _GAMMA[:k + 1] / _ALPHA[k])), update,
            R0, R1, (R0 - R1).cumprod(axis=0))


_ORDER = {k: _order_matrices(k) for k in range(1, _MAX_ORDER + 1)}


class StepSizeUnderflowError(RuntimeError):
    """Step control drove h below the resolvable scale (stiff failure)."""


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray               # shape (steps,)
    states: np.ndarray              # shape (steps, r * (n + m + k))
    terminal_classification: str
    work: Dict[str, int]            # by WORK_COUNTS


def _classify_terminal(X: np.ndarray, classified) -> str:
    """Label of the nearest classified equilibrium within tolerance.

    The distance to Xeq is max|X - Xeq| / (1 + max|Xeq|), over every
    equilibrium at once; the first of equal distances wins, and a NaN
    distance (a NaN state) is within no tolerance.
    """
    if not classified:
        return "unresolved"
    Xeq = np.array([x for _, x in classified], dtype=float)
    dist = np.abs(X - Xeq).max(axis=1) / (1.0 + np.abs(Xeq).max(axis=1))
    dist[~(dist <= CLASSIFY_TOL)] = np.inf
    best = int(dist.argmin())
    return classified[best][0] if dist[best] < np.inf else "unresolved"


def _initial_step(f0: np.ndarray, X0: np.ndarray, t_end: float,
                  rtol: float, atol: float) -> float:
    scale = atol + rtol * np.abs(X0)
    d0 = float(np.sqrt(np.mean((X0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    # a tolerance near the underflow limit or a huge slope overflows d0 or d1
    finite = math.isfinite(d0) and math.isfinite(d1)
    if not finite or d0 < 1e-5 or d1 < 1e-5:
        h = 1e-6
    else:
        h = 0.01 * d0 / d1
    return min(h, t_end * 0.1)


def _rms(v: np.ndarray) -> float:
    return math.sqrt(v.dot(v) / v.size)


def _change_D(D: np.ndarray, k: int, factor: float):
    """Rescale the differences D[:k + 1] from step h to factor * h."""
    _, _, R0, R1, U = _ORDER[k]
    D[:k + 1] = (R0 - factor * R1).cumprod(axis=0).dot(U).T.dot(D[:k + 1])


def _newton(rhs, y: np.ndarray, f: Optional[np.ndarray], c: float,
            psi: np.ndarray, W: np.ndarray, order: np.ndarray,
            scale: np.ndarray, tol: float):
    """Simplified Newton iteration for the NDF corrector d from d = 0 at
    the predicted state y: (I - c J) dy = c rhs(y + d) - psi - d, W the
    inverse of I - c J in the variable order `order`, and f rhs(y) if the
    caller has it. Returns (status, iterations, y + d), status "converged",
    "newton" when the updates do not contract fast enough, or
    "inadmissible" when an iterate is inadmissible or an update not
    finite, as a singular I - c J makes it."""
    dy = np.empty_like(y)
    norm_old = None
    for i in range(_NEWTON_MAXITER):
        if f is None:
            try:
                f = rhs(y)
            except InadmissibleStateError:
                return "inadmissible", i + 1, None
        dy[order] = W.dot((c * f - psi)[order])
        norm = _rms(dy / scale)
        if not math.isfinite(norm):
            return "inadmissible", i + 1, None
        rate = None if norm_old is None else norm / norm_old
        if rate is not None and (rate >= 1.0 or rate ** (_NEWTON_MAXITER - i)
                                 / (1.0 - rate) * norm > tol):
            return "newton", i + 1, None
        y, psi = y + dy, psi + dy
        if norm == 0.0 or rate is not None and rate / (1.0 - rate) * norm < tol:
            return "converged", i + 1, y
        norm_old, f = norm, None
    return "newton", _NEWTON_MAXITER, None


def integrate(system, alpha: float, X0: np.ndarray,
              t_end: float = DEFAULT_T_END, rtol: float = DEFAULT_RTOL,
              atol: float = DEFAULT_ATOL,
              classified: Optional[Sequence[Tuple[str, np.ndarray]]] = None
              ) -> Trajectory:
    """Integrate system, a continuation.CoupledSystem, from X0 at alpha.

    The trajectory covers [0, t_end]. classified is an optional list of
    (label, equilibrium state) pairs; the trajectory is labeled by the
    nearest one within relative sup-norm distance 1e-4 of the final
    state, else "unresolved".
    """
    X = np.asarray(X0, dtype=float).copy()
    if X.ndim != 1:
        raise ValueError("X0 must be a flat coupled state vector")
    if not np.isfinite(X).all():
        raise ValueError("X0 has non-finite components")
    if X.min() < UNDERSHOOT_TOL:
        raise InadmissibleStateError("initial state has negative components")
    for name, value in (("t_end", t_end), ("rtol", rtol), ("atol", atol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive")

    order = system.solve_order
    in_order = np.ix_(order, order)
    t, times, states = 0.0, [0.0], [X]
    h_min = max(1e-14 * t_end, 1e-13)
    work = dict.fromkeys(WORK_COUNTS, 0)
    newton_tol = max(10.0 * np.finfo(float).eps / rtol, min(0.03, rtol ** 0.5))
    D, eye = np.zeros((_MAX_ORDER + 3, X.size)), np.eye(X.size)
    k, equal, W = 1, 0, None        # order, steps taken at this h, inverse
    fresh = stale = False           # J taken at this step; J to refresh
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = system.single_state(alpha)
        f_cur, J = rhs(X), system.jacobian(alpha, X)[in_order]
        work["jacobians"] = 1
        h = _initial_step(f_cur, X, t_end, rtol, atol)
        D[0], D[1] = X, f_cur * h
        for _ in range(MAX_STEPS):
            if t >= t_end:
                break
            last = h >= t_end - t
            if last:
                _change_D(D, k, (t_end - t) / h)
                h, equal, W = t_end - t, 0, None
            predictor, update = _ORDER[k][:2]
            y_pred, psi = predictor.dot(D[:k + 1])
            f_pred, status = None, "inadmissible"
            if stale:
                work["jacobians"] += 1
                try:
                    f_pred = rhs(y_pred)
                    J_new = system.jacobian(alpha, y_pred)[in_order]
                except InadmissibleStateError:
                    J_new = None
                if J_new is not None and np.isfinite(J_new).all():
                    J, W, fresh, stale = J_new, None, True, False
            if not stale:
                c = h / _ALPHA[k]
                if W is None:
                    W = matalg._inverse(eye - c * J)
                    work["inverses"] += 1
                status, iters, X_new = _newton(
                    rhs, y_pred, f_pred, c, psi, W, order,
                    atol + rtol * np.abs(y_pred), newton_tol)
                work["rhs"] += iters - (f_pred is not None)
            if status == "newton" and not fresh:
                stale = True        # retry at this h with a new Jacobian
                work["rejected_newton"] += 1
                continue
            factor = 0.5
            if status == "converged":
                safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (
                    2 * _NEWTON_MAXITER + iters)
                scale = atol + rtol * np.abs(X_new)
                D[k + 2] = X_new - y_pred
                err = _ERROR_CONST[k] * _rms(D[k + 2] / scale)
                if err > 1.0:
                    status = "error"
                    factor = max(0.2, safety * err ** (-1.0 / (k + 1)))
                elif np.minimum.reduce(X_new) < UNDERSHOOT_TOL:
                    status = "undershoot"
            if status == "converged":
                t = t_end if last else t + h
                X, fresh, factor = X_new, False, None
                times.append(t)
                states.append(X)
                equal += 1
                D[:k + 3] = update.dot(D[:k + 3])
                if equal > k:
                    # the order of k - 1, k and k + 1 that allows the
                    # largest next step, by its error estimate
                    grow = [_ERROR_CONST[q] * _rms(D[q + 1] / scale)
                            if 0 < q <= _MAX_ORDER else np.inf
                            for q in (k - 1, k, k + 1)]
                    grow = [e ** (-1.0 / (q + k)) if e else np.inf
                            for q, e in enumerate(grow)]
                    best = max(range(3), key=grow.__getitem__)
                    k += best - 1
                    factor = min(10.0, safety * grow[best])
            else:
                work[f"rejected_{status}"] += 1
            if factor is not None:
                h *= factor
                _change_D(D, k, factor)
                equal, W = 0, None
            # rejected steps drive h to the floor when no step can meet the
            # tolerances, as do accepted ones when h shrinks until t + h no
            # longer advances t; a NaN h fails the test as well
            if t < t_end and not h >= h_min:
                raise StepSizeUnderflowError(
                    f"step size underflow at t = {t:g} (h = {h:.3e})")
        else:
            raise StepSizeUnderflowError(
                f"integration exceeded {MAX_STEPS} steps at t = {t:g}")
    return Trajectory(times=np.asarray(times), states=np.asarray(states),
                      terminal_classification=_classify_terminal(X, classified),
                      work=dict(work, rhs=work["rhs"] + work["jacobians"]))
