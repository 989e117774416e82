"""Time integration of the coupled patch system.

dX/dt equals the coupled residual, so equilibria of the continuation
module are rest points of these trajectories. The coupled system is stiff
(decay rates of the HIV patches span more than two orders of magnitude),
so the integrator is the linearly implicit Rosenbrock method Rodas4
(Hairer & Wanner, Solving ODEs II, sec. VI.4): order 4 with an embedded
order-3 solution, stiffly accurate, driven by the analytic Jacobian of the
coupled system at the start of each step, with one inverse of
I/(h gamma) - J per trial step. A trajectory takes the caller's
continuation.CoupledSystem, compiled once per set of patches and
network, and from it the single-state pair (rhs, point) at its alpha,
with M0 + alpha L formed once. A trial step evaluates rhs at the five
later stages (the first stage reuses the right-hand side at the step's
start), and an accepted point evaluates point: the right-hand side and
the Jacobian from one set of incidence products, the Jacobian built
directly in the system's susceptible-first solve_order, with no gather.
Both carry the bits of CoupledSystem.residual and jacobian.

Step control has one model-specific twist: an accepted step may not take
any component below -1e-9. Undershoots trigger step rejection rather
than clipping, which keeps trajectories honest about forward invariance
of the nonnegative cone instead of enforcing it silently. A trial step
is also rejected, and h halved, when a stage or the end state is
inadmissible, when the error estimate, the end state's right-hand side
or its Jacobian is not finite, or when I/(h gamma) - J is singular.
Such a step may overflow on the way; its result is refused as
non-finite, so the stepping runs with numpy's overflow and invalid
warnings off.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import InadmissibleStateError

DEFAULT_T_END = 5e3           # trajectories settle well before (1/mu = 20)
DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10
UNDERSHOOT_TOL = -1e-9
CLASSIFY_TOL = 1e-4           # relative sup-norm distance to an equilibrium
MAX_STEPS = 2_000_000

# Rodas4 coefficients (Hairer & Wanner, rodas.f). Stage i solves
#   (I/(h gamma) - J) U_i = f(X + sum_j A[i, j] U_j) + sum_j C[i, j] U_j / h
# over j < i. The method is stiffly accurate: the last stage argument is
# the embedded order-3 solution and the step ends at it plus U_6, so U_6
# is the local error estimate.
_RODAS_GAMMA = 0.25
_RODAS_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1.544, 0.0, 0.0, 0.0, 0.0],
    [0.9466785280815826, 0.2557011698983284, 0.0, 0.0, 0.0],
    [3.314825187068521, 2.896124015972201, 0.9986419139977817, 0.0, 0.0],
    [1.221224509226641, 6.019134481288629, 12.53708332932087,
     -0.687886036105895, 0.0],
    [1.221224509226641, 6.019134481288629, 12.53708332932087,
     -0.687886036105895, 1.0],
])
_RODAS_C = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [-5.6688, 0.0, 0.0, 0.0, 0.0],
    [-2.430093356833875, -0.2063599157091915, 0.0, 0.0, 0.0],
    [-0.1073529058151375, -9.594562251023355, -20.47028614809616, 0.0, 0.0],
    [7.496443313967647, -10.24680431464352, -33.99990352819905,
     11.7089089320616, 0.0],
    [8.083246795921522, -7.981132988064893, -31.52159432874371,
     16.31930543123136, -6.058818238834054],
])
_STAGE_ROWS = [(_RODAS_A[i, :i], _RODAS_C[i, :i]) for i in range(1, 6)]


class StepSizeUnderflowError(RuntimeError):
    """Step control drove h below the resolvable scale (stiff failure)."""


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray               # shape (steps,)
    states: np.ndarray              # shape (steps, r * (n + m + k))
    terminal_classification: str


def _classify_terminal(X: np.ndarray, classified) -> str:
    """Label of the nearest classified equilibrium within tolerance."""
    if not classified:
        return "unresolved"
    best_label, best_dist = "unresolved", np.inf
    for label, Xeq in classified:
        Xeq = np.asarray(Xeq, dtype=float)
        dist = float(np.max(np.abs(X - Xeq))) / (1.0 + float(np.max(np.abs(Xeq))))
        if dist <= CLASSIFY_TOL and dist < best_dist:
            best_label, best_dist = label, dist
    return best_label


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


def _rodas_step(rhs, point, order: np.ndarray, X: np.ndarray,
                f0: np.ndarray, J: np.ndarray, h: float, rtol: float,
                atol: float):
    """One trial Rodas4 step of size h from X, where (f0, J) = point(X).

    rhs evaluates the right-hand side at the stages; point returns the
    right-hand side and the Jacobian together, the Jacobian with rows and
    columns in the variable order `order`, in which the stage systems are
    solved through one inverse of I/(h gamma) - J. Returns (err, X_new,
    f_new, J_new): err is the RMS norm of the error estimate scaled by
    atol + rtol * max(|X|, |X_new|). err is inf, and the rest None, when
    the step cannot be accepted whatever its accuracy.
    """
    M = -J
    M.ravel()[::X.size + 1] += 1.0 / (h * _RODAS_GAMMA)
    try:
        W = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return np.inf, None, None, None
    U = np.empty((6, X.size))
    U[0][order] = W @ f0[order]
    try:
        for i, (a, c) in enumerate(_STAGE_ROWS, 1):
            b = rhs(X + a @ U[:i]) + (c @ U[:i]) / h
            U[i][order] = W @ b[order]
        X_new = X + _RODAS_A[5] @ U[:5] + U[5]
        e = U[5] / (atol + rtol * np.maximum(np.abs(X), np.abs(X_new)))
        err = math.sqrt((e * e).sum() / e.size)
        if not (err <= 1.0):
            return (err if math.isfinite(err) else np.inf), None, None, None
        if X_new.min() < UNDERSHOOT_TOL:
            return np.inf, None, None, None
        f_new, J_new = point(X_new)
    except InadmissibleStateError:
        return np.inf, None, None, None
    if not (np.isfinite(f_new).all() and np.isfinite(J_new).all()):
        return np.inf, None, None, None
    return err, X_new, f_new, J_new


def integrate(system, alpha: float, X0: np.ndarray,
              t_end: float = DEFAULT_T_END, rtol: float = DEFAULT_RTOL,
              atol: float = DEFAULT_ATOL,
              classified: Optional[Sequence[Tuple[str, np.ndarray]]] = None
              ) -> Trajectory:
    """Integrate system, a continuation.CoupledSystem, from X0 at alpha.

    The trajectory covers [0, t_end]. classified is an optional list of (label, equilibrium state) pairs;
    the trajectory is labeled by the nearest one within relative
    sup-norm distance 1e-4 of the final state, else "unresolved".
    """
    X = np.asarray(X0, dtype=float).copy()
    if X.ndim != 1:
        raise ValueError("X0 must be a flat coupled state vector")
    if X.min() < UNDERSHOOT_TOL:
        raise InadmissibleStateError("initial state has negative components")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")

    order = system.solve_order
    rhs, point = system.single_state(alpha)
    t = 0.0
    h_min = max(1e-14 * t_end, 1e-13)
    times = [0.0]
    states = [X]
    with np.errstate(over="ignore", invalid="ignore"):
        f_cur, J = point(X)
        h = _initial_step(f_cur, X, t_end, rtol, atol)
        for _ in range(MAX_STEPS):
            if t >= t_end:
                break
            last = h >= t_end - t
            if last:
                h = t_end - t
            err, X_new, f_new, J_new = _rodas_step(rhs, point, order, X,
                                                   f_cur, J, h, rtol, atol)
            if err <= 1.0:
                t = t_end if last else t + h
                X, f_cur, J = X_new, f_new, J_new
                times.append(t)
                states.append(X)
                factor = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.25)
                h *= max(factor, 0.2)
            elif np.isfinite(err):
                h *= max(0.2, 0.9 * err ** -0.25)
            else:
                h *= 0.5    # nonnegativity, admissibility or singularity
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
                      terminal_classification=_classify_terminal(X, classified))


def basin_probe(system, alpha: float,
                initial_set: Sequence[Tuple[str, np.ndarray]],
                t_end: float = DEFAULT_T_END,
                classified: Optional[Sequence[Tuple[str, np.ndarray]]] = None
                ) -> List[Tuple[str, str]]:
    """Terminal classification for each labeled initial state, in order,
    each integrated on the same continuation.CoupledSystem system."""
    table = []
    for label, X0 in initial_set:
        traj = integrate(system, alpha, X0, t_end=t_end,
                         classified=classified)
        table.append((label, traj.terminal_classification))
    return table
