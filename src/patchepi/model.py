"""Per-patch compartmental model family.

A patch carries three blocks of compartments: x (n infected classes),
y (m susceptible classes), z (k removed classes), with dynamics

    dx/dt = F(x,y,z) x - V x
    dy/dt = g(y) - diag(y) B(x,y,z) x
    dz/dt = -D z + Z x

where B is the m-by-n transmission matrix, the eta distribution vectors
spread new infections from susceptible class p (infected by class q) over
the n infected classes, and F is the resulting new-infection operator

    F[j, q] = sum_p eta[p, q][j] * y[p] * B[p, q].

Recruitment g is affine (g = g_const + g_lin y) for every built-in family;
a callable extension point is provided for anything else, in which case
only dg/dy is taken by central finite differences, in
PatchModel.recruitment_jacobian, the one caller of fd_jacobian; every other
Jacobian term stays analytic. Note that the guarantees on higher-order
branch derivatives elsewhere in this package need g smooth enough (r-1
continuous derivatives for r patches); affine recruitment has all orders,
user extensions are on their own.

Built-in families:
    multigroup        n groups, one susceptible class per group
    stage_progression n disease stages, single susceptible class
    multistrain       n strains, single susceptible class
    hiv_vaccination   staged HIV transmission with an imperfectly
                      protective vaccine (x = (Y1, Y2, W1, W2),
                      y = (S, S_V), z = (A))

Incidence is either mass_action (B constant) or standard (B = beta / N with
N = sum(y) + sum(x), the population outside the removed classes).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from . import matalg

FAMILIES = ("multigroup", "stage_progression", "multistrain", "hiv_vaccination")

ETA_SUM_TOL = 1e-12
FD_STEP = 1e-6


class InadmissibleStateError(ValueError):
    """State outside the domain of the model (e.g. y = 0 under standard incidence)."""


@dataclass(frozen=True)
class PatchState:
    """One patch's compartment densities, split into the three blocks."""
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))
        object.__setattr__(self, "z", np.atleast_1d(np.asarray(self.z, dtype=float)))

    def concat(self) -> np.ndarray:
        return np.concatenate([self.x, self.y, self.z])


def split_state(model: "PatchModel", u: np.ndarray) -> PatchState:
    u = np.asarray(u, dtype=float)
    n, m = model.n, model.m
    return PatchState(u[:n], u[n:n + m], u[n + m:])


@dataclass(frozen=True)
class PatchModel:
    """Immutable description of one patch's dynamics.

    V must have the Z sign pattern, be a nonsingular M-matrix, and have
    nonnegative column sums (so V removes mass, never creates it); D is
    diagonal positive; Z is nonnegative and nonzero; each eta[p, q] sums
    to one. These are validated at construction and never renormalized —
    silently repairing a bad configuration would hide the error.
    """
    family: str
    n: int
    m: int
    k: int
    V: np.ndarray
    D: np.ndarray
    Z: np.ndarray
    eta: np.ndarray              # shape (m, n, n); eta[p, q] is an n-vector
    beta: np.ndarray             # shape (m, n); constant part of B
    incidence: str               # "mass_action" or "standard"
    g_const: np.ndarray          # shape (m,)
    g_lin: np.ndarray            # shape (m, m)
    params: Mapping[str, float] = field(default_factory=dict)
    g_func: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        for name in ("V", "D", "Z", "eta", "beta", "g_const", "g_lin"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        n, m, k = self.n, self.m, self.k
        if self.family not in FAMILIES and self.family != "custom":
            raise ValueError(f"unknown family {self.family!r}")
        if self.incidence not in ("mass_action", "standard"):
            raise ValueError(f"unknown incidence {self.incidence!r}")
        if self.V.shape != (n, n) or self.D.shape != (k, k) or self.Z.shape != (k, n):
            raise ValueError("V/D/Z dimensions inconsistent with (n, m, k)")
        if self.eta.shape != (m, n, n) or self.beta.shape != (m, n):
            raise ValueError("eta/beta dimensions inconsistent with (n, m, k)")
        if not matalg.z_pattern_check(self.V):
            raise ValueError("V must have the Z sign pattern")
        if not matalg.m_matrix_report(self.V).is_nonsingular_M:
            raise ValueError("V must be a nonsingular M-matrix")
        if np.any(self.V.sum(axis=0) < -matalg.ZERO_TOL):
            raise ValueError("V must have nonnegative column sums")
        if np.any(np.abs(self.D - np.diag(np.diag(self.D))) > matalg.ZERO_TOL):
            raise ValueError("D must be diagonal")
        if np.any(np.diag(self.D) <= 0):
            raise ValueError("D must have positive diagonal entries")
        if np.any(self.Z < 0) or not np.any(self.Z > 0):
            raise ValueError("Z must be nonnegative and nonzero")
        if np.any(self.eta < 0):
            raise ValueError("eta weights must be nonnegative")
        sums = self.eta.sum(axis=2)
        if np.max(np.abs(sums - 1.0)) > ETA_SUM_TOL:
            raise ValueError("each eta distribution vector must sum to 1")
        if np.any(self.beta < 0):
            raise ValueError("beta must be nonnegative")

    @property
    def size(self) -> int:
        return self.n + self.m + self.k

    def recruitment(self, y: np.ndarray) -> np.ndarray:
        if self.g_func is not None:
            return np.asarray(self.g_func(y), dtype=float)
        return self.g_const + self.g_lin @ y

    def recruitment_jacobian(self, y: np.ndarray) -> np.ndarray:
        """dg/dy: g_lin, or central differences of a recruitment callback."""
        if self.g_func is not None:
            return fd_jacobian(self.recruitment, y)
        return self.g_lin


@dataclass(frozen=True)
class HivParams:
    """Parameters of the HIV vaccination model.

    x = (Y1, Y2, W1, W2): unvaccinated/vaccinated infected in stages 1, 2;
    y = (S, S_V): unvaccinated/vaccinated susceptibles; z = (A,): AIDS stage.
    rho and pi are the stage distributions of new infections, so each pair
    must sum to one (these are the eta simplex constraints).
    """
    Lam: float
    mu: float
    gam: float
    delta: float
    p: float
    q: float
    rho1: float
    rho2: float
    pi1: float
    pi2: float
    th1: float
    th2: float
    s1: float
    s2: float
    sig1: float
    sig2: float
    beta1: float
    beta2: float

    def __post_init__(self):
        # transmissibilities may be zero (a closed model is still a model);
        # everything else is a rate or fraction the equations divide by
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"HIV parameter {name} must be finite")
            if name in ("beta1", "beta2", "s1", "s2"):
                if value < 0:
                    raise ValueError(f"HIV parameter {name} must be nonnegative")
            elif value <= 0:
                raise ValueError(f"HIV parameter {name} must be positive")
        if abs(self.rho1 + self.rho2 - 1.0) > ETA_SUM_TOL:
            raise ValueError("rho1 + rho2 must equal 1")
        if abs(self.pi1 + self.pi2 - 1.0) > ETA_SUM_TOL:
            raise ValueError("pi1 + pi2 must equal 1")


# ====================================================================
# Family constructors
# ====================================================================

def hiv_vaccination(params: HivParams) -> PatchModel:
    """HIV transmission with differential infectivity and vaccination.

    The force of infection is lambda = (beta1 (Y1 + s1 W1) +
    beta2 (Y2 + s2 W2)) / N with N the population outside the AIDS stage,
    which is standard incidence with beta rows (beta1, beta2, s1 beta1,
    s2 beta2) and (q x that row) for the vaccinated class.
    """
    pr = params
    row = np.array([pr.beta1, pr.beta2, pr.s1 * pr.beta1, pr.s2 * pr.beta2])
    beta = np.vstack([row, pr.q * row])
    eta = np.zeros((2, 4, 4))
    eta[0, :, 0] = pr.rho1
    eta[0, :, 1] = pr.rho2
    eta[1, :, 2] = pr.pi1
    eta[1, :, 3] = pr.pi2
    V = np.diag([pr.mu + pr.sig1, pr.mu + pr.sig2,
                 pr.mu + pr.th1 * pr.sig1, pr.mu + pr.th2 * pr.sig2])
    Z = np.array([[pr.sig1, pr.sig2, pr.th1 * pr.sig1, pr.th2 * pr.sig2]])
    D = np.array([[pr.delta + pr.mu]])
    g_const = np.array([(1.0 - pr.p) * pr.Lam, pr.p * pr.Lam])
    g_lin = np.array([[-pr.mu, pr.gam], [0.0, -(pr.gam + pr.mu)]])
    return PatchModel(family="hiv_vaccination", n=4, m=2, k=1,
                      V=V, D=D, Z=Z, eta=eta, beta=beta, incidence="standard",
                      g_const=g_const, g_lin=g_lin,
                      params={f: getattr(pr, f) for f in pr.__dataclass_fields__})


def multigroup(beta: np.ndarray, Lam: np.ndarray, mu: np.ndarray,
               gamma: np.ndarray) -> PatchModel:
    """n-group model: susceptibles of group p are infected into class p."""
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    n = beta.shape[1]
    if beta.shape != (n, n):
        raise ValueError("multigroup beta must be square")
    Lam, mu, gamma = (np.broadcast_to(np.asarray(a, dtype=float), (n,)).copy()
                      for a in (Lam, mu, gamma))
    eta = np.zeros((n, n, n))
    for p in range(n):
        eta[p, :, p] = 1.0
    return PatchModel(family="multigroup", n=n, m=n, k=n,
                      V=np.diag(gamma + mu), D=np.diag(mu), Z=np.diag(gamma),
                      eta=eta, beta=beta, incidence="mass_action",
                      g_const=Lam, g_lin=-np.diag(mu),
                      params={"n": n})


def stage_progression(beta: np.ndarray, nu: np.ndarray, Lam: float,
                      mu: float) -> PatchModel:
    """Single susceptible class, n disease stages traversed in order.

    All new infections enter stage 1 (eta[0, q] = e_1 for every q); stage j
    progresses at rate nu[j], the last stage exiting into the removed class.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    n = beta.size
    if nu.size != n:
        raise ValueError("need one progression rate per stage")
    V = np.diag(nu + mu)
    for j in range(1, n):
        V[j, j - 1] = -nu[j - 1]
    eta = np.zeros((1, n, n))
    eta[0, :, 0] = 1.0
    Z = np.zeros((1, n))
    Z[0, -1] = nu[-1]
    return PatchModel(family="stage_progression", n=n, m=1, k=1,
                      V=V, D=np.array([[mu]]), Z=Z,
                      eta=eta, beta=beta.reshape(1, n), incidence="mass_action",
                      g_const=np.array([Lam]), g_lin=np.array([[-mu]]),
                      params={"n": n, "Lam": Lam, "mu": mu})


def multistrain(beta: np.ndarray, gamma: np.ndarray, Lam: float,
                mu: float) -> PatchModel:
    """Single susceptible class, n strains; strain q infects into class q."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    n = beta.size
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (n,)).copy()
    eta = np.zeros((1, n, n))
    for q in range(n):
        eta[0, q, q] = 1.0
    return PatchModel(family="multistrain", n=n, m=1, k=1,
                      V=np.diag(gamma + mu), D=np.array([[mu]]),
                      Z=gamma.reshape(1, n),
                      eta=eta, beta=beta.reshape(1, n), incidence="mass_action",
                      g_const=np.array([Lam]), g_lin=np.array([[-mu]]),
                      params={"n": n, "Lam": Lam, "mu": mu})


# ====================================================================
# Operations
# ====================================================================

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


def fd_jacobian(fun: Callable[[np.ndarray], np.ndarray],
                u0: np.ndarray) -> np.ndarray:
    """Central finite-difference Jacobian of fun: R^d -> R^d at u0.

    Column j steps u0[j] by FD_STEP * (1 + |u0[j]|) both ways.
    """
    u0 = np.asarray(u0, dtype=float)
    J = np.zeros((u0.size, u0.size))
    for j in range(u0.size):
        h = FD_STEP * (1.0 + abs(u0[j]))
        up, um = u0.copy(), u0.copy()
        up[j] += h
        um[j] -= h
        J[:, j] = (fun(up) - fun(um)) / (2.0 * h)
    return J
