"""Persistence theory of product equilibria under small travel volumes.

A disconnected product equilibrium continues in the mobility parameter
alpha to a branch f(alpha). Whether the branch stays in the nonnegative
cone (the pattern "persists") or exits it ("vanishes") is decided by the
disease-free-at-travel (DFAT) regions: the x-block derivative of such a
region solves

    (V - F) df/dalpha(0) = sum_j C_x^{ij} xhat^j,

and more generally, when all lower-order derivatives of region i vanish,

    (V - F) d^N f/dalpha^N(0) = N * sum_j C_x^{ij} d^{N-1} f_{xhat j}(0).

With V - F irreducible and a nonnegative nonzero right-hand side, the
solution is entrywise positive when the local reproduction number R < 1
and has a negative component when R > 1. Chasing the recursion down the
shortest EAT-to-DFAT path turns this into a purely combinatorial verdict:
a boundary pattern vanishes exactly when some DFAT region with R > 1 is
reachable from an endemic-at-travel (EAT) region.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import matalg
from .equilibria import (EquilibriumPattern, PatchEquilibrium,
                         enumerate_patterns, local_reproduction_number)
from .model import PatchModel, new_infection_operator
from .network import MobilityNetwork, classify_pattern

# Tolerance for classifying derivative components as zero.
SIGN_TOL = 1e-11

# |R - 1| below this is out of theory scope (the theorems are strict).
MARGINAL_R_TOL = 1e-6

RULES = ("positive_theorem_4_2", "corollary_complete", "corollary_irreducible",
         "corollary_general", "derivative_direct")


class DegenerateThresholdError(RuntimeError):
    """V - F singular (local reproduction number at 1); no verdict."""


class ChainPreconditionError(ValueError):
    """Higher-order derivative requested without vanishing lower orders."""


@dataclass(frozen=True)
class BranchDerivative:
    """d^order f_{xhat region} / dalpha^order at alpha = 0."""
    region: int
    order: int
    value: np.ndarray
    sign_class: str   # "zero" | "positive" | "nonneg_mixed" | "has_negative"


@dataclass(frozen=True)
class PersistenceWitness:
    """Evidence for a vanishing verdict: the offending DFAT region, its
    local reproduction number, and an EAT-to-region path when one exists."""
    region: int
    local_R: float
    path: Optional[tuple] = None


@dataclass(frozen=True)
class PersistenceVerdict:
    pattern: EquilibriumPattern
    verdict: str                       # "persists" | "vanishes" | "indeterminate"
    rule: str
    witness: Optional[PersistenceWitness] = None
    R_values: tuple = ()


def _sign_class(value: np.ndarray) -> str:
    if np.any(value < -SIGN_TOL):
        return "has_negative"
    if np.all(np.abs(value) <= SIGN_TOL):
        return "zero"
    if np.all(value > SIGN_TOL):
        return "positive"
    return "nonneg_mixed"


def _x_hat(eqs: Sequence[PatchEquilibrium], choice: int, n: int) -> np.ndarray:
    if choice == 0:
        return np.zeros(n)
    return eqs[choice].state.x


def _v_minus_f(model: PatchModel,
               eqs: Sequence[PatchEquilibrium]) -> np.ndarray:
    """V - F at the patch's disease-free state, eqs[0]."""
    return model.V - new_infection_operator(model, eqs[0].state)


# ====================================================================
# Branch derivatives at alpha = 0
# ====================================================================

def branch_first_derivative(i: int, pattern: EquilibriumPattern,
                            models: Sequence[PatchModel],
                            net: MobilityNetwork,
                            equilibria) -> BranchDerivative:
    """First derivative of a DFAT region's x-block at alpha = 0.

    Solves (V - F) d = sum_{j != i} C_x^{ij} xhat^j with the disconnected
    endemic states xhat^j on the right-hand side and F evaluated at region
    i's own disease-free state. equilibria holds each patch's
    patch_equilibria, disease-free state first.
    """
    if pattern.choices[i] != 0:
        raise ValueError(f"region {i} is not DFAT in pattern {pattern.choices}")
    n = models[i].n
    rhs = np.zeros(n)
    for j in range(net.r):
        if j != i:
            rhs += net.cx[i, j] * _x_hat(equilibria[j], pattern.choices[j], n)
    return _solve_chain_step(i, 1, rhs, models[i], equilibria[i])


def branch_higher_derivative(i: int, order: int,
                             lower_order_values: Mapping[int, Mapping[int, np.ndarray]],
                             pattern: EquilibriumPattern,
                             models: Sequence[PatchModel],
                             net: MobilityNetwork,
                             equilibria) -> BranchDerivative:
    """Order-N derivative of a DFAT region's x-block at alpha = 0.

    Valid only when every lower-order derivative of region i vanishes
    (checked here against the caller-supplied values); then

        (V - F) d^N = N * sum_{j != i} C_x^{ij} d^{N-1}_j.

    lower_order_values maps order -> {region: value} and must cover region
    i at every order below N and every in-neighbor of i at order N - 1.
    The order is capped at r - 1: beyond that the branch is only guaranteed
    as many derivatives as the recruitment function has, and the theory
    never needs more.
    """
    if order < 2:
        raise ValueError("use branch_first_derivative for order 1")
    if order > net.r - 1:
        raise ValueError(f"derivative order {order} exceeds r - 1 = {net.r - 1}")
    if pattern.choices[i] != 0:
        raise ValueError(f"region {i} is not DFAT in pattern {pattern.choices}")
    for ell in range(1, order):
        if ell not in lower_order_values or i not in lower_order_values[ell]:
            raise ChainPreconditionError(
                f"missing order-{ell} value for region {i}")
        if np.any(np.abs(lower_order_values[ell][i]) > SIGN_TOL):
            raise ChainPreconditionError(
                f"order-{ell} derivative of region {i} is nonzero; "
                f"the order-{order} recursion does not apply")
    n = models[i].n
    rhs = np.zeros(n)
    prev = lower_order_values[order - 1]
    for j in range(net.r):
        if j == i or not np.any(net.cx[i, j] > 0.0):
            continue
        if j not in prev:
            # An EAT in-neighbor would have forced a nonzero first
            # derivative of region i, contradicting the precondition.
            raise ChainPreconditionError(
                f"missing order-{order - 1} value for in-neighbor {j}")
        rhs += net.cx[i, j] * prev[j]
    rhs *= order
    return _solve_chain_step(i, order, rhs, models[i], equilibria[i])


def _solve_chain_step(i: int, order: int, rhs: np.ndarray,
                      model: PatchModel, eqs_i) -> BranchDerivative:
    VmF = _v_minus_f(model, eqs_i)
    try:
        value = matalg.solve_linear(VmF, rhs)
    except matalg.SingularMatrixError as exc:
        raise DegenerateThresholdError(
            f"V - F numerically singular in region {i} (local R at 1)") from exc
    return BranchDerivative(region=i, order=order, value=value,
                            sign_class=_sign_class(value))


def derivative_chain(pattern: EquilibriumPattern,
                     models: Sequence[PatchModel],
                     net: MobilityNetwork,
                     equilibria) -> dict:
    """Per-DFAT-region derivatives, raised order by order until signed.

    Returns {region: BranchDerivative} holding each DFAT region's first
    derivative with a nonzero sign class, or its highest computed one
    (still "zero") when everything through order r - 1 vanishes.
    """
    dfat = [i for i in range(net.r) if pattern.choices[i] == 0]
    values = {}      # order -> {region: vector}, zeros propagated
    result = {}
    n = models[0].n
    values[0] = {j: _x_hat(equilibria[j], pattern.choices[j], n)
                 for j in range(net.r)}
    for order in range(1, net.r):
        values[order] = {}
        for i in dfat:
            if i in result and result[i].sign_class != "zero":
                continue
            if order == 1:
                der = branch_first_derivative(i, pattern, models, net,
                                              equilibria)
            else:
                der = branch_higher_derivative(i, order, values, pattern,
                                               models, net, equilibria)
            values[order][i] = der.value
            result[i] = der
        # EAT regions only ever feed the recursion at order 0
    return result


# ====================================================================
# Verdicts
# ====================================================================

def predict(pattern: EquilibriumPattern,
            models: Sequence[PatchModel],
            net: MobilityNetwork,
            equilibria,
            R_values: Optional[Sequence[float]] = None) -> PersistenceVerdict:
    """Persistence verdict for one product pattern.

    All-positive patterns persist outright. Boundary patterns vanish
    exactly when some DFAT region with local R > 1 is reachable from an
    EAT region; the DFE pattern is the boundary pattern with no EAT
    regions and trivially persists. The rule field records how the verdict
    was reached: via the complete-network or direct-inflow corollaries,
    via general reachability, or via the direct derivative fallback used
    when some patch violates the V - F irreducibility assumption.
    equilibria holds each patch's patch_equilibria; R_values, each
    patch's local reproduction number, is computed when not given.
    """
    if len(pattern.choices) != net.r or len(models) != net.r:
        raise ValueError("pattern/models/network region counts disagree")
    if R_values is None:
        R_values = [local_reproduction_number(mod) for mod in models]
    R_values = tuple(float(R) for R in R_values)

    if pattern.is_all_endemic:
        return PersistenceVerdict(pattern=pattern, verdict="persists",
                                  rule="positive_theorem_4_2",
                                  R_values=R_values)

    cls = classify_pattern(net, pattern)
    irreducible = all(matalg.is_irreducible(_v_minus_f(mod, eqs))
                      for mod, eqs in zip(models, equilibria))
    if not irreducible:
        return _predict_by_derivatives(pattern, models, net, equilibria,
                                       R_values, cls)

    dfat = [i for i in range(net.r) if not cls.is_eat[i]]

    # R = 1 makes V - F singular, breaking the implicit function theorem
    # behind every verdict; the theorems are strict inequalities.
    for i in dfat:
        if abs(R_values[i] - 1.0) < MARGINAL_R_TOL:
            return PersistenceVerdict(pattern=pattern, verdict="indeterminate",
                                      rule=_corollary_rule(net, cls, dfat),
                                      witness=PersistenceWitness(
                                          region=i, local_R=R_values[i]),
                                      R_values=R_values)

    offenders = [i for i in dfat
                 if cls.reachable_from_eat[i] and R_values[i] > 1.0]
    rule = _corollary_rule(net, cls, dfat)
    if offenders:
        region = min(offenders, key=lambda i: cls.m_values[i])
        witness = PersistenceWitness(region=region, local_R=R_values[region],
                                     path=cls.eat_paths[region])
        return PersistenceVerdict(pattern=pattern, verdict="vanishes",
                                  rule=rule, witness=witness,
                                  R_values=R_values)
    return PersistenceVerdict(pattern=pattern, verdict="persists", rule=rule,
                              R_values=R_values)


def _corollary_rule(net: MobilityNetwork, cls, dfat) -> str:
    adj = net.adjacency()
    r = net.r
    if all(adj[f, t] for f in range(r) for t in range(r) if f != t):
        return "corollary_complete"
    eat = [j for j in range(r) if cls.is_eat[j]]
    if eat and all(any(adj[j, i] for j in eat) for i in dfat):
        return "corollary_irreducible"
    return "corollary_general"


def _predict_by_derivatives(pattern, models, net, equilibria, R_values, cls):
    """Fallback for reducible V - F: read the verdict off the derivative
    chain directly, up to order r - 1.

    The derivative recursion itself is plain implicit differentiation and
    needs no irreducibility; only the sign theorems do. A negative
    component still proves cone exit. A region whose chain stays zero is
    conclusive only when it is unreachable from every EAT region (its
    branch is identically zero); otherwise, and for mixed signs, no
    theorem applies and the verdict is indeterminate.
    """
    try:
        chain = derivative_chain(pattern, models, net, equilibria)
    except (DegenerateThresholdError, ChainPreconditionError):
        return PersistenceVerdict(pattern=pattern, verdict="indeterminate",
                                  rule="derivative_direct", R_values=R_values)
    unresolved = None
    for i, der in chain.items():
        if der.sign_class == "has_negative":
            witness = PersistenceWitness(region=i, local_R=R_values[i])
            return PersistenceVerdict(pattern=pattern, verdict="vanishes",
                                      rule="derivative_direct",
                                      witness=witness, R_values=R_values)
        if der.sign_class == "nonneg_mixed":
            unresolved = i
        elif der.sign_class == "zero" and cls.reachable_from_eat[i]:
            unresolved = i
    if unresolved is not None:
        return PersistenceVerdict(pattern=pattern, verdict="indeterminate",
                                  rule="derivative_direct",
                                  witness=PersistenceWitness(
                                      region=unresolved,
                                      local_R=R_values[unresolved]),
                                  R_values=R_values)
    return PersistenceVerdict(pattern=pattern, verdict="persists",
                              rule="derivative_direct", R_values=R_values)


def count_persisting(models: Sequence[PatchModel], net: MobilityNetwork,
                     equilibria, R_values: Sequence[float]) -> int:
    """Number of product patterns (DFE included) that persist.

    equilibria and R_values hold each patch's patch_equilibria and local
    reproduction number. Raises if any pattern comes back indeterminate;
    callers scanning regimes should stay clear of R = 1.
    """
    if net.r != 3:
        raise ValueError("count_persisting covers the three-region theory")
    counts = [len(eq) - 1 for eq in equilibria]
    if any(c not in (0, 1, 2) for c in counts):
        raise ValueError(f"per-patch endemic counts {counts} outside 0..2")
    total = 0
    for pattern in enumerate_patterns(counts):
        verdict = predict(pattern, models, net, equilibria, R_values)
        if verdict.verdict == "indeterminate":
            raise RuntimeError(
                f"indeterminate verdict for pattern {pattern.choices}")
        if verdict.verdict == "persists":
            total += 1
    return total
