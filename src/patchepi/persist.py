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
reachable from an endemic-at-travel (EAT) region. Where some patch's
V - F is reducible, SystemFacts.derivative_chain runs the recursion
itself, every order in one loop against each patch's V - F, found once
in its equilibria.PatchFacts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import matalg
from .equilibria import (EquilibriumPattern, PatchFacts, _threshold,
                         enumerate_patterns)
from .model import PatchModel
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
    """An in-neighbor of a DFAT region has no order N - 1 derivative."""


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


def _sign_class(value: np.ndarray) -> str:
    if np.any(value < -SIGN_TOL):
        return "has_negative"
    if np.all(np.abs(value) <= SIGN_TOL):
        return "zero"
    if np.all(value > SIGN_TOL):
        return "positive"
    return "nonneg_mixed"


# ====================================================================
# Verdicts
# ====================================================================

def predict(pattern: EquilibriumPattern,
            models: Sequence[PatchModel],
            net: MobilityNetwork,
            equilibria, *,
            R_values: Optional[Sequence[float]] = None) -> PersistenceVerdict:
    """Persistence verdict for one product pattern.

    All-positive patterns persist outright. Boundary patterns vanish
    exactly when some DFAT region with local R > 1 is reachable from an
    EAT region; the DFE pattern is the boundary pattern with no EAT
    regions and trivially persists. The rule field records how the verdict
    was reached: via the complete-network or direct-inflow corollaries,
    via general reachability, or via the direct derivative fallback used
    when some patch violates the V - F irreducibility assumption.
    equilibria holds each patch's patch_equilibria, which predict uses as
    given; each patch's system, local R and V - F come from its model by
    equilibria._threshold, the step of patch_facts that runs no endemic
    search. R_values is accepted only from callers that still pass those
    numbers in, and must equal them. SystemFacts.verdicts gives every
    pattern's verdict on a network from one set of patch facts.
    """
    if len(pattern.choices) != net.r:
        raise ValueError(f"pattern has {len(pattern.choices)} regions, "
                         f"the network {net.r}")
    for what, seq in (("models", models), ("equilibria", equilibria)):
        if len(seq) != net.r:
            raise ValueError(f"{what} has {len(seq)} entries, "
                             f"the network {net.r} regions")
    patches = []
    for mod, eqs in zip(models, equilibria):
        system, _, v_minus_f, R = _threshold(mod)
        patches.append(PatchFacts(mod, system, v_minus_f, R, tuple(eqs)))
    facts = SystemFacts(patches)
    if R_values is not None and tuple(R_values) != facts.R_values:
        raise ValueError("R_values differ from the patches' own local R")
    return facts.verdicts(net, [pattern])[0]


class SystemFacts:
    """A system's network-independent verdict facts and the verdict rule.

    patches holds each patch's equilibria.PatchFacts; its local R values
    (R_values) and the irreducibility of its V - F matrices are settled
    once. verdicts and persisting_count then apply the rule on any
    network, settling only its adjacency and the classification of each
    EAT set; derivative_chain solves against the same V - F.
    """

    def __init__(self, patches: Sequence[PatchFacts]):
        self.patches = tuple(patches)
        self.R_values = tuple(p.R for p in self.patches)
        self.irreducible = all(matalg.is_irreducible(p.v_minus_f)
                               for p in self.patches)

    def derivative_chain(self, pattern: EquilibriumPattern,
                         net: MobilityNetwork) -> dict:
        """Each DFAT region's x-block derivatives at alpha = 0, by order.

        The one recursion of the module docstring: order N solves

            (V - F) d^N_i = N * sum_{j != i, C_x^{ij} > 0} C_x^{ij} d^{N-1}_j

        against region i's settled V - F, with d^0_j = xhat^j. A region
        takes order N only while all its lower orders are "zero", so
        {region: [BranchDerivative for order 1, 2, ...]} ends each list at
        the region's first signed order or at order r - 1, the highest
        order the theory needs. EAT regions are absent. Raises
        DegenerateThresholdError when V - F is singular, and
        ChainPreconditionError when an in-neighbor has no order N - 1
        value.
        """
        patches = self.patches
        prev = {j: (patches[j].equilibria[c].state.x if c
                    else np.zeros(patches[j].model.n))
                for j, c in enumerate(pattern.choices)}
        chains = {}
        for order in range(1, net.r):
            values = {}
            for i, c in enumerate(pattern.choices):
                if c != 0 or (i in chains
                              and chains[i][-1].sign_class != "zero"):
                    continue
                rhs = np.zeros(patches[i].model.n)
                for j in range(net.r):
                    if j == i or not np.any(net.cx[i, j] > 0.0):
                        continue
                    if j not in prev:
                        raise ChainPreconditionError(
                            f"missing order-{order - 1} value for "
                            f"in-neighbor {j} of region {i}")
                    rhs += net.cx[i, j] * prev[j]
                rhs *= order
                try:
                    value = matalg.solve_linear(patches[i].v_minus_f, rhs)
                except matalg.SingularMatrixError as exc:
                    raise DegenerateThresholdError(
                        f"V - F numerically singular in region {i} "
                        "(local R at 1)") from exc
                values[i] = value
                chains.setdefault(i, []).append(BranchDerivative(
                    region=i, order=order, value=value,
                    sign_class=_sign_class(value)))
            prev = values
        return chains

    def verdicts(self, net: MobilityNetwork, patterns=None) -> list:
        """predict's verdict for each pattern on net, in the given order.

        patterns defaults to every product pattern in enumerate_patterns
        order. classify_pattern runs once per EAT set, as it reads nothing
        else of the pattern.
        """
        if len(self.patches) != net.r:
            raise ValueError(f"the system has {len(self.patches)} patches, "
                             f"the network {net.r} regions")
        if patterns is None:
            patterns = enumerate_patterns([len(p.equilibria) - 1
                                           for p in self.patches])
        adj = net.adjacency()
        classes = {}              # EAT set -> classify_pattern's answer

        def classify(pattern):
            key = tuple(c > 0 for c in pattern.choices)
            if key not in classes:
                classes[key] = classify_pattern(net, pattern)
            return classes[key]

        return [self._verdict(pattern, net, adj, classify)
                for pattern in patterns]

    def persisting_count(self, net: MobilityNetwork) -> int:
        """Number of product patterns (DFE included) that persist on net.

        Raises if any pattern comes back indeterminate; callers scanning
        regimes should stay clear of R = 1.
        """
        if net.r != 3:
            raise ValueError("persisting_count covers the three-region theory")
        counts = [len(p.equilibria) - 1 for p in self.patches]
        if any(c not in (0, 1, 2) for c in counts):
            raise ValueError(f"per-patch endemic counts {counts} outside 0..2")
        total = 0
        for verdict in self.verdicts(net):
            if verdict.verdict == "indeterminate":
                raise RuntimeError(
                    f"indeterminate verdict for pattern "
                    f"{verdict.pattern.choices} on network {net.name!r}")
            if verdict.verdict == "persists":
                total += 1
        return total

    def _verdict(self, pattern, net, adj, classify) -> PersistenceVerdict:
        R_values = self.R_values
        if pattern.is_all_endemic:
            return PersistenceVerdict(pattern=pattern, verdict="persists",
                                      rule="positive_theorem_4_2")

        cls = classify(pattern)
        if not self.irreducible:
            return _predict_by_derivatives(pattern, self, net, cls)

        dfat = [i for i in range(net.r) if not cls.is_eat[i]]
        rule = _corollary_rule(adj, cls, dfat)

        # R = 1 makes V - F singular, breaking the implicit function theorem
        # behind every verdict; the theorems are strict inequalities.
        for i in dfat:
            if abs(R_values[i] - 1.0) < MARGINAL_R_TOL:
                return PersistenceVerdict(pattern=pattern,
                                          verdict="indeterminate", rule=rule,
                                          witness=PersistenceWitness(
                                              region=i, local_R=R_values[i]))

        offenders = [i for i in dfat
                     if cls.reachable_from_eat[i] and R_values[i] > 1.0]
        if offenders:
            region = min(offenders, key=lambda i: cls.m_values[i])
            witness = PersistenceWitness(region=region,
                                         local_R=R_values[region],
                                         path=cls.eat_paths[region])
            return PersistenceVerdict(pattern=pattern, verdict="vanishes",
                                      rule=rule, witness=witness)
        return PersistenceVerdict(pattern=pattern, verdict="persists",
                                  rule=rule)


def _corollary_rule(adj: np.ndarray, cls, dfat) -> str:
    r = len(adj)
    if all(adj[f, t] for f in range(r) for t in range(r) if f != t):
        return "corollary_complete"
    eat = [j for j in range(r) if cls.is_eat[j]]
    if eat and all(any(adj[j, i] for j in eat) for i in dfat):
        return "corollary_irreducible"
    return "corollary_general"


def _predict_by_derivatives(pattern, facts, net, cls):
    """Fallback for reducible V - F: read the verdict off the last entry
    of each region's facts.derivative_chain, up to order r - 1.

    The derivative recursion itself is plain implicit differentiation and
    needs no irreducibility; only the sign theorems do. A negative
    component still proves cone exit. A region whose chain stays zero is
    conclusive only when it is unreachable from every EAT region (its
    branch is identically zero); otherwise, and for mixed signs, no
    theorem applies and the verdict is indeterminate.
    """
    try:
        chains = facts.derivative_chain(pattern, net)
    except (DegenerateThresholdError, ChainPreconditionError):
        return PersistenceVerdict(pattern=pattern, verdict="indeterminate",
                                  rule="derivative_direct")
    R = facts.R_values
    unresolved = None
    for i, ders in chains.items():
        der = ders[-1]
        if der.sign_class == "has_negative":
            witness = PersistenceWitness(region=i, local_R=R[i])
            return PersistenceVerdict(pattern=pattern, verdict="vanishes",
                                      rule="derivative_direct",
                                      witness=witness)
        if der.sign_class == "nonneg_mixed":
            unresolved = i
        elif der.sign_class == "zero" and cls.reachable_from_eat[i]:
            unresolved = i
    if unresolved is not None:
        return PersistenceVerdict(pattern=pattern, verdict="indeterminate",
                                  rule="derivative_direct",
                                  witness=PersistenceWitness(
                                      region=unresolved,
                                      local_R=R[unresolved]))
    return PersistenceVerdict(pattern=pattern, verdict="persists",
                              rule="derivative_direct")
