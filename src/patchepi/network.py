"""Mobility structure between patches.

Travel from region j to region i at rate alpha * C_w^{ij} per compartment
of block w (the connectivity matrices are diagonal: individuals keep their
compartment while moving). Note the index order: C_w^{ij} carries flow
FROM j TO i, so the region digraph has an edge j -> i exactly when the
infected-class connectivity C_x^{ij} is nonzero.

Reachability and the in-between count M_i are defined on that digraph.
M_i of a disease-free region is the least number of intermediate regions
on a path from any endemic region, with sentinel r - 1 when no such path
exists; it drives the order of the first nonvanishing branch derivative.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .equilibria import EquilibriumPattern


@dataclass(frozen=True)
class MobilityNetwork:
    """r regions with per-block diagonal connectivity potentials.

    cx[i, j] (length n), cy[i, j] (length m), cz[i, j] (length k) hold the
    diagonals of C_x^{ij}, C_y^{ij}, C_z^{ij}; diagonal blocks (i = j) are
    unused and kept at zero. The region digraph is settled at
    construction: its read-only adjacency matrix, and each region's
    out-neighbours in index order for the breadth-first search.
    """
    r: int
    cx: np.ndarray
    cy: np.ndarray
    cz: np.ndarray
    name: Optional[str] = None
    _adjacency: np.ndarray = field(init=False, repr=False, compare=False)
    _out: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        diagonal = np.arange(self.r)
        for nm in ("cx", "cy", "cz"):
            arr = np.array(getattr(self, nm), dtype=float)    # a copy
            if arr.ndim != 3 or arr.shape[:2] != (self.r, self.r):
                raise ValueError(f"{nm} must have shape (r, r, block)")
            if (arr < 0).any():
                raise ValueError("connectivity potentials must be nonnegative")
            arr[diagonal, diagonal] = 0.0
            object.__setattr__(self, nm, arr)
        adj = (self.cx > 0.0).any(axis=2).T     # cx[i, j]: j -> i
        adj.flags.writeable = False
        object.__setattr__(self, "_adjacency", adj)
        object.__setattr__(self, "_out", tuple(
            tuple(t for t, edge in enumerate(row) if edge)
            for row in adj.tolist()))

    @property
    def block_sizes(self) -> tuple:
        return self.cx.shape[2], self.cy.shape[2], self.cz.shape[2]

    def adjacency(self) -> np.ndarray:
        """adj[f, t] True iff direct connection f -> t (on infected
        classes); read-only, settled at construction."""
        return self._adjacency


@dataclass(frozen=True)
class PatternClassification:
    """EAT/DFAT split of a pattern plus per-DFAT reachability data.

    m_values[i] is None for EAT regions; for DFAT regions it is the least
    number of in-between regions on an EAT-to-i path, or r - 1 when i is
    not reachable from any EAT region (then reachable_from_eat[i] False).
    eat_paths[i] is such a shortest path, EAT region first and i last, for
    a reachable DFAT region, and None otherwise.
    """
    is_eat: tuple
    m_values: tuple
    reachable_from_eat: tuple
    eat_paths: tuple


def from_edges(edges: Sequence[tuple], r: int, n: int, m: int, k: int,
               blocks: Sequence[str] = ("x", "y", "z"),
               weight: float = 1.0,
               name: Optional[str] = None) -> MobilityNetwork:
    """Build a network from (from_region, to_region) pairs, 0-based.

    Each listed edge gets unit (or `weight`) connectivity on every
    compartment of the named blocks.
    """
    cx = np.zeros((r, r, n))
    cy = np.zeros((r, r, m))
    cz = np.zeros((r, r, k))
    store = {"x": cx, "y": cy, "z": cz}
    for f, t in edges:
        if not (0 <= f < r and 0 <= t < r):
            raise IndexError(f"edge ({f}, {t}) out of range for r={r}")
        if f == t:
            raise ValueError("self-loops are not allowed")
        for b in blocks:
            store[b][t, f, :] = weight  # C^{tf}: from f to t
    return MobilityNetwork(r=r, cx=cx, cy=cy, cz=cz, name=name)


# ====================================================================
# Named presets (three-region figure networks)
# ====================================================================
#
# Edge lists are 0-based (from, to). fig3a/fig3b/fig3c and fig4b/fig4c are
# pinned by their captions; the drawings for fig4a and fig4d leave some
# freedom, so those edge sets were chosen to match both the narrative
# (which regions can seed which) and the stated equilibrium counts
# (4 and 7) of the mixed regime they illustrate.
PRESET_EDGES = {
    # 1 and 2 exchange travel; 3 sends into 2 but receives nothing.
    "fig3a": [(1, 0), (0, 1), (2, 1)],
    # adding 1 -> 3 makes the region digraph strongly connected
    "fig3b": [(1, 0), (0, 1), (2, 1), (0, 2)],
    # all regions directly connected to each other
    "fig3c": [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)],
    "fig4a": [(0, 1), (1, 2), (2, 1)],
    "fig4b": [(1, 0), (0, 1), (0, 2)],
    "fig4c": [(0, 1), (0, 2)],
    "fig4d": [(0, 2), (1, 2)],
}


def preset(name: str, n: int, m: int, k: int) -> MobilityNetwork:
    """A named three-region figure network with unit potentials on all blocks."""
    if name not in PRESET_EDGES:
        raise KeyError(f"unknown network preset {name!r}; "
                       f"available: {sorted(PRESET_EDGES)}")
    return from_edges(PRESET_EDGES[name], r=3, n=n, m=m, k=k,
                      blocks=("x", "y", "z"), name=name)


def enumerate_networks(r: int, n: int, m: int, k: int) -> list:
    """All 2^6 = 64 three-region digraphs, one network per edge subset.

    Present edges get unit connectivity on every infected class (the region
    digraph and hence all reachability predicates only read the x-block).
    """
    if r != 3:
        raise ValueError("the exhaustive enumerator supports exactly r = 3")
    pairs = [(f, t) for f in range(r) for t in range(r) if f != t]
    nets = []
    for mask in range(1 << len(pairs)):
        edges = [p for b, p in enumerate(pairs) if mask >> b & 1]
        nets.append(from_edges(edges, r=r, n=n, m=m, k=k, blocks=("x",),
                               name=f"digraph{mask:02d}"))
    return nets


# ====================================================================
# Graph queries
# ====================================================================

def _search(net: MobilityNetwork, sources: Sequence[int]) -> list:
    """Breadth-first search of the region digraph from all sources at once.

    Returns per region a shortest path from a source to it (a tuple of
    regions, source first), or None when no source reaches it. Sources and
    out-neighbours are visited in index order.
    """
    out = net._out
    paths = [None] * net.r
    for u in sources:
        paths[u] = (u,)
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        for v in out[u]:
            if paths[v] is None:
                paths[v] = paths[u] + (v,)
                queue.append(v)
    return paths


def classify_pattern(net: MobilityNetwork,
                     pattern: EquilibriumPattern) -> PatternClassification:
    """EAT/DFAT labels, the in-between count M_i and a shortest EAT path
    per DFAT region.

    Multi-source breadth-first search from the EAT set; a path through
    d + 1 regions passes d - 1 in-between regions, and unreachable regions
    keep the sentinel M_i = r - 1.
    """
    r = net.r
    if len(pattern.choices) != r:
        raise ValueError("pattern length does not match region count")
    is_eat = tuple(c > 0 for c in pattern.choices)
    found = _search(net, [i for i in range(r) if is_eat[i]])
    paths = tuple(None if eat else path for eat, path in zip(is_eat, found))
    return PatternClassification(
        is_eat=is_eat,
        m_values=tuple(None if eat else r - 1 if path is None
                       else len(path) - 2
                       for eat, path in zip(is_eat, paths)),
        reachable_from_eat=tuple(None if eat else path is not None
                                 for eat, path in zip(is_eat, paths)),
        eat_paths=paths)
