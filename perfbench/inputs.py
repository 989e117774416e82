"""Seeded experiment configs for the benchmark workloads.

Every config is drawn from small parameter catalogs so that each answer has
a recorded reference (see reference.json). The seed picks catalog entries,
regime orders, digraphs and region labels, the order of alphas and initial
sets; the program only sees the JSON files written from these dicts.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

# Parameter set of the shipped HIV fixtures; beta1 selects the regime.
HIV_BASE = dict(Lam=1.0, mu=0.05, gam=0.05, delta=1.0, p=0.999, q=0.5,
                rho1=0.3, rho2=0.7, pi1=0.9, pi2=0.1, th1=0.5, th2=0.5,
                s1=1.0, s2=1.0, sig1=0.45, sig2=17.0, beta1=0.85, beta2=0.1)

# beta1 values per regime, clear of the fold (beta1 ~ 0.82) and of R = 1
# (beta1 ~ 0.8925). Endemic roots per regime: 0, 2 and 1.
HIV_BETA1 = {
    "below_Rc": (0.55, 0.66, 0.77),
    "backward_window": (0.835, 0.855, 0.875),
    "above_one": (0.95, 1.05, 1.15),
}
REGIMES = tuple(HIV_BETA1)
ENDEMIC_ROOTS = {"below_Rc": 0, "backward_window": 2, "above_one": 1}

# Directed edges of a three-region digraph; bit b of a mask selects
# EDGE_PAIRS[b], the order of network.enumerate_networks.
EDGE_PAIRS = ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))
N_DIGRAPHS = 1 << len(EDGE_PAIRS)

# Generic families: three patch parameter sets each, the last below its
# threshold. Patches of one config must share block sizes, so each family
# has one state size: 6, 5 and 5, i.e. the multi-start Newton runs 729 or
# 243 seeds per patch.
GENERIC = {
    "multigroup": (
        {"beta": [[0.02, 0.01], [0.005, 0.03]], "Lam": [1.0, 0.8],
         "mu": [0.05, 0.05], "gamma": [0.05, 0.05]},
        {"beta": [[0.03, 0.004], [0.01, 0.025]], "Lam": [1.0, 1.2],
         "mu": [0.05, 0.06], "gamma": [0.04, 0.05]},
        {"beta": [[0.002, 0.001], [0.0005, 0.003]], "Lam": [1.0, 0.8],
         "mu": [0.05, 0.05], "gamma": [0.05, 0.05]},
    ),
    "multistrain": (
        {"beta": [0.05, 0.07, 0.04], "gamma": [0.3, 0.4, 0.2],
         "Lam": 1.0, "mu": 0.1},
        {"beta": [0.08, 0.03, 0.06], "gamma": [0.35, 0.25, 0.3],
         "Lam": 1.0, "mu": 0.1},
        {"beta": [0.01, 0.015, 0.012], "gamma": [0.3, 0.4, 0.2],
         "Lam": 1.0, "mu": 0.1},
    ),
    "stage_progression": (
        {"beta": [0.04, 0.01, 0.02], "nu": [0.2, 0.1, 0.15],
         "Lam": 1.0, "mu": 0.05},
        {"beta": [0.03, 0.02, 0.01], "nu": [0.25, 0.2, 0.1],
         "Lam": 1.0, "mu": 0.05},
        {"beta": [0.004, 0.001, 0.002], "nu": [0.2, 0.1, 0.15],
         "Lam": 1.0, "mu": 0.05},
    ),
}

# alpha grids: the shipped one, and a fine log grid over small travel.
SHIPPED_GRID = (0.0, 1e-05, 0.001, 0.1)
FINE_GRID = (0.0,) + tuple(10.0 ** (-7 + k / 2) for k in range(9))

# Trajectory systems: the two shipped backward-window fixtures plus two
# more, each with four initial sets. One region state is
# (Y1, Y2, W1, W2, S, S_V, A).
T_END = 1500.0


def _region(Y1, W1, S=10.0, S_V=5.0):
    return [Y1, 0.0, W1, 0.0, S, S_V, 0.0]


TRAJ_SYSTEMS = {
    "hiv_backward": {
        "regimes": ("backward_window",) * 3, "beta1": (0.85, 0.85, 0.85),
        "network": {"preset": "fig3b"},
        "sets": {
            "blue": [_region(1, 1), _region(0.1, 0.5), _region(0.1, 1)],
            "red": [_region(0.1, 1), _region(1, 1), _region(0.1, 0.1)],
            "black": [_region(0.1, 0.1), _region(1, 0), _region(1, 0)],
            "green": [_region(0.1, 0.1), _region(1, 0), _region(0.4, 0.3)],
        }},
    "hiv_mixed": {
        "regimes": ("backward_window", "above_one", "above_one"),
        "beta1": (0.85, 1.0, 1.0),
        "network": {"preset": "fig4b"},
        "sets": {
            "blue": [_region(0.1, 0.5), _region(0, 0), _region(0, 0)],
            "red": [_region(1, 1), _region(0, 0), _region(0.2, 0)],
            "black": [_region(0.4, 0.3), _region(0, 0), _region(0, 0)],
            "green": [_region(1, 0), _region(5, 5), _region(0, 0)],
        }},
    "chain_bwa": {
        "regimes": ("below_Rc", "backward_window", "above_one"),
        "beta1": (0.66, 0.855, 1.05),
        "network": {"r": 3, "edges": [[1, 2], [2, 3]]},
        "sets": {
            "low": [_region(0.1, 0.1), _region(0.1, 0.1), _region(0.1, 0)],
            "high": [_region(2, 1), _region(2, 1), _region(1, 1)],
            "left": [_region(3, 2), _region(0, 0), _region(0, 0)],
            "right": [_region(0, 0), _region(0.5, 0.5), _region(3, 3)],
        }},
    "cycle_bba": {
        "regimes": ("backward_window", "backward_window", "above_one"),
        "beta1": (0.835, 0.875, 0.95),
        "network": {"r": 3, "edges": [[1, 2], [2, 3], [3, 1]]},
        "sets": {
            "low": [_region(0.1, 0.1), _region(0.1, 0.1), _region(0.1, 0)],
            "high": [_region(2, 1), _region(2, 1), _region(1, 1)],
            "left": [_region(3, 2), _region(0, 0), _region(0, 0)],
            "right": [_region(0, 0), _region(0.5, 0.5), _region(3, 3)],
        }},
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: subcommand, extra flags and its config.

    config is a dict to write as JSON, or the name of a shipped fixture.
    ops is the number of answers the job is asked for; meta carries the
    catalog keys the answer check looks up.
    """
    name: str
    command: str
    config: object
    ops: int
    args: tuple = ()
    meta: dict = field(default_factory=dict)

    def argv(self, config_path: str, out_dir: str) -> list:
        return [self.command, "--config", config_path, "--out", out_dir,
                *self.args]


def digraph_edges(mask: int) -> list:
    return [list(p) for b, p in enumerate(EDGE_PAIRS) if mask >> b & 1]


def hiv_patch(beta1: float) -> dict:
    return {"family": "hiv_vaccination",
            "params": {**HIV_BASE, "beta1": beta1}}


def _config(patches, network, **extra) -> dict:
    return {"schema_version": 1, "patches": patches, "network": network,
            **extra}


def pattern_count(regimes) -> int:
    return math.prod(ENDEMIC_ROOTS[r] + 1 for r in regimes)


def _hiv_system(rng: random.Random, regimes, mask=None, ids=None):
    if ids is None:
        ids = [rng.randrange(len(HIV_BETA1[r])) for r in regimes]
    if mask is None:
        mask = rng.randrange(N_DIGRAPHS)
    patches = [hiv_patch(HIV_BETA1[r][i]) for r, i in zip(regimes, ids)]
    network = {"r": 3, "edges": digraph_edges(mask)}
    meta = {"family": "hiv", "classes": list(regimes), "ids": ids,
            "beta1": [HIV_BETA1[r][i] for r, i in zip(regimes, ids)],
            "net": mask}
    return patches, network, meta


def census_jobs(seed: int) -> list:
    """analyze + census (+ exhaustive for HIV) on seeded 3-patch systems.

    Three HIV systems, each holding one patch per regime in a seeded order
    with seeded beta1 values, and one system per generic family holding its
    three catalog patches in a seeded order. Every system gets a seeded
    digraph out of all 64. The work per run is thus the same for every
    seed up to the digraphs and the beta1 draws.
    """
    rng = random.Random(f"census:{seed}")
    jobs = []
    for k in range(3):
        regimes = list(REGIMES)
        rng.shuffle(regimes)
        patches, network, meta = _hiv_system(rng, regimes)
        cfg = _config(patches, network)
        jobs += [Job(f"hiv{k}-analyze", "analyze", cfg, 1, meta=meta),
                 Job(f"hiv{k}-census", "census", cfg, 1, meta=meta),
                 Job(f"hiv{k}-exhaustive", "census", cfg, 1,
                     ("--exhaustive-networks",), meta)]
    for family, catalog in GENERIC.items():
        ids = list(range(len(catalog)))
        rng.shuffle(ids)
        mask = rng.randrange(N_DIGRAPHS)
        cfg = _config([{"family": family, "params": catalog[i]} for i in ids],
                      {"r": 3, "edges": digraph_edges(mask)})
        meta = {"family": family, "classes": ids, "ids": ids, "net": mask}
        jobs += [Job(f"{family}-analyze", "analyze", cfg, 1, meta=meta),
                 Job(f"{family}-census", "census", cfg, 1, meta=meta)]
    return jobs


# Regime mixes of the generated branch systems: every one holds a
# backward-window patch; pattern counts 27, 18, 12 and 6.
BRANCH_MIXES = (
    ("backward_window", "backward_window", "backward_window"),
    ("backward_window", "backward_window", "above_one"),
    ("backward_window", "above_one", "above_one"),
    ("backward_window", "below_Rc", "above_one"),
)
PERMUTATIONS = tuple(itertools.permutations(range(3)))


def relabel(mask: int, perm) -> int:
    """Digraph mask after moving region perm[j] to position j."""
    pos = {old: new for new, old in enumerate(perm)}
    out = 0
    for b, (f, t) in enumerate(EDGE_PAIRS):
        if mask >> b & 1:
            out |= 1 << EDGE_PAIRS.index((pos[f - 1] + 1, pos[t - 1] + 1))
    return out


# One digraph per isomorphism class of three-region digraphs (16 classes):
# relabeling the regions reaches every one of the 64 digraphs.
DIGRAPH_CLASSES = tuple(sorted({min(relabel(m, p) for p in PERMUTATIONS)
                                for m in range(N_DIGRAPHS)}))


def _branch_systems() -> tuple:
    """(digraph, regimes, beta1 ids) per digraph class, the same every run.

    Each mix serves four classes, rotated so that the backward-window
    patch sits at every region; each regime's beta1 values are dealt out
    equally often. The number of branches that stall depends on these
    choices, so they stay fixed and only the region labels vary by seed.
    """
    rng = random.Random("branch-systems")
    placements = []
    for k in range(len(DIGRAPH_CLASSES)):
        mix = BRANCH_MIXES[k % len(BRANCH_MIXES)]
        shift = (k // len(BRANCH_MIXES)) % 3
        placements.append(mix[shift:] + mix[:shift])
    pools = {}
    for regime in REGIMES:
        need = sum(p.count(regime) for p in placements)
        reps = -(-need // len(HIV_BETA1[regime]))
        pools[regime] = list(range(len(HIV_BETA1[regime]))) * reps
        rng.shuffle(pools[regime])
    return tuple((base, placed, [pools[r].pop() for r in placed])
                 for base, placed in zip(DIGRAPH_CLASSES, placements))


BRANCH_SYSTEMS = _branch_systems()


def _grid_arg(grid) -> tuple:
    return ("--alpha", ",".join(repr(a) for a in grid))


def branches_jobs(seed: int) -> list:
    """continue on seeded backward-window systems and the shipped fixtures.

    One system per digraph class (BRANCH_SYSTEMS). The seed relabels each
    system's regions, which moves its patches and edges together and so may
    give any of the 64 digraphs; every run thus holds the same continuation
    problems up to relabeling, whichever digraphs it shows.
    Each system runs once on the fine grid and once on the shipped grid.
    """
    rng = random.Random(f"branches:{seed}")
    systems = []
    for base, placed, ids in BRANCH_SYSTEMS:
        perm = rng.choice(PERMUTATIONS)
        regimes = [placed[old] for old in perm]
        patches, network, meta = _hiv_system(
            rng, regimes, relabel(base, perm), [ids[old] for old in perm])
        systems.append((f"class{base:02d}", _config(patches, network),
                        pattern_count(regimes), meta))
    systems.append(("hiv_backward", "hiv_backward.json",
                    pattern_count(TRAJ_SYSTEMS["hiv_backward"]["regimes"]),
                    {"family": "hiv"}))
    systems.append(("hiv_mixed", "hiv_mixed.json",
                    pattern_count(TRAJ_SYSTEMS["hiv_mixed"]["regimes"]),
                    {"family": "hiv"}))
    jobs = []
    for name, cfg, ops, meta in systems:
        for gname, grid in (("fine", FINE_GRID), ("shipped", SHIPPED_GRID)):
            jobs.append(Job(f"{name}-{gname}", "continue", cfg, ops,
                            _grid_arg(grid), meta))
    return jobs


def traj_config(system: str, label: str, alpha: float) -> dict:
    spec = TRAJ_SYSTEMS[system]
    return _config(
        [hiv_patch(b) for b in spec["beta1"]], spec["network"],
        alpha_grid=[alpha], t_end=T_END,
        initial_sets=[{"label": label, "regions": spec["sets"][label]}])


def trajectories_jobs(seed: int) -> list:
    """simulate each trajectory system once, at a seeded alpha.

    The alphas are a seeded order of the shipped grid, so every system and
    every grid alpha (0 included) occurs once per run; each job integrates
    one seeded initial set of its system.
    """
    rng = random.Random(f"trajectories:{seed}")
    alphas = list(SHIPPED_GRID)
    rng.shuffle(alphas)
    jobs = []
    for system, alpha in zip(sorted(TRAJ_SYSTEMS), alphas):
        label = rng.choice(sorted(TRAJ_SYSTEMS[system]["sets"]))
        jobs.append(Job(f"{system}-{label}-a{alpha:g}", "simulate",
                        traj_config(system, label, alpha), 1,
                        meta={"system": system}))
    return jobs


WORKLOADS = {"census": census_jobs, "branches": branches_jobs,
             "trajectories": trajectories_jobs}
