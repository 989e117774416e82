"""Shared builders for the test suite.

Everything expensive (patch equilibria, reproduction numbers) is cached at
module level keyed by beta1, since most tests revolve around the same three
transmission regimes of the HIV patch.
"""
import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from patchepi import equilibria, model, network, persist

# HIV parameter set used throughout; beta1 is the regime knob
BASE = dict(Lam=1.0, mu=0.05, gam=0.05, delta=1.0, p=0.999, q=0.5,
            rho1=0.3, rho2=0.7, pi1=0.9, pi2=0.1, th1=0.5, th2=0.5,
            s1=1.0, s2=1.0, sig1=0.45, sig2=17.0, beta1=0.85, beta2=0.1)

# one representative beta1 per regime
REGIME_BETA1 = {"below_Rc": 0.5, "backward_window": 0.85, "above_one": 1.0}


# Generic patches of the benchmark catalog: (family, parameters, endemic
# roots, discarded seeds) as the one-seed-at-a-time damped Newton found them
# on the full 3^size seed grid. The search now seeds x and y only and
# discards 3^k times fewer.
GENERIC_CATALOG = [
    ("multigroup", {"beta": [[0.02, 0.01], [0.005, 0.03]], "Lam": [1.0, 0.8],
                    "mu": [0.05, 0.05], "gamma": [0.05, 0.05]}, 1, 405),
    ("multigroup", {"beta": [[0.03, 0.004], [0.01, 0.025]], "Lam": [1.0, 1.2],
                    "mu": [0.05, 0.06], "gamma": [0.04, 0.05]}, 1, 495),
    ("multigroup", {"beta": [[0.002, 0.001], [0.0005, 0.003]],
                    "Lam": [1.0, 0.8], "mu": [0.05, 0.05],
                    "gamma": [0.05, 0.05]}, 0, 729),
    ("multistrain", {"beta": [0.05, 0.07, 0.04], "gamma": [0.3, 0.4, 0.2],
                     "Lam": 1.0, "mu": 0.1}, 0, 243),
    ("multistrain", {"beta": [0.08, 0.03, 0.06], "gamma": [0.35, 0.25, 0.3],
                     "Lam": 1.0, "mu": 0.1}, 0, 243),
    ("multistrain", {"beta": [0.01, 0.015, 0.012], "gamma": [0.3, 0.4, 0.2],
                     "Lam": 1.0, "mu": 0.1}, 0, 243),
    ("stage_progression", {"beta": [0.04, 0.01, 0.02], "nu": [0.2, 0.1, 0.15],
                           "Lam": 1.0, "mu": 0.05}, 1, 129),
    ("stage_progression", {"beta": [0.03, 0.02, 0.01], "nu": [0.25, 0.2, 0.1],
                           "Lam": 1.0, "mu": 0.05}, 1, 126),
    ("stage_progression", {"beta": [0.004, 0.001, 0.002],
                           "nu": [0.2, 0.1, 0.15], "Lam": 1.0, "mu": 0.05},
     0, 243),
]


@lru_cache(maxsize=None)
def hiv_patch(beta1=0.85):
    return model.hiv_vaccination(model.HivParams(**{**BASE, "beta1": beta1}))


@lru_cache(maxsize=None)
def hiv_facts(beta1=0.85):
    return equilibria.patch_facts(hiv_patch(beta1))


def hiv_eqs(beta1=0.85):
    return hiv_facts(beta1).equilibria


@lru_cache(maxsize=None)
def hiv_R(beta1=0.85):
    return equilibria.local_reproduction_number(hiv_patch(beta1))


def hiv_system(beta1_triple):
    """(models, eqs, R) for three HIV patches with the given beta1 values."""
    models = [hiv_patch(b) for b in beta1_triple]
    eqs = [list(hiv_eqs(b)) for b in beta1_triple]
    R = [hiv_R(b) for b in beta1_triple]
    return models, eqs, R


def hiv_system_facts(beta1_triple):
    """persist.SystemFacts of three HIV patches with the given beta1 values."""
    return persist.SystemFacts([hiv_facts(b) for b in beta1_triple])


BACKWARD_TRIPLE = (0.85, 0.85, 0.85)
MIXED_TRIPLE = (0.85, 1.0, 1.0)


def region_state(Y1, W1, S=10.0, S_V=5.0):
    """One region's 7-vector with only Y1/W1 seeded (Y2 = W2 = A = 0)."""
    return [Y1, 0.0, W1, 0.0, S, S_V, 0.0]


# initial sets mirroring the shipped fixture configs
RL1_SETS = {
    "blue":  region_state(1, 1) + region_state(0.1, 0.5) + region_state(0.1, 1),
    "red":   region_state(0.1, 1) + region_state(1, 1) + region_state(0.1, 0.1),
    "black": region_state(0.1, 0.1) + region_state(1, 0) + region_state(1, 0),
    "green": region_state(0.1, 0.1) + region_state(1, 0) + region_state(0.4, 0.3),
}
RG1_SETS = {
    "blue":  region_state(0.1, 0.5) + region_state(0, 0) + region_state(0, 0),
    "red":   region_state(1, 1) + region_state(0, 0) + region_state(0.2, 0),
    "black": region_state(0.4, 0.3) + region_state(0, 0) + region_state(0, 0),
    "green": region_state(1, 0) + region_state(5, 5) + region_state(0, 0),
}


def hiv_net(name):
    return network.preset(name, n=4, m=2, k=1)


def kernel_cases():
    """(models, net) per model family and incidence mix the kernel serves."""
    hiv = list(hiv_system(MIXED_TRIPLE)[0])
    mg = model.multigroup([[0.02, 0.01], [0.005, 0.03]], 1.0, 0.05, 0.05)
    sp = model.stage_progression([0.04, 0.01], [0.2, 0.1], 1.0, 0.05)
    ms = model.multistrain([0.04, 0.03], 0.4, 1.0, 0.1)

    def std(mod):
        return dataclasses.replace(mod, incidence="standard")

    def mass(mod):
        return dataclasses.replace(mod, incidence="mass_action")

    small = network.preset("fig3c", n=2, m=1, k=1)
    return {
        "hiv_standard": (hiv, hiv_net("fig3b")),
        "hiv_mass_action": ([mass(m) for m in hiv], hiv_net("fig4b")),
        "multigroup": ([mg] * 3, network.preset("fig3b", n=2, m=2, k=2)),
        "multigroup_standard": ([std(mg)] * 3,
                                network.preset("fig3a", n=2, m=2, k=2)),
        "stage_progression_multistrain": ([sp, ms, sp], small),
        "multistrain_standard": ([std(ms)] * 3, small),
        "mixed_incidence": ([sp, std(sp), sp], small),
    }


@pytest.fixture(scope="session")
def backward_system():
    return hiv_system(BACKWARD_TRIPLE)


@pytest.fixture(scope="session")
def mixed_system():
    return hiv_system(MIXED_TRIPLE)


@lru_cache(maxsize=None)
def marginal_beta1(tol_digits=60):
    """beta1 at which the local R crosses 1, to solver precision."""
    lo, hi = 0.85, 1.0
    for _ in range(tol_digits):
        mid = 0.5 * (lo + hi)
        if hiv_R(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_admissible_state(mod, rng, scale=5.0):
    """Strictly positive random state, safe for standard incidence."""
    return np.abs(rng.normal(scale, 2.0, size=mod.size)) + 0.5


@pytest.fixture
def coupled_systems_built(monkeypatch):
    """A list that gains one entry per CoupledSystem construction."""
    from patchepi import continuation
    built = []
    init = continuation.CoupledSystem.__init__

    def counting(self, models, net):
        built.append(net.r)
        init(self, models, net)

    monkeypatch.setattr(continuation.CoupledSystem, "__init__", counting)
    return built
