"""Shared builders for the test suite.

Everything expensive (patch equilibria, reproduction numbers) is cached at
module level keyed by beta1, since most tests revolve around the same three
transmission regimes of the HIV patch.
"""
from functools import lru_cache

import numpy as np
import pytest

from patchepi import equilibria, model, network

# HIV parameter set used throughout; beta1 is the regime knob
BASE = dict(Lam=1.0, mu=0.05, gam=0.05, delta=1.0, p=0.999, q=0.5,
            rho1=0.3, rho2=0.7, pi1=0.9, pi2=0.1, th1=0.5, th2=0.5,
            s1=1.0, s2=1.0, sig1=0.45, sig2=17.0, beta1=0.85, beta2=0.1)

# one representative beta1 per regime
REGIME_BETA1 = {"below_Rc": 0.5, "backward_window": 0.85, "above_one": 1.0}


@lru_cache(maxsize=None)
def hiv_patch(beta1=0.85):
    return model.hiv_vaccination(model.HivParams(**{**BASE, "beta1": beta1}))


@lru_cache(maxsize=None)
def hiv_eqs(beta1=0.85):
    return tuple(equilibria.patch_equilibria(hiv_patch(beta1)))


@lru_cache(maxsize=None)
def hiv_R(beta1=0.85):
    return equilibria.local_reproduction_number(hiv_patch(beta1))


def hiv_system(beta1_triple):
    """(models, eqs, R) for three HIV patches with the given beta1 values."""
    models = [hiv_patch(b) for b in beta1_triple]
    eqs = [list(hiv_eqs(b)) for b in beta1_triple]
    R = [hiv_R(b) for b in beta1_triple]
    return models, eqs, R


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
