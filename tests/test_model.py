import numpy as np
import pytest

from conftest import BASE, hiv_patch, random_admissible_state
from patchepi import model
from reference import (new_infection_operator, patch_jacobian, patch_residual,
                       transmission_matrix)
from patchepi.model import PatchState, split_state


def fd_jacobian(mod, s, h=1e-6):
    u0 = s.concat()
    J = np.zeros((mod.size, mod.size))
    for c in range(mod.size):
        step = h * (1.0 + abs(u0[c]))
        up, um = u0.copy(), u0.copy()
        up[c] += step
        um[c] -= step
        J[:, c] = (patch_residual(mod, split_state(mod, up)) -
                   patch_residual(mod, split_state(mod, um))) / (2 * step)
    return J


def all_families():
    return [
        ("hiv", hiv_patch(0.85)),
        ("multigroup", model.multigroup([[0.02, 0.01], [0.005, 0.03]],
                                        [1.0, 0.8], 0.05, [0.05, 0.1])),
        ("stage", model.stage_progression([0.04, 0.01], [0.2, 0.1], 1.0, 0.05)),
        ("multistrain", model.multistrain([0.05, 0.07], [0.3, 0.4], 1.0, 0.1)),
    ]


def test_split_state_round_trip():
    mod = hiv_patch(0.85)
    u = np.arange(1.0, 8.0)
    s = split_state(mod, u)
    assert s.x.shape == (4,) and s.y.shape == (2,) and s.z.shape == (1,)
    assert np.array_equal(s.concat(), u)


def test_hiv_block_sizes_and_params_round_trip():
    mod = hiv_patch(0.85)
    assert (mod.n, mod.m, mod.k) == (4, 2, 1)
    assert mod.incidence == "standard"
    assert mod.params["beta1"] == 0.85
    # params carry enough to rebuild the identical model
    again = model.hiv_vaccination(model.HivParams(**mod.params))
    assert np.array_equal(again.V, mod.V)
    assert np.array_equal(again.beta, mod.beta)


def test_hiv_dfe_closed_form_residual():
    # S_V0 = p Lam / (mu + gam); S0 = ((1-p) Lam + gam S_V0) / mu
    p, Lam, mu, gam = BASE["p"], BASE["Lam"], BASE["mu"], BASE["gam"]
    S_V0 = p * Lam / (mu + gam)
    S0 = ((1.0 - p) * Lam + gam * S_V0) / mu
    assert S_V0 == pytest.approx(9.99)
    assert S0 == pytest.approx(10.01)
    mod = hiv_patch(0.85)
    s = PatchState(np.zeros(4), np.array([S0, S_V0]), np.zeros(1))
    assert np.max(np.abs(patch_residual(mod, s))) < 1e-12


def test_hiv_new_infection_operator_rank_one_positive():
    mod = hiv_patch(0.85)
    rng = np.random.default_rng(2)
    s = split_state(mod, random_admissible_state(mod, rng))
    F = new_infection_operator(mod, s)
    assert np.all(F > 0)
    assert np.linalg.matrix_rank(F, tol=1e-12) == 1
    # columns proportional to (beta1, beta2, s1 beta1, s2 beta2)
    t = np.array([BASE["beta1"], BASE["beta2"],
                  BASE["s1"] * BASE["beta1"], BASE["s2"] * BASE["beta2"]])
    ratio = F / t[None, :]
    assert np.max(np.abs(ratio - ratio[:, [0]])) < 1e-12


def test_transmission_matrix_scaling():
    mod = hiv_patch(0.85)
    s = PatchState(np.ones(4), np.array([3.0, 2.0]), np.zeros(1))
    B = transmission_matrix(mod, s)
    # standard incidence: divide by N = sum(y) + sum(x) = 9
    assert np.allclose(B * 9.0, mod.beta)
    zero = PatchState(np.zeros(4), np.zeros(2), np.zeros(1))
    with pytest.raises(model.InadmissibleStateError):
        transmission_matrix(mod, zero)
    # mass action ignores the population
    mg = model.multigroup([[0.02]], 1.0, 0.05, 0.05)
    s1 = PatchState(np.array([5.0]), np.array([7.0]), np.array([1.0]))
    assert np.array_equal(transmission_matrix(mg, s1), mg.beta)


@pytest.mark.parametrize("name,mod", all_families())
def test_patch_jacobian_matches_finite_differences(name, mod):
    rng = np.random.default_rng(17)
    for _ in range(3):
        s = split_state(mod, random_admissible_state(mod, rng))
        J = patch_jacobian(mod, s)
        Jfd = fd_jacobian(mod, s)
        scale = 1.0 + np.max(np.abs(J))
        assert np.max(np.abs(J - Jfd)) / scale < 1e-5, name


def test_stage_progression_structure():
    sp = model.stage_progression([0.04, 0.01], [0.2, 0.1], 1.0, 0.05)
    assert (sp.n, sp.m, sp.k) == (2, 1, 1)
    # progression chain sits on the subdiagonal of V
    assert sp.V[1, 0] == pytest.approx(-0.2)
    assert sp.V[0, 0] == pytest.approx(0.25) and sp.V[1, 1] == pytest.approx(0.15)
    # all new infections enter stage 1
    F = new_infection_operator(
        sp, PatchState(np.zeros(2), np.array([4.0]), np.zeros(1)))
    assert np.all(F[1, :] == 0.0) and np.all(F[0, :] > 0)
    # only the last stage feeds the removed class
    assert sp.Z[0, 0] == 0.0 and sp.Z[0, 1] == pytest.approx(0.1)


def test_multigroup_structure():
    mg = model.multigroup([[0.02, 0.01], [0.005, 0.03]], [1.0, 0.8],
                          0.05, [0.05, 0.1])
    assert (mg.n, mg.m, mg.k) == (2, 2, 2)
    # group p susceptibles are infected into class p regardless of source
    F = new_infection_operator(
        mg, PatchState(np.zeros(2), np.array([3.0, 5.0]), np.zeros(2)))
    assert np.allclose(F, np.array([3.0, 5.0])[:, None] * mg.beta)


def test_constructor_validation():
    ok = dict(family="custom", n=1, m=1, k=1, V=[[1.0]], D=[[1.0]],
              Z=[[1.0]], eta=[[[1.0]]], beta=[[0.1]],
              incidence="mass_action", g_const=[1.0], g_lin=[[-0.1]])
    model.PatchModel(**ok)  # baseline passes
    with pytest.raises(ValueError, match="Z sign pattern"):
        model.PatchModel(**{**ok, "n": 2, "V": [[1.0, 0.5], [0.0, 1.0]],
                            "Z": [[1.0, 0.0]], "eta": [[[1, 0], [1, 0]]],
                            "beta": [[0.1, 0.1]]})
    with pytest.raises(ValueError, match="M-matrix"):
        model.PatchModel(**{**ok, "V": [[-1.0]]})
    with pytest.raises(ValueError, match="sum to 1"):
        model.PatchModel(**{**ok, "eta": [[[0.7]]]})
    with pytest.raises(ValueError, match="beta"):
        model.PatchModel(**{**ok, "beta": [[-0.1]]})
    with pytest.raises(ValueError, match="diagonal"):
        model.PatchModel(**{**ok, "k": 2, "D": [[1.0, 0.2], [0.0, 1.0]],
                            "Z": [[1.0], [0.0]]})
    with pytest.raises(ValueError, match="incidence"):
        model.PatchModel(**{**ok, "incidence": "frequency"})
    with pytest.raises(ValueError, match="family"):
        model.PatchModel(**{**ok, "family": "made_up"})


def test_v_column_sums_nonnegative_enforced():
    # a valid M-matrix that still creates mass (negative column sum)
    with pytest.raises(ValueError, match="column sums"):
        model.PatchModel(family="custom", n=2, m=1, k=1,
                         V=[[0.2, -0.5], [0.0, 0.3]], D=[[1.0]],
                         Z=[[1.0, 0.0]], eta=[[[1, 0], [1, 0]]],
                         beta=[[0.1, 0.1]], incidence="mass_action",
                         g_const=[1.0], g_lin=[[-0.1]])
