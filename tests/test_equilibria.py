import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (BASE, GENERIC_CATALOG, hiv_eqs, hiv_facts, hiv_patch,
                      hiv_R)
from patchepi import cli, equilibria, model
from patchepi.continuation import CoupledSystem
from patchepi.model import HivParams, PatchState
from reference import (endemic_equilibria_generic, full_grid_roots,
                       newton_seeds, patch_residual, patch_susceptible_level,
                       scalar_force_residual, scan_lambda_roots, steady_beta1)


def test_local_R_regression_values():
    assert hiv_R(0.85) == pytest.approx(0.9523610349, abs=1e-9)
    assert hiv_R(1.0) == pytest.approx(1.1200105803, abs=1e-9)
    assert hiv_R(0.5) == pytest.approx(0.5611787622, abs=1e-9)


def test_local_R_rank_one_closed_form():
    # for rank-one F = w t^T / N0 the spectral radius is t^T V^{-1} w / N0
    params = HivParams(**BASE)
    mod = hiv_patch(0.85)
    S_V0 = params.p * params.Lam / (params.mu + params.gam)
    S0 = ((1.0 - params.p) * params.Lam + params.gam * S_V0) / params.mu
    N0 = S0 + S_V0
    w = S0 * np.array([params.rho1, params.rho2, 0.0, 0.0]) \
        + params.q * S_V0 * np.array([0.0, 0.0, params.pi1, params.pi2])
    t = np.array([params.beta1, params.beta2,
                  params.s1 * params.beta1, params.s2 * params.beta2])
    closed = float(t @ np.linalg.solve(mod.V, w)) / N0
    assert hiv_R(0.85) == pytest.approx(closed, abs=1e-9)


def test_local_R_zero_without_transmission():
    mg = model.multigroup([[0.0]], 1.0, 0.05, 0.05)
    assert equilibria.local_reproduction_number(mg) == 0.0


def test_hiv_lambda_roots_per_regime():
    params = HivParams(**BASE)
    roots = equilibria.hiv_lambda_roots(params)
    assert len(roots) == 2
    assert sorted(roots)[0] == pytest.approx(0.0194590976, abs=1e-9)
    assert sorted(roots)[1] == pytest.approx(0.1491970301, abs=1e-9)
    assert len(equilibria.hiv_lambda_roots(HivParams(**{**BASE, "beta1": 1.0}))) == 1
    assert equilibria.hiv_lambda_roots(HivParams(**{**BASE, "beta1": 0.5})) == []
    no_trans = HivParams(**{**BASE, "beta1": 0.0, "beta2": 0.0})
    assert equilibria.hiv_lambda_roots(no_trans) == []
    # one root with R > 1, however large its force of infection
    for beta1, lam in ((60.0, 59.1753577970), (200.0, 198.675386887),
                       (1000.0, 995.817193766)):
        assert equilibria.hiv_lambda_roots(HivParams(**{
            **BASE, "beta1": beta1})) == pytest.approx([lam], rel=1e-10)


def test_hiv_roots_satisfy_independent_back_substitution():
    for beta1 in (0.85, 1.0, 200.0):
        params = HivParams(**{**BASE, "beta1": beta1})
        for lam in equilibria.hiv_lambda_roots(params):
            assert abs(scalar_force_residual(params, lam)) < 1e-10
            # reconstructed full state is a steady state of the patch ODE
            state = equilibria.hiv_state_from_lambda(params, lam)
            mod = hiv_patch(beta1)
            assert np.max(np.abs(patch_residual(mod, state))) < 1e-9
            assert np.all(state.concat() > 0)


def test_patch_equilibria_order_and_stability():
    eqs = hiv_eqs(0.85)
    assert [e.kind for e in eqs] == ["disease_free", "endemic", "endemic"]
    assert [e.index for e in eqs] == [0, 1, 2]
    assert [e.stability for e in eqs] == ["stable", "unstable", "stable"]
    assert all(e.jac_invertible for e in eqs)
    # endemic states sorted by force of infection: lower root first
    assert np.sum(eqs[1].state.x) < np.sum(eqs[2].state.x)

    eqs1 = hiv_eqs(1.0)
    assert [e.stability for e in eqs1] == ["unstable", "stable"]
    eqs0 = hiv_eqs(0.5)
    assert [e.stability for e in eqs0] == ["stable"]


def test_upper_endemic_state_regression():
    # frozen once from the scalar reduction; guards the back-substitution
    e2 = hiv_eqs(0.85)[2]
    assert np.allclose(e2.state.x, [0.129014620975, 0.00882797992984,
                                    1.39689878822, 0.00499216590981], rtol=1e-9)
    assert np.allclose(e2.state.y, [1.44121078129, 5.72169814711], rtol=1e-9)
    assert np.allclose(e2.state.z, [0.537969405551], rtol=1e-9)


def dfe_of(mod):
    return equilibria.patch_facts(mod).equilibria[0]


def test_dfe_values_and_stability():
    dfe = hiv_eqs(0.85)[0]
    assert np.allclose(dfe.state.y, [10.01, 9.99], atol=1e-12)
    assert np.all(dfe.state.x == 0) and np.all(dfe.state.z == 0)
    assert dfe.stability == "stable"
    assert hiv_eqs(1.0)[0].stability == "unstable"


def test_patch_dfe_is_the_direct_susceptible_solve():
    # the one-region system's disease_free(0.0) against the direct solve of
    # g_const + g_lin y = 0, bit for bit, on every fixture and catalog
    # patch and a seeded sample of multigroup and HIV patches
    rng = np.random.default_rng(28)
    models = [mod for name in ("hiv_above_one", "hiv_backward",
                               "hiv_below_rc", "hiv_mixed",
                               "zero_transmission")
              for mod in cli.build_models(cli.load_config(
                  cli.fixture_path(name + ".json")))]
    models += [getattr(model, f)(**p) for f, p, _, _ in GENERIC_CATALOG]
    for _ in range(40):
        n = int(rng.integers(1, 5))
        models.append(model.multigroup(
            rng.uniform(0.0, 0.1, (n, n)), rng.uniform(0.1, 10.0, n),
            rng.uniform(0.01, 0.2, n), rng.uniform(0.01, 0.2, n)))
        models.append(model.hiv_vaccination(HivParams(**dict(
            BASE, Lam=rng.uniform(0.1, 10.0), mu=rng.uniform(0.01, 0.2),
            gam=rng.uniform(0.01, 0.2), p=rng.uniform(0.1, 1.0),
            q=rng.uniform(0.1, 0.9)))))
    for mod in models:
        dfe = equilibria._threshold(mod)[1]
        assert np.array_equal(dfe.y, patch_susceptible_level(mod))
        zeros = np.append(dfe.x, dfe.z)
        assert np.all(zeros == 0.0) and not np.signbit(zeros).any()


def test_degenerate_susceptible_levels():
    base = dict(family="custom", n=1, m=1, k=1, V=[[1.0]], D=[[1.0]],
                Z=[[1.0]], eta=[[[1.0]]], beta=[[0.1]],
                incidence="mass_action")
    flat = model.PatchModel(**base, g_const=[1.0], g_lin=[[0.0]])
    with pytest.raises(equilibria.DegenerateModelError, match="not unique"):
        dfe_of(flat)
    negative = model.PatchModel(**base, g_const=[1.0], g_lin=[[0.1]])
    with pytest.raises(equilibria.DegenerateModelError, match="not positive"):
        dfe_of(negative)
    # a susceptible level or a V - F past the largest float
    huge = model.PatchModel(**base, g_const=[1e308], g_lin=[[-1e-3]])
    base["beta"] = [[1e308]]
    dense = model.PatchModel(**base, g_const=[1.0], g_lin=[[-0.05]])
    with pytest.raises(equilibria.DegenerateModelError,
                       match="susceptible level not finite"):
        dfe_of(huge)
    with pytest.raises(equilibria.DegenerateModelError,
                       match="V - F at the disease-free state not finite"):
        dfe_of(dense)


def test_estimate_Rc_backward_window():
    params = HivParams(**BASE)
    rc = equilibria.estimate_Rc(params)
    assert rc == pytest.approx(0.9199111145817892, rel=1e-6)
    assert rc < hiv_R(0.85) < 1.0
    with pytest.raises(equilibria.NoFoldError):
        # nearly no one vaccinated: no backward bifurcation
        equilibria.estimate_Rc(HivParams(**{**BASE, "p": 0.001}))


def test_estimate_Rc_does_not_depend_on_the_configured_beta1():
    folds = {equilibria.estimate_Rc(HivParams(**{**BASE, "beta1": beta1}))
             for beta1 in (0.835, 0.85, 0.855, 0.875)}
    assert len(folds) == 1
    assert folds.pop() == pytest.approx(0.919910877514, abs=1e-12)


def backward_sample(count, seed=19):
    """Seeded HIV parameter sets around BASE that have a fold."""
    rng = np.random.default_rng(seed)
    sample = []
    while len(sample) < count:
        draw = {name: value * rng.uniform(0.8, 1.25)
                for name, value in BASE.items()}
        rho1, pi1 = rng.uniform(0.2, 0.4), rng.uniform(0.8, 0.95)
        draw.update(p=rng.uniform(0.9, 0.999), rho1=rho1, rho2=1.0 - rho1,
                    pi1=pi1, pi2=1.0 - pi1)
        params = HivParams(**draw)
        try:
            equilibria._fold_beta1(params)
        except equilibria.NoFoldError:
            continue
        sample.append(params)
    return sample


def test_fold_is_where_the_root_count_switches():
    # just below the fold beta1 the quadratic has no positive root, just
    # above it two; no lam of a dense grid is a steady state at a smaller
    # beta1, and the least beta1 on the grid is within 1e-9 of the fold
    import dataclasses
    grid = np.geomspace(1e-8, 50.0, 100_000)
    assert equilibria._fold_beta1(HivParams(**BASE)) \
        == pytest.approx(0.820966079318, abs=1e-12)
    for params in [HivParams(**BASE)] + backward_sample(24):
        fold = equilibria._fold_beta1(params)
        counts = [len(equilibria.hiv_lambda_roots(
            dataclasses.replace(params, beta1=fold * factor)))
            for factor in (1.0 - 1e-9, 1.0 + 1e-9)]
        assert counts == [0, 2], params
        least = float(np.min(steady_beta1(params, grid)))
        assert fold * (1.0 - 1e-14) <= least <= fold * (1.0 + 1e-9), params
        assert equilibria.estimate_Rc(params) == pytest.approx(
            equilibria.local_reproduction_number(model.hiv_vaccination(
                dataclasses.replace(params, beta1=fold))), rel=1e-12)


def test_closed_form_R_is_the_spectral_radius():
    import dataclasses
    for params in [HivParams(**BASE)] + backward_sample(8):
        for beta1 in (0.0, 0.3, 0.85, 1.0, 45.0, 200.0, 1000.0):
            at = dataclasses.replace(params, beta1=beta1)
            assert equilibria.hiv_reproduction_number(at) == pytest.approx(
                equilibria.local_reproduction_number(
                    model.hiv_vaccination(at)), rel=1e-12, abs=0.0)


def test_hiv_roots_match_the_dense_scan():
    # the scan is exact wherever its grid separates the roots: away from
    # the fold and below lam = 50
    fold = equilibria._fold_beta1(HivParams(**BASE))
    betas = np.concatenate([np.geomspace(0.3, 45.0, 150),
                            fold * np.array([1 - 1e-4, 1 - 1e-5, 1 + 1e-5,
                                             1 + 1e-4])])
    counts = set()
    for beta1 in betas[np.abs(betas / fold - 1.0) >= 1e-5]:
        params = HivParams(**{**BASE, "beta1": beta1})
        roots, scanned = equilibria.hiv_lambda_roots(params), \
            scan_lambda_roots(params)
        assert len(roots) == len(scanned), beta1
        assert roots == pytest.approx(scanned, rel=1e-9, abs=0.0), beta1
        counts.add(len(roots))
    assert counts == {0, 1, 2}


def test_a_double_root_is_the_backward_window():
    # a zero discriminant is one root; an HIV patch with one root below
    # R = 1 sits on the fold and reports the backward window and its R_c
    import dataclasses
    assert equilibria._quadratic_roots(1.0, -2.0, 1.0) == (1.0,)
    assert equilibria._quadratic_roots(1.0, 2.0, 1.0) == (-1.0,)
    assert equilibria._quadratic_roots(1.0, 0.0, 1.0) == ()
    facts = hiv_facts(0.85)
    at_fold = dataclasses.replace(facts, equilibria=facts.equilibria[:2])
    rep = equilibria.bifurcation_report(at_fold)
    assert rep.regime == "backward_window" and rep.R_local < 1.0
    assert len(rep.endemic_lambdas) == 1
    assert rep.R_c_estimate == equilibria.estimate_Rc(HivParams(**BASE))


def test_no_endemic_root_at_the_dfe_within_rounding_of_R_one():
    # a few ulps of beta1 around R = 1, where the quadratic's a0 rounds to
    # either sign: a forward patch has no endemic state there and a
    # backward one only its upper root, and every report is made
    import dataclasses
    for params, upper in ((HivParams(**{**BASE, "p": 0.001}), []),
                          (HivParams(**BASE), [0.211127545129])):
        lo, hi = 0.0, 10.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = equilibria.local_reproduction_number(
                model.hiv_vaccination(dataclasses.replace(params, beta1=mid)))
            lo, hi = (mid, hi) if below < 1.0 else (lo, mid)
        for k in range(-3, 4):
            at = dataclasses.replace(params, beta1=lo + k * np.spacing(lo))
            assert equilibria.hiv_lambda_roots(at) == pytest.approx(
                upper, rel=1e-9)
            rep = equilibria.bifurcation_report(
                equilibria.patch_facts(model.hiv_vaccination(at)))
            expected = ("below_Rc" if not upper else "backward_window"
                        if rep.R_local < 1.0 else "above_one")
            assert rep.regime == expected, (k, rep)


def test_bifurcation_report_regimes():
    rep = equilibria.bifurcation_report(hiv_facts(0.85))
    assert rep.regime == "backward_window"
    assert len(rep.endemic_lambdas) == 2 and rep.R_local < 1.0
    assert rep.R_c_estimate is not None and rep.R_c_estimate < rep.R_local
    rep1 = equilibria.bifurcation_report(hiv_facts(1.0))
    assert rep1.regime == "above_one" and len(rep1.endemic_lambdas) == 1
    assert rep1.R_c_estimate is None
    rep0 = equilibria.bifurcation_report(hiv_facts(0.5))
    assert rep0.regime == "below_Rc" and rep0.endemic_lambdas == ()

    # generic families report through root counting, no fold estimate
    mg = model.multigroup([[0.06]], 1.0, 0.05, 0.05)
    repg = equilibria.bifurcation_report(equilibria.patch_facts(mg))
    assert repg.regime == "above_one" and repg.R_local == pytest.approx(12.0, rel=1e-9)


def test_generic_single_group_closed_form():
    # S* = (gam+mu)/beta; I* = Lam/(gam+mu) - mu/beta; R_rem* = gam I*/mu
    beta, Lam, mu, gam = 0.06, 1.0, 0.05, 0.05
    mg = model.multigroup([[beta]], Lam, mu, gam)
    roots, discarded = endemic_equilibria_generic(mg)
    assert len(roots) == 1 and discarded * 3 ** mg.k == 12
    S = (gam + mu) / beta
    I = Lam / (gam + mu) - mu / beta
    assert roots[0].state.y[0] == pytest.approx(S, rel=1e-9)
    assert roots[0].state.x[0] == pytest.approx(I, rel=1e-9)
    assert roots[0].state.z[0] == pytest.approx(gam * I / mu, rel=1e-9)
    assert roots[0].stability == "stable"


def test_generic_below_threshold_empty():
    mg = model.multigroup([[0.004]], 1.0, 0.05, 0.05)  # R = 0.8
    roots, _ = endemic_equilibria_generic(mg)
    assert roots == []


def test_generic_discards_boundary_roots():
    # competitive exclusion: the strain-1-only state has a zero component
    # and is a boundary state, not an endemic one
    mu, gam, Lam = 0.1, 0.4, 1.0
    b = np.array([1.2, 0.8]) * (gam + mu) / (Lam / mu)
    ms = model.multistrain(b, gam, Lam, mu)
    roots, discarded = endemic_equilibria_generic(ms)
    assert roots == [] and discarded * 3 ** ms.k == 81


@pytest.mark.parametrize("family", ["hiv_vaccination", "multigroup"])
def test_one_coupled_system_per_patch_equilibria(family,
                                                 coupled_systems_built):
    # the search (generic families) and the classification of every state
    # share the patch's one-region system
    if family == "hiv_vaccination":
        mod = hiv_patch(0.85)
    else:
        mod = model.multigroup([[0.02, 0.01], [0.005, 0.03]], [1.0, 0.8],
                               0.05, 0.05)
    eqs = equilibria.patch_equilibria(mod)
    assert len(eqs) == (3 if family == "hiv_vaccination" else 2)
    assert coupled_systems_built == [1]


@pytest.mark.parametrize("family, params, nroots, discarded", GENERIC_CATALOG)
def test_generic_search_roots_and_discards(family, params, nroots, discarded):
    mod = getattr(model, family)(**params)
    roots, got = endemic_equilibria_generic(mod)
    assert (len(roots), got * 3 ** mod.k) == (nroots, discarded)
    for eq in roots:
        assert np.max(np.abs(patch_residual(mod, eq.state))) <= 1e-9
        assert np.all(eq.state.concat() > 0)


def test_generic_search_in_small_batches(monkeypatch):
    # batches split the seed grid without changing its order or any outcome
    mod = hiv_patch(0.85)
    want, want_discarded = endemic_equilibria_generic(mod)
    monkeypatch.setattr(equilibria, "SEED_BATCH", 100)
    got, got_discarded = endemic_equilibria_generic(mod)
    assert got_discarded == want_discarded
    assert want_discarded * 3 ** mod.k == 15
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert np.allclose(g.state.concat(), w.state.concat(),
                           rtol=1e-12, atol=0.0)


# the catalog patches and the one-group multigroup patch below threshold
SEARCH_PATCHES = ([(f, p) for f, p, _, _ in GENERIC_CATALOG]
                  + [("multigroup", {"beta": [[0.004]], "Lam": 1.0,
                                     "mu": 0.05, "gamma": 0.05})])


def _seed_search(monkeypatch, mod, newton):
    """(roots, discarded, residual calls, Jacobian calls) of the generic
    search on mod with newton in place of equilibria._newton_seeds; the
    calls are those newton makes."""
    calls = {"residual": 0, "jacobian": 0}
    counted = {}
    for name in calls:
        real = getattr(CoupledSystem, name)

        def counting(self, alpha, X, real=real, name=name):
            calls[name] += 1
            return real(self, alpha, X)

        counted[name] = counting
    inside = {name: 0 for name in calls}

    def measured(system, U0):
        before = dict(calls)
        out = newton(system, U0)
        for name in calls:
            inside[name] += calls[name] - before[name]
        return out

    with monkeypatch.context() as m:
        for name, fn in counted.items():
            m.setattr(CoupledSystem, name, fn)
        m.setattr(equilibria, "_newton_seeds", measured)
        roots, discarded = endemic_equilibria_generic(mod)
    return roots, discarded, inside["residual"], inside["jacobian"]


@pytest.mark.parametrize("family, params", SEARCH_PATCHES)
def test_seed_line_search_matches_halving_oracle(monkeypatch, family, params):
    # trying every halving at once keeps each row's first acceptable step;
    # only the last bits of a one-row residual stack may differ
    mod = getattr(model, family)(**params)
    want, want_discarded, _, _ = _seed_search(monkeypatch, mod, newton_seeds)
    got, got_discarded, _, _ = _seed_search(monkeypatch, mod,
                                            equilibria._newton_seeds)
    assert got_discarded == want_discarded
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.allclose(g.state.concat(), w.state.concat(),
                           rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("family, params", SEARCH_PATCHES)
def test_seed_line_search_calls_residual_twice_per_iteration(monkeypatch,
                                                             family, params):
    # the start, then at most a full-step call and a halvings call per
    # Newton iteration; a polish step takes one Jacobian and one residual
    mod = getattr(model, family)(**params)
    _, _, residuals, jacobians = _seed_search(monkeypatch, mod,
                                              equilibria._newton_seeds)
    assert residuals <= 1 + 2 * jacobians
    if (family, params) == SEARCH_PATCHES[2]:
        # below threshold its 81 seeds backtrack their way to the DFE
        _, _, residuals, jacobians = _seed_search(monkeypatch, mod,
                                                  newton_seeds)
        assert residuals > 1 + 2 * jacobians + 4


def test_stacked_stability_matches_single_matrices():
    margin = equilibria.STABILITY_MARGIN
    J = np.stack([np.diag([-1.0, -2.0]), np.diag([-1.0, 0.5]),
                  np.diag([-1.0, 0.1 * margin]),
                  np.array([[-0.1, 3.0], [-3.0, -0.1]])])
    labels, tops = equilibria.stability_of(J)
    assert labels == ["stable", "unstable", "marginal", "stable"]
    for Ji, label, top in zip(J, labels, tops):
        assert equilibria.stability_of(Ji) == (label, top)
    nested, _ = equilibria.stability_of(J.reshape(2, 2, 2, 2))
    assert nested == [labels[:2], labels[2:]]


def test_singular_jacobian_fails_its_own_seed_only():
    class Stack:
        def jacobian(self, alpha, U):
            return np.stack([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)])

    R = np.array([[1.0, 2.0], [1.0, 1.0], [4.0, 6.0]])
    dU, solved = equilibria._newton_steps(Stack(), np.zeros((3, 2)), R)
    assert solved.tolist() == [True, False, True]
    assert np.array_equal(dU[[0, 2]], [[-1.0, -2.0], [-2.0, -3.0]])


def test_generic_path_reproduces_hiv_scalar_roots():
    mod = hiv_patch(0.85)
    roots, discarded = endemic_equilibria_generic(mod)
    scalar = hiv_eqs(0.85)[1:]
    assert len(roots) == len(scalar) == 2 and discarded * 3 ** mod.k == 15
    for got, want in zip(roots, scalar):
        dist = np.max(np.abs(got.state.concat() - want.state.concat()))
        assert dist < 1e-7


def random_generic_patches(seed=2026):
    """Four seeded random patches of each generic family, 2-3 infected."""
    rng = np.random.default_rng(seed)
    patches = []
    for _ in range(4):
        patches.append(model.multigroup(
            rng.uniform(0.0, 0.04, (2, 2)), rng.uniform(0.5, 1.5, 2),
            rng.uniform(0.03, 0.08, 2), rng.uniform(0.03, 0.08, 2)))
        n = int(rng.integers(2, 4))
        patches.append(model.multistrain(
            rng.uniform(0.01, 0.1, n), rng.uniform(0.2, 0.4, n), 1.0, 0.1))
        patches.append(model.stage_progression(
            rng.uniform(0.0, 0.05, n), rng.uniform(0.1, 0.3, n), 1.0, 0.05))
    return patches


def test_generic_roots_match_full_grid():
    # seeding z adds no root: the full 3^size grid finds the same roots,
    # bit for bit, and discards 3^k times as many seeds
    mu, gam = 0.1, 0.4
    boundary = model.multistrain(np.array([1.2, 0.8]) * (gam + mu) / (1 / mu),
                                 gam, 1.0, mu)   # as in the boundary test
    cases = ([getattr(model, f)(**p) for f, p, _, _ in GENERIC_CATALOG]
             + [model.multigroup([[0.06]], 1.0, 0.05, 0.05), boundary]
             + random_generic_patches())
    found = 0
    for mod in cases:
        got, discarded = endemic_equilibria_generic(mod)
        want, want_discarded = full_grid_roots(mod)
        assert want_discarded == discarded * 3 ** mod.k
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g.state.concat(), w.concat())
        found += len(got)
    assert found >= 10


@pytest.mark.parametrize("beta1", [0.835, 0.85, 0.875, 1.0, 1.15])
def test_generic_hiv_roots_match_full_grid(beta1):
    mod = hiv_patch(beta1)
    got, discarded = endemic_equilibria_generic(mod)
    want, want_discarded = full_grid_roots(mod)
    assert want_discarded == discarded * 3 ** mod.k
    assert len(got) == len(want) == len(hiv_eqs(beta1)) - 1
    for g, w in zip(got, want):
        assert np.allclose(g.state.concat(), w.concat(), rtol=1e-12, atol=0)


def test_generic_search_seeds_infected_and_susceptible_only(monkeypatch):
    rows = []
    newton_seeds = equilibria._newton_seeds

    def recording(system, U0):
        rows.append(U0)
        return newton_seeds(system, U0)

    monkeypatch.setattr(equilibria, "_newton_seeds", recording)
    for mod in (hiv_patch(0.85), model.multistrain([0.05, 0.07, 0.04],
                                                   [0.3, 0.4, 0.2], 1.0, 0.1)):
        rows.clear()
        endemic_equilibria_generic(mod)
        U0 = np.vstack(rows)
        assert len(U0) == 3 ** (mod.n + mod.m)
        # every seed starts with its removed classes slaved: Z x = D z
        x, z = U0[:, :mod.n], U0[:, mod.n + mod.m:]
        assert np.allclose(x @ mod.Z.T, z @ mod.D.T, rtol=1e-15, atol=0)
        assert len(np.unique(U0[:, :mod.n + mod.m], axis=0)) == len(U0)


def test_transcritical_point_has_no_endemic_root():
    # at R = 1 the endemic branch meets the DFE, and Newton crawls toward it
    # through states with x of order 1e-6 whose residual is already below
    # ROOT_RESIDUAL_TOL; a hair above R = 1 the single endemic root stays
    at_one = model.multistrain([0.05], [0.4], 1.0, 0.1)
    assert equilibria.local_reproduction_number(at_one) == 1.0
    assert endemic_equilibria_generic(at_one)[0] == []
    patch = equilibria.patch_facts(at_one)
    assert equilibria.bifurcation_report(patch).regime == "below_Rc"

    beta, gam, Lam, mu = 0.05 * 1.002, 0.4, 1.0, 0.1
    above = model.multistrain([beta], [gam], Lam, mu)
    assert equilibria.local_reproduction_number(above) > 1.0
    roots, _ = endemic_equilibria_generic(above)
    assert len(roots) == 1
    assert roots[0].state.x[0] == pytest.approx(Lam / (gam + mu) - mu / beta,
                                                rel=1e-9)


def test_enumerate_patterns_known_counts():
    pats = equilibria.enumerate_patterns([2, 2, 2])
    assert len(pats) == 27
    assert pats[0].is_dfe and pats[0].choices == (0, 0, 0)
    assert sum(1 for p in pats if p.is_all_endemic) == 8
    assert len({p.choices for p in pats}) == 27


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=5))
def test_enumerate_patterns_matches_brute_force(counts):
    got = sorted(p.choices for p in equilibria.enumerate_patterns(counts))
    want = sorted(itertools.product(*(range(c + 1) for c in counts)))
    assert got == [tuple(w) for w in want]
