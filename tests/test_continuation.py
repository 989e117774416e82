import numpy as np
import pytest

from conftest import (BACKWARD_TRIPLE, MIXED_TRIPLE, hiv_net, hiv_system,
                      marginal_beta1)
from patchepi import continuation, equilibria, network, persist
from patchepi.equilibria import EquilibriumPattern

# frozen cross-check values for the mixed regime on fig3b, pattern (0,1,0)
EXIT_MIN_AT_1E6 = -3.0888950017712716e-09
RICHARDSON_ORDER1 = 1.043e-06
CENTRAL_ORDER2 = 1.670e-03


@pytest.fixture(scope="module")
def mixed():
    models, eqs, R = hiv_system(MIXED_TRIPLE)
    return models, eqs, R, hiv_net("fig3b")


@pytest.fixture(scope="module")
def backward():
    models, eqs, R = hiv_system(BACKWARD_TRIPLE)
    return models, eqs, R, hiv_net("fig3b")


def test_product_states_are_equilibria_at_alpha_zero(mixed):
    models, eqs, R, net = mixed
    worst = 0.0
    for pat in equilibria.enumerate_patterns([len(e) - 1 for e in eqs]):
        X0 = continuation.product_state(pat, eqs)
        res = continuation.coupled_residual(models, net, 0.0, X0)
        worst = max(worst, float(np.max(np.abs(res))))
    assert worst < 1e-9


def test_travel_conserves_every_compartment(mixed):
    models, eqs, R, net = mixed
    rng = np.random.default_rng(4)
    X = np.abs(rng.normal(5.0, 2.0, size=21)) + 0.5
    travel = continuation.travel_operator(net, X).reshape(3, 7)
    assert np.max(np.abs(travel.sum(axis=0))) < 1e-12
    # the dense operator matches and its columns sum to zero
    L = continuation.travel_matrix(net)
    assert np.allclose(L @ X, travel.reshape(-1))
    assert np.max(np.abs(L.sum(axis=0))) < 1e-14


def test_coupled_jacobian_matches_finite_differences(mixed):
    models, eqs, R, net = mixed
    rng = np.random.default_rng(7)
    X = np.abs(rng.normal(5.0, 2.0, size=21)) + 0.5
    alpha = 3e-3
    J = continuation.coupled_jacobian(models, net, alpha, X)
    Jfd = np.zeros_like(J)
    for c in range(21):
        h = 1e-6 * (1.0 + abs(X[c]))
        Xp, Xm = X.copy(), X.copy()
        Xp[c] += h
        Xm[c] -= h
        Jfd[:, c] = (continuation.coupled_residual(models, net, alpha, Xp) -
                     continuation.coupled_residual(models, net, alpha, Xm)) / (2 * h)
    assert np.max(np.abs(J - Jfd)) < 1e-5


def _kernel_cases():
    import dataclasses
    from patchepi import model
    hiv = list(hiv_system(MIXED_TRIPLE)[0])
    mg = model.multigroup([[0.02, 0.01], [0.005, 0.03]], 1.0, 0.05, 0.05)
    sp = model.stage_progression([0.04, 0.01], [0.2, 0.1], 1.0, 0.05)
    ms = model.multistrain([0.04, 0.03], 0.4, 1.0, 0.1)

    def std(mod):
        return dataclasses.replace(mod, incidence="standard")

    def mass(mod):
        return dataclasses.replace(mod, incidence="mass_action")

    def g_func(y):
        return 1.0 - 0.05 * y - 0.01 * y ** 2

    def callback(mod):
        return dataclasses.replace(mod, g_func=g_func)

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
        "recruitment_callback": ([callback(sp)] * 3, small),
        "mixed_incidence_callback": (
            [callback(sp), std(sp), std(callback(sp))], small),
    }


def _forbid_reference_path(mp):
    """Make the per-patch reference functions raise when called."""
    from patchepi import model

    def forbidden(*args, **kwargs):
        raise AssertionError("CoupledSystem called a per-patch reference")

    for module in (continuation, model):
        for name in ("coupled_residual", "coupled_jacobian",
                     "patch_residual", "patch_jacobian"):
            if hasattr(module, name):
                mp.setattr(module, name, forbidden)


@pytest.mark.parametrize("case", sorted(_kernel_cases()))
def test_kernel_jacobian_matches_stacked_patch_jacobians(case, monkeypatch):
    from patchepi.model import patch_jacobian, split_state
    models, net = _kernel_cases()[case]
    system = continuation.CoupledSystem(models, net)
    s = models[0].size
    rng = np.random.default_rng(21)
    for alpha in (0.0, 3e-3, 0.5):
        X = np.abs(rng.normal(3.0, 1.0, size=net.r * s)) + 0.1
        ref = alpha * continuation.travel_matrix(net)
        for i, mod in enumerate(models):
            ref[i * s:(i + 1) * s, i * s:(i + 1) * s] += patch_jacobian(
                mod, split_state(mod, X[i * s:(i + 1) * s]))
        assert np.max(np.abs(
            continuation.coupled_jacobian(models, net, alpha, X) - ref)) \
            <= 1e-13 * np.max(np.abs(ref))
        res = continuation.coupled_residual(models, net, alpha, X)
        # a leading batch axis evaluates every state of the stack; neither
        # form may fall back on the per-patch reference functions
        Xs = np.stack([X, 2.0 * X, X + 1.0])
        with monkeypatch.context() as mp:
            _forbid_reference_path(mp)
            J, R = system.jacobian(alpha, X), system.residual(alpha, X)
            batched = zip(system.jacobian(alpha, Xs),
                          system.residual(alpha, Xs), Xs)
            single = [(Jb, Rb, system.jacobian(alpha, Xi),
                       system.residual(alpha, Xi)) for Jb, Rb, Xi in batched]
            admissible = system.admissible(Xs).tolist()
        assert np.max(np.abs(J - ref)) <= 1e-13 * np.max(np.abs(ref)), alpha
        assert np.max(np.abs(R - res)) <= 1e-13 * (1.0 + np.max(np.abs(res)))
        assert admissible == [True] * 3
        for Jb, Rb, Ji, Ri in single:
            assert np.max(np.abs(Jb - Ji)) <= 1e-13 * np.max(np.abs(Ji))
            assert np.max(np.abs(Rb - Ri)) <= 1e-13 * (1.0 + np.max(np.abs(Ri)))


def test_fast_rhs_agrees_with_reference(mixed):
    models, eqs, R, net = mixed
    rhs = continuation.build_rhs(models, net, 3e-4)
    rng = np.random.default_rng(12)
    for _ in range(20):
        X = np.abs(rng.normal(5.0, 2.0, size=21)) + 0.1
        ref = continuation.coupled_residual(models, net, 3e-4, X)
        assert np.max(np.abs(rhs(X) - ref)) < 1e-12 * (1.0 + np.max(np.abs(ref)))


def test_fast_rhs_heterogeneous_families():
    from patchepi import model
    mu, gam, Lam = 0.1, 0.4, 1.0
    b = np.array([1.2, 0.8]) * (gam + mu) / (Lam / mu)
    models = [model.multistrain(b, gam, Lam, mu),
              model.stage_progression([0.04, 0.01], [0.2, 0.1], 1.0, 0.05),
              model.multistrain(b, gam, Lam, mu)]
    net = network.preset("fig3c", n=2, m=1, k=1)
    rhs = continuation.build_rhs(models, net, 2e-3)
    rng = np.random.default_rng(9)
    for _ in range(10):
        X = np.abs(rng.normal(3.0, 1.0, size=12)) + 0.1
        ref = continuation.coupled_residual(models, net, 2e-3, X)
        assert np.max(np.abs(rhs(X) - ref)) < 1e-12 * (1.0 + np.max(np.abs(ref)))


def test_sole_witness_branch_exits_at_cone(mixed):
    models, eqs, R, net = mixed
    pat = EquilibriumPattern((0, 1, 0))
    rec = continuation.continue_branch(pat, models, net,
                                       [1e-8, 1e-7, 1e-6, 1e-5],
                                       equilibria=eqs)
    assert rec.verdict_observed == "vanishes"
    assert rec.exit_alpha == pytest.approx(1e-6)
    assert rec.points[-1].alpha == pytest.approx(1e-6)
    assert rec.points[-1].min_component == pytest.approx(EXIT_MIN_AT_1E6, rel=1e-6)
    assert rec.failure is None
    # grid stops at the exit by default
    assert len(rec.points) == 4  # alpha = 0, 1e-8, 1e-7, 1e-6


def test_branch_point_invariants(mixed):
    models, eqs, R, net = mixed
    rec = continuation.continue_branch(EquilibriumPattern((1, 1, 1)), models,
                                       net, [1e-7, 1e-6, 1e-5], equilibria=eqs)
    assert rec.verdict_observed == "persists"
    assert rec.exit_alpha is None and rec.complete
    alphas = [p.alpha for p in rec.points]
    assert alphas == [0.0, 1e-7, 1e-6, 1e-5]
    for p in rec.points:
        assert p.residual_norm < continuation.ACCEPT_TOL
        assert p.min_component > 0
        assert p.stability in ("stable", "unstable")


def test_exit_refinement_brackets_the_crossing(mixed):
    models, eqs, R, net = mixed
    pat = EquilibriumPattern((0, 1, 0))
    rec = continuation.continue_branch(pat, models, net, [1e-7, 1e-6],
                                       equilibria=eqs, refine_exit=True)
    assert rec.exit_alpha is not None
    # the first derivative vanishes on region 3, the second is negative,
    # so the crossing sits where alpha^2 overtakes the tiny linear inflow
    assert 1e-7 < rec.exit_alpha < 1e-6
    # the refined value is the violating end of a 5%-wide bracket
    probe = continuation.continue_branch(pat, models, net, [rec.exit_alpha],
                                         equilibria=eqs)
    assert -5e-9 < probe.points[-1].min_component < continuation.SIGN_EXIT_TOL


def test_derivative_cross_checks(mixed):
    models, eqs, R, net = mixed
    pat = EquilibriumPattern((0, 1, 0))
    rec = continuation.continue_branch(pat, models, net, [1e-6, 2e-6],
                                       equilibria=eqs, stop_at_exit=False)
    assert rec.exit_alpha is not None  # still recorded while continuing

    d1_0 = persist.branch_first_derivative(0, pat, models, net, equilibria=eqs)
    err1 = continuation.branch_derivative_check(rec, d1_0)
    assert err1 == pytest.approx(RICHARDSON_ORDER1, rel=0.05)
    assert err1 < 1e-3

    d1_2 = persist.branch_first_derivative(2, pat, models, net, equilibria=eqs)
    d2_2 = persist.branch_higher_derivative(
        2, 2, {1: {0: d1_0.value, 2: d1_2.value}}, pat, models, net,
        equilibria=eqs)
    err2 = continuation.branch_derivative_check(rec, d2_2)
    assert err2 == pytest.approx(CENTRAL_ORDER2, rel=0.05)
    assert err2 < 1e-2

    # zero analytic target: the check degrades to the bare difference,
    # which stays at roundoff-plus-curvature scale
    err0 = continuation.branch_derivative_check(rec, d1_2)
    assert err0 < 1e-5


def test_dfe_branch_stays_disease_free(backward):
    models, eqs, R, net = backward
    rec = continuation.continue_branch(EquilibriumPattern((0, 0, 0)), models,
                                       net, [1e-5, 1e-3, 1e-1], equilibria=eqs)
    assert rec.verdict_observed == "persists" and rec.complete
    for pt in rec.points:
        for i in range(3):
            blk = pt.X[i * 7:(i + 1) * 7]
            assert np.max(np.abs(blk[:4])) <= 1e-12   # infected
            assert abs(blk[6]) <= 1e-12               # AIDS
            assert np.min(blk[4:6]) > 0.0             # susceptibles


def test_dfe_branch_with_recruitment_callback():
    # an affine recruitment given as a callback: the kernel adds g(y) and
    # its finite-difference dg/dy state by state, everything else as usual
    import dataclasses
    from patchepi import model
    models = [model.multigroup([[0.06, 0.01], [0.02, 0.05]], lam, 0.05, 0.05)
              for lam in (1.0, 2.0, 0.5)]
    twins = [dataclasses.replace(mod, g_func=lambda y, m=mod: m.g_const
                                 + m.g_lin @ y) for mod in models]
    net = network.preset("fig3b", n=2, m=2, k=2)
    grid = [1e-4, 1e-2, 0.5]
    recs = [continuation.continue_branch(
        EquilibriumPattern((0, 0, 0)), mods, net, grid,
        equilibria=[[equilibria.disease_free_equilibrium(m)] for m in mods])
        for mods in (models, twins)]
    for rec in recs:
        assert rec.verdict_observed == "persists" and rec.complete
        assert [p.alpha for p in rec.points] == [0.0] + grid
    susceptible = np.tile([False, False, True, True, False, False], 3)
    for want, got in zip(*(rec.points for rec in recs)):
        assert np.all(got.X[~susceptible] == 0.0)
        assert np.max(np.abs(got.X - want.X)) <= 1e-9 * np.max(np.abs(want.X))
        assert got.stability == want.stability
    # travel moves the susceptible levels away from the disconnected DFE
    assert np.max(np.abs(recs[0].points[-1].X - recs[0].points[0].X)) > 0.1


def test_mixed_fixture_branch_persists_on_shipped_grid():
    # guards the corrector's merit and damping: (2, 1, 1) reaches
    # alpha = 0.1 on hiv_mixed's own grid without a corrector failure
    from patchepi import cli
    cfg = cli.load_config(cli.fixture_path("hiv_mixed.json"))
    models = cli.build_models(cfg)
    eqs = [equilibria.patch_equilibria(m) for m in models]
    rec = continuation.continue_branch(EquilibriumPattern((2, 1, 1)), models,
                                       cli.build_network(cfg, models),
                                       cfg.alpha_grid, equilibria=eqs)
    assert rec.failure is None and rec.verdict_observed == "persists"
    assert [p.alpha for p in rec.points] == [0.0, 1e-5, 1e-3, 0.1]


def test_inadmissible_corrector_start_is_a_branch_failure(backward):
    models, eqs, R, net = backward
    # one Euler step from alpha = 0 to 1e-2 leaves a patch with N <= 0
    rec = continuation.continue_branch(EquilibriumPattern((2, 0, 2)), models,
                                       net, [1e-2], equilibria=eqs)
    assert not rec.complete
    assert "inadmissible at alpha = 0.01" in rec.failure
    assert [p.alpha for p in rec.points] == [0.0]
    # a branch that failed before leaving the cone has no observed verdict
    assert rec.verdict_observed is None


def test_stable_unstable_census(backward):
    models, eqs, R, _ = backward
    for name in ("fig3a", "fig3b"):
        st, un = continuation.count_stable(models, hiv_net(name), 1e-5,
                                           equilibria=eqs)
        assert (st, un) == (8, 19), name


def test_stability_matches_disconnected_classification(backward):
    models, eqs, R, _ = backward
    rec = continuation.continue_branch(EquilibriumPattern((2, 2, 2)), models,
                                       hiv_net("fig3c"), [1e-6, 1e-5],
                                       equilibria=eqs)
    assert rec.verdict_observed == "persists"
    assert all(p.stability == "stable" for p in rec.points)
    rec_mixed = continuation.continue_branch(EquilibriumPattern((1, 2, 2)),
                                             models, hiv_net("fig3c"),
                                             [1e-6], equilibria=eqs)
    # the lower endemic root is unstable and stays so under weak coupling
    assert all(p.stability == "unstable" for p in rec_mixed.points)


def test_predict_matches_continuation_fig3b(mixed):
    models, eqs, R, net = mixed
    for pat in equilibria.enumerate_patterns([len(e) - 1 for e in eqs]):
        v = persist.predict(pat, models, net, equilibria=eqs, R_values=R)
        rec = continuation.continue_branch(pat, models, net, [1e-6],
                                           equilibria=eqs)
        assert rec.failure is None
        assert v.verdict == rec.verdict_observed, pat.choices


def test_marginal_threshold_violates_hypotheses():
    models, eqs, R = hiv_system((marginal_beta1(), 1.0, 1.0))
    net = hiv_net("fig3b")
    with pytest.raises(continuation.HypothesisViolationError,
                       match="hypothesis"):
        continuation.continue_branch(EquilibriumPattern((0, 1, 1)), models,
                                     net, [1e-6], equilibria=eqs)


def test_block_size_mismatch_rejected(mixed):
    models, eqs, R, _ = mixed
    small = network.preset("fig3b", n=2, m=1, k=1)
    with pytest.raises(ValueError, match="block"):
        continuation.continue_branch(EquilibriumPattern((0, 0, 0)), models,
                                     small, [1e-6], equilibria=eqs)


def test_count_stable_skips_vanished_branches(mixed):
    models, eqs, R, net = mixed
    # mixed regime on fig3b: 4 of 12 persist at alpha past all cone exits
    st, un = continuation.count_stable(models, net, 1e-5, equilibria=eqs)
    assert st + un == 4
