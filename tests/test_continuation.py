import numpy as np
import pytest

from conftest import (BACKWARD_TRIPLE, MIXED_TRIPLE, hiv_net, hiv_system,
                      marginal_beta1)
from patchepi import (cli, continuation, equilibria, matalg, network,
                      persist)
from patchepi.equilibria import EquilibriumPattern
from reference import (branch_derivative_check, count_stable,
                       coupled_jacobian, coupled_residual, patch_jacobian,
                       travel_operator)

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
        res = coupled_residual(models, net, 0.0, X0)
        worst = max(worst, float(np.max(np.abs(res))))
    assert worst < 1e-9


def test_travel_conserves_every_compartment(mixed):
    models, eqs, R, net = mixed
    rng = np.random.default_rng(4)
    X = np.abs(rng.normal(5.0, 2.0, size=21)) + 0.5
    travel = travel_operator(net, X).reshape(3, 7)
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
    J = coupled_jacobian(models, net, alpha, X)
    Jfd = np.zeros_like(J)
    for c in range(21):
        h = 1e-6 * (1.0 + abs(X[c]))
        Xp, Xm = X.copy(), X.copy()
        Xp[c] += h
        Xm[c] -= h
        Jfd[:, c] = (coupled_residual(models, net, alpha, Xp) -
                     coupled_residual(models, net, alpha, Xm)) / (2 * h)
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


def test_package_keeps_no_reference_equations():
    # the reference lives in tests/reference.py; the package evaluates the
    # model equations through CoupledSystem only
    from patchepi import model
    for module in (continuation, model):
        for name in ("patch_residual", "patch_jacobian", "coupled_residual",
                     "coupled_jacobian", "travel_operator", "_block_slices",
                     "build_rhs"):
            assert not hasattr(module, name), (module.__name__, name)


# the public functions and methods no module of the package calls, each
# kept for callers outside it
LIBRARY_API = {
    "cli.fixture_path": "locates a shipped config for tests and perfbench",
    "continuation.continue_branch":
        "the single-run reference of test_batch_equals_single_runs",
    "equilibria.patch_equilibria": "perfbench calls it",
    "equilibria.endemic_equilibria_generic":
        "the generic search with its discard count, which tests read",
    "persist.predict": "one pattern's verdict; perfbench passes R_values",
    "persist.count_persisting": "one system's count on one network",
    "sim.basin_probe": "terminal labels of an initial set, for basin scans",
}


def test_package_keeps_no_uncalled_public_functions():
    # code that only tests call belongs in the tests, not in the package;
    # private functions and methods too (dunders are called by Python)
    import ast
    import pathlib

    import patchepi
    trees = {path.stem: ast.parse(path.read_text())
             for path in pathlib.Path(patchepi.__file__).parent.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    uncalled = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node.name)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{f.name}", f.name) for f in node.body
                        if isinstance(f, ast.FunctionDef)]
            else:
                defs = []
            uncalled.update(f"{module}.{qualified}" for qualified, name in defs
                            if not (name.startswith("__")
                                    and name.endswith("__"))
                            and name not in used)
    assert uncalled == set(LIBRARY_API)


def test_package_compiles_coupled_systems_in_three_places():
    # a patch's own system, and the one coupled system of each run of
    # continue and simulate; continuation and sim take the caller's
    import ast
    import pathlib

    import patchepi
    callers = set()
    for path in pathlib.Path(patchepi.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and "CoupledSystem" in {
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)}):
                    callers.add(f"{path.stem}.{func.name}")
    assert callers == {"equilibria._threshold", "cli.cmd_continue",
                       "cli.cmd_simulate"}


def test_package_imports_only_names_it_uses():
    # an import left behind by a deletion is dead surface; __init__'s
    # imports are its re-exports
    import ast
    import pathlib

    import patchepi
    unused = set()
    for path in pathlib.Path(patchepi.__file__).parent.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0]
                                for a in node.names)
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused.update(f"{path.stem}.{name}" for name in imported - used)
    assert unused == set()


@pytest.mark.parametrize("case", sorted(_kernel_cases()))
def test_kernel_jacobian_matches_stacked_patch_jacobians(case):
    from patchepi.model import split_state
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
            coupled_jacobian(models, net, alpha, X) - ref)) \
            <= 1e-13 * np.max(np.abs(ref))
        res = coupled_residual(models, net, alpha, X)
        # a leading batch axis evaluates every state of the stack
        Xs = np.stack([X, 2.0 * X, X + 1.0])
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


@pytest.mark.parametrize("case", sorted(_kernel_cases()))
def test_patch_classification_matches_reference_jacobian(case):
    # patch_equilibria classifies through the one-region kernel; the
    # per-patch reference Jacobian gives every state the same label and
    # invertibility
    models, _ = _kernel_cases()[case]
    for mod in {id(mod): mod for mod in models}.values():
        for eq in equilibria.patch_equilibria(mod):
            J = patch_jacobian(mod, eq.state)
            assert eq.stability == equilibria.stability_of(J)[0], eq.index
            assert eq.jac_invertible == (
                matalg.condition_estimate(J) < matalg.COND_LIMIT), eq.index


@pytest.mark.parametrize("case", sorted(_kernel_cases()))
def test_kernel_results_own_their_memory(case):
    # a later evaluation must not write into an earlier result, and the
    # dP/dX buffer the single-state point reuses must not reach its J
    models, net = _kernel_cases()[case]
    system = continuation.CoupledSystem(models, net)
    rng = np.random.default_rng(5)
    size = net.r * models[0].size
    for shape in ((size,), (3, size)):
        X1 = np.abs(rng.normal(3.0, 1.0, size=shape)) + 0.1
        X2 = np.abs(rng.normal(3.0, 1.0, size=shape)) + 0.1
        first = [system.residual(0.2, X1), system.jacobian(0.2, X1)]
        kept = [a.copy() for a in first]
        system.residual(0.2, X2)
        system.jacobian(0.2, X2)
        for a, b in zip(first, kept):
            assert np.array_equal(a, b)
        assert np.array_equal(system.residual(0.2, X1), kept[0])
        assert np.array_equal(system.jacobian(0.2, X1), kept[1])
    rhs, point = system.single_state(0.2)
    X1, X2 = np.abs(rng.normal(3.0, 1.0, size=(2, size))) + 0.1
    first = [rhs(X1), *point(X1)]
    kept = [a.copy() for a in first]
    rhs(X2)
    point(X2)
    for a, b in zip(first, kept):
        assert np.array_equal(a, b)
    f, J = point(X1)
    assert np.array_equal(f, kept[1]) and np.array_equal(J, kept[2])


@pytest.mark.parametrize("case", sorted(_kernel_cases()))
def test_single_state_evaluator_has_the_kernel_bits(case):
    # rhs is residual and point is (residual, jacobian in the solve
    # order), bit for bit; so is every row of a (B, 1, size) stack
    models, net = _kernel_cases()[case]
    system = continuation.CoupledSystem(models, net)
    size = net.r * models[0].size
    order = system.solve_order
    in_order = np.ix_(order, order)
    # a permutation with every region's susceptibles first
    block = np.arange(size) % models[0].size
    n, m = models[0].n, models[0].m
    assert np.array_equal(np.sort(order), np.arange(size))
    assert np.all((n <= block[order[:net.r * m]])
                  & (block[order[:net.r * m]] < n + m))
    rng = np.random.default_rng(17)
    X = np.abs(rng.normal(3.0, 1.0, size=(4, size))) + 0.1
    X[1, ::3] = 0.0                     # exact zeros, as on a boundary
    X[2] = X[2] * 1e-9
    X[3, 1::4] = -0.0
    for alpha in (0.0, 3e-3, 0.5):
        rhs, point = system.single_state(alpha)
        rows = system.residual(alpha, X[:, None])[:, 0]
        for Xi, row, Jb in zip(X, rows, system.jacobian(alpha, X)):
            R, J = system.residual(alpha, Xi), system.jacobian(alpha, Xi)
            f, J_o = point(Xi)
            assert np.array_equal(rhs(Xi), R), alpha
            assert np.array_equal(f, R), alpha
            assert np.array_equal(J_o, J[in_order]), alpha
            assert np.array_equal(row, R) and np.array_equal(Jb, J), alpha


def test_fast_rhs_agrees_with_reference(mixed):
    models, eqs, R, net = mixed
    system = continuation.CoupledSystem(models, net)
    rng = np.random.default_rng(12)
    for _ in range(20):
        X = np.abs(rng.normal(5.0, 2.0, size=21)) + 0.1
        ref = coupled_residual(models, net, 3e-4, X)
        assert (np.max(np.abs(system.residual(3e-4, X) - ref))
                < 1e-12 * (1.0 + np.max(np.abs(ref))))


def test_fast_rhs_heterogeneous_families():
    from patchepi import model
    mu, gam, Lam = 0.1, 0.4, 1.0
    b = np.array([1.2, 0.8]) * (gam + mu) / (Lam / mu)
    models = [model.multistrain(b, gam, Lam, mu),
              model.stage_progression([0.04, 0.01], [0.2, 0.1], 1.0, 0.05),
              model.multistrain(b, gam, Lam, mu)]
    net = network.preset("fig3c", n=2, m=1, k=1)
    system = continuation.CoupledSystem(models, net)
    rng = np.random.default_rng(9)
    for _ in range(10):
        X = np.abs(rng.normal(3.0, 1.0, size=12)) + 0.1
        ref = coupled_residual(models, net, 2e-3, X)
        assert (np.max(np.abs(system.residual(2e-3, X) - ref))
                < 1e-12 * (1.0 + np.max(np.abs(ref))))


def test_sole_witness_branch_exits_at_cone(mixed):
    models, eqs, R, net = mixed
    pat = EquilibriumPattern((0, 1, 0))
    system = continuation.CoupledSystem(models, net)
    rec = continuation.continue_branch(pat, system, [1e-8, 1e-7, 1e-6, 1e-5],
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
    system = continuation.CoupledSystem(models, net)
    rec = continuation.continue_branch(EquilibriumPattern((1, 1, 1)), system,
                                       [1e-7, 1e-6, 1e-5], equilibria=eqs)
    assert rec.verdict_observed == "persists"
    assert rec.exit_alpha is None and rec.failure is None
    alphas = [p.alpha for p in rec.points]
    assert alphas == [0.0, 1e-7, 1e-6, 1e-5]
    for p in rec.points:
        assert p.residual_norm < continuation.ACCEPT_TOL
        assert p.min_component > 0
        assert p.stability in ("stable", "unstable")


def test_exit_refinement_brackets_the_crossing(mixed):
    models, eqs, R, net = mixed
    pat = EquilibriumPattern((0, 1, 0))
    system = continuation.CoupledSystem(models, net)
    # grid steps under 5%: the exit is located to that resolution
    rec = continuation.continue_branch(pat, system,
                                       np.geomspace(1e-7, 1e-6, 49),
                                       equilibria=eqs)
    assert rec.exit_alpha is not None
    # the first derivative vanishes on region 3, the second is negative,
    # so the crossing sits where alpha^2 overtakes the tiny linear inflow
    assert 1e-7 < rec.exit_alpha < 1e-6
    # the exit is the violating end of a bracket under 5% wide
    probe = continuation.continue_branch(pat, system, [rec.exit_alpha],
                                         equilibria=eqs)
    assert -5e-9 < probe.points[-1].min_component < continuation.SIGN_EXIT_TOL


def test_derivative_cross_checks(mixed):
    models, eqs, R, net = mixed
    pat = EquilibriumPattern((0, 1, 0))
    rec = continuation.continue_branch(
        pat, continuation.CoupledSystem(models, net), [1e-6, 2e-6],
        equilibria=eqs, stop_at_exit=False)
    assert rec.exit_alpha is not None  # still recorded while continuing

    chain = persist.SystemFacts([equilibria.patch_facts(m) for m in models]
                                ).derivative_chain(pat, net)
    d1_0, = chain[0]
    err1 = branch_derivative_check(rec, d1_0)
    assert err1 == pytest.approx(RICHARDSON_ORDER1, rel=0.05)
    assert err1 < 1e-3

    d1_2, d2_2 = chain[2]
    err2 = branch_derivative_check(rec, d2_2)
    assert err2 == pytest.approx(CENTRAL_ORDER2, rel=0.05)
    assert err2 < 1e-2

    # zero analytic target: the check degrades to the bare difference,
    # which stays at roundoff-plus-curvature scale
    err0 = branch_derivative_check(rec, d1_2)
    assert err0 < 1e-5


def test_dfe_branch_stays_disease_free(backward):
    models, eqs, R, net = backward
    system = continuation.CoupledSystem(models, net)
    rec = continuation.continue_branch(EquilibriumPattern((0, 0, 0)), system,
                                       [1e-5, 1e-3, 1e-1], equilibria=eqs)
    assert rec.verdict_observed == "persists" and rec.failure is None
    for pt in rec.points:
        for i in range(3):
            blk = pt.X[i * 7:(i + 1) * 7]
            assert np.max(np.abs(blk[:4])) <= 1e-12   # infected
            assert abs(blk[6]) <= 1e-12               # AIDS
            assert np.min(blk[4:6]) > 0.0             # susceptibles


def test_mixed_fixture_branch_persists_on_shipped_grid():
    # guards the corrector's merit and damping: (2, 1, 1) reaches
    # alpha = 0.1 on hiv_mixed's own grid without a corrector failure
    from patchepi import cli
    cfg = cli.load_config(cli.fixture_path("hiv_mixed.json"))
    models = cli.build_models(cfg)
    eqs = [equilibria.patch_equilibria(m) for m in models]
    system = continuation.CoupledSystem(models,
                                        cli.build_network(cfg, models))
    rec = continuation.continue_branch(EquilibriumPattern((2, 1, 1)), system,
                                       cfg.alpha_grid, equilibria=eqs)
    assert rec.failure is None and rec.verdict_observed == "persists"
    assert [p.alpha for p in rec.points] == [0.0, 1e-5, 1e-3, 0.1]


def test_inadmissible_corrector_start_is_a_branch_failure(backward):
    models, eqs, R, net = backward
    # one Euler step from alpha = 0 to 1e-2 leaves a patch with N <= 0
    system = continuation.CoupledSystem(models, net)
    rec = continuation.continue_branch(EquilibriumPattern((2, 0, 2)), system,
                                       [1e-2], equilibria=eqs)
    assert rec.failure is not None
    assert "inadmissible at alpha = 0.01" in rec.failure
    assert [p.alpha for p in rec.points] == [0.0]
    # a branch that failed before leaving the cone has no observed verdict
    assert rec.verdict_observed is None


def test_stable_unstable_census(backward):
    models, eqs, R, _ = backward
    for name in ("fig3a", "fig3b"):
        st, un = count_stable(models, hiv_net(name), 1e-5, equilibria=eqs)
        assert (st, un) == (8, 19), name


def test_stability_matches_disconnected_classification(backward):
    models, eqs, R, _ = backward
    system = continuation.CoupledSystem(models, hiv_net("fig3c"))
    rec = continuation.continue_branch(EquilibriumPattern((2, 2, 2)), system,
                                       [1e-6, 1e-5], equilibria=eqs)
    assert rec.verdict_observed == "persists"
    assert all(p.stability == "stable" for p in rec.points)
    rec_mixed = continuation.continue_branch(EquilibriumPattern((1, 2, 2)),
                                             system, [1e-6], equilibria=eqs)
    # the lower endemic root is unstable and stays so under weak coupling
    assert all(p.stability == "unstable" for p in rec_mixed.points)


def test_predict_matches_continuation_fig3b(mixed):
    models, eqs, R, net = mixed
    system = continuation.CoupledSystem(models, net)
    for pat in equilibria.enumerate_patterns([len(e) - 1 for e in eqs]):
        v = persist.predict(pat, models, net, equilibria=eqs)
        rec = continuation.continue_branch(pat, system, [1e-6],
                                           equilibria=eqs)
        assert rec.failure is None
        assert v.verdict == rec.verdict_observed, pat.choices


@pytest.mark.parametrize("fixture", ["hiv_backward.json", "hiv_mixed.json"])
def test_verdicts_match_continuation_on_every_digraph(fixture):
    # the verdict rule, with each local R from the patch's PatchFacts, against
    # the continued branch at alpha = 1e-6 on all 64 three-region digraphs
    models = cli.build_models(cli.load_config(cli.fixture_path(fixture)))
    facts = persist.SystemFacts([equilibria.patch_facts(m) for m in models])
    eqs = [p.equilibria for p in facts.patches]
    patterns = equilibria.enumerate_patterns([len(e) - 1 for e in eqs])
    mod = models[0]
    nets = network.enumerate_networks(3, n=mod.n, m=mod.m, k=mod.k)
    assert len(nets) == 64
    for net in nets:
        records = continuation.continue_branches(
            patterns, continuation.CoupledSystem(models, net), [1e-6], eqs)
        for verdict, rec in zip(facts.verdicts(net), records, strict=True):
            where = (net.name, verdict.pattern.choices)
            assert rec.failure is None, where
            assert verdict.verdict == rec.verdict_observed, where


def test_marginal_threshold_violates_hypotheses():
    # the record of a pattern whose alpha-0 Jacobian is singular says so
    # and holds no point
    models, eqs, R = hiv_system((marginal_beta1(), 1.0, 1.0))
    system = continuation.CoupledSystem(models, hiv_net("fig3b"))
    rec = continuation.continue_branch(EquilibriumPattern((0, 1, 1)), system,
                                       [1e-6], equilibria=eqs)
    assert rec.failure.startswith("theorem hypothesis violated: coupled "
                                  "Jacobian singular at alpha = 0")
    assert rec.points == [] and rec.verdict_observed is None
    assert rec.exit_alpha is None


def test_block_size_mismatch_rejected(mixed):
    models, eqs, R, _ = mixed
    small = network.preset("fig3b", n=2, m=1, k=1)
    with pytest.raises(ValueError, match="block"):
        continuation.CoupledSystem(models, small)


def test_count_stable_skips_vanished_branches(mixed):
    models, eqs, R, net = mixed
    # mixed regime on fig3b: 4 of 12 persist at alpha past all cone exits
    st, un = count_stable(models, net, 1e-5, equilibria=eqs)
    assert st + un == 4


# ====================================================================
# Row-batched driver
# ====================================================================

SHIPPED_GRID = [1e-5, 1e-3, 0.1]
FINE_GRID = [10.0 ** (-7 + k / 2) for k in range(9)]     # 1e-7 ... 1e-3


def _fixture(name):
    from patchepi import cli
    cfg = cli.load_config(cli.fixture_path(name))
    models = cli.build_models(cfg)
    eqs = [equilibria.patch_equilibria(m) for m in models]
    return models, cli.build_network(cfg, models), eqs


def _assert_same_record(got, want):
    assert got.pattern == want.pattern
    assert (got.exit_alpha, got.verdict_observed, got.failure) == \
        (want.exit_alpha, want.verdict_observed, want.failure), want.pattern
    assert len(got.points) == len(want.points), want.pattern
    for p, q in zip(got.points, want.points):
        assert np.array_equal(p.X, q.X), (want.pattern, q.alpha)
        assert (p.alpha, p.residual_norm, p.stability, p.min_component,
                p.max_real_eig) == (q.alpha, q.residual_norm, q.stability,
                                    q.min_component, q.max_real_eig)


@pytest.mark.parametrize("name", ["hiv_backward.json", "hiv_mixed.json"])
@pytest.mark.parametrize("grid", [FINE_GRID, SHIPPED_GRID],
                         ids=["fine", "shipped"])
def test_batch_equals_single_runs(name, grid):
    models, net, eqs = _fixture(name)
    patterns = equilibria.enumerate_patterns([len(e) - 1 for e in eqs])
    system = continuation.CoupledSystem(models, net)
    batch = continuation.continue_branches(patterns, system, grid, eqs)
    assert len(batch) == len(patterns)
    for pattern, got in zip(patterns, batch):
        want = continuation.continue_branch(pattern, system, grid, eqs)
        _assert_same_record(got, want)
    # the same holds in any order and with a row's neighbours changed
    half = continuation.continue_branches(patterns[::-2], system, grid, eqs)
    for got, want in zip(half, batch[::-2]):
        _assert_same_record(got, want)


def test_failed_row_leaves_the_others_unchanged(backward):
    models, eqs, R, net = backward
    grid = [1e-2]
    patterns = [EquilibriumPattern(c)
                for c in ((2, 2, 2), (2, 0, 2), (1, 1, 1), (0, 0, 0))]
    system = continuation.CoupledSystem(models, net)
    batch = continuation.continue_branches(patterns, system, grid, eqs)
    failed = batch[1]
    assert "corrector start inadmissible at alpha = 0.01" in failed.failure
    assert [p.alpha for p in failed.points] == [0.0]
    persisting = [rec for rec in batch if rec.verdict_observed == "persists"]
    assert len(persisting) >= 2
    for pattern, got in zip(patterns, batch):
        _assert_same_record(got, continuation.continue_branch(
            pattern, system, grid, eqs))


def test_one_jacobian_per_accepted_point_and_newton_iteration(mixed,
                                                              monkeypatch):
    # the Euler predictor reuses the Jacobian of the last accepted point
    models, eqs, R, net = mixed
    grid = [1e-7, 1e-6, 1e-5, 1e-4]
    jacobians, solves = [], []
    real_jacobian = continuation.CoupledSystem.jacobian
    real_solve = continuation.matalg.solve_linear

    def jacobian(self, alpha, X):
        jacobians.append(alpha)
        return real_jacobian(self, alpha, X)

    def solve(A, b):
        solves.append(1)
        return real_solve(A, b)

    monkeypatch.setattr(continuation.CoupledSystem, "jacobian", jacobian)
    monkeypatch.setattr(continuation.matalg, "solve_linear", solve)
    system = continuation.CoupledSystem(models, net)
    rec = continuation.continue_branch(EquilibriumPattern((1, 1, 1)), system,
                                       grid, equilibria=eqs)
    assert rec.verdict_observed == "persists" and len(rec.points) == 5
    # one predictor solve per grid step, the rest are Newton iterations
    newton_iterations = len(solves) - len(grid)
    assert newton_iterations >= len(grid)
    assert len(jacobians) == len(rec.points) + newton_iterations
