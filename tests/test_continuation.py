import numpy as np
import pytest

from conftest import (BACKWARD_TRIPLE, MIXED_TRIPLE, hiv_net, hiv_system,
                      kernel_cases, marginal_beta1)
from patchepi import (cli, continuation, equilibria, matalg, model, network,
                      persist)
from patchepi.equilibria import EquilibriumPattern
from reference import (branch_derivative_check, continue_branch,
                       count_stable, coupled_jacobian, coupled_residual,
                       newton_correct, patch_jacobian, travel_operator)

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


def test_package_keeps_no_reference_equations():
    # the reference lives in tests/reference.py; the package evaluates the
    # model equations through CoupledSystem only
    from patchepi import model
    for module in (continuation, model):
        for name in ("patch_residual", "patch_jacobian", "coupled_residual",
                     "coupled_jacobian", "travel_operator", "_block_slices",
                     "build_rhs"):
            assert not hasattr(module, name), (module.__name__, name)


# the public functions no module of the package calls, each kept for the
# perfbench script named beside it (code that only tests call lives in
# tests/reference.py)
LIBRARY_API = {
    "cli.fixture_path": "run.py",
    "equilibria.patch_equilibria": "record_reference.py",
    "equilibria.local_reproduction_number": "record_reference.py",
    "persist.predict": "record_reference.py",
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


def test_library_api_is_what_perfbench_calls():
    # each kept name is an attribute access in the perfbench script that
    # keeps it, so deleting one fails here and not in record_reference.py,
    # which no test runs; an entry perfbench no longer calls fails too
    import ast
    import pathlib

    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    for qualified, script in LIBRARY_API.items():
        module, name = qualified.split(".")
        tree = ast.parse((bench / script).read_text())
        called = {(node.value.attr if isinstance(node.value, ast.Attribute)
                   else getattr(node.value, "id", None))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == name}
        assert module in called, (qualified, script)


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


def test_only_matalg_imports_numpy_private_linalg():
    # matalg's inverse and solve turn a singular matrix into a NaN block;
    # every other module goes through them
    import ast
    import pathlib

    import patchepi
    importers = set()
    for path in pathlib.Path(patchepi.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if any("_umath_linalg" in name for name in names):
                importers.add(path.stem)
    assert importers == {"matalg"}


def test_single_trajectory_path_skips_numpy_dispatch():
    # np.dot, np.matmul and @ each cost a dispatch per call that
    # ndarray.dot, with the same bits, does not; the NDF's prediction,
    # Newton solves and step-size changes make such products on a state of
    # a few dozen entries
    import ast
    import inspect
    import textwrap

    from patchepi import sim

    def parsed(fn):
        return ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]

    closures = [node for node in ast.walk(
        parsed(continuation.CoupledSystem.single_state))
        if isinstance(node, ast.FunctionDef)][1:]
    assert "rhs" in {fn.name for fn in closures}
    offending = []
    stepper = [parsed(fn) for fn in (sim.integrate, sim._newton,
                                     sim._change_D)]
    for fn in stepper + closures:
        for node in ast.walk(fn):
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult)
                    or isinstance(node, ast.Attribute)
                    and node.attr in ("dot", "matmul")
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                offending.append((fn.name, node.lineno))
    assert offending == []


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


@pytest.mark.parametrize("case", sorted(kernel_cases()))
def test_kernel_jacobian_matches_stacked_patch_jacobians(case):
    from patchepi.model import split_state
    models, net = kernel_cases()[case]
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


@pytest.mark.parametrize("case", sorted(kernel_cases()))
def test_patch_classification_matches_reference_jacobian(case):
    # patch_equilibria classifies through the one-region kernel; the
    # per-patch reference Jacobian gives every state the same label and
    # invertibility
    models, _ = kernel_cases()[case]
    for mod in {id(mod): mod for mod in models}.values():
        for eq in equilibria.patch_equilibria(mod):
            J = patch_jacobian(mod, eq.state)
            assert eq.stability == equilibria.stability_of(J)[0], eq.index
            assert eq.jac_invertible == (
                matalg.condition_estimate(J) < matalg.COND_LIMIT), eq.index


@pytest.mark.parametrize("case", sorted(kernel_cases()))
def test_kernel_results_own_their_memory(case):
    # a later evaluation must not write into an earlier result
    models, net = kernel_cases()[case]
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
    rhs = system.single_state(0.2)
    X1, X2 = np.abs(rng.normal(3.0, 1.0, size=(2, size))) + 0.1
    first = rhs(X1)
    kept = first.copy()
    rhs(X2)
    assert np.array_equal(first, kept)
    assert np.array_equal(rhs(X1), kept)


@pytest.mark.parametrize("case", sorted(kernel_cases()))
def test_single_state_evaluator_has_the_kernel_bits(case):
    # rhs is residual, bit for bit; so is every row of a (B, 1, size)
    # stack, and every row of a stacked jacobian is its single-state one
    models, net = kernel_cases()[case]
    system = continuation.CoupledSystem(models, net)
    size = net.r * models[0].size
    order = system.solve_order
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
        rhs = system.single_state(alpha)
        rows = system.residual(alpha, X[:, None])[:, 0]
        for Xi, row, Jb in zip(X, rows, system.jacobian(alpha, X)):
            R, J = system.residual(alpha, Xi), system.jacobian(alpha, Xi)
            assert np.array_equal(rhs(Xi), R), alpha
            assert np.array_equal(row, R) and np.array_equal(Jb, J), alpha


@pytest.mark.parametrize("case", sorted(kernel_cases()))
def test_single_state_evaluator_refuses_what_the_kernel_refuses(case):
    # a standard patch with N = 0 or N = NaN is refused by rhs and by
    # jacobian, the integrator's two evaluators, as by residual; without a
    # standard patch the same states evaluate
    models, net = kernel_cases()[case]
    system = continuation.CoupledSystem(models, net)
    n, m, s = models[0].n, models[0].m, models[0].size
    std = [i for i, mod in enumerate(models) if mod.incidence == "standard"]
    region = std[0] if std else 0
    X = np.abs(np.random.default_rng(3).normal(3.0, 1.0, net.r * s)) + 0.1
    empty, nan = X.copy(), X.copy()
    empty[region * s:region * s + n + m] = 0.0
    nan[region * s] = np.nan
    rhs = system.single_state(0.2)
    for bad in (empty, nan):
        if std:
            for evaluate in (rhs, lambda X: system.jacobian(0.2, X),
                             lambda X: system.residual(0.2, X)):
                with pytest.raises(model.InadmissibleStateError,
                                   match=continuation.INADMISSIBLE):
                    evaluate(bad)
        else:
            R = system.residual(0.2, bad)
            assert np.array_equal(rhs(bad), R, equal_nan=True)


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
    rec = continue_branch(pat, system, [1e-8, 1e-7, 1e-6, 1e-5],
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
    rec = continue_branch(EquilibriumPattern((1, 1, 1)), system,
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
    rec = continue_branch(pat, system,
                          np.geomspace(1e-7, 1e-6, 49),
                          equilibria=eqs)
    assert rec.exit_alpha is not None
    # the first derivative vanishes on region 3, the second is negative,
    # so the crossing sits where alpha^2 overtakes the tiny linear inflow
    assert 1e-7 < rec.exit_alpha < 1e-6
    # the exit is the violating end of a bracket under 5% wide
    probe = continue_branch(pat, system, [rec.exit_alpha],
                            equilibria=eqs)
    assert -5e-9 < probe.points[-1].min_component < continuation.SIGN_EXIT_TOL


def test_derivative_cross_checks(mixed):
    models, eqs, R, net = mixed
    pat = EquilibriumPattern((0, 1, 0))
    rec = continue_branch(
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
    dfe = EquilibriumPattern((0, 0, 0))
    rec = continue_branch(dfe, system, [1e-5, 1e-3, 1e-1],
                          equilibria=eqs)
    assert rec.verdict_observed == "persists" and rec.failure is None
    assert [p.alpha for p in rec.points] == [0.0, 1e-5, 1e-3, 1e-1]
    X0 = continuation.product_state(dfe, eqs)
    for pt in rec.points:
        # one linear solve per alpha; at alpha = 0 the patches' own DFEs
        want = system.disease_free(pt.alpha) if pt.alpha else X0
        assert np.array_equal(pt.X, want)
        for i in range(3):
            blk = pt.X[i * 7:(i + 1) * 7]
            infected_removed = np.append(blk[:4], blk[6])
            assert np.all(infected_removed == 0.0)   # exactly +0.0
            assert not np.signbit(infected_removed).any()
            assert np.min(blk[4:6]) > 0.0             # susceptibles


def custom_patch(g_const, g_lin, beta=0.1, incidence="mass_action"):
    """A patch with one infected and one removed class."""
    m = len(g_const)
    return model.PatchModel(
        "custom", 1, m, 1, V=[[1.0]], D=[[1.0]], Z=[[1.0]],
        eta=[[[1.0]]] * m, beta=[[beta]] * m, incidence=incidence,
        g_const=g_const, g_lin=g_lin)


def dfe_branch(models, alphas, stop_at_exit=True, eqs=None):
    m = models[0].m
    net = network.from_edges([(0, 1), (1, 0)], r=2, n=1, m=m, k=1)
    eqs = eqs or [equilibria.patch_equilibria(mod) for mod in models]
    return continue_branch(
        EquilibriumPattern((0, 0)), continuation.CoupledSystem(models, net),
        alphas, equilibria=eqs, stop_at_exit=stop_at_exit)


def test_dfe_branch_that_leaves_the_cone_vanishes():
    # the DFE takes the exit rule of every branch: travel brings patch 2's
    # larger second susceptible class into patch 1, where it drains the
    # first class below zero by alpha = 10
    models = [custom_patch([4.5, 1.0], [[-1.0, -2.0], [0.0, -1.0]]),
              custom_patch([1.0, 5.0], -np.eye(2))]
    rec = dfe_branch(models, [0.1, 1.0, 10.0, 100.0])
    assert rec.failure is None
    assert rec.verdict_observed == "vanishes" and rec.exit_alpha == 10.0
    assert [p.alpha for p in rec.points] == [0.0, 0.1, 1.0, 10.0]
    assert rec.points[-1].min_component == pytest.approx(-0.2098, abs=1e-4)
    full = dfe_branch(models, [0.1, 1.0, 10.0, 100.0], stop_at_exit=False)
    assert full.exit_alpha == 10.0 and full.verdict_observed == "vanishes"
    assert [p.alpha for p in full.points] == [0.0, 0.1, 1.0, 10.0, 100.0]


def test_singular_disease_free_system_is_a_branch_failure():
    # patch 1's susceptibles grow (g_lin = 1) and patch 2's decay (-2): at
    # alpha = 2 the coupled susceptible matrix is [[-1, 2], [2, -4]]
    models = [custom_patch([-1.0], [[1.0]]), custom_patch([2.0], [[-2.0]])]
    rec = dfe_branch(models, [1.0, 2.0, 3.0])
    assert rec.failure == "singular disease-free system at alpha = 2"
    assert rec.verdict_observed is None and rec.exit_alpha is None
    assert [p.alpha for p in rec.points] == [0.0, 1.0]


def test_inadmissible_disease_free_state_is_a_branch_failure():
    # the exit test's drain, stronger and under standard incidence: at
    # alpha = 100 patch 1's susceptibles sum to N < 0
    models = [custom_patch([4.5, 1.0], [[-1.0, -4.0], [0.0, -1.0]],
                           incidence="standard"),
              custom_patch([1.0, 5.0], -np.eye(2), incidence="standard")]
    rec = dfe_branch(models, [100.0])
    assert rec.failure == ("disease-free state inadmissible at alpha = 100: "
                           f"{continuation.INADMISSIBLE}")
    assert rec.verdict_observed is None
    assert [p.alpha for p in rec.points] == [0.0]


def test_non_finite_disease_free_state_is_a_branch_failure():
    # each patch's susceptible level is 1e308; the coupled solve at alpha = 1
    # overflows on the way (its patches are given only their DFE, as the
    # endemic search would overflow first)
    mod = custom_patch([1e308], [[-1.0]], beta=0.0)
    dfe = equilibria.PatchEquilibrium(equilibria._threshold(mod)[1],
                                      "disease_free", 0, "stable", True)
    rec = dfe_branch([mod, mod], [1.0, 2.0], eqs=[[dfe], [dfe]])
    assert rec.failure == "disease-free state not finite at alpha = 1"
    assert rec.verdict_observed is None
    assert [p.alpha for p in rec.points] == [0.0]


def test_mixed_fixture_branch_persists_on_shipped_grid():
    # guards the corrector's merit and damping: (2, 1, 1) reaches
    # alpha = 0.1 on hiv_mixed's own grid without a corrector failure
    from patchepi import cli
    cfg = cli.load_config(cli.fixture_path("hiv_mixed.json"))
    models = cli.build_models(cfg)
    eqs = [equilibria.patch_equilibria(m) for m in models]
    system = continuation.CoupledSystem(models,
                                        cli.build_network(cfg, models))
    rec = continue_branch(EquilibriumPattern((2, 1, 1)), system,
                          cfg.alpha_grid, equilibria=eqs)
    assert rec.failure is None and rec.verdict_observed == "persists"
    assert [p.alpha for p in rec.points] == [0.0, 1e-5, 1e-3, 0.1]


def test_inadmissible_corrector_start_is_a_branch_failure(backward):
    models, eqs, R, net = backward
    # one Euler step from alpha = 0 to 1e-2 leaves a patch with N <= 0
    system = continuation.CoupledSystem(models, net)
    rec = continue_branch(EquilibriumPattern((2, 0, 2)), system,
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
    rec = continue_branch(EquilibriumPattern((2, 2, 2)), system,
                          [1e-6, 1e-5], equilibria=eqs)
    assert rec.verdict_observed == "persists"
    assert all(p.stability == "stable" for p in rec.points)
    rec_mixed = continue_branch(EquilibriumPattern((1, 2, 2)),
                                system, [1e-6], equilibria=eqs)
    # the lower endemic root is unstable and stays so under weak coupling
    assert all(p.stability == "unstable" for p in rec_mixed.points)


def test_predict_matches_continuation_fig3b(mixed):
    models, eqs, R, net = mixed
    system = continuation.CoupledSystem(models, net)
    for pat in equilibria.enumerate_patterns([len(e) - 1 for e in eqs]):
        v = persist.predict(pat, models, net, equilibria=eqs)
        rec = continue_branch(pat, system, [1e-6],
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
    rec = continue_branch(EquilibriumPattern((0, 1, 1)), system,
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
        want = continue_branch(pattern, system, grid, eqs)
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
        _assert_same_record(got, continue_branch(
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
    rec = continue_branch(EquilibriumPattern((1, 1, 1)), system,
                          grid, equilibria=eqs)
    assert rec.verdict_observed == "persists" and len(rec.points) == 5
    # one predictor solve per grid step, the rest are Newton iterations
    newton_iterations = len(solves) - len(grid)
    assert newton_iterations >= len(grid)
    assert len(jacobians) == len(rec.points) + newton_iterations


# ====================================================================
# Branch corrector
# ====================================================================

def _euler_predictors(system, eqs, alpha):
    """Every pattern's Euler predictor from alpha = 0, as _next_points
    forms it (the product state itself where the slope solve refuses)."""
    patterns = equilibria.enumerate_patterns([len(e) - 1 for e in eqs])
    X0 = np.array([continuation.product_state(p, eqs) for p in patterns])
    slope = matalg.solve_linear(system.jacobian(0.0, X0),
                                -(system.L @ X0[:, :, None])[:, :, 0])
    predictor = X0 + alpha * slope
    refused = np.isnan(slope).any(axis=1)
    predictor[refused] = X0[refused]
    return predictor


def _fixture_predictors(name, alpha):
    models, net, eqs = _fixture(name)
    system = continuation.CoupledSystem(models, net)
    return system, alpha, _euler_predictors(system, eqs, alpha)


def _far_starts():
    """hiv_backward's product states scaled entry by entry: a
    standard-incidence system where some rows' full Newton step and its
    first halving leave a patch with N <= 0."""
    models, eqs, R = hiv_system(BACKWARD_TRIPLE)
    system = continuation.CoupledSystem(models, hiv_net("fig3b"))
    patterns = equilibria.enumerate_patterns([len(e) - 1 for e in eqs])
    X0 = np.array([continuation.product_state(p, eqs) for p in patterns])
    rng = np.random.default_rng(0)
    return system, 0.0, X0 * np.exp(rng.normal(0.0, 1.5, X0.shape))


def _singular_start():
    """A marginal patch at its DFE, whose coupled Jacobian at alpha = 0 is
    singular, next to an endemic one. The removed class enters no
    incidence term, so moving it off equilibrium leaves each Jacobian as
    it is and gives the corrector a residual to correct."""
    models, eqs, R = hiv_system((marginal_beta1(), 1.0, 1.0))
    system = continuation.CoupledSystem(models, hiv_net("fig3b"))
    X0 = np.array([continuation.product_state(EquilibriumPattern(c), eqs)
                   for c in ((0, 1, 1), (1, 1, 1))])
    X0[:, 6] += 1.0            # region 0's removed class
    return system, 0.0, X0


CORRECTOR_CASES = {
    "backward_1e-2": (lambda: _fixture_predictors("hiv_backward.json", 1e-2),
                      {"ok", "Newton stalled", "corrector start inadmissible",
                       "Newton exceeded 60 iterations"}),
    "backward_0.1": (lambda: _fixture_predictors("hiv_backward.json", 0.1),
                     {"ok", "corrector start inadmissible"}),
    "mixed_0.1": (lambda: _fixture_predictors("hiv_mixed.json", 0.1),
                  {"ok", "Newton stalled", "corrector start inadmissible"}),
    "early_halvings_inadmissible": (_far_starts, {"ok"}),
    "singular_jacobian": (_singular_start, {"ok", "singular Jacobian"}),
    "every_full_step_accepted": (
        lambda: _fixture_predictors("hiv_backward.json", 1e-5), {"ok"}),
}


def _failure_kind(failure):
    return "ok" if failure is None else failure.split(" at alpha")[0]


@pytest.mark.parametrize("case", CORRECTOR_CASES)
def test_batched_corrector_matches_the_per_halving_oracle(case):
    build, kinds = CORRECTOR_CASES[case]
    system, alpha, X0 = build()
    with np.errstate(over="ignore", invalid="ignore"):
        X, rnorm, failures = continuation._newton_correct(system, alpha, X0)
        want_X, want_rnorm, want_failures = newton_correct(system, alpha, X0)
    assert X.tobytes() == want_X.tobytes()
    assert rnorm.tobytes() == want_rnorm.tobytes()
    assert failures == want_failures
    # each case reaches the outcomes it is named for
    assert {_failure_kind(f) for f in failures} == kinds


def test_far_starts_backtrack_past_inadmissible_halvings():
    system, alpha, X0 = _far_starts()
    res = system.residual(alpha, X0[:, None])[:, 0]
    step = matalg.solve_linear(system.jacobian(alpha, X0), -res)
    early = ~system.admissible(X0 + step) & ~system.admissible(X0 + 0.5 * step)
    X, rnorm, failures = continuation._newton_correct(system, alpha, X0)
    assert any(failures[i] is None for i in np.flatnonzero(early))


def _count_calls(monkeypatch):
    """Counts of CoupledSystem.residual and .jacobian calls."""
    calls = {"residual": 0, "jacobian": 0}
    for name in calls:
        real = getattr(continuation.CoupledSystem, name)

        def counted(self, alpha, X, real=real, name=name):
            calls[name] += 1
            return real(self, alpha, X)

        monkeypatch.setattr(continuation.CoupledSystem, name, counted)
    return calls


@pytest.mark.parametrize("case", ["backward_1e-2", "every_full_step_accepted"])
def test_corrector_takes_two_residual_calls_per_iteration(case, monkeypatch):
    system, alpha, X0 = CORRECTOR_CASES[case][0]()
    calls = _count_calls(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        continuation._newton_correct(system, alpha, X0)
        iterations, batched = calls["jacobian"], calls["residual"]
        calls.update(residual=0, jacobian=0)
        newton_correct(system, alpha, X0)
    # one Jacobian per Newton iteration; the start takes one residual call
    assert iterations == calls["jacobian"] >= 1
    assert batched <= 1 + 2 * iterations
    if case == "every_full_step_accepted":
        assert batched == 1 + iterations == calls["residual"]
    else:     # halving at a time, the rows at a fold take one call each
        assert calls["residual"] > 1 + 2 * iterations
