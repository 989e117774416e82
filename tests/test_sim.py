import dataclasses
import warnings

import numpy as np
import pytest

from conftest import (BACKWARD_TRIPLE, MIXED_TRIPLE, RG1_SETS, RL1_SETS,
                      hiv_net, hiv_system, kernel_cases)
from patchepi import (cli, continuation, equilibria, matalg, model, network,
                      sim)
from patchepi.equilibria import EquilibriumPattern
from reference import classify_terminal, continue_branch, rodas_trajectory


@pytest.fixture(scope="module")
def backward():
    models, eqs, R = hiv_system(BACKWARD_TRIPLE)
    return eqs, continuation.CoupledSystem(models, hiv_net("fig3b"))


@pytest.fixture(scope="module")
def product_labels(backward):
    eqs, _ = backward
    pats = equilibria.enumerate_patterns([len(e) - 1 for e in eqs])
    return [("-".join(str(c) for c in p.choices),
             continuation.product_state(p, eqs)) for p in pats]


def test_disease_free_subspace_invariant(backward):
    eqs, system = backward
    X0 = np.zeros(21)
    for i in range(3):
        X0[i * 7 + 4] = 3.0
        X0[i * 7 + 5] = 2.0
    # the infected (first four) and removed (last) entries of each region
    # stay exactly +0.0 at every stored step, travel or none
    zero = np.array([k for k in range(21) if k % 7 not in (4, 5)])
    for alpha in (0.0, 1e-3, 0.1):
        traj = sim.integrate(system, alpha, X0, t_end=600.0)
        held = traj.states[:, zero]
        assert np.all(held == 0.0) and not np.any(np.signbit(held)), alpha
    # susceptibles approach the patch disease-free levels when decoupled
    traj = sim.integrate(system, 0.0, X0, t_end=600.0)
    assert np.allclose(traj.states[-1][4:6], [10.01, 9.99], atol=1e-6)


def test_trajectory_structure(backward):
    eqs, system = backward
    X0 = np.array(RL1_SETS["blue"])
    traj = sim.integrate(system, 0.0, X0, t_end=50.0)
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(50.0)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.states.shape == (traj.times.size, 21)
    assert np.array_equal(traj.states[0], X0)
    assert traj.terminal_classification == "unresolved"  # nothing supplied


def test_integrate_builds_no_coupled_system(backward, coupled_systems_built):
    # the caller's system serves the stage right-hand sides and the
    # Jacobians of every trajectory, at every alpha
    eqs, system = backward
    for alpha in (0.0, 1e-3):
        sim.integrate(system, alpha, np.array(RL1_SETS["blue"]), t_end=5.0)
    assert coupled_systems_built == []


def test_work_per_step(backward, monkeypatch):
    # the counts on the trajectory are the calls made: right-hand sides
    # (point's included), Jacobians (point) and inverses of I - c J. The
    # Jacobian is reused across many steps, a trial step evaluates at most
    # four right-hand sides, and the start one point
    eqs, system = backward
    calls = {"rhs": 0, "point": 0, "inverse": 0}
    single_state = continuation.CoupledSystem.single_state
    inverse = matalg._inverse

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def counting_single_state(self, alpha):
        rhs, point = single_state(self, alpha)
        return counted("rhs", rhs), counted("point", point)

    monkeypatch.setattr(continuation.CoupledSystem, "single_state",
                        counting_single_state)
    monkeypatch.setattr(matalg, "_inverse", counted("inverse", inverse))
    X0 = np.array(RL1_SETS["blue"])
    runs = []
    # default tolerances, then loose ones that reject some trial steps
    for tols in ({}, {"rtol": 1e-3, "atol": 1e-5}):
        calls.update(dict.fromkeys(calls, 0))
        traj = sim.integrate(system, 1e-3, X0, t_end=300.0, **tols)
        work, steps = traj.work, len(traj.times) - 1
        assert set(work) == set(sim.WORK_COUNTS)
        assert work["rhs"] == calls["rhs"] + calls["point"]
        assert work["jacobians"] == calls["point"]
        assert work["inverses"] == calls["inverse"]
        rejected = sum(work[key] for key in sim.WORK_COUNTS
                       if key.startswith("rejected_"))
        assert work["rhs"] <= 4 * (steps + rejected) + 1
        runs.append((steps, rejected, work["jacobians"]))
    (steps, _, jacobians), (_, loose_rejected, _) = runs
    assert steps > 10 and jacobians <= steps / 5
    assert loose_rejected >= 1


def test_undershoot_is_refused_not_clipped():
    # a pure decay at loose tolerances: trial steps that would take the
    # infected class below -1e-9 are refused and retried smaller, and the
    # stored states keep their small negative values
    mg = model.multigroup([[0.0]], 1.0, 0.05, 0.05)
    net = network.from_edges([], r=1, n=1, m=1, k=1)
    traj = sim.integrate(continuation.CoupledSystem([mg], net), 0.0,
                         np.array([5.0, 10.0, 0.0]), t_end=2e3, rtol=1e-3,
                         atol=1e-5)
    assert traj.work["rejected_undershoot"] > 0
    assert sim.UNDERSHOOT_TOL <= traj.states.min() < 0.0


def test_rl1_terminal_census_alpha_zero(backward, product_labels):
    """Four seeded runs of the decoupled backward regime reach three
    distinct product states; nonnegativity holds along every trajectory."""
    eqs, system = backward
    got = {}
    for name, X0 in RL1_SETS.items():
        traj = sim.integrate(system, 0.0, np.array(X0, dtype=float),
                             t_end=5e3, classified=product_labels)
        got[name] = traj.terminal_classification
        assert min(float(np.min(s)) for s in traj.states) >= sim.UNDERSHOOT_TOL
    assert got["blue"] == "2-2-2"
    assert got["red"] == "2-2-0"
    assert got["black"] == "0-0-0"
    assert got["green"] == "0-0-0"
    assert len(set(got.values())) == 3


def test_weak_coupling_keeps_the_blue_terminal(backward, product_labels):
    eqs, system = backward
    labels5 = []
    for pat in equilibria.enumerate_patterns([len(e) - 1 for e in eqs]):
        rec = continue_branch(pat, system, [1e-6, 1e-5],
                              equilibria=eqs)
        if rec.verdict_observed == "persists" and rec.failure is None:
            labels5.append(("-".join(str(c) for c in pat.choices),
                            rec.points[-1].X))
    traj = sim.integrate(system, 1e-5,
                         np.array(RL1_SETS["blue"], dtype=float),
                         t_end=5e3, classified=labels5)
    assert traj.terminal_classification == "2-2-2"


def test_take_off_in_supercritical_regions():
    models, eqs, R = hiv_system(MIXED_TRIPLE)
    system = continuation.CoupledSystem(models, hiv_net("fig4c"))
    for name in ("blue", "black"):
        X0 = np.array(RG1_SETS[name], dtype=float)
        # seeded only in region 1; regions 2 and 3 start disease-free
        assert np.all(X0[7:11] == 0.0) and np.all(X0[14:18] == 0.0)
        traj = sim.integrate(system, 1e-5, X0, t_end=5e3)
        Xf = traj.states[-1]
        assert np.sum(Xf[7:11]) > 0.1
        assert np.sum(Xf[14:18]) > 0.1


def test_return_to_stable_equilibrium(backward):
    eqs, system = backward
    Xeq = continuation.product_state(EquilibriumPattern((2, 2, 2)), eqs)
    rng = np.random.default_rng(3)
    Xp = Xeq * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, Xeq.size))
    traj = sim.integrate(system, 0.0, Xp, t_end=1e4)
    assert np.max(np.abs(traj.states[-1] - Xeq)) < 1e-6


def test_inadmissible_initial_state_raises(backward):
    eqs, system = backward
    # all-zero population: standard incidence is undefined at t = 0, which
    # is a caller error rather than a step-control failure
    with pytest.raises(model.InadmissibleStateError):
        sim.integrate(system, 0.0, np.zeros(21), t_end=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_initial_state_raises(backward, bad):
    # refused up front, not as inadmissible (NaN) or by halving h into a
    # step-size underflow at t = 0 (inf)
    eqs, system = backward
    X0 = np.array(RL1_SETS["blue"], dtype=float)
    X0[5] = bad
    with pytest.raises(ValueError, match="X0 has non-finite components"):
        sim.integrate(system, 0.0, X0, t_end=1.0)


@pytest.mark.parametrize("name, bad", [
    ("t_end", np.nan), ("t_end", np.inf), ("t_end", 0.0),
    ("rtol", -1e-8), ("rtol", np.nan), ("atol", np.nan), ("atol", 0.0)])
def test_bad_horizon_or_tolerance_raises(backward, monkeypatch, name, bad):
    # refused before the first step: a NaN horizon would otherwise run out
    # its step budget, a negative rtol return a trajectory, and the rest
    # end in a misleading step size underflow
    eqs, system = backward
    monkeypatch.setattr(sim, "MAX_STEPS", 3000)
    kwargs = {"t_end": 10.0, "rtol": 1e-8, "atol": 1e-10, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be finite and "
                                         "positive"):
        sim.integrate(system, 0.0, np.array(RL1_SETS["blue"]), **kwargs)


def kernel_starts(case):
    """(system, alpha, X0) at alpha 0 and 3e-3 from a seeded start."""
    models, net = kernel_cases()[case]
    system = continuation.CoupledSystem(models, net)
    rng = np.random.default_rng(26)
    for alpha in (0.0, 3e-3):
        X0 = np.abs(rng.normal(3.0, 1.0, size=net.r * models[0].size)) + 0.1
        yield system, alpha, X0


def assert_same_end(X, X_ref):
    # agreement at the final state, relative to its size; the tolerances
    # of both runs are 1e-8 relative and 1e-10 absolute
    assert np.max(np.abs(X - X_ref)) <= 1e-6 * (1.0 + np.max(np.abs(X)))


@pytest.mark.parametrize("case", sorted(kernel_cases()))
def test_integrate_agrees_with_the_rodas4_oracle(case):
    # the one-step Rosenbrock run of the reference shares no step with the
    # multistep NDF, for every model family and incidence mix
    for system, alpha, X0 in kernel_starts(case):
        traj = sim.integrate(system, alpha, X0, t_end=20.0)
        times, states = rodas_trajectory(system, alpha, X0, t_end=20.0)
        assert traj.times.size > 10 and times[-1] == traj.times[-1] == 20.0
        assert_same_end(traj.states[-1], states[-1])


@pytest.mark.parametrize("case", sorted(kernel_cases()))
def test_integrate_agrees_with_scipy_bdf(case):
    # scipy's NDF on the kernel's residual and jacobian; scipy is a
    # test-time oracle, which the package does not import
    from scipy.integrate import solve_ivp
    for system, alpha, X0 in kernel_starts(case):
        traj = sim.integrate(system, alpha, X0, t_end=20.0)
        sol = solve_ivp(lambda t, X: system.residual(alpha, X), (0.0, 20.0),
                        X0, method="BDF", rtol=sim.DEFAULT_RTOL,
                        atol=sim.DEFAULT_ATOL,
                        jac=lambda t, X: system.jacobian(alpha, X))
        assert sol.success and sol.t[-1] == 20.0
        assert_same_end(traj.states[-1], sol.y[:, -1])


@pytest.mark.parametrize("incidence", ["standard", "mass_action"])
def test_singular_newton_matrix_refuses_the_step(incidence):
    # J = I / c makes I - c J exactly zero: its inverse is NaN, and the
    # Newton iteration refuses the step as not finite under integrate's
    # errstate, with no other warning
    mg = model.multigroup([[0.06, 0.01], [0.02, 0.05]], 1.0, 0.05, 0.05)
    mg = dataclasses.replace(mg, incidence=incidence)
    net = network.preset("fig3c", n=2, m=2, k=2)
    system = continuation.CoupledSystem([mg] * 3, net)
    X = np.tile([0.3, 0.2, 10.0, 8.0, 0.1, 0.1], 3)
    rhs, point = system.single_state(1e-3)
    c = 0.01
    M = np.eye(X.size) - c * (np.eye(X.size) / c)
    assert not M.any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            W = matalg._inverse(M)
            out = sim._newton(rhs, X, None, c, np.zeros(X.size), W,
                              system.solve_order, 1e-10 + 1e-8 * X, 1e-4)
    assert np.isnan(W).all()
    assert out == ("inadmissible", 1, None)


def test_inverse_is_numpy_inverse_bit_for_bit():
    # on a seeded stack of 21 x 21 matrices over twelve decades, and on
    # the Newton matrices I - c J of the shipped fixtures' product states
    rng = np.random.default_rng(26)
    stack = rng.normal(size=(64, 21, 21)) * 10.0 ** rng.uniform(
        -6.0, 6.0, size=(64, 1, 1))
    assert np.array_equal(matalg._inverse(stack), np.linalg.inv(stack))
    for M in stack:
        assert np.array_equal(matalg._inverse(M), np.linalg.inv(M))
    checked = 0
    for name in ("hiv_above_one", "hiv_backward", "hiv_below_rc", "hiv_mixed",
                 "zero_transmission"):
        config = cli.load_config(cli.fixture_path(name + ".json"))
        models = cli.build_models(config)
        system = continuation.CoupledSystem(
            models, cli.build_network(config, models))
        eqs = [equilibria.patch_facts(mod).equilibria for mod in models]
        patterns = equilibria.enumerate_patterns([len(e) - 1 for e in eqs])
        for alpha in config.alpha_grid:
            rhs, point = system.single_state(alpha)
            for pat in patterns:
                J = point(continuation.product_state(pat, eqs))[1]
                for c in (1e-3, 1.0, 1e3):
                    M = np.eye(len(J)) - c * J
                    assert np.array_equal(matalg._inverse(M),
                                          np.linalg.inv(M)), name
                    checked += 1
    assert checked > 100


@pytest.mark.parametrize("tol, beta", [(1e-300, 0.06), (None, 1e200)],
                         ids=["tolerance_1e-300", "beta_1e200"])
def test_step_size_underflow_on_non_finite_first_step(tol, beta):
    # the first-step estimate overflows on a tolerance near the underflow
    # limit (h would be NaN) and on a slope past the largest float (h would
    # be 0): the step falls back to 1e-6 and rejected steps take it to the
    # floor at t = 0, instead of MAX_STEPS steps that never advance t or a
    # division by h = 0
    mg = model.multigroup([[beta]], 1.0, 0.05, 0.05)
    net = network.from_edges([], r=1, n=1, m=1, k=1)
    tols = {} if tol is None else {"rtol": tol, "atol": tol}
    with pytest.raises(sim.StepSizeUnderflowError,
                       match="step size underflow at t = 0 "):
        sim.integrate(continuation.CoupledSystem([mg], net), 0.0,
                      np.array([0.1, 10.0, 0.0]), t_end=10.0, **tols)


def test_step_size_underflow_on_unmeetable_tolerance(backward):
    # a finite first step that no step can meet: rejections reach the floor
    eqs, system = backward
    X0 = np.array(RL1_SETS["green"], dtype=float)
    with pytest.raises(sim.StepSizeUnderflowError,
                       match="step size underflow at t = 0 "):
        sim.integrate(system, 0.0, X0, rtol=1e-30, atol=1e-30)


def test_basin_probe_multigroup():
    mg = model.multigroup([[0.06]], 1.0, 0.05, 0.05)
    models = [mg, mg, mg]
    eqs = [equilibria.patch_equilibria(m) for m in models]
    net = network.preset("fig3c", n=1, m=1, k=1)
    labels = [("-".join(str(c) for c in p.choices),
               continuation.product_state(p, eqs))
              for p in equilibria.enumerate_patterns([1, 1, 1])]
    seeded = np.array([0.3, 10.0, 0.0] * 3)
    empty = np.array([0.0, 2.0, 0.0] * 3)
    system = continuation.CoupledSystem(models, net)
    table = [(label, sim.integrate(system, 0.0, X0, t_end=2e3,
                                   classified=labels).terminal_classification)
             for label, X0 in (("seeded", seeded), ("empty", empty))]
    assert table == [("seeded", "1-1-1"), ("empty", "0-0-0")]


def test_tolerances_change_steps_not_the_answer(backward, product_labels):
    eqs, system = backward
    X0 = np.array(RL1_SETS["green"], dtype=float)
    loose = sim.integrate(system, 0.0, X0, t_end=2e3,
                          classified=product_labels)
    tight = sim.integrate(system, 0.0, X0, t_end=2e3,
                          rtol=sim.DEFAULT_RTOL / 2, atol=sim.DEFAULT_ATOL / 2,
                          classified=product_labels)
    assert loose.terminal_classification == tight.terminal_classification
    assert np.max(np.abs(loose.states[-1] - tight.states[-1])) < 1e-5


def _classify_both(X, classified):
    got = sim._classify_terminal(np.asarray(X, dtype=float), classified)
    assert got == classify_terminal(np.asarray(X, dtype=float), classified)
    return got


def test_classify_terminal_matches_the_one_at_a_time_oracle(product_labels):
    tol = sim.CLASSIFY_TOL
    zero, unit = np.zeros(3), np.ones(3)
    assert _classify_both(zero, []) == "unresolved"
    # equal distances: the first equilibrium wins, duplicated or mirrored
    assert _classify_both(zero, [("a", zero), ("b", zero)]) == "a"
    mirrored = [("a", unit * tol / 2), ("b", -unit * tol / 2)]
    assert _classify_both(zero, mirrored) == "a"
    assert _classify_both(zero, mirrored[::-1]) == "b"
    # the nearer equilibrium wins wherever it is listed
    near = [("far", unit * tol * 0.9), ("near", unit * tol * 0.1)]
    assert _classify_both(zero, near) == "near"
    # distance max|X - Xeq| / (1 + max|Xeq|) exactly at the tolerance
    # counts, the next float above it does not
    at = np.array([tol, 0.0, 0.0])
    assert _classify_both(at, [("a", zero)]) == "a"
    assert _classify_both(np.nextafter(at, 1.0), [("a", zero)]) == "unresolved"
    # a NaN state is within no tolerance; a NaN equilibrium is skipped
    assert _classify_both(np.full(3, np.nan), [("a", zero)]) == "unresolved"
    nan_first = [("nan", np.full(3, np.nan)), ("a", zero)]
    assert _classify_both(zero, nan_first) == "a"
    # states near the hiv_backward product equilibria, at distances that
    # straddle the tolerance
    rng = np.random.default_rng(3)
    labels = set()
    for label, Xeq in product_labels:
        for scale in (0.5, 0.99, 1.01, 3.0):
            X = Xeq + rng.uniform(-1.0, 1.0, Xeq.shape) * scale * tol * (
                1.0 + np.abs(Xeq).max())
            labels.add(_classify_both(X, product_labels))
    assert "unresolved" in labels and len(labels) > 10
