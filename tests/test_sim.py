import numpy as np
import pytest

from conftest import (BACKWARD_TRIPLE, MIXED_TRIPLE, RG1_SETS, RL1_SETS,
                      hiv_net, hiv_system)
from patchepi import continuation, equilibria, model, network, sim
from patchepi.equilibria import EquilibriumPattern


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
    for alpha in (0.0, 1e-3):
        traj = sim.integrate(system, alpha, X0, t_end=600.0)
        Xf = traj.states[-1]
        for i in range(3):
            blk = Xf[i * 7:(i + 1) * 7]
            assert np.max(np.abs(blk[:4])) < 1e-12
            assert abs(blk[6]) < 1e-12
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
    # a trial step evaluates five stage right-hand sides, and the start
    # and each accepted step one point (right-hand side and Jacobian)
    eqs, system = backward
    calls = {"rhs": 0, "point": 0, "trial": 0}
    single_state = continuation.CoupledSystem.single_state
    rodas_step = sim._rodas_step

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
    monkeypatch.setattr(sim, "_rodas_step", counted("trial", rodas_step))
    # loose tolerances, so that some trial steps are rejected
    traj = sim.integrate(system, 1e-3, np.array(RL1_SETS["blue"]),
                         t_end=300.0, rtol=1e-3, atol=1e-5)
    assert calls["trial"] > len(traj.times) - 1 > 10
    assert calls["point"] == len(traj.times)
    assert calls["rhs"] == 5 * calls["trial"]


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
        rec = continuation.continue_branch(pat, system, [1e-6, 1e-5],
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
    table = sim.basin_probe(continuation.CoupledSystem(models, net), 0.0,
                            [("seeded", seeded), ("empty", empty)],
                            t_end=2e3, classified=labels)
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
