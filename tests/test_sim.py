import numpy as np
import pytest

from conftest import (BACKWARD_TRIPLE, MIXED_TRIPLE, RG1_SETS, RL1_SETS,
                      hiv_net, hiv_system)
from patchepi import continuation, equilibria, model, network, sim
from patchepi.equilibria import EquilibriumPattern


@pytest.fixture(scope="module")
def backward():
    models, eqs, R = hiv_system(BACKWARD_TRIPLE)
    return models, eqs, hiv_net("fig3b")


@pytest.fixture(scope="module")
def product_labels(backward):
    models, eqs, net = backward
    pats = equilibria.enumerate_patterns([len(e) - 1 for e in eqs])
    return [("-".join(str(c) for c in p.choices),
             continuation.product_state(p, eqs)) for p in pats]


def test_disease_free_subspace_invariant(backward):
    models, eqs, net = backward
    X0 = np.zeros(21)
    for i in range(3):
        X0[i * 7 + 4] = 3.0
        X0[i * 7 + 5] = 2.0
    for alpha in (0.0, 1e-3):
        traj = sim.integrate(models, net, alpha, X0, t_end=600.0)
        Xf = traj.terminal_state
        for i in range(3):
            blk = Xf[i * 7:(i + 1) * 7]
            assert np.max(np.abs(blk[:4])) < 1e-12
            assert abs(blk[6]) < 1e-12
    # susceptibles approach the patch disease-free levels when decoupled
    traj = sim.integrate(models, net, 0.0, X0, t_end=600.0)
    assert np.allclose(traj.terminal_state[4:6], [10.01, 9.99], atol=1e-6)


def test_trajectory_structure(backward):
    models, eqs, net = backward
    X0 = np.array(RL1_SETS["blue"])
    traj = sim.integrate(models, net, 0.0, X0, t_end=50.0)
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(50.0)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.states.shape == (traj.times.size, 21)
    assert np.array_equal(traj.states[0], X0)
    assert np.array_equal(traj.terminal_state, traj.states[-1])
    assert traj.terminal_classification == "unresolved"  # nothing supplied


def test_rl1_terminal_census_alpha_zero(backward, product_labels):
    """Four seeded runs of the decoupled backward regime reach three
    distinct product states; nonnegativity holds along every trajectory."""
    models, eqs, net = backward
    got = {}
    for name, X0 in RL1_SETS.items():
        traj = sim.integrate(models, net, 0.0, np.array(X0, dtype=float),
                             t_end=5e3, classified=product_labels)
        got[name] = traj.terminal_classification
        assert min(float(np.min(s)) for s in traj.states) >= sim.UNDERSHOOT_TOL
    assert got["blue"] == "2-2-2"
    assert got["red"] == "2-2-0"
    assert got["black"] == "0-0-0"
    assert got["green"] == "0-0-0"
    assert len(set(got.values())) == 3


def test_weak_coupling_keeps_the_blue_terminal(backward, product_labels):
    models, eqs, net = backward
    labels5 = []
    for pat in equilibria.enumerate_patterns([len(e) - 1 for e in eqs]):
        rec = continuation.continue_branch(pat, models, net, [1e-6, 1e-5],
                                           equilibria=eqs)
        if rec.verdict_observed == "persists" and rec.failure is None:
            labels5.append(("-".join(str(c) for c in pat.choices),
                            rec.points[-1].X))
    traj = sim.integrate(models, net, 1e-5,
                         np.array(RL1_SETS["blue"], dtype=float),
                         t_end=5e3, classified=labels5)
    assert traj.terminal_classification == "2-2-2"


def test_take_off_in_supercritical_regions():
    models, eqs, R = hiv_system(MIXED_TRIPLE)
    net = hiv_net("fig4c")
    for name in ("blue", "black"):
        X0 = np.array(RG1_SETS[name], dtype=float)
        # seeded only in region 1; regions 2 and 3 start disease-free
        assert np.all(X0[7:11] == 0.0) and np.all(X0[14:18] == 0.0)
        traj = sim.integrate(models, net, 1e-5, X0, t_end=5e3)
        Xf = traj.terminal_state
        assert np.sum(Xf[7:11]) > 0.1
        assert np.sum(Xf[14:18]) > 0.1


def test_return_to_stable_equilibrium(backward):
    models, eqs, net = backward
    Xeq = continuation.product_state(EquilibriumPattern((2, 2, 2)), eqs)
    rng = np.random.default_rng(3)
    Xp = Xeq * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, Xeq.size))
    traj = sim.integrate(models, net, 0.0, Xp, t_end=1e4)
    assert np.max(np.abs(traj.terminal_state - Xeq)) < 1e-6


def test_inadmissible_initial_state_raises(backward):
    models, eqs, net = backward
    # all-zero population: standard incidence is undefined at t = 0, which
    # is a caller error rather than a step-control failure
    with pytest.raises(model.InadmissibleStateError):
        sim.integrate(models, net, 0.0, np.zeros(21), t_end=1.0)


def test_step_size_underflow_on_finite_time_blowup():
    # superlinear recruitment g(y) = 1 + y^2 blows up at finite time; the
    # controller must shrink h to the floor and report it, not loop forever
    blow = model.PatchModel(
        family="custom", n=1, m=1, k=1, V=[[1.0]], D=[[1.0]], Z=[[1.0]],
        eta=[[[1.0]]], beta=[[0.0]], incidence="mass_action",
        g_const=[1.0], g_lin=[[0.0]],
        g_func=lambda y: 1.0 + y ** 2)
    net = network.from_edges([], r=1, n=1, m=1, k=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(sim.StepSizeUnderflowError):
            sim.integrate([blow], net, 0.0, np.array([0.0, 1.0, 0.0]),
                          t_end=5.0)


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
    table = sim.basin_probe(models, net, 0.0,
                            [("seeded", seeded), ("empty", empty)],
                            t_end=2e3, classified=labels)
    assert table == [("seeded", "1-1-1"), ("empty", "0-0-0")]


def test_tolerances_change_steps_not_the_answer(backward, product_labels):
    models, eqs, net = backward
    X0 = np.array(RL1_SETS["green"], dtype=float)
    loose = sim.integrate(models, net, 0.0, X0, t_end=2e3,
                          classified=product_labels)
    tight = sim.integrate(models, net, 0.0, X0, t_end=2e3,
                          rtol=sim.DEFAULT_RTOL / 2, atol=sim.DEFAULT_ATOL / 2,
                          classified=product_labels)
    assert loose.terminal_classification == tight.terminal_classification
    assert np.max(np.abs(loose.terminal_state - tight.terminal_state)) < 1e-5
