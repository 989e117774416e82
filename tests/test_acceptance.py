"""Acceptance battery: the nine contract checks, one test each.

Every test re-derives what it needs from the public API, asserts the
stated tolerances, and enforces its wall-clock budget. `pytest -v
tests/test_acceptance.py` prints one pass/fail line per criterion.
"""
import itertools
import time

import numpy as np
import pytest

from conftest import (BACKWARD_TRIPLE, BASE, MIXED_TRIPLE, REGIME_BETA1,
                      hiv_eqs, hiv_facts, hiv_net, hiv_patch, hiv_system,
                      hiv_system_facts, random_admissible_state)
from patchepi import (cli, continuation, equilibria, matalg, model, network,
                      persist, sim)
from patchepi.model import split_state
from reference import (branch_derivative_check, count_stable,
                       m_matrix_characterizations, new_infection_operator,
                       patch_jacobian, patch_residual)


def test_01_patch_reproduction_numbers():
    t0 = time.perf_counter()
    above = model.hiv_vaccination(model.HivParams(**{**BASE, "beta1": 1.0}))
    window = model.hiv_vaccination(model.HivParams(**BASE))
    R_above = equilibria.local_reproduction_number(above)
    R_window = equilibria.local_reproduction_number(window)
    R_c = equilibria.bifurcation_report(
        equilibria.patch_facts(window)).R_c_estimate
    assert R_above == pytest.approx(1.12, abs=5e-3)
    assert R_c is not None and R_c < R_window < 1.0
    assert time.perf_counter() - t0 < 1.0


def test_02_backward_window_endemic_roots():
    t0 = time.perf_counter()
    mod = model.hiv_vaccination(model.HivParams(**BASE))
    report = equilibria.bifurcation_report(equilibria.patch_facts(mod))
    lams = sorted(report.endemic_lambdas)
    assert len(lams) == 2
    assert lams[0] == pytest.approx(0.0195, abs=1e-3)
    assert lams[1] == pytest.approx(0.1492, abs=1e-3)
    eqs = equilibria.patch_equilibria(mod)
    assert [eq.stability for eq in eqs[1:]] == ["unstable", "stable"]
    # stability must come from the Jacobian spectrum, so recheck it raw
    for eq in eqs[1:]:
        J = patch_jacobian(mod, eq.state)
        top = float(np.max(matalg.eigen_spectrum(J).real))
        assert (top > 0) == (eq.stability == "unstable")
    assert time.perf_counter() - t0 < 5.0


def test_03_exhaustive_digraph_regime_census():
    t0 = time.perf_counter()
    nets = network.enumerate_networks(3, n=4, m=2, k=1)
    assert len(nets) == 64
    attained = set()
    attained_connected = set()
    attained_irreducible = set()
    disconnected_eights = 0
    regimes = list(REGIME_BETA1.values())
    for triple in itertools.product(regimes, repeat=3):
        models = [hiv_patch(b) for b in triple]
        eqs = [list(hiv_eqs(b)) for b in triple]
        for net in nets:
            cnt = persist.count_persisting(models, net, equilibria=eqs)
            adj = net.adjacency()
            attained.add(cnt)
            if matalg.is_irreducible((adj | adj.T).astype(float)):
                attained_connected.add(cnt)
            elif cnt == 8:
                disconnected_eights += 1
            if matalg.is_irreducible(adj.T):
                attained_irreducible.add(cnt)
    assert attained_irreducible == {1, 2, 3, 4, 9, 10, 27}
    # On digraphs whose underlying undirected graph is connected, the
    # attained counts match the final assertion's set exactly.  A digraph
    # that splits the regions into isolated groups factorizes the coupled
    # system, so counts multiply across groups: an isolated above-threshold
    # region contributes a factor 2, and e.g. regimes (backward_window,
    # above_one, above_one) with the lone edge 1->2 attain 4 * 2 = 8.
    assert attained_connected == {1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 18, 27}
    assert attained - attained_connected == {8}
    assert disconnected_eights > 0
    assert time.perf_counter() - t0 < 120.0
    # The full-enumeration claim is unattainable as stated: the factorized
    # digraphs above genuinely attain 8.  Kept verbatim so the discrepancy
    # stays visible in this battery's output instead of being papered over.
    assert attained == {1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 18, 27}


def test_04_seed_and_spread_network_counts():
    t0 = time.perf_counter()
    models, eqs, R = hiv_system(MIXED_TRIPLE)
    R_c = equilibria.bifurcation_report(
        hiv_facts(MIXED_TRIPLE[0])).R_c_estimate
    assert R_c < R[0] < 1.0 and R[1] > 1.0 and R[2] > 1.0
    for name, want in (("fig4a", 4), ("fig4b", 5), ("fig4c", 6),
                       ("fig4d", 7)):
        got = persist.count_persisting(models, hiv_net(name),
                                       equilibria=eqs)
        assert got == want, name
    assert time.perf_counter() - t0 < 10.0


def test_05_predictions_match_continuation():
    t0 = time.perf_counter()
    mismatches = []
    for triple in (BACKWARD_TRIPLE, MIXED_TRIPLE):
        models, eqs, R = hiv_system(triple)
        counts = [len(e) - 1 for e in eqs]
        for name in sorted(network.PRESET_EDGES):
            net = hiv_net(name)
            system = continuation.CoupledSystem(models, net)
            for pat in equilibria.enumerate_patterns(counts):
                predicted = persist.predict(pat, models, net,
                                            equilibria=eqs)
                rec = continuation.continue_branch(pat, system, [1e-6],
                                                   equilibria=eqs)
                assert rec.failure is None, (triple, name, pat.choices)
                last = rec.points[-1]
                assert last.alpha == 1e-6
                observed = ("persists" if last.min_component >= -1e-9
                            else "vanishes")
                assert observed == rec.verdict_observed
                if predicted.verdict != observed:
                    mismatches.append((triple, name, pat.choices,
                                       predicted.verdict, observed))
    assert mismatches == []
    assert time.perf_counter() - t0 < 600.0


def test_06_branch_derivatives_match_finite_differences():
    t0 = time.perf_counter()
    models, eqs, _ = hiv_system(MIXED_TRIPLE)
    facts = hiv_system_facts(MIXED_TRIPLE)
    counts = [len(e) - 1 for e in eqs]
    checked = 0
    for name in sorted(network.PRESET_EDGES):
        net = hiv_net(name)
        for pat in equilibria.enumerate_patterns(counts):
            ders = [chain[0] for chain in
                    facts.derivative_chain(pat, net).values()]
            ders = [d for d in ders if d.sign_class != "zero"]
            if not ders:
                continue
            rec = continuation.continue_branch(
                pat, continuation.CoupledSystem(models, net), [5e-7, 1e-6],
                equilibria=eqs, stop_at_exit=False)
            assert rec.failure is None, (name, pat.choices)
            for der in ders:
                rel = branch_derivative_check(rec, der)
                assert rel < 1e-3, (name, pat.choices, der.region, rel)
                checked += 1
    assert checked > 20   # the scan must actually exercise blocks

    # two-step chain: first derivative vanishes, second carries the sign
    net = hiv_net("fig3b")
    pat = equilibria.EquilibriumPattern((0, 1, 0))
    d2 = facts.derivative_chain(pat, net)[2][-1]
    assert d2.order == 2 and d2.sign_class == "has_negative"
    rec = continuation.continue_branch(
        pat, continuation.CoupledSystem(models, net), [1e-6, 2e-6],
        equilibria=eqs, stop_at_exit=False)
    assert branch_derivative_check(rec, d2) < 1e-2
    assert time.perf_counter() - t0 < 60.0


def test_07_weak_coupling_stability_tally():
    t0 = time.perf_counter()
    models, eqs, _ = hiv_system(BACKWARD_TRIPLE)
    for name in ("fig3a", "fig3b"):
        tally = count_stable(models, hiv_net(name), 1e-5, equilibria=eqs)
        assert tally == (8, 19), name
    assert time.perf_counter() - t0 < 300.0


def test_08_dfe_branch_stays_disease_free():
    t0 = time.perf_counter()
    models, eqs, _ = hiv_system(BACKWARD_TRIPLE)
    pat = equilibria.EquilibriumPattern((0, 0, 0))
    rec = continuation.continue_branch(
        pat, continuation.CoupledSystem(models, hiv_net("fig3b")),
        [1e-5, 1e-3, 1e-1], equilibria=eqs)
    assert rec.failure is None and rec.verdict_observed == "persists"
    assert [p.alpha for p in rec.points] == [0.0, 1e-5, 1e-3, 1e-1]
    for pt in rec.points[1:]:
        for i in range(3):
            blk = pt.X[i * 7:(i + 1) * 7]
            assert np.all(np.abs(blk[:4]) <= 1e-12)   # infected classes
            assert abs(blk[6]) <= 1e-12               # AIDS class
            assert blk[4] > 0 and blk[5] > 0          # S, S_V
    assert time.perf_counter() - t0 < 10.0


def random_hiv_params(rng):
    rho1 = rng.uniform(0.05, 0.95)
    pi1 = rng.uniform(0.05, 0.95)
    return model.HivParams(
        Lam=rng.uniform(0.5, 2.0), mu=rng.uniform(0.02, 0.2),
        gam=rng.uniform(0.01, 0.2), delta=rng.uniform(0.5, 2.0),
        p=rng.uniform(0.3, 0.999), q=rng.uniform(0.1, 0.9),
        rho1=rho1, rho2=1.0 - rho1, pi1=pi1, pi2=1.0 - pi1,
        th1=rng.uniform(0.2, 2.0), th2=rng.uniform(0.2, 2.0),
        s1=rng.uniform(0.2, 2.0), s2=rng.uniform(0.2, 2.0),
        sig1=rng.uniform(0.1, 2.0), sig2=rng.uniform(0.5, 20.0),
        beta1=rng.uniform(0.05, 2.5), beta2=rng.uniform(0.05, 2.5))


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


def test_09_property_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)

    # Z-matrix M-property equivalent to inverse nonnegativity, 1000 draws
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        B = rng.uniform(0.0, 1.0, (d, d))
        shift = float(rng.uniform(0.3, 1.7))
        if 0.95 < shift < 1.05:
            shift += 0.2   # stay clear of the singular transition
        A = shift * matalg.spectral_radius(B) * np.eye(d) - B
        is_m = matalg.is_nonsingular_M(A)
        inverse_nonneg, min_real_eig = m_matrix_characterizations(A)
        assert matalg.z_pattern_check(A)
        assert is_m == (shift > 1.0)
        assert inverse_nonneg == is_m
        assert (min_real_eig > 0) == is_m

    # sign dichotomy of (V - F) v = u across 500 random parameter draws
    kept = 0
    while kept < 500:
        params = random_hiv_params(rng)
        mod = model.hiv_vaccination(params)
        patch = equilibria.patch_facts(mod)
        R = patch.R
        if abs(R - 1.0) < 1e-3:
            continue   # the dichotomy splits exactly at R = 1
        dfe = patch.equilibria[0].state
        VmF = mod.V - new_infection_operator(mod, dfe)
        v = matalg.solve_linear(VmF, rng.uniform(0.1, 1.0, mod.n))
        if R < 1.0:
            assert np.all(v > 0.0)
        else:
            assert np.any(v < 0.0)
        kept += 1

    # pattern enumeration against the raw product
    for counts in ([2, 1, 1], [2, 2, 2], [0, 3, 1], [1, 0, 2, 1]):
        pats = [p.choices for p in equilibria.enumerate_patterns(counts)]
        brute = list(itertools.product(*(range(c + 1) for c in counts)))
        assert sorted(pats) == sorted(brute)
        assert len(pats) == len(set(pats))

    # reachability and in-between counts against walk powers
    for net in network.enumerate_networks(3, n=1, m=1, k=1):
        adj = net.adjacency().astype(int)
        powers = {1: adj, 2: adj @ adj}
        for mask in itertools.product((0, 1), repeat=3):
            cls = network.classify_pattern(
                net, equilibria.EquilibriumPattern(mask))
            for i in range(3):
                if mask[i]:
                    assert cls.m_values[i] is None
                    continue
                dists = [d for d in (1, 2) for j in range(3)
                         if mask[j] and powers[d][j, i]]
                want = min(dists) - 1 if dists else 2
                assert cls.m_values[i] == want
                assert cls.reachable_from_eat[i] == bool(dists)

    # analytic Jacobians against central differences, every family
    families = [
        hiv_patch(0.85),
        model.multigroup([[0.02, 0.01], [0.005, 0.03]], [1.0, 0.8],
                         0.05, [0.05, 0.1]),
        model.stage_progression([0.04, 0.01], [0.2, 0.1], 1.0, 0.05),
        model.multistrain([0.05, 0.07], [0.3, 0.4], 1.0, 0.1),
    ]
    for mod in families:
        for _ in range(3):
            s = split_state(mod, random_admissible_state(mod, rng))
            J = patch_jacobian(mod, s)
            scale = 1.0 + float(np.max(np.abs(J)))
            assert np.max(np.abs(J - fd_jacobian(mod, s))) / scale < 1e-5

    # every trajectory the shipped fixtures define stays nonnegative
    for name in ("hiv_backward.json", "hiv_mixed.json", "hiv_above_one.json",
                 "hiv_below_rc.json", "zero_transmission.json"):
        cfg = cli.load_config(cli.fixture_path(name))
        models = cli.build_models(cfg)
        system = continuation.CoupledSystem(
            models, cli.build_network(cfg, models))
        for alpha in cfg.alpha_grid:
            for label, regions in cfg.initial_sets:
                X0 = np.concatenate([np.asarray(st, dtype=float)
                                     for st in regions])
                traj = sim.integrate(system, alpha, X0,
                                     t_end=cfg.t_end, rtol=cfg.rtol,
                                     atol=cfg.atol)
                assert float(traj.states.min()) >= -1e-9, \
                    (name, label, alpha)

    assert time.perf_counter() - t0 < 300.0
