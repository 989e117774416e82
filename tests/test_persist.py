import itertools

import numpy as np
import pytest

from conftest import (hiv_net, hiv_system, hiv_system_facts, marginal_beta1,
                      BACKWARD_TRIPLE, MIXED_TRIPLE, REGIME_BETA1)
from patchepi import cli, equilibria, matalg, model, network, persist
from patchepi.equilibria import EquilibriumPattern

# chain-coupling oracle values for the mixed regime on fig3b, pattern
# (0, 1, 0): region 1 is fed directly by the endemic region 2, region 3
# only through region 1. Frozen from the linear-solve recursion once it
# was verified against continued branches.
D1_REGION0 = np.array([41.33224966, 2.81527788, 119.45198975, 0.40100995])
D2_REGION2 = np.array([-2422.31099934, -176.73212758, -6174.35795119,
                       -25.07646832])


@pytest.fixture(scope="module")
def mixed():
    models, eqs, R = hiv_system(MIXED_TRIPLE)
    return models, eqs, R, hiv_net("fig3b")


def _persisting_count(models, net):
    """The count census --exhaustive-networks runs on net."""
    return persist.SystemFacts([equilibria.patch_facts(m)
                                for m in models]).persisting_count(net)


def _chain(net, choices=(0, 1, 0)):
    return hiv_system_facts(MIXED_TRIPLE).derivative_chain(
        EquilibriumPattern(choices), net)


def test_first_derivative_oracle(mixed):
    models, eqs, R, net = mixed
    d1 = _chain(net)[0][0]
    assert d1.order == 1 and d1.region == 0
    assert d1.sign_class == "positive"
    assert np.allclose(d1.value, D1_REGION0, rtol=1e-7)


def test_first_derivative_zero_without_direct_inflow(mixed):
    models, eqs, R, net = mixed
    # region 3 receives only from the disease-free region 1
    d1 = _chain(net)[2][0]
    assert d1.sign_class == "zero"
    assert np.all(d1.value == 0.0)


def test_second_derivative_oracle(mixed):
    models, eqs, R, net = mixed
    d2 = _chain(net)[2][1]
    assert d2.sign_class == "has_negative"
    assert np.allclose(d2.value, D2_REGION2, rtol=1e-7)


def test_higher_derivative_preconditions(mixed):
    models, eqs, R, net = mixed
    chain = _chain(net)
    # region 0 is signed at order 1, so order 2 is never taken for it; the
    # endemic region 1 has no branch derivative; region 2 stops at r - 1
    assert {i: [d.order for d in ders] for i, ders in chain.items()} == {
        0: [1], 2: [1, 2]}


def test_derivative_chain_orders(mixed):
    models, eqs, R, net = mixed
    chain = _chain(net)
    assert set(chain) == {0, 2}
    assert chain[0][-1].order == 1 and chain[0][-1].sign_class == "positive"
    assert (chain[2][-1].order == 2
            and chain[2][-1].sign_class == "has_negative")


def test_first_derivative_scales_linearly_with_weights(mixed):
    models, eqs, R, _ = mixed
    base = network.from_edges(network.PRESET_EDGES["fig3b"], r=3, n=4, m=2, k=1)
    double = network.from_edges(network.PRESET_EDGES["fig3b"], r=3, n=4, m=2,
                                k=1, weight=2.0)
    d1 = _chain(base)[0][0]
    d2 = _chain(double)[0][0]
    assert np.allclose(d2.value, 2.0 * d1.value, rtol=1e-12)


def test_predict_verdicts_fig3b(mixed):
    models, eqs, R, net = mixed
    # sole witness: region 3 has R > 1 and is reachable through region 1
    v = persist.predict(EquilibriumPattern((0, 1, 0)), models, net,
                        equilibria=eqs)
    assert v.verdict == "vanishes" and v.rule == "corollary_general"
    assert v.witness.region == 2 and v.witness.local_R == pytest.approx(R[2])
    assert v.witness.path == (1, 0, 2)

    # all-endemic persists by strict positivity
    v = persist.predict(EquilibriumPattern((1, 1, 1)), models, net,
                        equilibria=eqs)
    assert v.verdict == "persists" and v.rule == "positive_theorem_4_2"

    # the disconnected DFE always continues
    v = persist.predict(EquilibriumPattern((0, 0, 0)), models, net,
                        equilibria=eqs)
    assert v.verdict == "persists"

    # only region 1 disease-free, R[0] < 1: nothing can push it out
    v = persist.predict(EquilibriumPattern((0, 1, 1)), models, net,
                        equilibria=eqs)
    assert v.verdict == "persists" and v.rule == "corollary_irreducible"


def test_predict_rule_depends_on_topology(mixed):
    models, eqs, R, _ = mixed
    pat = EquilibriumPattern((0, 1, 0))
    # complete digraph: strongest corollary
    v = persist.predict(pat, models, hiv_net("fig3c"), equilibria=eqs)
    assert v.verdict == "vanishes" and v.rule == "corollary_complete"
    # every disease-free region fed directly by an endemic one
    v = persist.predict(EquilibriumPattern((1, 0, 0)), models, hiv_net("fig3b"),
                        equilibria=eqs)
    assert v.verdict == "vanishes" and v.rule == "corollary_irreducible"
    # region 2 endemic on fig4b: 2 -> 1 -> 3 needs the reachability form
    v = persist.predict(pat, models, hiv_net("fig4b"), equilibria=eqs)
    assert v.verdict == "vanishes" and v.rule == "corollary_general"
    assert v.witness.path == (1, 0, 2)


def test_count_persisting_fixture_networks(mixed):
    models, eqs, R, _ = mixed
    for name, want in [("fig4a", 4), ("fig4b", 5), ("fig4c", 6),
                       ("fig4d", 7), ("fig3c", 4)]:
        got = _persisting_count(models, hiv_net(name))
        assert got == want, name


def test_count_persisting_backward_regime_all_networks():
    models, eqs, R = hiv_system(BACKWARD_TRIPLE)
    # no region exceeds threshold, so every one of the 27 product states
    # survives on any topology
    for name in ("fig3a", "fig3b", "fig3c", "fig4c"):
        assert _persisting_count(models, hiv_net(name)) == 27


def test_count_persisting_census_example():
    models, eqs, R = hiv_system((0.85, 1.0, 0.85))
    got = _persisting_count(models, hiv_net("fig3b"))
    assert got == 10


def _weak_components(adj):
    """Regions of each weakly connected component of the digraph adj."""
    linked = adj | adj.T
    components, seen = [], set()
    for start in range(len(adj)):
        if start in seen:
            continue
        seen.add(start)
        component, stack = [], [start]
        while stack:
            u = stack.pop()
            component.append(u)
            for v in np.flatnonzero(linked[u]).tolist():
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        components.append(sorted(component))
    return components


def test_persisting_count_is_a_product_over_components():
    # travel couples only the regions of one weakly connected component,
    # so on a disconnected digraph each component keeps its own count; an
    # isolated region keeps every one of its patch equilibria. This is
    # what lets the exhaustive census attain 8 = 4 x 2.
    nets = network.enumerate_networks(3, n=4, m=2, k=1)
    cases = 0
    for triple in itertools.product(REGIME_BETA1.values(), repeat=3):
        models, eqs, R = hiv_system(triple)
        facts = hiv_system_facts(triple)
        for net in nets:
            adj = net.adjacency()
            components = _weak_components(adj)
            if len(components) == 1:
                continue
            want = 1
            for comp in components:
                if len(comp) == 1:
                    want *= len(eqs[comp[0]])
                    continue
                edges = [(comp.index(f), comp.index(t))
                         for f in comp for t in comp if adj[f, t]]
                sub = network.from_edges(edges, r=len(comp), n=4, m=2, k=1,
                                         blocks=("x",))
                verdicts = persist.SystemFacts(
                    [facts.patches[i] for i in comp]).verdicts(sub)
                want *= sum(v.verdict == "persists" for v in verdicts)
            assert facts.persisting_count(net) == want, (triple, net.name)
            cases += 1
    assert cases == 27 * 10


def test_count_persisting_requires_three_regions(mixed):
    models, eqs, R, _ = mixed
    net2 = network.from_edges([(0, 1)], r=2, n=4, m=2, k=1)
    with pytest.raises(ValueError, match="persisting_count covers"):
        _persisting_count(models[:2], net2)


def test_per_patch_lengths_must_match_network(mixed):
    models, eqs, R, net = mixed
    pat = EquilibriumPattern((0, 1, 0))
    with pytest.raises(ValueError, match="equilibria has 2 entries.* 3 regions"):
        persist.predict(pat, models, net, equilibria=eqs[:2])
    with pytest.raises(ValueError, match="equilibria has 4 entries.* 3 regions"):
        persist.predict(pat, models, net, equilibria=eqs + eqs[:1])


def test_is_irreducible_runs_once_per_patch_per_count(mixed, monkeypatch):
    models, eqs, R, net = mixed
    calls = []
    real = matalg.is_irreducible

    def counting(A):
        calls.append(1)
        return real(A)

    # V - F is read off the patch system in one place, _threshold
    operators = []
    real_threshold = equilibria._threshold

    def counting_threshold(mod):
        operators.append(1)
        return real_threshold(mod)

    monkeypatch.setattr(matalg, "is_irreducible", counting)
    monkeypatch.setattr(equilibria, "_threshold", counting_threshold)
    monkeypatch.setattr(persist, "_threshold", counting_threshold)
    assert _persisting_count(models, net) == 4
    assert 0 < len(calls) <= net.r
    # V - F is settled once per patch, as is the reducible systems' chain
    assert 0 < len(operators) <= net.r
    ms_models, _, _ = multistrain_system()
    operators.clear()
    facts = persist.SystemFacts([equilibria.patch_facts(m)
                                 for m in ms_models])
    for ms_net in network.enumerate_networks(3, n=2, m=1, k=1):
        facts.verdicts(ms_net)
    assert not facts.irreducible and len(operators) <= net.r


def test_exhaustive_census_settles_patch_facts_once(monkeypatch):
    # the census and its 64-digraph scan share one set of patch facts
    calls = []
    real = matalg.is_irreducible

    def counting(A):
        calls.append(1)
        return real(A)

    config = cli.load_config(cli.fixture_path("hiv_backward.json"))
    want = cli.cmd_census(config, exhaustive_networks=True)
    monkeypatch.setattr(matalg, "is_irreducible", counting)
    assert cli.cmd_census(config, exhaustive_networks=True) == want
    assert len(calls) == 3


def _fixture_system(name):
    """(models, eqs, facts) of a shipped fixture config."""
    models = cli.build_models(cli.load_config(cli.fixture_path(name)))
    return _system(models)


def _system(models):
    """(models, eqs, facts): each patch's equilibria and the SystemFacts."""
    facts = persist.SystemFacts([equilibria.patch_facts(m) for m in models])
    return models, [p.equilibria for p in facts.patches], facts


@pytest.mark.parametrize("system", ["hiv_backward.json", "hiv_mixed.json",
                                    "multistrain"])
def test_all_pattern_verdicts_match_per_pattern_predict(system):
    if system == "multistrain":
        models, eqs, facts = multistrain_system()
    else:
        models, eqs, facts = _fixture_system(system)
    mod = models[0]
    counts = [len(e) - 1 for e in eqs]
    rules = set()
    for net in network.enumerate_networks(3, n=mod.n, m=mod.m, k=mod.k):
        want = [persist.predict(pat, models, net, equilibria=eqs)
                for pat in equilibria.enumerate_patterns(counts)]
        assert facts.verdicts(net) == want, net.name
        rules.update(v.rule for v in want)
        if any(v.verdict == "indeterminate" for v in want):
            with pytest.raises(RuntimeError, match=repr(net.name)):
                facts.persisting_count(net)
        else:
            assert facts.persisting_count(net) == sum(
                v.verdict == "persists" for v in want), net.name
    if system == "multistrain":
        assert rules == {"derivative_direct"}
    else:
        assert {"corollary_complete", "corollary_irreducible",
                "corollary_general"} <= rules


def test_classify_pattern_runs_once_per_eat_set(monkeypatch):
    cfg = cli.load_config(cli.fixture_path("hiv_backward.json"))
    models, eqs, facts = _fixture_system("hiv_backward.json")
    net = cli.build_network(cfg, models)
    patterns = equilibria.enumerate_patterns([len(e) - 1 for e in eqs])
    want = [persist.predict(pat, models, net, equilibria=eqs)
            for pat in patterns]
    calls = []
    real = persist.classify_pattern

    def counting(net, pattern):
        calls.append(tuple(c > 0 for c in pattern.choices))
        return real(net, pattern)

    monkeypatch.setattr(persist, "classify_pattern", counting)
    assert facts.verdicts(net) == want
    # 27 patterns, 8 EAT sets; the all-EAT set needs no classification
    assert len(patterns) == 27
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 7


def test_relabeling_invariance(mixed):
    models, eqs, R, _ = mixed
    perm = [2, 0, 1]
    edges = network.PRESET_EDGES["fig3b"]
    relabeled = network.from_edges([(perm[f], perm[t]) for f, t in edges],
                                   r=3, n=4, m=2, k=1)
    base = _persisting_count(models, hiv_net("fig3b"))
    got = _persisting_count([models[perm.index(i)] for i in range(3)],
                            relabeled)
    assert got == base


def test_marginal_R_is_indeterminate():
    models, eqs, R = hiv_system((marginal_beta1(), 1.0, 1.0))
    assert abs(R[0] - 1.0) < persist.MARGINAL_R_TOL
    net = hiv_net("fig3b")
    v = persist.predict(EquilibriumPattern((0, 1, 1)), models, net,
                        equilibria=eqs)
    assert v.verdict == "indeterminate"
    with pytest.raises(RuntimeError, match="indeterminate.*'fig3b'"):
        _persisting_count(models, net)


def multistrain_system():
    # strains decouple, so V - F at the disease-free state is diagonal and
    # the sign theorems do not apply; block sizes match stage progression
    mu, gam, Lam = 0.1, 0.4, 1.0
    b = np.array([1.2, 0.8]) * (gam + mu) / (Lam / mu)
    ms = model.multistrain(b, gam, Lam, mu)
    sp = model.stage_progression([0.04, 0.01], [0.2, 0.1], 1.0, 0.05)
    return _system([ms, sp, ms])


def test_derivative_fallback_for_reducible_patches():
    models, eqs, _ = multistrain_system()
    assert [len(e) - 1 for e in eqs] == [0, 1, 0]
    pat = EquilibriumPattern((0, 1, 0))
    net = network.preset("fig3b", n=2, m=1, k=1)
    v = persist.predict(pat, models, net, equilibria=eqs)
    assert v.verdict == "vanishes" and v.rule == "derivative_direct"
    assert v.witness.region == 0

    # same pattern with no path back from the endemic region: the branch
    # is identically zero on the disease-free blocks and survives
    net4c = network.preset("fig4c", n=2, m=1, k=1)
    v = persist.predict(pat, models, net4c, equilibria=eqs)
    assert v.verdict == "persists" and v.rule == "derivative_direct"


def test_derivative_route_equals_network_rule():
    # on irreducible V - F the chain reaches the network rule's verdicts:
    # a DFAT region reachable from the EAT set is first signed at order
    # M_i + 1, and an unreachable one stays exactly zero through r - 1
    nets = network.enumerate_networks(3, n=4, m=2, k=1)
    patterns = chains = 0
    for triple in itertools.product(REGIME_BETA1.values(), repeat=3):
        eqs = hiv_system(triple)[1]
        facts = hiv_system_facts(triple)
        assert facts.irreducible
        boundary = [pat for pat in equilibria.enumerate_patterns(
            [len(e) - 1 for e in eqs]) if not pat.is_all_endemic]
        for net in nets:
            for pat, want in zip(boundary, facts.verdicts(net, boundary)):
                cls = network.classify_pattern(net, pat)
                got = persist._predict_by_derivatives(pat, facts, net, cls)
                assert got.verdict == want.verdict, (triple, net.name,
                                                     pat.choices)
                patterns += 1
                for i, ders in facts.derivative_chain(pat, net).items():
                    if cls.reachable_from_eat[i]:
                        assert [d.sign_class == "zero" for d in ders] == (
                            [True] * cls.m_values[i] + [False])
                    else:
                        assert len(ders) == net.r - 1
                        assert all(np.all(d.value == 0.0) for d in ders)
                    chains += 1
    assert (patterns, chains) == (12096, 20736)


def test_reducible_patch_at_R_one_is_indeterminate():
    # strain 1 sits exactly at R = 1, so V - F is singular and the chain
    # raises DegenerateThresholdError on every pattern
    ms = model.multistrain([0.5, 0.3], 0.5, 1.0, 0.5)
    sp = model.stage_progression([0.04, 0.01], [0.2, 0.1], 1.0, 0.05)
    models, eqs, facts = _system([ms, sp, ms])
    assert equilibria.local_reproduction_number(ms) == 1.0
    net = network.preset("fig3b", n=2, m=1, k=1)
    verdicts = facts.verdicts(net)
    assert [v.pattern.choices for v in verdicts] == [(0, 0, 0), (0, 1, 0)]
    assert all(v.verdict == "indeterminate" and v.rule == "derivative_direct"
               for v in verdicts)
    with pytest.raises(RuntimeError, match="'fig3b'"):
        facts.persisting_count(net)


def test_sign_class_boundaries():
    assert persist._sign_class(np.array([0.0, 0.0])) == "zero"
    assert persist._sign_class(np.array([1e-12, 0.0])) == "zero"
    assert persist._sign_class(np.array([1.0, 2.0])) == "positive"
    assert persist._sign_class(np.array([1.0, 0.0])) == "nonneg_mixed"
    assert persist._sign_class(np.array([1.0, -1e-3])) == "has_negative"
