import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchepi import equilibria, matalg, network


def brute_force_m_values(adj, is_eat, r):
    """Reference reachability by walking adjacency powers.

    dist(i) = least number of edges on any EAT-to-i walk; the in-between
    count is dist - 1 and unreachable regions keep the sentinel r - 1.
    """
    reach = adj.astype(int)
    out = []
    for i in range(r):
        if is_eat[i]:
            out.append(None)
            continue
        best = None
        power = np.eye(r, dtype=int)
        for d in range(1, r + 1):
            power = power @ reach
            if any(power[j, i] and is_eat[j] for j in range(r)):
                best = d
                break
        out.append(r - 1 if best is None else best - 1)
    return out


def check_eat_paths(cls, adj, is_eat, want, r):
    """Each reachable DFAT region's path starts at an EAT region, follows
    edges, ends at the region and has the oracle's length; every other
    region has no path."""
    for i in range(r):
        path = cls.eat_paths[i]
        if is_eat[i] or want[i] == r - 1:
            assert path is None, i
            continue
        assert is_eat[path[0]] and path[-1] == i, (i, path)
        assert all(adj[f, t] for f, t in zip(path, path[1:])), (i, path)
        # want[i] in-between regions plus the two ends
        assert len(path) == want[i] + 2, (i, path)


def test_from_edges_direction_and_storage():
    net = network.from_edges([(0, 1)], r=3, n=2, m=1, k=1)
    adj = net.adjacency()
    assert adj[0, 1] and adj.sum() == 1
    # C^{tf} stores flow from f to t
    assert np.all(net.cx[1, 0] == 1.0) and np.all(net.cx[0, 1] == 0.0)
    assert np.all(net.cy[1, 0] == 1.0) and np.all(net.cz[1, 0] == 1.0)
    assert net.block_sizes == (2, 1, 1)


def test_from_edges_weight_and_block_selection():
    net = network.from_edges([(2, 0)], r=3, n=1, m=1, k=1,
                             blocks=("x",), weight=2.5)
    assert np.all(net.cx[0, 2] == 2.5)
    assert np.all(net.cy == 0.0) and np.all(net.cz == 0.0)


def test_from_edges_validation():
    with pytest.raises(ValueError, match="self-loops"):
        network.from_edges([(1, 1)], r=3, n=1, m=1, k=1)
    with pytest.raises(IndexError):
        network.from_edges([(0, 3)], r=3, n=1, m=1, k=1)
    with pytest.raises(ValueError, match="nonnegative"):
        network.MobilityNetwork(r=2, cx=-np.ones((2, 2, 1)),
                                cy=np.zeros((2, 2, 1)), cz=np.zeros((2, 2, 1)))


def test_network_diagonal_blocks_forced_zero():
    cx = np.ones((2, 2, 1))
    net = network.MobilityNetwork(r=2, cx=cx, cy=np.zeros((2, 2, 1)),
                                  cz=np.zeros((2, 2, 1)))
    assert net.cx[0, 0, 0] == 0.0 and net.cx[1, 1, 0] == 0.0
    assert net.cx[0, 1, 0] == 1.0


def test_preset_edge_sets():
    want = {
        "fig3a": {(1, 0), (0, 1), (2, 1)},
        "fig3b": {(1, 0), (0, 1), (2, 1), (0, 2)},
        "fig3c": {(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)},
        "fig4a": {(0, 1), (1, 2), (2, 1)},
        "fig4b": {(1, 0), (0, 1), (0, 2)},
        "fig4c": {(0, 1), (0, 2)},
        "fig4d": {(0, 2), (1, 2)},
    }
    assert set(network.PRESET_EDGES) == set(want)
    for name, edges in want.items():
        net = network.preset(name, n=4, m=2, k=1)
        adj = net.adjacency()
        got = {(f, t) for f in range(3) for t in range(3) if adj[f, t]}
        assert got == edges, name
        assert net.name == name
    with pytest.raises(KeyError):
        network.preset("fig9z", n=1, m=1, k=1)


def test_preset_irreducibility_split():
    # strongly connected presets vs the rest
    strong = {"fig3b", "fig3c"}
    for name in network.PRESET_EDGES:
        net = network.preset(name, n=1, m=1, k=1)
        # adjacency[f, t] means f -> t; irreducibility reads j -> i from
        # pattern[i, j], so pass the transpose
        assert matalg.is_irreducible(net.adjacency().T) == (name in strong), name


def test_direct_connection_and_reachable():
    net = network.preset("fig3a", n=1, m=1, k=1)
    assert network.direct_connection(net, 1, 0)
    assert not network.direct_connection(net, 0, 2)
    assert network.reachable(net, 2, 0)       # 2 -> 1 -> 0
    assert not network.reachable(net, 0, 2)   # nothing enters 2... or leaves 0 to it
    with pytest.raises(ValueError):
        network.reachable(net, 1, 1)
    with pytest.raises(IndexError):
        network.direct_connection(net, 0, 5)


def test_enumerate_networks_catalog():
    nets = network.enumerate_networks(3, n=4, m=2, k=1)
    assert len(nets) == 64
    seen = set()
    for net in nets:
        adj = net.adjacency()
        key = tuple(adj.flatten().tolist())
        seen.add(key)
        assert net.block_sizes == (4, 2, 1)
        assert net.name.startswith("digraph")
    assert len(seen) == 64
    with pytest.raises(ValueError):
        network.enumerate_networks(4, n=1, m=1, k=1)


def test_classify_pattern_hand_cases():
    net = network.preset("fig3b", n=4, m=2, k=1)
    pat = equilibria.EquilibriumPattern((0, 1, 0))
    cls = network.classify_pattern(net, pat)
    assert cls.is_eat == (False, True, False)
    # region 0 is fed directly by the EAT region 1; region 2 only through 0
    assert cls.m_values == (0, None, 1)
    assert cls.reachable_from_eat == (True, None, True)

    net4c = network.preset("fig4c", n=4, m=2, k=1)
    cls = network.classify_pattern(net4c, pat)
    # region 1 has no outgoing edges in fig4c: nothing is reachable
    assert cls.m_values == (2, None, 2)
    assert cls.reachable_from_eat == (False, None, False)

    with pytest.raises(ValueError, match="length"):
        network.classify_pattern(net, equilibria.EquilibriumPattern((0, 1)))


def test_classify_pattern_exhaustive_r3():
    """All 64 digraphs x all EAT/DFAT splits against the power-walk oracle."""
    nets = network.enumerate_networks(3, n=1, m=1, k=1)
    for net in nets:
        adj = net.adjacency()
        for mask in range(8):
            choices = tuple((mask >> i) & 1 for i in range(3))
            pat = equilibria.EquilibriumPattern(choices)
            cls = network.classify_pattern(net, pat)
            is_eat = [c > 0 for c in choices]
            want = brute_force_m_values(adj, is_eat, 3)
            assert list(cls.m_values) == want, (net.name, choices)
            check_eat_paths(cls, adj, is_eat, want, 3)
            # any shortest path among 3 regions uses at most 2 edges, so
            # m = 2 can only be the unreachable sentinel here
            for i, c in enumerate(choices):
                if c == 0:
                    assert cls.reachable_from_eat[i] == (want[i] < 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**12 - 1), st.integers(0, 15))
def test_classify_pattern_sampled_r4(edge_mask, choice_mask):
    r = 4
    pairs = [(f, t) for f in range(r) for t in range(r) if f != t]
    edges = [pairs[i] for i in range(12) if (edge_mask >> i) & 1]
    net = network.from_edges(edges, r=r, n=2, m=1, k=1)
    choices = tuple((choice_mask >> i) & 1 for i in range(r))
    pat = equilibria.EquilibriumPattern(choices)
    cls = network.classify_pattern(net, pat)
    is_eat = [c > 0 for c in choices]
    want = brute_force_m_values(net.adjacency(), is_eat, r)
    assert list(cls.m_values) == want
    check_eat_paths(cls, net.adjacency(), is_eat, want, r)
