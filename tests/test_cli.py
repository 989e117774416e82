"""Config validation, frozen report values, artifacts and exit codes."""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import BASE, GENERIC_CATALOG, marginal_beta1
from patchepi import cli, continuation, equilibria, sim

FIXTURES = ("hiv_backward.json", "hiv_mixed.json", "hiv_above_one.json",
            "hiv_below_rc.json", "zero_transmission.json")


def fixture_dict(name):
    with open(cli.fixture_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def mg_patch():
    return {"family": "multigroup",
            "params": {"beta": [[0.02]], "Lam": 1.0, "mu": 0.05,
                       "gamma": 0.05}}


def base_dict():
    return {"schema_version": 1,
            "patches": [mg_patch(), mg_patch()],
            "network": {"edges": [[1, 2]], "r": 2},
            "alpha_grid": [0.0, 1e-5],
            "initial_sets": [{"label": "a",
                              "regions": [[0.1, 20.0, 0.0],
                                          [0.0, 20.0, 0.0]]}],
            "patterns": [[0, 0]]}


# ====================================================================
# Formatting helpers
# ====================================================================

def test_report_float_formatting():
    assert cli.fmt_float(1 / 3) == 0.333333333333
    assert cli.fmt_float(np.pi) == 3.14159265359
    # numpy scalars and arrays are unwrapped, tuples become lists
    assert cli.round_floats({"a": np.float64(2 / 3),
                             "b": (np.int64(3), "s", None)}) \
        == {"a": 0.666666666667, "b": [3, "s", None]}
    assert cli.round_floats(np.arange(3.0)) == [0.0, 1.0, 2.0]
    # numpy bools become JSON booleans, not a json.dumps TypeError
    flags = cli.round_floats({"ok": np.bool_(True), "no": [np.bool_(False)]})
    assert flags["ok"] is True and flags["no"][0] is False
    assert json.dumps(flags) == '{"ok": true, "no": [false]}'
    assert cli.pattern_label((0, 1, 2)) == "0-1-2"


# ====================================================================
# Config parsing
# ====================================================================

# (mutation of a valid config, fragment the error message must contain)
REJECTIONS = [
    (lambda d: d.update(extra=1), "unknown config fields"),
    (lambda d: d.update(schema_version=2), "schema_version"),
    (lambda d: d.update(patches=[]), "patches"),
    (lambda d: d["patches"][0].update(family=7), "patches[0].family"),
    (lambda d: d["patches"][0].pop("params"), "patches[0].params"),
    (lambda d: d.update(network={"preset": "fig3b", "edges": []}),
     "exactly one"),
    (lambda d: d.update(network={}), "exactly one"),
    (lambda d: d.update(network={"preset": "fig9z"}), "unknown preset"),
    (lambda d: d.update(network={"edges": [[0, 1]], "r": 2}), "1-based"),
    (lambda d: d.update(network={"edges": [[1, 1]], "r": 2}), "self-loops"),
    (lambda d: d.update(network={"edges": [[1, 2]], "r": 2, "weight": 0}),
     "network.weight"),
    (lambda d: d.update(network={"edges": [[1, 2]], "r": 0}), "network.r"),
    (lambda d: d.update(alpha_grid=[-1e-6]), "alpha_grid"),
    (lambda d: d.update(t_end=0), "t_end"),
    (lambda d: d.update(rtol=-1e-8), "rtol"),
    (lambda d: d.update(atol="tight"), "atol"),
    (lambda d: d.update(initial_sets=[{"label": "a"}]), "'regions'"),
    (lambda d: d["initial_sets"][0].update(regions=[[0.1, 20.0, 0.0]]),
     "one state list per region"),
    (lambda d: d["initial_sets"][0]["regions"][0].append("x"),
     "list of numbers"),
    (lambda d: d.update(patterns=[[0]]), "patterns[0]"),
    (lambda d: d.update(patterns=[[0, -1]]), "patterns[0]"),
    # a negative initial component is a config error, not a traceback
    (lambda d: d["initial_sets"][0]["regions"][1].__setitem__(0, -1.0),
     "initial_sets[0].regions[1]"),
    # JSON NaN and Infinity are numbers to the parser, not to the config
    (lambda d: d.update(alpha_grid=[0.0, float("nan")]), "alpha_grid"),
    (lambda d: d.update(alpha_grid=[float("inf")]), "alpha_grid"),
    # a repeated alpha would be continued and recorded twice
    (lambda d: d.update(alpha_grid=[0.001, 0.001]), "listed twice"),
    (lambda d: d.update(t_end=float("inf")), "t_end"),
    (lambda d: d.update(rtol=float("nan")), "rtol"),
    (lambda d: d.update(atol=float("inf")), "atol"),
    (lambda d: d["network"].update(weight=float("inf")), "network.weight"),
    (lambda d: d["network"].update(weight=float("nan")), "network.weight"),
    (lambda d: d["initial_sets"][0]["regions"][0].__setitem__(1, float("nan")),
     "initial_sets[0].regions[0]"),
    (lambda d: d["initial_sets"][0]["regions"][0].__setitem__(1, float("inf")),
     "initial_sets[0].regions[0]"),
    # network keys the parser would ignore
    (lambda d: d["network"].update(weights={"x": 1.0}), "unknown fields"),
    (lambda d: d.update(network={"preset": "fig3b", "weight": 2.0}),
     "not allowed with 'preset'"),
    # the name is echoed into every report
    (lambda d: d["network"].update(name=5), "network.name"),
    (lambda d: d["network"].update(name=["x"]), "network.name"),
    # labels name simulate's trajectory files
    (lambda d: d["initial_sets"][0].update(label="a/b"),
     "initial_sets[0].label"),
    (lambda d: d["initial_sets"][0].update(label="a\0b"),
     "initial_sets[0].label"),
    (lambda d: d["initial_sets"].append(dict(d["initial_sets"][0])),
     "initial_sets[1].label"),
]


def test_config_rejections():
    cli.config_from_dict(base_dict())  # the unmutated base must be valid
    for mutate, fragment in REJECTIONS:
        data = base_dict()
        mutate(data)
        with pytest.raises(cli.ConfigError) as err:
            cli.config_from_dict(data)
        assert fragment in str(err.value), fragment
    with pytest.raises(cli.ConfigError, match="JSON object"):
        cli.config_from_dict(["not", "an", "object"])


def test_config_defaults():
    cfg = cli.config_from_dict({"schema_version": 1,
                                "patches": [mg_patch()],
                                "network": {"edges": [], "r": 1}})
    assert cfg.alpha_grid == (0.0,)
    assert cfg.t_end == sim.DEFAULT_T_END
    assert cfg.rtol == sim.DEFAULT_RTOL
    assert cfg.atol == sim.DEFAULT_ATOL
    assert cfg.initial_sets == ()
    assert cfg.patterns is None


def test_load_config_reports_position(tmp_path):
    with pytest.raises(cli.ConfigError, match="cannot read config"):
        cli.load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  not json\n}\n")
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(str(bad))
    assert "invalid JSON at line 2" in str(err.value)


def test_shipped_fixture_configs_load():
    for name in FIXTURES:
        cfg = cli.load_config(cli.fixture_path(name))
        assert len(cfg.patches) == 3, name
        models = cli.build_models(cfg)
        assert cli.build_network(cfg, models).r == 3, name
    backward = cli.load_config(cli.fixture_path("hiv_backward.json"))
    assert [label for label, _ in backward.initial_sets] \
        == ["blue", "red", "black", "green"]
    zt = cli.load_config(cli.fixture_path("zero_transmission.json"))
    assert zt.initial_sets == ()
    assert zt.t_end == sim.DEFAULT_T_END


def test_build_models_errors():
    data = base_dict()
    data["patches"][0]["family"] = "sir_classic"
    with pytest.raises(cli.ConfigError, match="unknown family"):
        cli.build_models(cli.config_from_dict(data))

    data = base_dict()
    del data["patches"][0]["params"]["mu"]
    with pytest.raises(cli.ConfigError) as err:
        cli.build_models(cli.config_from_dict(data))
    assert "patches[0].params" in str(err.value)

    # non-finite parameters, for the HIV family and a generic one
    for bad in (float("nan"), float("inf")):
        data = fixture_dict("hiv_mixed.json")
        data["patches"][1]["params"]["mu"] = bad
        with pytest.raises(cli.ConfigError, match=r"patches\[1\]\.params.*"
                                                  "finite"):
            cli.build_models(cli.config_from_dict(data))
        data = base_dict()
        data["patches"][0]["params"]["Lam"] = bad
        with pytest.raises(cli.ConfigError, match=r"patches\[0\]\.params.*"
                                                  "finite"):
            cli.build_models(cli.config_from_dict(data))

    # an HIV patch (4,2,1) cannot be coupled to a multigroup patch (1,1,1)
    data = base_dict()
    data["patches"][0] = {"family": "hiv_vaccination", "params": dict(BASE)}
    with pytest.raises(cli.ConfigError, match="block sizes"):
        cli.build_models(cli.config_from_dict(data))


def test_build_network_shape_checks():
    data = base_dict()
    data["network"] = {"edges": [[1, 2]], "r": 2, "weight": 2.5}
    cfg = cli.config_from_dict(data)
    net = cli.build_network(cfg, cli.build_models(cfg))
    assert net.adjacency()[0, 1]          # config edge [1, 2] is 1 -> 2
    assert net.cx[1, 0, 0] == 2.5

    data = base_dict()
    del data["initial_sets"], data["patterns"]
    data["patches"] = [mg_patch()]
    data["network"] = {"preset": "fig3b"}
    cfg = cli.config_from_dict(data)
    with pytest.raises(cli.ConfigError, match="3 regions"):
        cli.build_network(cfg, cli.build_models(cfg))

    data = base_dict()
    del data["initial_sets"], data["patterns"]
    data["patches"].append(mg_patch())
    cfg = cli.config_from_dict(data)  # network r=2, three patches
    with pytest.raises(cli.ConfigError, match="network.r = 2"):
        cli.build_network(cfg, cli.build_models(cfg))


def test_apply_overrides():
    cfg = cli.load_config(cli.fixture_path("hiv_mixed.json"))
    out = cli._apply_overrides(
        cfg, argparse.Namespace(preset="fig3c", alpha="0,1e-6,0.1"))
    assert out.network == {"preset": "fig3c"}
    assert out.alpha_grid == (0.0, 1e-6, 0.1)
    assert out.patches == cfg.patches and out.t_end == cfg.t_end
    same = cli._apply_overrides(cfg, argparse.Namespace(preset=None,
                                                        alpha=None))
    assert same == cfg
    for preset, alpha in (("nope", None), (None, "a,b"), (None, "-1"),
                          (None, "nan"), (None, "0,inf"), (None, "-inf")):
        with pytest.raises(cli.ConfigError):
            cli._apply_overrides(cfg, argparse.Namespace(preset=preset,
                                                         alpha=alpha))


# ====================================================================
# analyze / census
# ====================================================================

def test_analyze_backward_patch_report():
    rep = cli.cmd_analyze(cli.load_config(cli.fixture_path(
        "hiv_backward.json")))
    assert rep["command"] == "analyze" and rep["schema_version"] == 1
    assert rep["network"]["name"] == "fig3b"
    assert rep["network"]["edges"] == [[1, 2], [1, 3], [2, 1], [3, 2]]
    p = rep["patches"][0]
    assert p["region"] == 1 and p["family"] == "hiv_vaccination"
    assert p["R"] == pytest.approx(0.952361034882, abs=1e-9)
    assert p["regime"] == "backward_window"
    assert p["endemic_lambdas"] == pytest.approx(
        [0.019459097629, 0.149197030082], abs=1e-9)
    assert p["R_c_estimate"] == pytest.approx(0.919910877514, abs=1e-7)
    assert p["dfe"]["stability"] == "stable"
    assert p["dfe"]["state"]["x"] == [0.0] * 4
    assert p["dfe"]["state"]["y"] == pytest.approx([10.01, 9.99], abs=1e-9)
    assert [(e["choice"], e["stability"]) for e in p["endemic"]] \
        == [(1, "unstable"), (2, "stable")]
    assert all(e["jac_invertible"] for e in p["endemic"])
    # branches are indexed by increasing infection level
    assert p["endemic"][0]["state"]["x"][0] < p["endemic"][1]["state"]["x"][0]


def test_analyze_above_one_patch_report():
    rep = cli.cmd_analyze(cli.load_config(cli.fixture_path(
        "hiv_mixed.json")))
    p = rep["patches"][1]
    assert p["R"] == pytest.approx(1.12001058034, abs=1e-9)
    assert p["regime"] == "above_one"
    assert p["dfe"]["stability"] == "unstable"
    assert [(e["choice"], e["stability"]) for e in p["endemic"]] \
        == [(1, "stable")]


def test_analyze_finds_a_root_far_above_the_threshold(tmp_path, capsys):
    # the endemic force of infection is a root however large it is
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({
        "schema_version": 1, "alpha_grid": [0.0, 0.1],
        "patches": [{"family": "hiv_vaccination",
                     "params": dict(BASE, beta1=200.0)}],
        "network": {"edges": [], "r": 1}}))
    assert cli.main(["analyze", "--config", str(cfgp)]) == 0
    p, = json.loads(capsys.readouterr().out)["patches"]
    assert p["regime"] == "above_one"
    assert p["R"] == pytest.approx(223.535, abs=1e-3)
    assert p["endemic_lambdas"] == pytest.approx([198.675387], abs=1e-6)
    assert [e["stability"] for e in p["endemic"]] == ["stable"]
    assert p["R_c_estimate"] is None


def test_census_counts_and_rows():
    rep = cli.cmd_census(cli.load_config(cli.fixture_path(
        "hiv_mixed.json")))
    assert rep["per_patch_endemic_counts"] == [2, 1, 1]
    assert len(rep["patterns"]) == 12
    assert rep["persisting_count"] == 5
    assert rep["R"] == pytest.approx(
        [0.952361034882, 1.12001058034, 1.12001058034], abs=1e-9)
    row = next(r for r in rep["patterns"] if r["choices"] == [0, 1, 0])
    assert row["verdict"] == "vanishes"
    assert row["rule"] == "corollary_general"
    assert row["witness"]["region"] == 3
    assert row["witness"]["path"] == [2, 1, 3]
    assert row["witness"]["local_R"] == pytest.approx(1.12001058034,
                                                      abs=1e-9)
    full = next(r for r in rep["patterns"] if r["choices"] == [2, 1, 1])
    assert full["verdict"] == "persists"
    assert full["rule"] == "positive_theorem_4_2"


def test_one_system_per_patch(coupled_systems_built, monkeypatch):
    # each patch's one-region system and one DFE serve its equilibria,
    # local R and V - F, and analyze's R_c too (in closed form); continue
    # and simulate add the one coupled system that every branch, label and
    # trajectory of the run uses
    counts = {"dfe": 0, "v_minus_f": 0}

    def counting(key, real):
        def wrapper(model):
            counts[key] += 1
            return real(model)
        return wrapper

    # a patch's DFE is its one-region system's disease_free(0.0); the
    # coupled system's solves along the DFE branch are not counted
    disease_free = continuation.CoupledSystem.disease_free

    def one_region_disease_free(system, alpha):
        counts["dfe"] += system.net.r == 1
        return disease_free(system, alpha)

    monkeypatch.setattr(continuation.CoupledSystem, "disease_free",
                        one_region_disease_free)
    # V - F is read off the patch system in one place, _threshold
    monkeypatch.setattr(equilibria, "_threshold",
                        counting("v_minus_f", equilibria._threshold))

    def built_and_counted():
        seen = (list(coupled_systems_built), counts["dfe"],
                counts["v_minus_f"])
        coupled_systems_built.clear()
        counts.update(dfe=0, v_minus_f=0)
        return seen

    config = cli.load_config(cli.fixture_path("hiv_backward.json"))
    cli.cmd_census(config)
    assert built_and_counted() == ([1, 1, 1], 3, 3)
    cli.cmd_continue(config)
    assert built_and_counted() == ([1, 1, 1, 3], 3, 3)
    cli.cmd_simulate(config)
    assert built_and_counted() == ([1, 1, 1, 3], 3, 3)
    rep = cli.cmd_analyze(config)
    assert [p["regime"] for p in rep["patches"]] == ["backward_window"] * 3
    assert built_and_counted() == ([1] * 3, 3, 3)


def test_census_exhaustive_networks():
    rep = cli.cmd_census(cli.load_config(cli.fixture_path(
        "hiv_mixed.json")), exhaustive_networks=True)
    assert rep["attained_set"] == [4, 5, 6, 7, 8, 9, 12]
    scan = rep["exhaustive_networks"]
    assert len(scan) == 64
    by_edges = {tuple(map(tuple, row["edges"])): row["persisting_count"]
                for row in scan}
    assert by_edges[()] == 12                                  # no travel
    assert by_edges[((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))] == 4
    # the four shipped fig4 presets sit inside the scan
    assert by_edges[((1, 2), (2, 3), (3, 2))] == 4
    assert by_edges[((1, 2), (1, 3), (2, 1))] == 5
    assert by_edges[((1, 2), (1, 3))] == 6
    assert by_edges[((1, 3), (2, 3))] == 7


def test_census_exhaustive_networks_refuses_r2_before_any_work(
        monkeypatch, tmp_path, capsys):
    def no_work(model):
        raise AssertionError("patch facts computed")

    monkeypatch.setattr(cli.equilibria, "patch_facts", no_work)
    data = base_dict()
    data["network"] = {"edges": [[1, 2]], "r": 2}
    with pytest.raises(cli.ConfigError, match="exactly 3"):
        cli.cmd_census(cli.config_from_dict(data), exhaustive_networks=True)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(data))
    assert cli.main(["census", "--config", str(cfgp),
                     "--exhaustive-networks"]) == 2
    assert capsys.readouterr().err == (
        "config error: --exhaustive-networks needs exactly 3 patches\n")


# ====================================================================
# continue / simulate
# ====================================================================

def continue_config(patterns):
    data = fixture_dict("hiv_mixed.json")
    data["network"] = {"preset": "fig3b"}
    data["alpha_grid"] = [0.0, 1e-6]
    data["patterns"] = patterns
    data["initial_sets"] = []
    return cli.config_from_dict(data)


def test_continue_report_and_artifacts():
    rep, arts = cli.cmd_continue(continue_config([[0, 1, 0], [1, 1, 1]]))
    assert rep["mismatches"] == 0 and rep["failures"] == 0
    by = {tuple(b["choices"]): b for b in rep["branches"]}

    gone = by[(0, 1, 0)]
    assert gone["predicted"] == "vanishes" and gone["observed"] == "vanishes"
    assert gone["rule"] == "corollary_general"
    assert gone["agree"] is True and gone["failure"] is None
    assert gone["exit_alpha"] == pytest.approx(1e-6, rel=1e-9)
    assert gone["points"][-1]["min_component"] < -1e-9

    kept = by[(1, 1, 1)]
    assert kept["predicted"] == "persists" and kept["observed"] == "persists"
    assert kept["rule"] == "positive_theorem_4_2"
    assert kept["exit_alpha"] is None and kept["agree"] is True
    assert kept["points"][-1]["min_component"] > 0

    csv = [line.split(",") for line in arts["branch_0-1-0.csv"]]
    assert [len(row) for row in csv] == [24, 24, 24]  # alpha + 21 + 2
    assert csv[0][:2] == ["alpha", "r1_x1"]
    assert csv[0][-2:] == ["min_component", "max_real_eig"]
    assert float(csv[1][0]) == 0.0 and float(csv[2][0]) == 1e-6
    assert float(csv[2][-2]) < -1e-9


def test_continue_rejects_out_of_range_pattern():
    with pytest.raises(cli.ConfigError, match="exceeds"):
        cli.cmd_continue(continue_config([[0, 2, 0]]))


def test_continue_rejects_repeated_pattern(tmp_path, capsys):
    # a repeated pattern would give two report entries for one branch file
    data = fixture_dict("hiv_backward.json")
    data["patterns"] = [[1, 0, 0], [2, 1, 0], [1, 0, 0]]
    with pytest.raises(cli.ConfigError,
                       match=r"patterns\[2\]: \[1, 0, 0\] is already listed"):
        cli.config_from_dict(data)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(data))
    code = cli.main(["continue", "--config", str(cfgp),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2 and "[1, 0, 0]" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_simulate_zero_transmission_reaches_dfe():
    data = fixture_dict("zero_transmission.json")
    data["initial_sets"] = [{"label": "seeded",
                             "regions": [[0.5, 10.0, 0.0],
                                         [0.0, 10.0, 0.0],
                                         [0.0, 30.0, 0.0]]}]
    data["t_end"] = 600.0
    rep, arts = cli.cmd_simulate(cli.config_from_dict(data))
    assert rep["failures"] == 0
    row = rep["trajectories"][0]
    assert row["label"] == "seeded" and row["alpha"] == 0.0
    assert row["terminal_classification"] == "pattern_0-0-0"
    assert row["csv"] == "traj_seeded_a0.csv"
    assert row["min_component_overall"] >= -1e-9
    csv = [line.split(",") for line in arts["traj_seeded_a0.csv"]]
    assert csv[0] == ["time", "r1_x1", "r1_y1", "r1_z1",
                      "r2_x1", "r2_y1", "r2_z1", "r3_x1", "r3_y1", "r3_z1"]
    assert float(csv[-1][0]) == 600.0
    assert float(csv[-1][1]) < 1e-8                   # infections die out
    assert float(csv[-1][2]) == pytest.approx(20.0, abs=1e-3)  # S -> Lam/mu


@pytest.mark.parametrize("name, counts, last", [
    ("hiv_backward.json", [27, 27, 9, 2], ["0-0-0", "2-2-2"]),
    ("hiv_mixed.json", [12, 5, 3, 2], ["0-0-0", "2-1-1"])])
def test_simulate_labels_every_alpha_from_one_continuation(
        name, counts, last, monkeypatch):
    # one continue_branches call labels the whole grid; at alpha = 0.1 the
    # eight hiv_backward patterns whose branches all reach the DFE state
    # give one label, the first, as the classifier cannot tell them apart
    calls, labels = [], {}
    real = continuation.continue_branches

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def labels_only(system, alpha, X0, classified, **kwargs):
        labels[alpha] = [label for label, _ in classified]
        raise sim.StepSizeUnderflowError("not integrated")

    monkeypatch.setattr(continuation, "continue_branches", counting)
    monkeypatch.setattr(sim, "integrate", labels_only)
    cli.cmd_simulate(cli.load_config(cli.fixture_path(name)))
    assert len(calls) == 1
    assert [len(labels[alpha]) for alpha in sorted(labels)] == counts
    assert labels[0.1] == [f"pattern_{choices}" for choices in last]


# terminal pattern of each initial set (blue, red, black, green) at each
# grid alpha: the answer a change of integrator must keep, whatever the
# digits of the trajectories
SHIPPED_TERMINALS = {
    "hiv_backward.json": {0.0: ["2-2-2", "2-2-0", "0-0-0", "0-0-0"],
                          1e-5: ["2-2-2", "2-2-0", "0-0-0", "0-0-0"],
                          1e-3: ["2-2-2", "2-2-2", "0-0-0", "0-0-0"],
                          0.1: ["2-2-2", "2-2-2", "0-0-0", "0-0-0"]},
    "hiv_mixed.json": {0.0: ["2-0-0", "2-0-1", "0-0-0", "0-1-0"],
                       1e-5: ["2-1-1", "2-1-1", "0-1-1", "0-1-1"],
                       1e-3: ["2-1-1", "2-1-1", "2-1-1", "2-1-1"],
                       0.1: ["2-1-1", "2-1-1", "2-1-1", "2-1-1"]},
}


@pytest.mark.parametrize("name", sorted(SHIPPED_TERMINALS))
def test_simulate_keeps_the_shipped_terminal_labels(name):
    rep, _ = cli.cmd_simulate(cli.load_config(cli.fixture_path(name)))
    got = [(row["label"], row["alpha"], row["terminal_classification"])
           for row in rep["trajectories"]]
    want = [(label, alpha, f"pattern_{choices}")
            for alpha, terminals in SHIPPED_TERMINALS[name].items()
            for label, choices in zip(("blue", "red", "black", "green"),
                                      terminals)]
    assert got == want


def test_simulate_rejects_zero_population_region(tmp_path, capsys):
    # standard incidence is undefined at N = 0: a config error, found
    # before anything is integrated, not a traceback
    data = fixture_dict("hiv_backward.json")
    data["initial_sets"][0]["regions"][1] = [0.0] * 7
    label = data["initial_sets"][0]["label"]
    with pytest.raises(cli.ConfigError,
                       match=f"{label!r}: region 2 has zero population"):
        cli.cmd_simulate(cli.config_from_dict(data))
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(data))
    code = cli.main(["simulate", "--config", str(cfgp)])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err and "region 2" in err
    # mass action is defined at N = 0, so an empty region is fine there
    data = base_dict()
    data["initial_sets"][0]["regions"][1] = [0.0, 0.0, 0.0]
    rep, _ = cli.cmd_simulate(cli.config_from_dict(data))
    assert rep["failures"] == 0


def test_csv_lines_match_per_value_format():
    values = [-0.0, 0.0, 5e-324, 1e16, 0.1 + 0.2, 123456789012.5, 3.0,
              -7.0, 1e300, float("inf"), float("-inf"), float("nan")]
    header = [f"c{i}" for i in range(len(values))]
    lines = cli._csv_lines(header, [values, values[::-1]])
    assert lines == [",".join(header),
                     ",".join(f"{v:.12g}" for v in values),
                     ",".join(f"{v:.12g}" for v in values[::-1])]


def test_simulate_rejects_a_region_state_of_the_wrong_length(tmp_path,
                                                             capsys):
    # region lists of 8, 6 and 7 entries add up to the 21 of three HIV
    # regions of 7, but would shift compartments across regions
    data = fixture_dict("hiv_backward.json")
    regions = data["initial_sets"][0]["regions"]
    regions[0].append(regions[1].pop())
    label = data["initial_sets"][0]["label"]
    with pytest.raises(cli.ConfigError, match=f"initial set {label!r}: "
                       "region 1 has 8 entries, expected 7"):
        cli.cmd_simulate(cli.config_from_dict(data))
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(data))
    code = cli.main(["simulate", "--config", str(cfgp)])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err and "region 1" in err


def test_simulate_requires_initial_sets():
    cfg = cli.load_config(cli.fixture_path("zero_transmission.json"))
    with pytest.raises(cli.ConfigError, match="initial_sets"):
        cli.cmd_simulate(cfg)


# ====================================================================
# Entry point
# ====================================================================

def test_main_success_prints_report(capsys):
    code = cli.main(["analyze", "--config",
                     cli.fixture_path("hiv_backward.json")])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["command"] == "analyze" and len(rep["patches"]) == 3


def test_main_exits_quietly_on_a_closed_pipe(tmp_path, monkeypatch, capsys):
    # a reader that closes stdout early (census ... | head) costs the
    # report, not a traceback
    def closed(text):
        raise BrokenPipeError(32, "Broken pipe")

    with open(tmp_path / "stdout", "w") as out:
        monkeypatch.setattr(out, "write", closed)
        monkeypatch.setattr(sys, "stdout", out)
        code = cli.main(["census", "--config",
                         cli.fixture_path("hiv_backward.json")])
        monkeypatch.undo()
    assert code == cli.EXIT_PIPE_CLOSED == 141
    assert capsys.readouterr() == ("", "")


def test_main_config_errors_exit_2(tmp_path, capsys):
    fixture = cli.fixture_path("hiv_backward.json")
    assert cli.main(["analyze", "--config",
                     str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  not json\n}\n")
    assert cli.main(["analyze", "--config", str(bad)]) == 2
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"schema_version": 99}))
    assert cli.main(["analyze", "--config", str(schema)]) == 2
    assert cli.main(["analyze", "--config", fixture,
                     "--preset", "fig9z"]) == 2
    assert cli.main(["analyze", "--config", fixture, "--alpha", "0,x"]) == 2
    assert cli.main(["analyze", "--config", fixture, "--alpha", "-0.1"]) == 2
    assert cli.main(["continue", "--config", fixture, "--alpha", "nan"]) == 2
    assert cli.main(["continue", "--config", fixture,
                     "--alpha", "0.001,1e-3"]) == 2
    # alpha = 0 alone leaves continue nothing to continue
    assert cli.main(["continue", "--config", fixture, "--alpha", "0"]) == 2
    # a negative initial component stops simulate before any integration
    data = fixture_dict("hiv_mixed.json")
    data["initial_sets"][0]["regions"][0][0] = -1.0
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps(data))
    assert cli.main(["simulate", "--config", str(negative)]) == 2
    # trajectory file names: a label with a path separator, a repeated
    # label, and two alphas that print alike under :g
    for label in ("a/b", "red"):
        data = fixture_dict("hiv_backward.json")
        data["initial_sets"][0]["label"] = label
        cfgp = tmp_path / "label.json"
        cfgp.write_text(json.dumps(data))
        assert cli.main(["simulate", "--config", str(cfgp)]) == 2, label
    assert cli.main(["simulate", "--config", fixture,
                     "--alpha", "0,0.1,0.1000001"]) == 2
    # a non-finite patch parameter stops the model build
    for bad in (float("nan"), float("inf")):
        data = fixture_dict("hiv_mixed.json")
        data["patches"][0]["params"]["Lam"] = bad
        cfgp = tmp_path / "lam.json"
        cfgp.write_text(json.dumps(data))
        for command in ("analyze", "census"):
            assert cli.main([command, "--config", str(cfgp)]) == 2, command
    assert "config error" in capsys.readouterr().err


# where a JSON boolean goes in hiv_backward.json: field named by the
# error, key path into the config, value put there
EDGES = [[1, 2], [2, 3]]
BOOLEAN_CASES = [
    ("alpha_grid", ["alpha_grid"], [0, True]),
    ("t_end", ["t_end"], True),
    ("rtol", ["rtol"], True),
    ("atol", ["atol"], True),
    ("network.weight", ["network"], {"edges": EDGES, "weight": True}),
    ("network.r", ["network"], {"edges": EDGES, "r": True}),
    ("network.edges[0]", ["network"], {"edges": [[True, 2]]}),
    ("patterns[0]", ["patterns"], [[True, 0, 0]]),
    ("initial_sets[0].regions[0]", ["initial_sets", 0, "regions", 0, 0],
     True),
    ("patches[0].params.beta1", ["patches", 0, "params", "beta1"], True),
]


@pytest.mark.parametrize("field, keys, value", BOOLEAN_CASES,
                         ids=[case[0] for case in BOOLEAN_CASES])
def test_json_boolean_is_not_a_number(field, keys, value, tmp_path, capsys):
    # Python's bool is an int, so true would otherwise pass as 1
    data = fixture_dict("hiv_backward.json")
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    cfgp = tmp_path / "boolean.json"
    cfgp.write_text(json.dumps(data))
    assert cli.main(["analyze", "--config", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}") and "Traceback" not in err


def test_main_numerical_failure_exit_3(tmp_path, capsys):
    # a patch pinned to R = 1 makes the strict exhaustive count refuse
    data = fixture_dict("hiv_backward.json")
    data["patches"][0]["params"]["beta1"] = marginal_beta1()
    cfgp = tmp_path / "marginal.json"
    cfgp.write_text(json.dumps(data))

    out = tmp_path / "out"
    code = cli.main(["census", "--config", str(cfgp), "--out", str(out),
                     "--exhaustive-networks"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    partial = json.loads((out / "census.json").read_text())
    assert partial["command"] == "census"
    assert "indeterminate" in partial["error"]

    # the plain census reports the same situation honestly at exit 0
    out0 = tmp_path / "out0"
    assert cli.main(["census", "--config", str(cfgp),
                     "--out", str(out0)]) == 0
    rep = json.loads((out0 / "census.json").read_text())
    assert rep["per_patch_endemic_counts"] == [1, 2, 2]
    verdicts = {row["verdict"] for row in rep["patterns"]}
    assert verdicts == {"persists", "indeterminate"}


def test_unwritable_out_directory_exits_2(tmp_path, capsys):
    # --out under a regular file: one line naming the path, no traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    code = cli.main(["analyze", "--config",
                     cli.fixture_path("hiv_backward.json"), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert str(out) in err and "Traceback" not in err
    # found before any work, so a run that would fail numerically does not
    data = fixture_dict("hiv_backward.json")
    data["patches"][0]["params"]["beta1"] = marginal_beta1()
    cfgp = tmp_path / "marginal.json"
    cfgp.write_text(json.dumps(data))
    code = cli.main(["census", "--config", str(cfgp), "--out", str(out),
                     "--exhaustive-networks"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("output error: ")
    assert err.count("\n") == 1 and str(out) in err


def test_unwritable_partial_report_exits_2(tmp_path, monkeypatch, capsys):
    # the partial report of a numerical failure, when --out has become
    # unwritable during the run: both failures, one line each
    out = tmp_path / "out"

    def failing(config, exhaustive_networks):
        out.rmdir()
        out.write_text("")
        raise RuntimeError("stub failure")

    monkeypatch.setattr(cli, "cmd_census", failing)
    code = cli.main(["census", "--config",
                     cli.fixture_path("hiv_backward.json"), "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2 and len(lines) == 2
    assert lines[0] == "numerical failure: stub failure"
    assert lines[1].startswith("output error: ") and str(out) in lines[1]


def run_simulate_without_integrating(data, out, tmp_path, monkeypatch):
    """(exit code, integrate calls) of simulate on data, --out out."""
    calls = []
    monkeypatch.setattr(sim, "integrate", lambda *args, **kwargs:
                        calls.append(args))
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(data))
    code = cli.main(["simulate", "--config", str(cfgp), "--out", str(out)])
    return code, calls


def test_unwritable_trajectory_file_exits_2(tmp_path, monkeypatch, capsys):
    # a label too long for a file name fails before the first trajectory
    # is integrated
    data = fixture_dict("hiv_backward.json")
    data["initial_sets"][1]["label"] = "x" * 300
    code, calls = run_simulate_without_integrating(
        data, tmp_path / "out", tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert code == 2 and calls == []
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert "x" * 300 in err and "Traceback" not in err


def test_simulate_out_under_a_file_exits_2_before_integrating(
        tmp_path, monkeypatch, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    code, calls = run_simulate_without_integrating(
        fixture_dict("hiv_backward.json"), out, tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert code == 2 and calls == []
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert str(out) in err and "Traceback" not in err


# sha256 of the marginal continue run below, recorded with numpy 2.4 and
# OpenBLAS 0.3.31 on x86-64 Linux
MARGINAL_CONTINUE_DIGEST = \
    "3e5b5e4a6d9c97b5468cc4634de5d196655ef131e13f79e3eaba6c593638dc18"


def test_continue_reports_hypothesis_violations_as_failed_branches(
        tmp_path, capsys):
    # with patch 1 at R = 1, every pattern through its DFE has a singular
    # coupled Jacobian at alpha = 0: each is a failed branch with no
    # point and no CSV, and the other branches are written as usual
    data = fixture_dict("hiv_backward.json")
    data["patches"][0]["params"]["beta1"] = marginal_beta1()
    cfgp = tmp_path / "marginal.json"
    cfgp.write_text(json.dumps(data))
    out = tmp_path / "out"
    code = cli.main(["continue", "--config", str(cfgp), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3 and err == ""
    rep = json.loads((out / "continue.json").read_text())
    violated = [b for b in rep["branches"] if b["failure"] is not None
                and b["failure"].startswith("theorem hypothesis violated")]
    assert len(violated) == 9
    for branch in violated:
        assert branch["choices"][0] == 0
        assert branch["points"] == [] and "csv" not in branch
        assert branch["observed"] is None and branch["agree"] is None
    assert rep["failures"] == sum(b["failure"] is not None
                                  for b in rep["branches"])
    files = sorted(path.name for path in out.iterdir())
    assert files == sorted(["continue.json"] +
                           [b["csv"] for b in rep["branches"] if "csv" in b])
    assert len(files) == 10
    assert run_digest(code, err, out) == MARGINAL_CONTINUE_DIGEST


# sha256 of (exit code, stderr, output directory) for every run on every
# shipped fixture, recorded with numpy 2.4 and OpenBLAS 0.3.31 on x86-64
# Linux. A refactor must leave them unchanged; a change that means to alter
# an output re-records the entry and explains the new digits.
FIXTURE_RUNS = ("analyze", "census", "census --exhaustive-networks",
                "continue", "simulate")
FIXTURE_DIGESTS = {
    ("hiv_backward.json", "analyze"):
        "58c8361f55a156c8dc0074999a2c09a9d31620e59eda947fed0069ad69625590",
    ("hiv_backward.json", "census"):
        "d779a00317346bcd71997939df65d524437c7c9a368edac28ddda0cafe8f4c78",
    ("hiv_backward.json", "census --exhaustive-networks"):
        "ddddc293d7e341261817573636ee27225cfc3662e4d5e6604713c20abf4427f4",
    ("hiv_backward.json", "continue"):
        "fad764b52a9c4f654da176d6ddbd0791c3f3643b85df87baa1d5086e873a18d3",
    ("hiv_backward.json", "simulate"):
        "ca8e431db707b98a716efe695292db76c7e139f182887cd282f9f1d4b7e8194d",
    ("hiv_mixed.json", "analyze"):
        "90c34f904b62b879dc3120ac33e9abfa66d68ea3bc806709aa04251f7931a47b",
    ("hiv_mixed.json", "census"):
        "8abc1691ff5c303435f3fcb6b5018f087b731b6bfce86f7823ea57e60c7fd0ce",
    ("hiv_mixed.json", "census --exhaustive-networks"):
        "5be829c76c41e4f3f490314b0fb07e904cd5cc47d914e10ac25a4bbe84c10789",
    ("hiv_mixed.json", "continue"):
        "1c0acd759a8cd9f334abe84758fcfae9c55c2b7a6c755a4318bddecca42976bc",
    ("hiv_mixed.json", "simulate"):
        "602578098d3ece37bec682b19e33332060288021d5bb253c69b69f35d6493e06",
    ("hiv_above_one.json", "analyze"):
        "f27855b3e4dd327992901e5cab74b0865bf3796dcb8b4533041031ef20cb184a",
    ("hiv_above_one.json", "census"):
        "297597eb548595ba34f6d73878411d0d808441e160c7b824df3cbbb85e93c7de",
    ("hiv_above_one.json", "census --exhaustive-networks"):
        "4434fa4ffa47f66432c1cb75b95ffec51b144fcea2ca63779dd9c0329d68d23b",
    ("hiv_above_one.json", "continue"):
        "039048d7f9d12939c1e89993ba2c762fb76be0fa512cd303fd0d41a749ac340f",
    ("hiv_above_one.json", "simulate"):
        "ca4809da265eaacf44d87e4ed87df71834c027cab20d93a1e934f2a127f46973",
    ("hiv_below_rc.json", "analyze"):
        "fcb1a45506fed01a17ab6f56c258803d24e0b2b7d5554f367611135d71aa9bc5",
    ("hiv_below_rc.json", "census"):
        "888821ef1a00e78198ae4ea93a63028927ee0f8e7cf516e3337c5fede22a48bf",
    ("hiv_below_rc.json", "census --exhaustive-networks"):
        "dca479858d00a13327892a4522d7d31ef0b5a23715bf0b05006630971e246926",
    ("hiv_below_rc.json", "continue"):
        "de8daaf51df7a878f68b192cd2964c87b7408c4e856c58d2380ce95ad26abd8c",
    ("hiv_below_rc.json", "simulate"):
        "ca4809da265eaacf44d87e4ed87df71834c027cab20d93a1e934f2a127f46973",
    ("zero_transmission.json", "analyze"):
        "99772d2b79dd0e911cc9f11b18a226132973229525aa239f93eb8b06e8bbb4a9",
    ("zero_transmission.json", "census"):
        "2df93d2cda33856fb622149bfc7b7e4bb746c8a50de430f9082e13d651829182",
    ("zero_transmission.json", "census --exhaustive-networks"):
        "3aed5da461700571b04cf9349d03b5b019b1760197a59d8a7bd52658082fc8ba",
    ("zero_transmission.json", "continue"):
        "9f20b02cf9f9efccc996f8460d80bffd5e6867a283eec96918177c15d0ec6810",
    ("zero_transmission.json", "simulate"):
        "ca4809da265eaacf44d87e4ed87df71834c027cab20d93a1e934f2a127f46973",
}


def run_digest(code: int, err: str, outdir) -> str:
    digest = hashlib.sha256(f"exit {code}\n{err}".encode())
    if outdir.exists():
        for path in sorted(outdir.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", FIXTURES)
def test_every_subcommand_exits_cleanly_on_shipped_fixtures(name, tmp_path,
                                                            capsys):
    # exit codes are documented as 0 (ok), 2 (config), 3 (numerical);
    # anything else escaping main would be a traceback
    for run in FIXTURE_RUNS:
        command, *flags = run.split()
        outdir = tmp_path / run.replace(" ", "_")
        code = cli.main([command, "--config", cli.fixture_path(name),
                         "--out", str(outdir)] + flags)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (run, code)
        assert "Traceback" not in err
        assert run_digest(code, err, outdir) == FIXTURE_DIGESTS[name, run], \
            f"{name}: {run} output changed"
    # a failed branch claims no verdict, so it neither agrees nor disagrees;
    # a grid without a positive alpha stops continue before any report
    report_path = tmp_path / "continue" / "continue.json"
    branches = (json.loads(report_path.read_text())["branches"]
                if report_path.exists() else [])
    for branch in branches:
        if branch["failure"] is not None:
            assert branch["observed"] is None and branch["agree"] is None


_MG = {"beta": [[0.06]], "Lam": 1.0, "mu": 0.05, "gamma": 0.05}
# configs the validator accepts that fail later: (family, params, top-level
# fields, the runs that reach the fault, the message that names it)
BAD_CONFIGS = {
    "tolerance_1e-300": ("multigroup", _MG, {"rtol": 1e-300, "atol": 1e-300},
                         ("simulate",), "step size underflow at t = 0 "),
    "beta_1e200": ("multigroup", dict(_MG, beta=[[1e200]]), {},
                   ("simulate",), "step size underflow at t = 0 "),
    "beta_1e308": ("multigroup", dict(_MG, beta=[[1e308]]), {}, FIXTURE_RUNS,
                   "V - F at the disease-free state not finite"),
    "Lam_1e308": ("multigroup", dict(_MG, Lam=1e308), {}, FIXTURE_RUNS,
                  "disease-free susceptible level not finite: [nan] "
                  "(the solve overflowed)"),
    "p_above_one": ("hiv_vaccination", dict(BASE, p=1.5), {}, FIXTURE_RUNS,
                    "HIV parameter p must be at most 1"),
    "no_stages": ("stage_progression",
                  {"beta": [], "nu": [], "Lam": 1.0, "mu": 0.05}, {},
                  FIXTURE_RUNS, "need at least one stage"),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_configs_exit_2_or_3_without_traceback(name, tmp_path, capsys):
    family, params, fields, runs, message = BAD_CONFIGS[name]
    data = {"schema_version": 1,
            "patches": [{"family": family, "params": params}] * 3,
            "network": {"preset": "fig3b"}, "alpha_grid": [0.0, 0.1],
            "t_end": 10.0,
            "initial_sets": [{"label": "a",
                              "regions": [[0.1, 10.0, 0.0]] * 3}],
            **fields}
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(data))
    for run in runs:
        command, *flags = run.split()
        outdir = tmp_path / run.replace(" ", "_")
        code = cli.main([command, "--config", str(cfgp),
                         "--out", str(outdir)] + flags)
        err = capsys.readouterr().err
        assert code in (2, 3), (run, code)
        assert "Traceback" not in err
        report = outdir / f"{command}.json"
        assert message in err + (report.read_text() if report.exists()
                                 else ""), run


@pytest.mark.parametrize("alpha", ["1e200", "1e308"])
@pytest.mark.parametrize("command", ["continue", "simulate"])
def test_huge_alpha_exits_3_without_a_warning(command, alpha, tmp_path,
                                              capsys):
    # M0 + alpha L and the states overflow: each branch or trajectory fails
    # with its message in the report, and no numpy warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--config",
                         cli.fixture_path("hiv_backward.json"),
                         "--alpha", alpha, "--out", str(tmp_path)])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / f"{command}.json").read_text())
    assert report["failures"]


# The same digests for configs of three catalog patches of each generic
# family (the search's multi-start Newton), recorded before the seed grid
# left out the removed classes.
GENERIC_RUNS = ("analyze", "census", "census --exhaustive-networks")
GENERIC_DIGESTS = {
    ("multigroup", "analyze"):
        "2979fd0bd8fee56af3264cff6c9d949723c3685ef27fa024d693688d6e1cccf2",
    ("multigroup", "census"):
        "a5331427f31b2e626e50c55eb7a2a8ea15e39d2c22136d807136acc122356717",
    ("multigroup", "census --exhaustive-networks"):
        "ec06e1aacbbe5c66f9a60aaf916af7b23e3e0426acdb7d39d0191cb4507b2413",
    ("multistrain", "analyze"):
        "78f229bd0a6abbcdc8302043684d5b66c67bbfdec6e9f972fa0d2dcc851f506c",
    ("multistrain", "census"):
        "faac4f631ae9420c8dd10590ee2d0630fafdc7ed03ee09e353d170559d763add",
    ("multistrain", "census --exhaustive-networks"):
        "9b1b9bae4d4ea530d837218d16f3cc045dee48d521e61a7ef3d81cce98dd9408",
    ("stage_progression", "analyze"):
        "a4665815f5e4523fee8a1f5975fb8e837ae0ff6a001b99f0582ef0227e5e2d9d",
    ("stage_progression", "census"):
        "d5bc27ba6563de228d557f6da4fa018f37098cdabaacbf83da9b157382483347",
    ("stage_progression", "census --exhaustive-networks"):
        "e9d4abdb388ccd433c80681fc1fece0e2ce1532449f0fb54d4cbe2ea0d780a91",
}


@pytest.mark.parametrize("family", ["multigroup", "multistrain",
                                    "stage_progression"])
def test_generic_family_reports_unchanged(family, tmp_path, capsys):
    data = {"schema_version": 1,
            "patches": [{"family": f, "params": p}
                        for f, p, _, _ in GENERIC_CATALOG if f == family],
            "network": {"preset": "fig3b"}, "alpha_grid": [0.0]}
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(data))
    for run in GENERIC_RUNS:
        command, *flags = run.split()
        outdir = tmp_path / run.replace(" ", "_")
        code = cli.main([command, "--config", str(cfgp),
                         "--out", str(outdir)] + flags)
        err = capsys.readouterr().err
        assert run_digest(code, err, outdir) == GENERIC_DIGESTS[family, run], \
            f"{family}: {run} output changed"


def test_main_builds_its_parser_once(monkeypatch, capsys):
    def rebuilt():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    assert cli.main(["analyze", "--config",
                     cli.fixture_path("hiv_backward.json")]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "analyze"


def test_artifacts_byte_deterministic(tmp_path):
    data = fixture_dict("hiv_mixed.json")
    data["network"] = {"preset": "fig3b"}
    data["alpha_grid"] = [0.0, 1e-6]
    data["patterns"] = [[0, 1, 0]]
    data["initial_sets"] = []
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(data))
    for sub in ("a", "b"):
        assert cli.main(["continue", "--config", str(cfgp),
                         "--out", str(tmp_path / sub)]) == 0
    for name in ("continue.json", "branch_0-1-0.csv"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes(), name


def test_cli_import_leaves_scipy_out():
    # the package needs numpy only; scipy is a test-time oracle
    import patchepi
    src = os.path.dirname(os.path.dirname(patchepi.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    probe = ("import sys, patchepi.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"
