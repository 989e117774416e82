"""Command-line surface: config-driven, reproducible experiments.

Four subcommands tie the library together:

    analyze   per-patch reproduction numbers, equilibria, regimes
    census    persistence verdicts for every product pattern
    continue  follow each pattern in alpha, compare against predictions
    simulate  integrate the coupled ODE for the configured initial sets

Configs are JSON with a versioned schema; region indices in configs and
reports are 1-based. All floats in reports are capped at 12 significant
digits so repeated runs are byte-identical. Exit codes: 0 success, 2
config error or an output file that cannot be written, 3 numerical
failure (partial artifacts are still written), 141 when stdout closes
before the report is written.
"""
from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from importlib import resources
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import continuation, equilibria, matalg, network, persist, sim
from .model import HivParams, PatchModel, hiv_vaccination, multigroup, \
    multistrain, stage_progression

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PIPE_CLOSED = 141     # 128 + SIGPIPE, as a shell reports a broken pipe

_TOP_LEVEL_KEYS = {"schema_version", "patches", "network", "alpha_grid",
                   "t_end", "rtol", "atol", "initial_sets", "patterns"}
_EDGE_NETWORK_KEYS = {"edges", "r", "weight", "name"}


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


def _finite(value) -> bool:
    """A number other than NaN or an infinity (JSON admits all three).

    A JSON boolean is no number here, although Python's bool is an int.
    """
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _alpha_grid(values, where: str) -> tuple:
    """values as an alpha grid: a list of distinct finite nonnegative reals.

    Shared by the config's alpha_grid and the --alpha override; where
    names the source in the error message.
    """
    if (not isinstance(values, list) or
            not all(_finite(a) and a >= 0 for a in values)):
        raise ConfigError(f"{where}: must be a list of finite nonnegative "
                          "reals")
    grid = tuple(float(a) for a in values)
    for idx, alpha in enumerate(grid):
        if alpha in grid[:idx]:
            raise ConfigError(f"{where}: alpha {alpha:g} is listed twice")
    return grid


def _boolean_path(value, path: str) -> Optional[str]:
    """Path of the first JSON boolean in value, a JSON tree, or None."""
    if isinstance(value, bool):
        return path
    if isinstance(value, dict):
        items = ((f"{path}.{key}", item) for key, item in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return None
    found = (_boolean_path(item, where) for where, item in items)
    return next((where for where in found if where is not None), None)


# ====================================================================
# Formatting
# ====================================================================

def fmt_float(v: float) -> float:
    """Round to 12 significant digits for platform-stable reports."""
    return float(f"{float(v):.12g}")


def round_floats(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, (np.floating,)):
        return fmt_float(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [round_floats(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {key: round_floats(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def _csv_lines(header: List[str], rows) -> List[str]:
    """The header line, then one line per row of floats.

    Every value prints as f"{v:.12g}" would; the whole row goes through
    one %-format.
    """
    fmt = ",".join(["%.12g"] * len(header))
    return [",".join(header)] + [fmt % tuple(row) for row in rows]


def pattern_label(choices) -> str:
    return "-".join(str(c) for c in choices)


# ====================================================================
# Configuration
# ====================================================================

@dataclass(frozen=True)
class ExperimentConfig:
    patches: tuple            # of {"family": str, "params": dict}
    network: dict
    alpha_grid: tuple
    t_end: float
    rtol: float
    atol: float
    initial_sets: tuple       # of (label, list of per-region state lists)
    patterns: Optional[tuple]


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, "
            f"got {data.get('schema_version')!r}")

    patches = data.get("patches")
    if not isinstance(patches, list) or not patches:
        raise ConfigError("patches: must be a non-empty list")
    for idx, blk in enumerate(patches):
        path = f"patches[{idx}]"
        if not isinstance(blk, dict):
            raise ConfigError(f"{path}: must be an object")
        if not isinstance(blk.get("family"), str):
            raise ConfigError(f"{path}.family: must be a string")
        if not isinstance(blk.get("params"), dict):
            raise ConfigError(f"{path}.params: must be an object")
        found = _boolean_path(blk["params"], f"{path}.params")
        if found is not None:
            raise ConfigError(f"{found}: must be a number, not a boolean")

    netspec = data.get("network")
    if not isinstance(netspec, dict):
        raise ConfigError("network: must be an object")
    if ("preset" in netspec) == ("edges" in netspec):
        raise ConfigError("network: give exactly one of 'preset' or 'edges'")
    unknown = set(netspec) - _EDGE_NETWORK_KEYS - {"preset"}
    if unknown:
        raise ConfigError(f"network: unknown fields {sorted(unknown)}")
    if "preset" in netspec:
        extra = set(netspec) - {"preset"}
        if extra:
            raise ConfigError(
                f"network: {sorted(extra)} not allowed with 'preset'")
        if netspec["preset"] not in network.PRESET_EDGES:
            raise ConfigError(
                f"network.preset: unknown preset {netspec['preset']!r}; "
                f"available: {sorted(network.PRESET_EDGES)}")
    else:
        edges = netspec["edges"]
        r = netspec.get("r", len(patches))
        if type(r) is not int or r < 1:  # bool is an int subclass
            raise ConfigError("network.r: must be a positive integer")
        if not isinstance(edges, list):
            raise ConfigError("network.edges: must be a list of [from, to]")
        for eidx, edge in enumerate(edges):
            if (not isinstance(edge, list) or len(edge) != 2 or
                    not all(type(v) is int for v in edge)):
                raise ConfigError(
                    f"network.edges[{eidx}]: must be [from, to] integers")
            if not all(1 <= v <= r for v in edge):
                raise ConfigError(
                    f"network.edges[{eidx}]: regions are 1-based in 1..{r}")
            if edge[0] == edge[1]:
                raise ConfigError(
                    f"network.edges[{eidx}]: self-loops are not allowed")
        if not isinstance(netspec.get("name", ""), str):
            raise ConfigError("network.name: must be a string")
    weight = netspec.get("weight", 1.0)
    if not _finite(weight) or weight <= 0:
        raise ConfigError("network.weight: must be a finite positive number")

    alpha_grid = _alpha_grid(data.get("alpha_grid", [0.0]), "alpha_grid")

    t_end = data.get("t_end", sim.DEFAULT_T_END)
    rtol = data.get("rtol", sim.DEFAULT_RTOL)
    atol = data.get("atol", sim.DEFAULT_ATOL)
    for name, val in (("t_end", t_end), ("rtol", rtol), ("atol", atol)):
        if not _finite(val) or val <= 0:
            raise ConfigError(f"{name}: must be a finite positive number")

    raw_sets = data.get("initial_sets", [])
    if not isinstance(raw_sets, list):
        raise ConfigError("initial_sets: must be a list")
    initial_sets = []
    for sidx, item in enumerate(raw_sets):
        path = f"initial_sets[{sidx}]"
        if (not isinstance(item, dict) or "label" not in item
                or "regions" not in item):
            raise ConfigError(f"{path}: must have 'label' and 'regions'")
        regions = item["regions"]
        if (not isinstance(regions, list) or len(regions) != len(patches)):
            raise ConfigError(
                f"{path}.regions: need one state list per region "
                f"({len(patches)})")
        for ridx, st in enumerate(regions):
            if (not isinstance(st, list) or
                    not all(_finite(v) and v >= 0 for v in st)):
                raise ConfigError(
                    f"{path}.regions[{ridx}]: must be a list of numbers, "
                    "finite and nonnegative")
        # the label names a simulate artifact file
        label = item["label"]
        if not isinstance(label, str):
            raise ConfigError(f"{path}.label: must be a string")
        if "/" in label or "\0" in label:
            raise ConfigError(f"{path}.label: must not contain '/' or NUL")
        if label in [other for other, _ in initial_sets]:
            raise ConfigError(f"{path}.label: {label!r} is already used")
        initial_sets.append((label, regions))

    patterns = data.get("patterns")
    if patterns is not None:
        if not isinstance(patterns, list):
            raise ConfigError("patterns: must be a list of choice lists")
        for pidx, pat in enumerate(patterns):
            if (not isinstance(pat, list) or len(pat) != len(patches) or
                    not all(type(c) is int and c >= 0 for c in pat)):
                raise ConfigError(
                    f"patterns[{pidx}]: must be {len(patches)} nonnegative "
                    "equilibrium indices")
            if pat in patterns[:pidx]:
                raise ConfigError(f"patterns[{pidx}]: {pat} is already listed")
        patterns = tuple(tuple(p) for p in patterns)

    return ExperimentConfig(
        patches=tuple(patches), network=dict(netspec),
        alpha_grid=alpha_grid,
        t_end=float(t_end), rtol=float(rtol), atol=float(atol),
        initial_sets=tuple(initial_sets), patterns=patterns)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(data)


def fixture_path(name: str) -> str:
    """Filesystem path of a shipped fixture config."""
    ref = resources.files("patchepi").joinpath("fixtures", name)
    return str(ref)


_FAMILY_BUILDERS = {
    "hiv_vaccination": lambda p: hiv_vaccination(HivParams(**p)),
    "multigroup": lambda p: multigroup(
        np.asarray(p["beta"], dtype=float), p["Lam"], p["mu"], p["gamma"]),
    "stage_progression": lambda p: stage_progression(
        np.asarray(p["beta"], dtype=float), np.asarray(p["nu"], dtype=float),
        p["Lam"], p["mu"]),
    "multistrain": lambda p: multistrain(
        np.asarray(p["beta"], dtype=float),
        np.asarray(p["gamma"], dtype=float), p["Lam"], p["mu"]),
}


def build_models(config: ExperimentConfig) -> List[PatchModel]:
    models = []
    for idx, blk in enumerate(config.patches):
        family = blk["family"]
        builder = _FAMILY_BUILDERS.get(family)
        if builder is None:
            raise ConfigError(
                f"patches[{idx}].family: unknown family {family!r}; "
                f"available: {sorted(_FAMILY_BUILDERS)}")
        try:
            models.append(builder(blk["params"]))
        except (TypeError, KeyError, ValueError) as exc:
            raise ConfigError(f"patches[{idx}].params: {exc}") from exc
    first = models[0]
    for idx, mod in enumerate(models):
        if (mod.n, mod.m, mod.k) != (first.n, first.m, first.k):
            raise ConfigError(
                f"patches[{idx}]: block sizes {(mod.n, mod.m, mod.k)} differ "
                f"from patches[0] {(first.n, first.m, first.k)}")
    return models


def build_network(config: ExperimentConfig,
                  models: Sequence[PatchModel]) -> network.MobilityNetwork:
    n, m, k = models[0].n, models[0].m, models[0].k
    spec = config.network
    weight = float(spec.get("weight", 1.0))
    if "preset" in spec:
        net = network.preset(spec["preset"], n=n, m=m, k=k)
        if len(config.patches) != net.r:
            raise ConfigError(
                f"network.preset {spec['preset']!r} has {net.r} regions, "
                f"config has {len(config.patches)} patches")
        return net
    edges0 = [(f - 1, t - 1) for f, t in spec["edges"]]
    r = spec.get("r", len(config.patches))
    if r != len(config.patches):
        raise ConfigError(f"network.r = {r} but config has "
                          f"{len(config.patches)} patches")
    return network.from_edges(edges0, r=r, n=n, m=m, k=k, weight=weight,
                              name=spec.get("name"))


def _network_report(net: network.MobilityNetwork) -> dict:
    adj = net.adjacency().tolist()
    edges = sorted((f + 1, t + 1)
                   for f in range(net.r) for t in range(net.r) if adj[f][t])
    return {"name": net.name, "r": net.r,
            "edges": [list(e) for e in edges]}


# ====================================================================
# Commands
# ====================================================================

def cmd_analyze(config: ExperimentConfig) -> dict:
    """Per-patch reproduction numbers, equilibria and regimes."""
    models = build_models(config)
    net = build_network(config, models)
    patches = []
    for idx, mod in enumerate(models):
        patch = equilibria.patch_facts(mod)
        report = equilibria.bifurcation_report(patch)
        dfe, *endemic = patch.equilibria
        entry = {
            "region": idx + 1,
            "family": mod.family,
            "R": report.R_local,
            "regime": report.regime,
            "dfe": {
                "state": {"x": dfe.state.x, "y": dfe.state.y,
                          "z": dfe.state.z},
                "stability": dfe.stability,
            },
            "endemic": [
                {"choice": eq.index, "stability": eq.stability,
                 "jac_invertible": eq.jac_invertible,
                 "state": {"x": eq.state.x, "y": eq.state.y, "z": eq.state.z}}
                for eq in endemic
            ],
        }
        if mod.family == "hiv_vaccination":
            entry["endemic_lambdas"] = list(report.endemic_lambdas)
            entry["R_c_estimate"] = report.R_c_estimate
        patches.append(entry)
    return round_floats({
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "network": _network_report(net),
        "alpha_grid": list(config.alpha_grid),
        "patches": patches,
    })


def cmd_census(config: ExperimentConfig,
               exhaustive_networks: bool = False) -> dict:
    """Persistence verdicts for every product pattern of the config."""
    models = build_models(config)
    net = build_network(config, models)
    if exhaustive_networks and net.r != 3:
        raise ConfigError("--exhaustive-networks needs exactly 3 patches")
    facts = persist.SystemFacts([equilibria.patch_facts(mod)
                                 for mod in models])
    counts = [len(p.equilibria) - 1 for p in facts.patches]
    verdicts = facts.verdicts(net)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "census",
        "network": _network_report(net),
        "R": list(facts.R_values),
        "per_patch_endemic_counts": counts,
        "patterns": [_verdict_report(v) for v in verdicts],
        "persisting_count": sum(v.verdict == "persists" for v in verdicts),
    }
    if exhaustive_networks:
        scan = []
        attained = set()
        n, m, k = models[0].n, models[0].m, models[0].k
        for candidate in network.enumerate_networks(net.r, n=n, m=m, k=k):
            cnt = facts.persisting_count(candidate)
            attained.add(cnt)
            scan.append({"name": candidate.name,
                         "edges": _network_report(candidate)["edges"],
                         "persisting_count": cnt})
        report["exhaustive_networks"] = scan
        report["attained_set"] = sorted(attained)
    return round_floats(report)


def _verdict_report(verdict: persist.PersistenceVerdict) -> dict:
    witness = None
    if verdict.witness is not None:
        witness = {"region": verdict.witness.region + 1,
                   "local_R": verdict.witness.local_R}
        if verdict.witness.path:
            witness["path"] = [r + 1 for r in verdict.witness.path]
    return {"choices": list(verdict.pattern.choices),
            "verdict": verdict.verdict,
            "rule": verdict.rule,
            "witness": witness}


def cmd_continue(config: ExperimentConfig) -> Tuple[dict, dict]:
    """Continue every (or each selected) pattern across the alpha grid.

    Returns (report, artifacts): artifacts maps CSV file names to lines.
    """
    if not any(alpha > 0 for alpha in config.alpha_grid):
        raise ConfigError("alpha_grid: continue needs a positive alpha")
    models = build_models(config)
    net = build_network(config, models)
    facts = persist.SystemFacts([equilibria.patch_facts(mod)
                                 for mod in models])
    eqs = [p.equilibria for p in facts.patches]
    counts = [len(e) - 1 for e in eqs]
    if config.patterns is not None:
        pats = []
        for choices in config.patterns:
            for c, cnt in zip(choices, counts):
                if c > cnt:
                    raise ConfigError(
                        f"pattern {list(choices)}: choice {c} exceeds the "
                        f"patch equilibrium count {cnt}")
            pats.append(equilibria.EquilibriumPattern(choices))
    else:
        pats = list(equilibria.enumerate_patterns(counts))
    verdicts = facts.verdicts(net, pats)
    system = continuation.CoupledSystem(models, net)
    records = continuation.continue_branches(pats, system, config.alpha_grid,
                                             equilibria=eqs)
    branches = []
    artifacts = {}
    mismatches = 0
    failures = 0
    comp_names = _component_names(models)
    for pat, predicted, record in zip(pats, verdicts, records):
        agree = (predicted.verdict == record.verdict_observed
                 if predicted.verdict != "indeterminate"
                 and record.verdict_observed is not None else None)
        if agree is False:
            mismatches += 1
        if record.failure is not None:
            failures += 1
        entry = {"choices": list(pat.choices),
                 "predicted": predicted.verdict,
                 "rule": predicted.rule,
                 "observed": record.verdict_observed,
                 "exit_alpha": record.exit_alpha,
                 "agree": agree,
                 "failure": record.failure}
        # a pattern that violates the hypotheses has no point to write
        if record.points:
            name = f"branch_{pattern_label(pat.choices)}.csv"
            artifacts[name] = _branch_csv(record, comp_names)
            entry["csv"] = name
        entry["points"] = [{"alpha": p.alpha,
                            "residual_norm": p.residual_norm,
                            "min_component": p.min_component,
                            "max_real_eig": p.max_real_eig,
                            "stability": p.stability} for p in record.points]
        branches.append(entry)
    report = round_floats({
        "schema_version": SCHEMA_VERSION,
        "command": "continue",
        "network": _network_report(net),
        "alpha_grid": list(config.alpha_grid),
        "R": list(facts.R_values),
        "branches": branches,
        "mismatches": mismatches,
        "failures": failures,
    })
    return report, artifacts


def _component_names(models: Sequence[PatchModel]) -> List[str]:
    names = []
    for i, mod in enumerate(models):
        names.extend(f"r{i + 1}_x{j + 1}" for j in range(mod.n))
        names.extend(f"r{i + 1}_y{j + 1}" for j in range(mod.m))
        names.extend(f"r{i + 1}_z{j + 1}" for j in range(mod.k))
    return names


def _branch_csv(record: continuation.BranchRecord,
                comp_names: List[str]) -> List[str]:
    return _csv_lines(
        ["alpha"] + comp_names + ["min_component", "max_real_eig"],
        ([p.alpha, *p.X.tolist(), p.min_component, p.max_real_eig]
         for p in record.points))


def cmd_simulate(config: ExperimentConfig) -> Tuple[dict, dict]:
    """Integrate each configured initial set at each alpha."""
    if not config.initial_sets:
        raise ConfigError("simulate needs at least one entry in initial_sets")
    # trajectory files are named by alpha's :g form
    tags = [f"{alpha:g}" for alpha in config.alpha_grid]
    for tag in tags:
        if tags.count(tag) > 1:
            raise ConfigError(f"alpha_grid: two values print as {tag}, "
                              "so their trajectory files would collide")
    models = build_models(config)
    net = build_network(config, models)
    eqs = [equilibria.patch_facts(mod).equilibria for mod in models]
    comp_names = _component_names(models)
    system = continuation.CoupledSystem(models, net)
    starts = []
    for label, regions in config.initial_sets:
        for i, (st, mod) in enumerate(zip(regions, models)):
            if len(st) != mod.size:
                raise ConfigError(
                    f"initial set {label!r}: region {i + 1} has {len(st)} "
                    f"entries, expected {mod.size}")
        X0 = np.concatenate([np.asarray(st, dtype=float) for st in regions])
        empty = _empty_regions(system, X0)
        if empty:
            raise ConfigError(
                f"initial set {label!r}: region {empty[0] + 1} has zero "
                "population, where standard incidence is undefined")
        starts.append((label, X0))
    classified = _classified_equilibria(system, eqs, config.alpha_grid)
    jobs = [(label, alpha, X0)
            for alpha in config.alpha_grid for label, X0 in starts]

    artifacts = {}
    rows = []
    for label, alpha, X0 in jobs:
        entry = {"label": label, "alpha": alpha}
        try:
            traj = sim.integrate(system, alpha, X0, t_end=config.t_end,
                                 rtol=config.rtol, atol=config.atol,
                                 classified=classified[alpha])
        except sim.StepSizeUnderflowError as exc:
            entry.update({"csv": None, "terminal_classification": None,
                          "failure": str(exc)})
        else:
            name = _trajectory_csv_name(label, alpha)
            artifacts[name] = _trajectory_csv(traj, comp_names)
            entry.update({
                "csv": name,
                "terminal_classification": traj.terminal_classification,
                "min_component_overall": float(traj.states.min()),
                "steps": len(traj.times) - 1,
                "failure": None,
            })
        rows.append(entry)
    report = round_floats({
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "network": _network_report(net),
        "alpha_grid": list(config.alpha_grid),
        "t_end": config.t_end,
        "trajectories": rows,
        "failures": sum(row["failure"] is not None for row in rows),
    })
    return report, artifacts


def _empty_regions(system: continuation.CoupledSystem,
                   X: np.ndarray) -> List[int]:
    """Regions whose block of X is not admissible (N = 0, standard incidence).

    Probe j holds region j's block of X and ones everywhere else, so
    system.admissible judges region j alone.
    """
    r = system.net.r
    probes = np.ones((r, r, system.s))
    probes[np.arange(r), np.arange(r)] = X.reshape(r, system.s)
    return np.flatnonzero(~system.admissible(probes.reshape(r, -1))).tolist()


def _classified_equilibria(system, eqs, alpha_grid) -> dict:
    """Labeled equilibria at each grid alpha for terminal classification.

    One continuation climbs the union of the ladders alpha / 100,
    alpha / 10, alpha of the grid's alphas. A pattern labels alpha when
    its branch has a point at exactly alpha and has not left the cone by
    then. A pattern whose point the classifier already gives to an
    earlier label at alpha is skipped.
    """
    patterns = equilibria.enumerate_patterns([len(eq) - 1 for eq in eqs])
    ladder = {a for alpha in alpha_grid
              for a in (alpha / 100.0, alpha / 10.0, alpha)}
    classified = {alpha: [] for alpha in alpha_grid}
    for pat, rec in zip(patterns, continuation.continue_branches(
            patterns, system, ladder, eqs)):
        for point in rec.points:
            kept = classified.get(point.alpha)
            if (kept is not None and (rec.exit_alpha is None
                                      or rec.exit_alpha > point.alpha)
                    and sim._classify_terminal(point.X, kept) == "unresolved"):
                kept.append((f"pattern_{pattern_label(pat.choices)}", point.X))
    return classified


def _trajectory_csv_name(label: str, alpha: float) -> str:
    return f"traj_{label}_a{alpha:g}.csv"


def _trajectory_csv(traj: sim.Trajectory,
                    comp_names: List[str]) -> List[str]:
    return _csv_lines(["time"] + comp_names,
                      np.column_stack([traj.times, traj.states]).tolist())


# ====================================================================
# Entry point
# ====================================================================

def _write_atomic(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _prepare_out(outdir: str, names: List[str]):
    """Create outdir, and refuse a file name too long for it (with
    _write_atomic's suffix), as the write would."""
    os.makedirs(outdir, exist_ok=True)
    limit = os.pathconf(outdir, "PC_NAME_MAX")
    for name in names:
        if len(os.fsencode(name + ".tmp")) > limit:
            raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG),
                          os.path.join(outdir, name))


def _write_artifacts(outdir: str, report: dict, artifacts: dict,
                     report_name: str):
    _write_atomic(os.path.join(outdir, report_name),
                  json.dumps(report, indent=2) + "\n")
    for name, lines in artifacts.items():
        _write_atomic(os.path.join(outdir, name), "\n".join(lines) + "\n")


def _wrote(outdir: str, write, *args) -> bool:
    """write(outdir, *args); an OSError is one line on stderr naming the
    path."""
    try:
        write(outdir, *args)
    except OSError as exc:
        path = exc.filename if exc.filename is not None else outdir
        print(f"output error: cannot write {path}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    net = dict(config.network)
    alpha_grid = config.alpha_grid
    if args.preset:
        if args.preset not in network.PRESET_EDGES:
            raise ConfigError(f"--preset: unknown preset {args.preset!r}")
        net = {"preset": args.preset}
    if args.alpha:
        try:
            alpha_grid = [float(tok) for tok in args.alpha.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--alpha: {exc}") from exc
        alpha_grid = _alpha_grid(alpha_grid, "--alpha")
    return replace(config, network=net, alpha_grid=alpha_grid)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchepi",
        description="Steady-state analysis of multi-patch epidemic models "
                    "under small travel volumes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("analyze", "per-patch equilibrium analysis"),
                      ("census", "persistence verdicts for all patterns"),
                      ("continue", "continue equilibria in alpha"),
                      ("simulate", "integrate the coupled ODE system")):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", required=True,
                         help="path to a JSON experiment config")
        cmd.add_argument("--out", default=None,
                         help="output directory (default: report to stdout)")
        cmd.add_argument("--preset", default=None,
                         help="override the config network with a preset")
        cmd.add_argument("--alpha", default=None,
                         help="override alpha_grid, comma-separated")
        if name == "census":
            cmd.add_argument("--exhaustive-networks", action="store_true",
                             help="scan all 64 three-region digraphs")
    return parser


# built once: each parse_args call returns a fresh namespace
_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    report_name = f"{args.command}.json"
    if args.out:
        # an output that cannot be written fails before any work
        names = [report_name]
        if args.command == "simulate":
            names += [_trajectory_csv_name(label, alpha)
                      for alpha in config.alpha_grid
                      for label, _ in config.initial_sets]
        if not _wrote(args.out, _prepare_out, names):
            return EXIT_CONFIG
    artifacts = {}
    code = EXIT_OK
    try:
        if args.command == "analyze":
            report = cmd_analyze(config)
        elif args.command == "census":
            report = cmd_census(
                config, exhaustive_networks=args.exhaustive_networks)
        elif args.command == "continue":
            report, artifacts = cmd_continue(config)
            if report["failures"]:
                code = EXIT_NUMERICAL
        else:
            report, artifacts = cmd_simulate(config)
            if report["failures"]:
                code = EXIT_NUMERICAL
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (matalg.SingularMatrixError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if args.out:
            partial = {"schema_version": SCHEMA_VERSION,
                       "command": args.command, "error": str(exc)}
            if not _wrote(args.out, _write_artifacts, partial, artifacts,
                          report_name):
                return EXIT_CONFIG
        return EXIT_NUMERICAL

    if args.out:
        if not _wrote(args.out, _write_artifacts, report, artifacts,
                      report_name):
            return EXIT_CONFIG
        return code
    try:
        print(json.dumps(report, indent=2), flush=True)
    except BrokenPipeError:
        # reader gone: null stdout, or the exit flush raises again
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return EXIT_PIPE_CLOSED
    return code


if __name__ == "__main__":
    sys.exit(main())
