"""Record the answers the benchmark checks against (reference.json).

    python3 perfbench/record_reference.py

Run once on the commit whose answers are the reference. It records:

- per catalog patch (inputs.py): R, regime, endemic count and, for HIV,
  endemic_lambdas and R_c_estimate, from `analyze`;
- per system class (HIV regimes or generic catalog ids, in order) and
  per digraph: which product patterns `persist.predict` keeps, as a hex
  bit mask over enumerate_patterns order; checked against the
  `census --exhaustive-networks` counts, and for HIV checked to depend on
  the regimes only, not on the beta1 draws;
- per trajectory system, initial set and alpha: the `simulate` terminal
  label, for trajectories that complete.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import sys
from pathlib import Path

from run import ROOT, TMP_DIR, import_program
import inputs
from accounting import edges_mask, label_key


def require(ok: bool, what: str):
    if not ok:
        raise RuntimeError(f"reference check failed: {what}")


def cli_report(cli, cfg: dict, command: str, workdir: Path, *flags):
    path = workdir / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = workdir / "out"
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--config", str(path), "--out", str(out),
                         *flags])
    report_path = out / f"{command}.json"
    report = (json.loads(report_path.read_text(encoding="utf-8"))
              if report_path.is_file() else None)
    shutil.rmtree(out, ignore_errors=True)
    return code, report


def catalog(family: str) -> list:
    """(patch dict, class, patch key) for every catalog patch of a family."""
    if family == "hiv":
        return [(inputs.hiv_patch(b), regime, f"hiv:{b!r}")
                for regime, values in inputs.HIV_BETA1.items()
                for b in values]
    return [({"family": family, "params": p}, i, f"{family}:{i}")
            for i, p in enumerate(inputs.GENERIC[family])]


def record_patches(cli, workdir) -> dict:
    out = {}
    for family in ("hiv", *inputs.GENERIC):
        entries = catalog(family)
        for chunk in range(0, len(entries), 3):
            part = entries[chunk:chunk + 3]
            cfg = {"schema_version": 1, "patches": [p for p, _, _ in part],
                   "network": {"r": 3, "edges": []}}
            code, rep = cli_report(cli, cfg, "analyze", workdir)
            require(code == 0, f"analyze {family} exited {code}")
            for (_, _, key), patch in zip(part, rep["patches"]):
                ref = {"R": patch["R"], "regime": patch["regime"],
                       "endemic_count": len(patch["endemic"])}
                if family == "hiv":
                    ref["endemic_lambdas"] = patch["endemic_lambdas"]
                    ref["R_c_estimate"] = patch["R_c_estimate"]
                out[key] = ref
    return out


def persisting_masks(pkg, models, eqs) -> list:
    """Hex mask of persisting patterns for each of the 64 digraphs."""
    R = [pkg.equilibria.local_reproduction_number(m) for m in models]
    counts = [len(e) - 1 for e in eqs]
    pats = pkg.equilibria.enumerate_patterns(counts)
    n, m, k = models[0].n, models[0].m, models[0].k
    masks = []
    for mask in range(inputs.N_DIGRAPHS):
        edges = [(f - 1, t - 1) for f, t in inputs.digraph_edges(mask)]
        net = pkg.network.from_edges(edges, r=3, n=n, m=m, k=k)
        bits = sum(1 << j for j, pat in enumerate(pats)
                   if pkg.persist.predict(pat, models, net, equilibria=eqs,
                                          R_values=R).verdict == "persists")
        masks.append(f"{bits:x}")
    return masks


def record_verdicts(pkg, workdir) -> dict:
    cli = pkg.cli
    out = {}
    for family in ("hiv", *inputs.GENERIC):
        entries = catalog(family)
        built = {key: (cli._FAMILY_BUILDERS[p["family"]](p["params"]))
                 for p, _, key in entries}
        eqs = {key: pkg.equilibria.patch_equilibria(mod)
               for key, mod in built.items()}
        if family == "hiv":
            classes = list(inputs.REGIMES)
            reps = {regime: next(key for _, c, key in entries if c == regime)
                    for regime in classes}
        else:
            classes = list(range(len(entries)))
            reps = {c: key for _, c, key in entries}
        for order in itertools.permutations(classes):
            keys = [reps[c] for c in order]
            masks = persisting_masks(pkg, [built[k] for k in keys],
                                     [eqs[k] for k in keys])
            vkey = f"{family}:" + ",".join(map(str, order))
            out[vkey] = masks
            if family == "hiv":
                # every beta1 draw of the same regimes gives the same verdicts
                for combo in itertools.product(*[
                        [key for _, c, key in entries if c == regime]
                        for regime in order]):
                    require(persisting_masks(
                        pkg, [built[k] for k in combo],
                        [eqs[k] for k in combo]) == masks,
                        f"verdicts of {combo} differ from {order}")
            cfg = {"schema_version": 1,
                   "patches": [next(p for p, _, key in entries if key == k)
                               for k in keys],
                   "network": {"r": 3, "edges": []}}
            code, rep = cli_report(cli, cfg, "census", workdir,
                                   "--exhaustive-networks")
            require(code == 0, f"census {vkey} exited {code}")
            got = {edges_mask(row["edges"]): row["persisting_count"]
                   for row in rep["exhaustive_networks"]}
            want = {mk: bin(int(h, 16)).count("1")
                    for mk, h in enumerate(masks)}
            require(got == want, f"exhaustive counts of {vkey}")
            print(f"verdicts {vkey}", flush=True)
    return out


def record_labels(cli, workdir) -> dict:
    out = {}
    for system, spec in sorted(inputs.TRAJ_SYSTEMS.items()):
        for alpha in inputs.SHIPPED_GRID:
            labels = sorted(spec["sets"])
            cfg = inputs.traj_config(system, labels[0], alpha)
            cfg["initial_sets"] = [{"label": lab,
                                    "regions": spec["sets"][lab]}
                                   for lab in labels]
            try:
                code, rep = cli_report(cli, cfg, "simulate", workdir)
            except Exception as exc:     # the crash the benchmark counts
                print(f"labels {system} alpha {alpha:g}: {exc!r}")
                continue
            if rep is None or "trajectories" not in rep:
                print(f"labels {system} alpha {alpha:g}: exit {code}")
                continue
            for tr in rep["trajectories"]:
                if tr["failure"] is None:
                    out[label_key(system, tr["label"], alpha)] = \
                        tr["terminal_classification"]
            print(f"labels {system} alpha {alpha:g}", flush=True)
    return out


def main() -> int:
    pkg = import_program()
    workdir = TMP_DIR / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ref = {"patches": record_patches(pkg.cli, workdir),
               "verdicts": record_verdicts(pkg, workdir),
               "labels": record_labels(pkg.cli, workdir)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
