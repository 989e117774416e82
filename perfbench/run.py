"""patchepi benchmark: seeded census / branches / trajectories workloads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Runs one workload through the CLI entry point `patchepi.cli.main(argv)` in
this process, one job at a time, with `--out` pointing at a scratch
directory inside the checkout. The job list comes from the seed alone
(inputs.py); whole passes over it are repeated while another one fits
into --seconds, and at least one runs. Every answer is checked (accounting.py) against the
references in reference.json.

--trace 0 prints the end-to-end metrics: set-up time, seconds per answered
operation and peak memory. --trace 1 runs one pass twice per job, plain
and traced (tracing.py), checks that both give the same outputs, and prints
the per-layer metrics together with the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The lines before it name every
metric with its unit. A run record with the machine details, every job's
outcome and any traceback goes to .perfbench_out/, the traced spans too.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
SETUP_PROBES = 3

# One job at a time in one process: BLAS gets one thread, the program its
# serial default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PATCHEPI_THREADS", None)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (nothing to measure)."""


def import_program():
    """Import patchepi from this checkout's src/, never from elsewhere."""
    if not (SRC / "patchepi" / "__init__.py").is_file():
        raise BenchError(f"no patchepi sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import patchepi
    if Path(patchepi.__file__).resolve().parent != SRC / "patchepi":
        raise BenchError(f"imported patchepi from {patchepi.__file__}")
    return patchepi


# ====================================================================
# Jobs
# ====================================================================

def write_configs(jobs, workdir: Path, cli) -> list:
    """Config path per job: a written JSON file or a shipped fixture."""
    paths = []
    for k, job in enumerate(jobs):
        if isinstance(job.config, str):
            paths.append(cli.fixture_path(job.config))
            continue
        path = workdir / f"cfg{k:02d}-{job.name}.json"
        path.write_text(json.dumps(job.config, indent=1), encoding="utf-8")
        paths.append(str(path))
    return paths


def _dir_digest(path: Path) -> tuple:
    """(sha256 over file names and bytes, total bytes) of a directory."""
    h = hashlib.sha256()
    total = 0
    if path.is_dir():
        for f in sorted(path.iterdir()):
            data = f.read_bytes()
            total += len(data)
            h.update(f.name.encode() + b"\0" + data)
    return h.hexdigest(), total


def run_job(job, config_path, out_dir: Path, cli, accounting):
    """Run one CLI invocation and return (Outcome, digest, artifact bytes)."""
    argv = job.argv(config_path, str(out_dir))
    sink = io.StringIO()
    code, error = None, None
    gc.collect()       # start every job from the same heap state, untimed
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    report = None
    report_path = out_dir / f"{job.command}.json"
    if error is None and report_path.is_file():
        report = json.loads(report_path.read_text(encoding="utf-8"))
    digest, nbytes = _dir_digest(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    out = accounting.Outcome(command=job.command, ops=job.ops,
                             seconds=seconds, exit_code=code, report=report,
                             error=error, meta=job.meta, args=job.args)
    return out, (code, error is None, digest), nbytes


def warm_up(cli, workdir: Path):
    """One tiny analyze/continue/simulate so lazy imports land in set-up."""
    strain = {"family": "multistrain",
              "params": {"beta": [0.5], "gamma": [0.3], "Lam": 1.0,
                         "mu": 0.1}}
    cfg = {"schema_version": 1, "patches": [strain] * 3,
           "network": {"r": 3, "edges": [[1, 2], [2, 3]]},
           "alpha_grid": [0.0, 1e-6], "t_end": 1.0,
           "initial_sets": [{"label": "w", "regions": [[0.1, 5.0, 0.0]] * 3}]}
    path = workdir / "warmup.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    sink = io.StringIO()
    for command in ("analyze", "continue", "simulate"):
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([command, "--config", str(path), "--out",
                             str(workdir / "warmup_out")])
        if code != 0:
            raise BenchError(f"warm-up {command} exited {code}: "
                             f"{sink.getvalue()[-500:]}")
    shutil.rmtree(workdir / "warmup_out", ignore_errors=True)


def set_up(workload: str, seed: int, workdir: Path):
    """Import the program, generate this seed's configs, warm up."""
    patchepi = import_program()
    import inputs
    jobs = inputs.WORKLOADS[workload](seed)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = write_configs(jobs, workdir, patchepi.cli)
    warm_up(patchepi.cli, workdir)
    return patchepi, jobs, paths


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from starting a fresh interpreter until its first job is ready."""
    times = []
    for k in range(SETUP_PROBES):
        workdir = TMP_DIR / f"setup-{os.getpid()}-{k}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed),
             "--workdir", str(workdir)],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT))
        shutil.rmtree(workdir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("READY "):
            raise BenchError(f"set-up probe failed ({proc.returncode}): "
                             f"{proc.stderr[-800:]}")
        times.append(float(lines[-1].split()[1]) - t0)
    return times


# ====================================================================
# Machine
# ====================================================================

def _blas_threads():
    """Threads OpenBLAS reports, or the environment setting."""
    import ctypes
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        fn = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": _blas_threads(),
            "patchepi_threads": os.environ.get("PATCHEPI_THREADS")}


# ====================================================================
# Runs
# ====================================================================

def run_passes(jobs, paths, workdir, seconds, cli, accounting):
    """Repeat the job list while another pass fits into --seconds.

    At least one pass runs; accounting is taken from the first.

    Every pass runs the same jobs, so failure counts do not depend on how
    many passes fit; later passes only add timing samples and must give
    the same outputs.
    """
    outcomes, digests = [], None
    pass_times = []
    deterministic = True
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        this = []
        for k, (job, path) in enumerate(zip(jobs, paths)):
            out, digest, _ = run_job(job, path, workdir / f"out{k:02d}", cli,
                                     accounting)
            this.append((out, digest))
        pass_times.append(time.perf_counter() - t_pass)
        if digests is None:
            digests = [d for _, d in this]
        elif [d for _, d in this] != digests:
            deterministic = False
        outcomes.append([o for o, _ in this])
        elapsed = time.perf_counter() - start
        if elapsed + pass_times[-1] > seconds:
            return outcomes, deterministic, elapsed


def end_to_end(workload, outcomes, tallies, setup_times, accounting):
    """Gated metrics plus the per-subcommand lines named by the workload."""
    answered = sum(t.answered for t in tallies)    # the same every pass
    per_pass = [accounting.ratio(sum(o.seconds for o in outs), answered)
                for outs in outcomes]
    if per_pass[0] is None:
        raise BenchError("no operation was answered; nothing to time")
    flat = [o for outs in outcomes for o in outs]
    flat_t = tallies * len(outcomes)
    named = {}
    if workload == "census":
        named["analyze_s_per_config"] = accounting.per_answer(
            flat, flat_t, {"analyze"})
        named["census_s_per_config"] = accounting.per_answer(
            flat, flat_t, {"census"}, args=())
        named["exhaustive_s_per_config"] = accounting.per_answer(
            flat, flat_t, {"census"}, args=("--exhaustive-networks",))
    elif workload == "branches":
        named["continue_s_per_branch"] = accounting.per_answer(
            flat, flat_t, {"continue"})
    else:
        named["simulate_s_per_traj"] = accounting.per_answer(
            flat, flat_t, {"simulate"})
    gated = {
        "setup_s": (statistics.median(setup_times), "s"),
        "s_per_answer": (statistics.median(per_pass), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return gated, named, per_pass


def ratios(workload, total) -> dict:
    out = {"failed_frac": (total.failed / total.attempted, "ratio")}
    if workload == "branches":
        out["mismatch_frac"] = (
            total.mismatched / total.determinate if total.determinate
            else None, "ratio")
    if workload == "trajectories":
        out["unresolved_frac"] = (
            total.unresolved / total.answered if total.answered else None,
            "ratio")
    return out


PER_LAYER_FUNCS = {
    "equilibria.hiv_lambda_roots": ("calls", "self_s"),
    "equilibria.estimate_Rc": ("calls", "total_s"),
    "equilibria.bifurcation_report": ("calls",),
    "equilibria.local_reproduction_number": ("calls",),
    "equilibria.endemic_equilibria_generic": ("calls", "self_s"),
    "equilibria.patch_equilibria": ("calls", "total_s"),
    "persist.predict": ("calls", "self_s"),
    "persist.count_persisting": ("calls", "total_s"),
    "network.classify_pattern": ("calls", "self_s"),
    "network.enumerate_networks": ("total_s",),
    "continuation.continue_branch": ("calls", "self_s"),
    "continuation.coupled_residual": ("calls", "self_s"),
    "continuation.coupled_jacobian": ("calls", "self_s"),
    "continuation.travel_operator": ("calls",),
    "model.patch_residual": ("calls", "self_s"),
    "model.patch_jacobian": ("calls", "self_s"),
    "matalg.solve_linear": ("calls", "self_s"),
    "matalg.condition_estimate": ("calls", "self_s"),
    "matalg.eigen_spectrum": ("calls", "self_s"),
    "matalg.spectral_radius": ("calls",),
    "sim.integrate": ("calls", "total_s"),
}


def per_layer(tracer, artifact_bytes, plain_s, traced_s) -> dict:
    summ = tracer.summary()
    cnt = tracer.counts

    def get(name, field):
        return summ.get(name, {}).get(field, 0)

    def div(a, b):
        return a / b if b else 0.0

    m = {}
    for name, fields in PER_LAYER_FUNCS.items():
        for field in fields:
            m[f"{name}.{field}"] = (get(name, field),
                                    "count" if field == "calls" else "s")
    branches = get("continuation.continue_branch", "calls")
    jac = get("continuation.coupled_jacobian", "calls")
    steps = cnt["sim.accepted_steps"]
    m.update({
        "equilibria.generic_roots_per_seed": (
            div(cnt["equilibria.generic_roots"],
                cnt["equilibria.generic_seeds"]), "ratio"),
        "continuation.jacobians_per_branch": (div(jac, branches), "ratio"),
        "continuation.residuals_per_jacobian": (
            div(get("continuation.coupled_residual", "calls"), jac), "ratio"),
        "continuation.branch_complete_frac": (
            div(cnt["continuation.branches_complete"], branches), "ratio"),
        "sim.build_rhs.calls": (get("continuation.build_rhs", "calls"),
                                "count"),
        "sim.rhs.calls": (cnt["sim.rhs.calls"], "count"),
        "sim.accepted_steps": (steps, "count"),
        "sim.rhs_per_step": (div(cnt["sim.rhs.calls"], steps), "ratio"),
        "sim.s_per_step": (div(get("sim.integrate", "total_s"), steps), "s"),
        "cli.self_s": (sum(rec["self_s"] for name, rec in summ.items()
                           if name.startswith("cli.")), "s"),
        "cli.artifact_bytes": (artifact_bytes, "bytes"),
        "trace.overhead_frac": (div(traced_s, plain_s) - 1.0, "ratio"),
    })
    return m


def traced_pass(jobs, paths, workdir, cli, accounting, patchepi):
    """Each job plain, then traced; outputs must match."""
    from tracing import Tracer
    tracer = Tracer()
    outcomes, same = [], True
    plain_s = traced_s = 0.0
    artifact_bytes = 0
    for k, (job, path) in enumerate(zip(jobs, paths)):
        out, digest, _ = run_job(job, path, workdir / f"out{k:02d}", cli,
                                 accounting)
        tracer.install(patchepi)
        try:
            tout, tdigest, nbytes = run_job(job, path, workdir / f"tr{k:02d}",
                                            cli, accounting)
        finally:
            tracer.uninstall()
        outcomes.append(out)
        same &= digest == tdigest
        plain_s += out.seconds
        traced_s += tout.seconds
        artifact_bytes += nbytes
    return tracer, outcomes, same, per_layer(tracer, artifact_bytes, plain_s,
                                             traced_s)


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import inputs
    if args.workload not in inputs.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(inputs.WORKLOADS)}")

    if args.setup_probe:
        set_up(args.workload, args.seed, Path(args.workdir))
        print(f"READY {time.perf_counter()!r}")
        return 0

    if not (SRC / "patchepi" / "__init__.py").is_file():
        raise BenchError(f"no patchepi sources under {SRC}")
    workdir = TMP_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = ([] if args.trace else
                       measure_setup(args.workload, args.seed))
        patchepi, jobs, paths = set_up(args.workload, args.seed, workdir)
        import accounting
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)
        info = machine()

        if args.trace:
            tracer, outcomes, same, metrics = traced_pass(
                jobs, paths, workdir, patchepi.cli, accounting, patchepi)
            passes = [outcomes]
            deterministic = same
        else:
            passes, deterministic, elapsed = run_passes(
                jobs, paths, workdir, args.seconds, patchepi.cli, accounting)
        tallies = [accounting.account(o, reference) for o in passes[0]]
        total = accounting.Tally()
        for t in tallies:
            total.add(t)
        correct = deterministic and total.wrong == 0

        lines = [f"machine {json.dumps(info, sort_keys=True)}",
                 f"workload {args.workload} seed {args.seed} jobs {len(jobs)} "
                 f"passes {len(passes)} attempted {total.attempted} "
                 f"failed {total.failed} wrong {total.wrong}"]
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "machine": info,
                  "jobs": [{"name": j.name, "command": j.command,
                            "args": list(j.args), "ops": j.ops,
                            "seconds": [p[k].seconds for p in passes],
                            "exit_code": passes[0][k].exit_code,
                            "answered": tallies[k].answered,
                            "failures": tallies[k].reasons,
                            "traceback": passes[0][k].error}
                           for k, j in enumerate(jobs)]}
        if args.trace:
            result = {name: {"value": v, "unit": u}
                      for name, (v, u) in metrics.items()}
            lines.append(f"traced outputs equal plain outputs: {same}")
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.write_spans(str(spans))
            lines.append(f"spans {len(tracer.start)} written to "
                         f"{spans.relative_to(ROOT)}")
        else:
            gated, named, per_pass = end_to_end(
                args.workload, passes, tallies, setup_times, accounting)
            result = {name: {"value": v, "unit": u}
                      for name, (v, u) in gated.items()}
            for name, stats in named.items():
                extra = " ".join(f"{k}={fmt(v)}" for k, v in stats.items()
                                 if k.startswith("p"))
                lines.append(f"metric {name} {fmt(stats['value'])} s "
                             f"[seconds={fmt(stats['seconds'])} "
                             f"answered={stats['answered']} "
                             f"jobs={stats['samples']} {extra}]")
            record["setup_s"] = setup_times
            record["per_pass_s_per_answer"] = per_pass
            record["named"] = named
            lines.append(f"measured {elapsed:.1f} s; setup samples "
                         + " ".join(f"{t:.4f}" for t in setup_times))
        for name, (value, unit) in ratios(args.workload, total).items():
            lines.append(f"metric {name} {fmt(value)} {unit}")
            record[name] = value
        for name, entry in result.items():
            lines.append(f"metric {name} {fmt(entry['value'])} "
                         f"{entry['unit']}")
        record["metrics"] = result
        record["correct"] = correct
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}"
                   ".json").write_text(json.dumps(record, indent=1),
                                       encoding="utf-8")
        print("\n".join(lines))
        print(json.dumps({"correct": correct, "attempted": total.attempted,
                          "failed": total.failed, "metrics": result}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
