"""Answer checks and failure accounting for finished benchmark jobs.

An operation is one config for analyze/census, one pattern branch for
continue and one (initial set, alpha) trajectory for simulate. Every
operation a job was asked for ends either answered or failed:

- a job that raised out of cli.main, exited with a code other than 0, 2
  or 3, exited 2, or left no full report fails all of its operations;
- a branch with a non-null `failure` fails, whatever its `observed` says;
- a trajectory with a non-null `failure`, or one whose state went below
  -1e-9, fails;
- an answer that deviates from its recorded reference, or breaks an
  invariant, fails and is also counted as wrong.

Everything here works on plain report dicts, so it can be tested on
canned reports without running the program.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from inputs import EDGE_PAIRS

# Relative tolerance for R, endemic_lambdas and R_c_estimate.
REL_TOL = 1e-5
# Sign and residual invariants, as the program states them.
SIGN_TOL = -1e-9
ACCEPT_RESIDUAL = 1e-9

OK_CODES = (0, 2, 3)


@dataclass
class Outcome:
    """What one CLI invocation produced, seen from outside."""
    command: str
    ops: int
    seconds: float
    exit_code: Optional[int]
    report: Optional[dict]
    error: Optional[str] = None       # traceback of an escaped exception
    meta: dict = field(default_factory=dict)
    args: tuple = ()


@dataclass
class Tally:
    attempted: int = 0
    answered: int = 0
    wrong: int = 0
    mismatched: int = 0        # completed, determinate, verdict differs
    determinate: int = 0       # completed branches with a determinate prediction
    unresolved: int = 0        # completed trajectories labeled "unresolved"
    reasons: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted - self.answered

    def add(self, other: "Tally"):
        self.attempted += other.attempted
        self.answered += other.answered
        self.wrong += other.wrong
        self.mismatched += other.mismatched
        self.determinate += other.determinate
        self.unresolved += other.unresolved
        self.reasons.extend(other.reasons)


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _all_failed(out: Outcome, reason: str) -> Tally:
    return Tally(attempted=out.ops, reasons=[reason])


def account(out: Outcome, reference: Optional[dict]) -> Tally:
    """Tally one job's operations; reference may be None (no check)."""
    if out.error is not None:
        last = out.error.strip().splitlines()[-1]
        return _all_failed(out, f"exception escaped cli.main: {last}")
    if out.exit_code not in OK_CODES:
        return _all_failed(out, f"exit code {out.exit_code}")
    if out.exit_code == 2:
        return _all_failed(out, "config error (exit 2)")
    if out.report is None or "error" in out.report:
        detail = (out.report or {}).get("error", "no report written")
        return _all_failed(out, f"exit {out.exit_code}: {detail}")
    check = {"analyze": _analyze, "census": _census, "continue": _continue,
             "simulate": _simulate}[out.command]
    return check(out, reference or {})


# ------------------------------------------------------------------ analyze

def _patch_key(meta: dict, idx: int) -> Optional[str]:
    if "ids" not in meta:
        return None
    if meta["family"] == "hiv":
        return f"hiv:{meta['beta1'][idx]!r}"
    return f"{meta['family']}:{meta['ids'][idx]}"


def _analyze(out: Outcome, ref: dict) -> Tally:
    t = Tally(attempted=out.ops)
    for idx, patch in enumerate(out.report["patches"]):
        want = ref.get("patches", {}).get(_patch_key(out.meta, idx))
        if want is None:
            continue
        got_lams = patch.get("endemic_lambdas", [])
        problems = []
        if not _close(patch["R"], want["R"]):
            problems.append(f"R {patch['R']} != {want['R']}")
        if patch["regime"] != want["regime"]:
            problems.append(f"regime {patch['regime']} != {want['regime']}")
        if len(patch["endemic"]) != want["endemic_count"]:
            problems.append(f"{len(patch['endemic'])} endemic states, "
                            f"reference {want['endemic_count']}")
        if "endemic_lambdas" in want and (
                len(got_lams) != len(want["endemic_lambdas"]) or
                not all(map(_close, got_lams, want["endemic_lambdas"]))):
            problems.append(f"endemic_lambdas {got_lams} != "
                            f"{want['endemic_lambdas']}")
        if "R_c_estimate" in want and not _close(
                patch.get("R_c_estimate"), want["R_c_estimate"]):
            problems.append(f"R_c_estimate {patch.get('R_c_estimate')} != "
                            f"{want['R_c_estimate']}")
        if problems:
            t.wrong += 1
            t.reasons.append(f"analyze region {idx + 1}: " +
                             "; ".join(problems))
            return t
    t.answered = t.attempted
    return t


# ------------------------------------------------------------------- census

def verdict_key(meta: dict) -> Optional[str]:
    if "classes" not in meta:
        return None
    return meta["family"] + ":" + ",".join(str(c) for c in meta["classes"])


def edges_mask(edges) -> int:
    return sum(1 << EDGE_PAIRS.index(tuple(e)) for e in edges)


def _census(out: Outcome, ref: dict) -> Tally:
    t = Tally(attempted=out.ops)
    rep = out.report
    persisting = sum(row["verdict"] == "persists" for row in rep["patterns"])
    problems = []
    if persisting != rep["persisting_count"]:
        problems.append(f"persisting_count {rep['persisting_count']} but "
                        f"{persisting} persisting rows")
    masks = ref.get("verdicts", {}).get(verdict_key(out.meta))
    if masks is not None:
        want = int(masks[out.meta["net"]], 16)
        got = sum(1 << j for j, row in enumerate(rep["patterns"])
                  if row["verdict"] == "persists")
        if got != want:
            problems.append(f"persisting patterns {got:#x}, reference "
                            f"{want:#x}")
        if "exhaustive_networks" in rep:
            got_counts = {edges_mask(row["edges"]): row["persisting_count"]
                          for row in rep["exhaustive_networks"]}
            want_counts = {m: bin(int(h, 16)).count("1")
                           for m, h in enumerate(masks)}
            if got_counts != want_counts:
                bad = sorted(m for m in want_counts
                             if got_counts.get(m) != want_counts[m])
                problems.append(f"exhaustive counts differ on digraphs {bad}")
    if problems:
        t.wrong = 1
        t.reasons.append("census: " + "; ".join(problems))
    else:
        t.answered = 1
    return t


# ----------------------------------------------------------------- continue

def _branch_problem(branch: dict) -> Optional[str]:
    pts = branch["points"]
    if not pts:
        return "completed branch without points"
    if any(p["residual_norm"] > ACCEPT_RESIDUAL for p in pts):
        return "accepted point above the residual target"
    left = any(p["min_component"] < SIGN_TOL for p in pts)
    if branch["observed"] == "vanishes" and not (
            left and branch["exit_alpha"] is not None):
        return "observed 'vanishes' without a point outside the cone"
    if branch["observed"] == "persists" and left:
        return "observed 'persists' with a point outside the cone"
    return None


def _continue(out: Outcome, ref: dict) -> Tally:
    branches = out.report["branches"]
    t = Tally(attempted=max(out.ops, len(branches)))
    for br in branches:
        label = "-".join(map(str, br["choices"]))
        if br["failure"] is not None:
            t.reasons.append(f"branch {label}: {br['failure']}")
            continue
        problem = _branch_problem(br)
        if problem is not None:
            t.wrong += 1
            t.reasons.append(f"branch {label}: {problem}")
            continue
        t.answered += 1
        if br["predicted"] in ("persists", "vanishes"):
            t.determinate += 1
            t.mismatched += br["predicted"] != br["observed"]
    return t


# ----------------------------------------------------------------- simulate

def label_key(system: str, label: str, alpha: float) -> str:
    return f"{system}|{label}|{float(alpha)!r}"


def _simulate(out: Outcome, ref: dict) -> Tally:
    trajs = out.report["trajectories"]
    t = Tally(attempted=max(out.ops, len(trajs)))
    labels = ref.get("labels", {})
    for tr in trajs:
        name = f"trajectory {tr['label']} at alpha {tr['alpha']:g}"
        if tr["failure"] is not None:
            t.reasons.append(f"{name}: {tr['failure']}")
            continue
        if tr["min_component_overall"] < SIGN_TOL:
            t.wrong += 1
            t.reasons.append(f"{name}: component "
                             f"{tr['min_component_overall']} below -1e-9")
            continue
        want = labels.get(label_key(out.meta.get("system", ""), tr["label"],
                                    tr["alpha"]))
        if want is not None and tr["terminal_classification"] != want:
            t.wrong += 1
            t.reasons.append(f"{name}: label "
                             f"{tr['terminal_classification']}, reference "
                             f"{want}")
            continue
        t.answered += 1
        t.unresolved += tr["terminal_classification"] == "unresolved"
    return t


# ------------------------------------------------------------------ metrics

def ratio(num: float, den: float) -> Optional[float]:
    """num / den, or None when nothing was answered."""
    return num / den if den else None


def tail_percentile(n: int) -> Optional[int]:
    """Highest whole percentile with at least ten samples beyond it."""
    if n < 11:
        return None
    return math.floor(100.0 * (1.0 - 10.0 / n))


def percentile(samples, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def per_answer(outcomes, tallies, commands, args=None) -> dict:
    """Seconds in the matching jobs over the operations they answered.

    Includes the time of jobs that failed. Per-job samples (jobs with at
    least one answer) give the median and the tail percentile.
    """
    secs = answered = 0
    samples = []
    for out, tal in zip(outcomes, tallies):
        if out.command not in commands:
            continue
        if args is not None and tuple(out.args) != tuple(args):
            continue
        secs += out.seconds
        answered += tal.answered
        if tal.answered:
            samples.append(out.seconds / tal.answered)
    result = {"value": ratio(secs, answered), "seconds": secs,
              "answered": answered, "samples": len(samples)}
    if samples:
        result["p50"] = percentile(samples, 50)
        pct = tail_percentile(len(samples))
        if pct is not None:
            result[f"p{pct}"] = percentile(samples, pct)
    return result
