"""End-to-end benchmark of `rocbench report`, one child process per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verdicts --seed 0 --seconds 30 --trace 0

Set-up generates the workload's ``cases.csv`` with ``rocbench simulate``
(from ``--seed``) several times and keeps the median time.  The
measurement is a closed loop with one client: ``rocbench report`` runs
on that file again and again, one child at a time, until ``--seconds``
have passed.  Every run's outputs are checked, and every repetition
must give the same bytes.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` untraced and traced (``perfbench/traced.py``) report
children alternate, and the result holds the per-layer metrics taken
from the traced children.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Workloads, with their simulate/report arguments and the reason each
exists, are in ``perfbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CLI = "import sys; from rocbench.cli import main; sys.exit(main())"
SETUP_REPS = 3
# A fixed task that does not touch rocbench: interpreter start, the numpy
# import, numpy sorting and a Python loop.  The shared host's speed drifts
# by 35-60 % in phases that last from seconds to minutes, for the
# reference and the CLI alike, so each measured child runs between two
# reference runs and its wall time is scaled by their mean.
REFERENCE = (
    "import numpy as np\n"
    "a = np.random.default_rng(0).random(1_000_000)\n"
    "for _ in range(2):\n"
    "    np.sort(a)\n"
    "s = 0\n"
    "for i in range(1_500_000):\n"
    "    s += i * i\n"
)
REFERENCE_NOMINAL_S = 0.5  # the reference's wall time on a quiet host of this type
STOP_STARTING_S = 140.0  # start no child after this; the process must end within 180 s
KILL_AFTER_S = 175.0

REPORT_FILES = (
    "combined.csv", "config.json", "forest.json", "path.csv", "randomized.csv",
    "roc_performance.csv", "roc_validation.csv", "split_manifest.json",
    "summary.json", "verdicts_bayes.csv", "verdicts_freq.csv",
)
PER_MAKER_SPANS = ("bayes.benchmark_maker_bayesian", "frequentist.benchmark_maker_frequentist")
LAYERS = ("bayes", "forest", "core", "frequentist", "replacement", "roc", "cli")


class BenchError(Exception):
    """The benchmark cannot produce a result (no sources, set-up failed)."""


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    rc: int
    stderr: str
    ok: bool = True
    norm_s: float | None = None  # wall_s at the reference's nominal host speed


class Runner:
    """Starts children one at a time and enforces the run's deadline."""

    def __init__(self, work: Path):
        self.work = work
        self.t0 = time.perf_counter()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.env = env

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def run(self, argv: list[str]) -> Child:
        """Run argv to completion; wall time and peak RSS come from wait4."""
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(1.0, KILL_AFTER_S - self.elapsed()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text(errors="replace"))


# -- output checks ---------------------------------------------------------


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(out: Path) -> list[str]:
    """Problems with one report output set; empty when it is sound."""
    missing = [f for f in REPORT_FILES if not (out / f).is_file()]
    if missing:
        return [f"missing outputs {missing}"]
    problems = []
    summary = json.loads((out / "summary.json").read_text())
    if sum(summary["case_labels"].values()) != summary["n_makers"]:
        problems.append(f"case labels {summary['case_labels']} do not sum to n_makers {summary['n_makers']}")
    bayes = _rows(out / "verdicts_bayes.csv")
    n_true = sum(r["replace"] == "true" for r in bayes)
    if summary["combined_bayes"]["n_replaced"] != n_true:
        problems.append(f"combined_bayes.n_replaced {summary['combined_bayes']['n_replaced']} != {n_true} replace rows")
    combined = {r["label"]: r for r in _rows(out / "combined.csv")}
    raw = (float(combined["raw"]["fpr"]), float(combined["raw"]["tpr"]))
    path0 = [r for r in _rows(out / "path.csv") if float(r["fraction"]) == 0.0]
    lam0 = [r for r in _rows(out / "randomized.csv") if float(r["lambda"]) == 0.0]
    for name, rows in (("path.csv fraction 0", path0), ("randomized.csv lambda 0", lam0)):
        if len(rows) != 1 or (float(rows[0]["fpr"]), float(rows[0]["tpr"])) != raw:
            problems.append(f"{name} row does not equal the raw row {raw}")

    rates = []
    for f in ("combined.csv", "path.csv", "randomized.csv", "roc_validation.csv", "roc_performance.csv"):
        for r in _rows(out / f):
            rates += [float(r["fpr"]), float(r["tpr"])]
    for r in _rows(out / "verdicts_freq.csv"):
        rates += [float(r["alpha_hat"]), float(r["beta_hat"])]
    for r in bayes:
        rates += [float(r["q_max"]), float(r["min_loss"])] + ([float(r["alpha_d"])] if r["alpha_d"] else [])
    for key in ("raw", "combined_bayes", "combined_freq"):
        rates += [summary[key]["fpr"], summary[key]["tpr"]]
    rates += [summary["base_rate"], summary["auc_validation"], summary["auc_performance"]]
    bad = [v for v in rates if not 0.0 <= v <= 1.0]
    if bad:
        problems.append(f"{len(bad)} rates outside [0, 1], e.g. {bad[0]}")
    return problems


def digests(out: Path) -> dict[str, str]:
    """sha256 of each report output; files added by later versions are left out."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in REPORT_FILES}


def set_digest(files: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()


def roundtrip_failures(out: Path) -> list[str]:
    """Re-read the outputs with the package's own readers."""
    sys.path.insert(0, str(SRC))
    import rocbench

    readers = (
        ("read_roc_csv", "roc_validation.csv"), ("read_roc_csv", "roc_performance.csv"),
        ("read_bayesian_csv", "verdicts_bayes.csv"), ("read_frequentist_csv", "verdicts_freq.csv"),
        ("load_forest", "forest.json"),
    )
    failures = []
    for reader, name in readers:
        fn = getattr(rocbench, reader, None)
        if fn is None:
            failures.append(f"{name}: rocbench.{reader} is gone")
            continue
        try:
            fn(str(out / name))
        except Exception as exc:  # every reader failure is counted, none is fatal
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    return failures


# -- the run ---------------------------------------------------------------


class Bench:
    """One workload's set-up, report runs, output checks and tallies."""

    def __init__(self, workload: str, spec: dict, seed: int, seconds: float):
        self.workload = workload
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.runner = Runner(self.work)
        self.cases = self.work / "data" / "cases.csv"
        self.first_digests: dict[str, str] | None = None
        self.normalise = False
        self.reference_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @staticmethod
    def cli(traced: Path | None) -> list[str]:
        """The CLI, plain or under perfbench/traced.py writing to ``traced``."""
        return [sys.executable, str(BENCH / "traced.py"), str(traced)] if traced else [sys.executable, "-c", CLI]

    def simulate_argv(self, out: Path, traced: Path | None = None) -> list[str]:
        return self.cli(traced) + ["simulate", *self.spec["simulate"], "--seed", str(self.seed), "--out", str(out)]

    def report_argv(self, out: Path, traced: Path | None = None) -> list[str]:
        return self.cli(traced) + ["report", "--cases", str(self.cases), "--out", str(out),
                                   "--seed", str(self.seed), *self.spec["report"]]

    def run_reference(self) -> float:
        child = self.runner.run([sys.executable, "-c", REFERENCE])
        if child.rc != 0 or child.stderr:
            raise BenchError(f"reference task failed (exit {child.rc}): {child.stderr.strip()[:500]}")
        self.reference_walls.append(child.wall_s)
        return child.wall_s

    def run_measured(self, argv: list[str]) -> Child:
        """Run argv; when normalising, between two reference runs that give ``norm_s``."""
        if not self.normalise:
            return self.runner.run(argv)
        before = self.reference_walls[-1] if self.reference_walls else self.run_reference()
        child = self.runner.run(argv)
        after = self.run_reference()
        child.norm_s = child.wall_s * REFERENCE_NOMINAL_S / ((before + after) / 2)
        return child

    def setup(self, traced: Path | None = None) -> list[Child]:
        """Generate cases.csv; every repetition must write the same bytes."""
        children, digest = [], None
        for _ in range(1 if traced else SETUP_REPS):
            shutil.rmtree(self.cases.parent, ignore_errors=True)
            child = self.run_measured(self.simulate_argv(self.cases.parent, traced))
            if child.rc != 0 or child.stderr:
                raise BenchError(f"simulate failed (exit {child.rc}): {child.stderr.strip()[:500]}")
            d = hashlib.sha256(self.cases.read_bytes()).hexdigest()
            if digest not in (None, d):
                raise BenchError("simulate wrote different cases.csv bytes for the same seed")
            digest = d
            children.append(child)
        return children

    def report_once(self, traced: Path | None = None) -> Child:
        """One report child; its outputs are checked, hashed and removed."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        child = self.run_measured(self.report_argv(out, traced))
        self.attempted += 1
        problems = []
        if child.rc != 0:
            problems.append(f"exit code {child.rc}")
        if child.stderr:
            problems.append(f"stderr: {child.stderr.strip()[:500]}")
        if not problems:
            problems = check_outputs(out)
        if not problems:
            files = digests(out)
            if self.first_digests is None:
                self.first_digests = files
                shutil.copytree(out, self.work / "first")
            elif files != self.first_digests:
                changed = sorted(k for k in files if files[k] != self.first_digests[k])
                problems.append(f"bytes differ from the first repetition in {changed}")
        if problems:
            self.failed += 1
            self.problems += [f"report run {self.attempted}: {p}" for p in problems]
        child.ok = not problems
        return child

    def keep_going(self, started: float) -> bool:
        now = self.runner.elapsed()
        return now - started < self.seconds and now < STOP_STARTING_S

    def measure(self) -> dict:
        self.normalise = True
        setup = self.setup()
        started = self.runner.elapsed()
        runs = [self.report_once()]
        while self.keep_going(started):
            runs.append(self.report_once())
        good = [r for r in runs if r.ok] or runs
        med = statistics.median
        print(f"{self.workload}: {len(good)} report runs; wall s {[round(r.wall_s, 3) for r in good]}"
              f" (median {med(r.wall_s for r in good):.3f}); normalised s {[round(r.norm_s, 3) for r in good]};"
              f" simulate wall s {[round(c.wall_s, 3) for c in setup]};"
              f" reference wall s median {med(self.reference_walls):.3f} of {len(self.reference_walls)}")
        return {
            "report_s": (med(r.norm_s for r in good), "s"),
            "peak_rss_mb": (med(r.rss_mb for r in good), "MB"),
            "setup_s": (med(c.norm_s for c in setup), "s"),
            "report_ok_ratio": ((self.attempted - self.failed) / self.attempted, "ratio"),
        }

    def trace(self) -> dict:
        sim_trace = self.work / "trace_simulate.json"
        self.setup(traced=sim_trace)
        sim = json.loads(sim_trace.read_text())
        started = self.runner.elapsed()
        plain, traced = [], []
        while not traced or self.keep_going(started):
            plain.append(self.report_once())
            path = self.work / f"trace_report_{len(traced)}.json"
            child = self.report_once(traced=path)
            traced.append((child, json.loads(path.read_text()) if path.is_file() else None))
        spans = [t for c, t in traced if c.ok and t is not None]
        if not spans:
            raise BenchError("no traced report run succeeded: " + "; ".join(self.problems[:3]))
        for t in spans:
            self.problems += accounting_problems(t)
        metrics = layer_metrics(spans, [c.wall_s for c, t in traced if c.ok])
        plain_walls = [c.wall_s for c in plain if c.ok] or [c.wall_s for c in plain]
        metrics["trace.overhead_s"] = (metrics.pop("trace.wall_s")[0] - statistics.median(plain_walls), "s")
        metrics["report_wall_s"] = (statistics.median(plain_walls), "s")
        for name in ("core.write_cases_csv", "cli.simulate"):
            if name in sim["self_s"]:
                metrics[f"{name}.s"] = (sim["self_s"][name], "s")
        shares = {layer: metrics[f"layer.{layer}.share"][0] for layer in LAYERS}
        top, expected = max(shares, key=shares.get), self.spec["layer"]
        as_expected = top == expected and shares[top] > 0.5 if expected else shares[top] <= 0.5
        print(f"{self.workload}: largest layer {top} ({shares[top]:.2f} of the traced run);"
              f" expected {expected or 'no layer above half'}: {'yes' if as_expected else 'NO'}")
        failures = roundtrip_failures(self.work / "first") if self.first_digests else ["no output to re-read"]
        for f in failures:
            print(f"{self.workload}: roundtrip: {f}")
        metrics["check.roundtrip_failed"] = (len(failures), "count")
        return metrics


def _p(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def accounting_problems(t: dict) -> list[str]:
    """Self times must be non-negative and sum to the root span."""
    root = [v for k, v in t["durations_s"].items() if k.startswith("cli.")]
    total = sum(t["self_s"].values())
    neg = {k: v for k, v in t["self_s"].items() if v < -1e-6}
    problems = [f"negative self times {neg}"] if neg else []
    if len(root) != 1 or abs(sum(root[0]) - total) > 1e-6 * max(1.0, total):
        problems.append(f"self times sum to {total:.6f} s, not to the root span {root}")
    return problems


def layer_metrics(spans: list[dict], walls: list[float]) -> dict:
    """Per-layer metrics, each the median over the traced runs."""
    med = statistics.median
    names = set().union(*(t["self_s"] for t in spans))
    out = {}
    for name in sorted(names - {"trace.hooks"}):
        out[f"{name}.s"] = (med(t["self_s"].get(name, 0.0) for t in spans), "s")
    for name in ("forest.predict_propensity", *PER_MAKER_SPANS):
        if name in names:
            out[f"{name}.calls"] = (med(len(t["durations_s"].get(name, ())) for t in spans), "count")
    for name in PER_MAKER_SPANS:
        pooled = [d for t in spans for d in t["durations_s"].get(name, ())]
        if pooled:
            out[f"{name}.p50_ms"] = (1000 * _p(pooled, 0.50), "ms")
            out[f"{name}.p95_ms"] = (1000 * _p(pooled, 0.95), "ms")
    absent = set().union(*(t["absent"] for t in spans))
    for name in set().union(*(t["counts"] for t in spans)) - absent:
        out[name] = (med(t["counts"].get(name, 0) for t in spans), "count")
    totals = [sum(t["self_s"].values()) for t in spans]
    for layer in LAYERS:
        share = med(sum(v for k, v in t["self_s"].items() if k.split(".")[0] == layer) / total
                    for t, total in zip(spans, totals))
        out[f"layer.{layer}.share"] = (share, "ratio")
    out["trace.hooks_s"] = (med(t["self_s"].get("trace.hooks", 0.0) for t in spans), "s")
    out["trace.wall_s"] = (med(walls), "s")
    out["trace.unaccounted_s"] = (med(w - tot for w, tot in zip(walls, totals)), "s")
    for name in sorted(absent):
        print(f"traced run: {name} is absent (wrapped name missing or signature changed)")
    return out


def main(argv=None) -> int:
    workloads = json.loads((BENCH / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rocbench" / "cli.py").is_file():
        print(f"perfbench: no rocbench sources under {SRC}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, workloads[args.workload], args.seed, args.seconds)
    try:
        metrics = bench.trace() if args.trace else bench.measure()
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work / "data", ignore_errors=True)
    for p in bench.problems:
        print(f"{args.workload}: FAILED {p}")
    if bench.first_digests:
        print(f"{args.workload}: outputs sha256 {set_digest(bench.first_digests)} (seed {args.seed})")
        shutil.rmtree(bench.work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
