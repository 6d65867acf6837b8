"""Run one rocbench CLI call with spans around the package's public calls.

Usage (with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced.py TRACE.json report --cases cases.csv --out run/

The wrappers are installed from outside, at every name under which
``rocbench.cli`` and the package modules look a function up, and then
``rocbench.cli.main(argv)`` runs unchanged.  Each span records its
duration and its self time (duration minus the spans it encloses);
counters are filled from the arguments and results at the same
boundaries.  A name that no longer exists is skipped, and a counter
that no longer fits its function's arguments or result is dropped; both
are listed under ``absent`` so their metrics come out missing instead
of the run failing.  Spans stay in memory and go to TRACE.json when the
call returns.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

HOOKS_SPAN = "trace.hooks"


class Tracer:
    """Spans as (name, duration) with self times; counters by name."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, seconds covered by child spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.scored_inputs: set[str] = set()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside span ``name``."""
        self.stack.append([name, 0.0])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            _, covered = self.stack.pop()
            self.self_s[name] += duration - covered
            self.durations[name].append(duration)
            if self.stack:
                self.stack[-1][1] += duration

    def wrap(self, name: str | None, fn, hook=None, counters=()):
        """``fn`` timed as span ``name`` (no span when None), then ``hook``.

        ``hook(tracer, arguments, result, parent)`` gets the bound
        arguments and the innermost span open at the call.  It runs in
        the ``trace.hooks`` span, so its cost is not charged to the caller.
        A hook that raises no longer fits the API: its ``counters`` are
        marked absent and it is not called again.
        """
        try:
            sig = inspect.signature(fn) if hook is not None else None
        except (TypeError, ValueError):  # nothing to bind the counter's arguments to
            sig, hook = None, None
            self.absent += counters
        live = [hook is not None]

        def count(args, kwargs, result, parent):
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result, parent)
            except Exception:  # API drift; the traced call itself succeeded
                live[0] = False
                self.absent += counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            result = fn(*args, **kwargs) if name is None else self.span(name, fn, *args, **kwargs)
            if live[0]:
                self.span(HOOKS_SPAN, count, args, kwargs, result, parent)
            return result

        return traced

    def report(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "durations_s": dict(self.durations),
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
        }


# -- counters ------------------------------------------------------------


def _count_vertices(tracer, args, roc, parent):
    tracer.counts["roc.vertices"] += int(roc.n_points)


def _count_rows(tracer, args, scores, parent):
    X = np.ascontiguousarray(args["X"], dtype=np.float64)
    tracer.counts["forest.rows_scored"] += X.shape[0]
    digest = hashlib.blake2b(X.tobytes(), digest_size=16).hexdigest()
    if digest not in tracer.scored_inputs:
        tracer.scored_inputs.add(digest)
        tracer.counts["forest.rows_distinct"] += X.shape[0]


def _count_json_bytes(tracer, args, _, parent):
    tracer.counts["forest.json_bytes"] += os.path.getsize(args["path"])


def _count_redrawn(tracer, args, boot, parent):
    tracer.counts["frequentist.bootstrap_redrawn"] += int(boot.n_redrawn)


def _count_cells(tracer, args, grid, parent):
    # only the grid max_dominance builds feeds the dense candidate x draw mask
    if parent == "bayes.max_dominance" and args["draws"] is not None:
        tracer.counts["bayes.dominance_cells"] += int(grid.size) * int(args["draws"].n_draws)


# (module, attribute, span?, counter hook, counter names)
WRAPPED = [
    ("core", "read_cases_csv", True, None, ()),
    ("core", "write_cases_csv", True, None, ()),
    ("core", "stratified_split", True, None, ()),
    ("core", "CohortDataset.counts_by_maker", True, None, ()),
    ("roc", "build_roc", True, _count_vertices, ("roc.vertices",)),
    ("roc", "write_roc_csv", True, None, ()),
    ("forest", "train_forest", True, None, ()),
    ("forest", "Forest.predict_propensity", True, _count_rows, ("forest.rows_scored", "forest.rows_distinct")),
    ("forest", "save_forest", True, _count_json_bytes, ("forest.json_bytes",)),
    ("frequentist", "benchmark_maker_frequentist", True, None, ()),
    ("frequentist", "bootstrap_pairs", True, _count_redrawn, ("frequentist.bootstrap_redrawn",)),
    ("frequentist", "classify_maker", True, None, ()),
    ("bayes", "benchmark_maker_bayesian", True, None, ()),
    ("bayes", "sample_posterior", True, None, ()),
    ("bayes", "max_dominance", True, None, ()),
    ("bayes", "prob_below_roc", True, None, ()),
    ("bayes", "curve_candidate_grid", False, _count_cells, ("bayes.dominance_cells",)),
    ("replacement", "combine_decisions", True, None, ()),
    ("replacement", "replacement_path", True, None, ()),
    ("replacement", "randomized_accept", True, None, ()),
]


def install(tracer: Tracer) -> None:
    """Replace each wrapped name wherever the package binds it."""
    for mod_name, attr, span, hook, counters in WRAPPED:
        owner, _, leaf = attr.rpartition(".")
        try:
            holder = importlib.import_module(f"rocbench.{mod_name}")
        except ImportError:
            holder = None
        if owner:
            holder = getattr(holder, owner, None)
        fn = getattr(holder, leaf, None)
        if not callable(fn):
            tracer.absent += [f"{mod_name}.{leaf}", *counters]
            continue
        wrapped = tracer.wrap(f"{mod_name}.{leaf}" if span else None, fn, hook, counters)
        if owner:
            setattr(holder, leaf, wrapped)
            continue
        for name, module in list(sys.modules.items()):
            if (name == "rocbench" or name.startswith("rocbench.")) and module.__dict__.get(leaf) is fn:
                setattr(module, leaf, wrapped)


def main(argv: list[str]) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    import rocbench.cli

    tracer = Tracer()
    install(tracer)
    rc = tracer.span(f"cli.{cli_argv[0]}", rocbench.cli.main, cli_argv)
    with open(trace_path, "w") as fh:
        json.dump({"rc": rc, **tracer.report()}, fh, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
