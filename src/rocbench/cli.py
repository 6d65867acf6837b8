"""Command line driver.

Subcommands cover the pipeline stage by stage (simulate, split, train,
roc, bench-freq, bench-bayes, combine, path, randomized) plus `report`,
which runs the whole chain on one cases file: filter small makers,
split classification/performance, split train/validation, fit the
forest, build curves, benchmark every maker both ways, evaluate the
combined cohort, sweep the replacement path, and sweep randomized
acceptance rates.

Configuration comes from defaults, then an optional JSON config file,
then flags (flags win); a subcommand has flags only for the settings it
reads, but its config file may hold any.  `report` and the subcommands
share one function per stage, and every random stage draws from a named
substream of the single run seed, so reruns are byte-identical and the
chain reproduces `report`.  The forest's trees and the verdict stage's
blocks of makers run in processes forked per CPU (`rocbench.workers`);
outputs do not depend on the CPU count, and `report` refuses a maker
with one outcome class before the forest trains.  Errors print one JSON
line to stderr and exit 2.  The ROCBENCH_OUT environment variable sets
the default output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from .bayes import DEFAULT_PRIOR_WEIGHT, LossKind, benchmark_maker_bayesian, read_bayesian_csv, write_bayesian_csv
from .core import CohortDataset, naming_maker, rate_pair, read_cases_csv, stratified_split, write_cases_csv
from .csvio import format_float, write_json
from .forest import ForestParams, _check_integers, load_forest, save_forest, train_forest
from .frequentist import CaseLabel, benchmark_maker_frequentist, write_frequentist_csv
from .replacement import (
    AcceptanceSchedule,
    Verdicts,
    combine_decisions,
    randomized_accept,
    replacement_path,
    write_combined_csv,
    write_path_csv,
    write_randomized_csv,
)
from .rng import substream
from .roc import build_roc, read_roc_csv, write_roc_csv
from .synthetic import GENERATORS, write_manifest
from .workers import cpus, map_forked

OUT_ENV = "ROCBENCH_OUT"
# the sweeps `report` runs, and the defaults of `path` and `randomized`
PATH_FRACTIONS = tuple(round(0.1 * k, 1) for k in range(11))
LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)
SCOPES = ("less-capable-only", "all-makers")  # the first is the default

__all__ = ["RunConfig", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Resolved pipeline settings; `report` has a flag for every field."""

    seed: int = 0
    outer_ratio: tuple[int, int] = (7, 3)  # classification : performance
    inner_ratio: tuple[int, int] = (4, 3)  # train : validation
    n_trees: int = ForestParams.n_trees
    max_features: int = ForestParams.max_features
    min_samples_split: int = ForestParams.min_samples_split
    bootstrap: bool = ForestParams.bootstrap
    n_resamples: int = 100
    n_draws: int = 10_000
    level: float = 0.95
    loss_kind: str = "baseline"
    grid_size: int = 512
    min_cases: int = 300
    prior_weight: float = DEFAULT_PRIOR_WEIGHT

    def __post_init__(self):
        for name in ("outer_ratio", "inner_ratio"):
            r = getattr(self, name)
            if not (isinstance(r, (tuple, list)) and len(r) == 2 and all(
                    isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1 for v in r)):
                raise ValueError(f"{name} must be two positive integers")
            object.__setattr__(self, name, tuple(int(v) for v in r))
        for name in ("level", "prior_weight"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            # a plain int stays one, so config.json writes it as given
            object.__setattr__(self, name, value if type(value) is int else float(value))
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be in (0, 1)")
        _check_integers(self, (("seed", 0), ("min_cases", 1), ("n_resamples", 1), ("n_draws", 1), ("grid_size", 2)))
        forest = ForestParams(self.n_trees, self.max_features, self.min_samples_split, self.bootstrap)
        for name in ("n_trees", "max_features", "min_samples_split"):
            object.__setattr__(self, name, getattr(forest, name))
        LossKind(self.loss_kind)
        if not self.prior_weight > 0:
            raise ValueError("prior_weight must be positive")
        if not self.prior_weight <= sys.float_info.max:  # also an int too large for a float
            raise ValueError("prior_weight must be finite")

    def forest_params(self) -> ForestParams:
        # the forest gets its own substream-derived seed so its
        # per-tree streams cannot collide with any other stage
        forest_seed = int(substream(self.seed, "forest").integers(2**63))
        return ForestParams(
            n_trees=self.n_trees,
            max_features=self.max_features,
            min_samples_split=self.min_samples_split,
            bootstrap=self.bootstrap,
            seed=forest_seed,
        )

    def loss(self) -> LossKind:
        return LossKind(self.loss_kind)


def _parse_ratio(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"ratio must look like 7:3, got {text!r}")
    return int(parts[0]), int(parts[1])


def _load_config(args) -> RunConfig:
    values = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {sorted(unknown)}")
        values.update(raw)
    for f in dataclasses.fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    for key in ("outer_ratio", "inner_ratio"):
        if isinstance(values.get(key), str):
            values[key] = _parse_ratio(values[key])
    return RunConfig(**values)


def _out_dir(args) -> str:
    out = args.out or os.environ.get(OUT_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _out_file(args) -> str:
    """``--out``, else the subcommand's default file name in the default output directory."""
    if not args.out:
        return os.path.join(_out_dir(args), args.out_file)
    parent = os.path.dirname(args.out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return args.out


def _pair_dict(pair) -> dict:
    return {"fpr": pair.alpha, "tpr": pair.beta}


def _filter_small_makers(data: CohortDataset, min_cases: int) -> tuple[CohortDataset, int]:
    sizes = np.bincount(data.maker_index, minlength=len(data.makers))
    keep_codes = np.flatnonzero(sizes >= min_cases)
    dropped = len(data.makers) - keep_codes.size
    if dropped == 0:
        return data, 0
    if keep_codes.size == 0:
        raise ValueError(f"no maker has at least {min_cases} cases")
    rows = np.flatnonzero(np.isin(data.maker_index, keep_codes))
    return data.subset(rows), dropped


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


# Each stage below runs in `report` and in its subcommand, and each maker draws from its own
# substream.  So the verdict stage benchmarks contiguous blocks of makers in forked workers
# (`rocbench.workers`), one block per CPU, and its verdicts do not depend on the CPU count.
def _verdicts(counts: dict, roc, cfg: RunConfig, cov: str | None = "bootstrap", bayes: bool = True) -> list[Verdicts]:
    """Frequentist verdicts with ``cov`` covariances (none when None), then Bayesian ones if ``bayes``.

    ``min(CPUs, makers)`` blocks run through one ``map_forked`` call.  A
    block benchmarks its makers one by one, each maker by every route
    asked for, so the failure reported is the first in maker order on
    any number of CPUs; the parent joins the rows in maker order.
    """

    def rows(m, c):
        if cov is not None:
            yield benchmark_maker_frequentist(
                m, c, roc, level=cfg.level, n_resamples=cfg.n_resamples,
                seed=substream(cfg.seed, "bootstrap", m), cov_method=cov,
            )
        if bayes:
            yield benchmark_maker_bayesian(
                m, c, roc, prior=cfg.prior_weight, n_draws=cfg.n_draws,
                seed=substream(cfg.seed, "posterior", m), credible_level=cfg.level,
                kind=cfg.loss(), grid_size=cfg.grid_size,
            )

    makers = list(counts.items())
    k = min(cpus(), len(makers))

    def block(b):
        return [list(rows(m, c)) for m, c in makers[len(makers) * b // k : len(makers) * (b + 1) // k]]

    per_maker = [r for part in map_forked(block, k) for r in part]
    return [Verdicts.from_rows(r[i] for r in per_maker) for i in range((cov is not None) + bayes)]


def _randomized_rows(performance, verdicts, scores, seed: int, lambdas=LAMBDAS, scope=SCOPES[0]) -> list:
    """(lambda, pooled pair, seed) per constant acceptance rate."""
    rows = []
    for lam in lambdas:
        result = randomized_accept(
            performance, verdicts, AcceptanceSchedule.constant(lam, scope=scope), scores,
            substream(seed, "acceptance", format_float(lam)),
        )
        rows.append((lam, result.pair, seed))
    return rows


# -- subcommands ---------------------------------------------------------


def _reads(spec_type, name: str) -> bool:
    """Whether a generator reads simulate flag ``name``: its spec has that field, or ``cutoffs`` for a bound."""
    field = "cutoffs" if name in ("cutoff_lo", "cutoff_hi") else name
    return field in {f.name for f in dataclasses.fields(spec_type)}


def _simulate_spec(args):
    """The ``--dgp`` generator's spec from the flags given; the spec supplies every other value."""
    spec_type, _ = GENERATORS[args.dgp]
    given = {name: getattr(args, name) for name in _SIMULATE_FLAGS if getattr(args, name) is not None}
    unread = [_SIMULATE_FLAGS[name][0] for name in given if not _reads(spec_type, name)]
    if unread:
        raise ValueError(f"--dgp {args.dgp} does not read {', '.join(unread)}")
    lo_hi = [given.pop(name, None) for name in ("cutoff_lo", "cutoff_hi")]
    if "cutoffs" in given:
        if lo_hi != [None, None]:
            raise ValueError("--cutoffs excludes --cutoff-lo and --cutoff-hi")
        given["cutoffs"] = tuple(_parse_floats(given["cutoffs"]))
    elif lo_hi != [None, None]:
        # a bound left unset keeps the spec's, from its default ("uniform", lo, hi)
        kind, *bounds = spec_type().cutoffs
        given["cutoffs"] = (kind, *(b if v is None else v for v, b in zip(lo_hi, bounds)))
    return spec_type(**given)


def _cmd_simulate(args) -> int:
    spec = _simulate_spec(args)
    _, generate = GENERATORS[args.dgp]
    data = generate(spec).data  # before the output directory is made, so a refused spec leaves none
    out = _out_dir(args)
    write_cases_csv(os.path.join(out, "cases.csv"), data)
    write_manifest(os.path.join(out, "manifest.json"), spec)
    return 0


def _split_args(args) -> tuple[tuple[int, int], list[str]]:
    """``split``'s ratio and output basenames, refused unless two positive integers and two usable names."""
    ratio = _parse_ratio(args.ratio)
    if min(ratio) < 1:
        raise ValueError(f"--ratio must be two positive integers, got {args.ratio!r}")
    names = args.names.split(",")
    # each names a file in --out and keys the manifest beside label, ratio and seed
    usable = all(n == os.path.basename(n) and n not in ("", "label", "ratio", "seed") for n in names)
    if len(names) != 2 or len(set(names)) != 2 or not usable:
        raise ValueError(
            f"--names must be two distinct non-empty basenames other than label, ratio and seed, got {args.names!r}"
        )
    return ratio, names


def _cmd_split(args) -> int:
    ratio, (name_a, name_b) = _split_args(args)
    cfg = _load_config(args)
    out = _out_dir(args)
    data = read_cases_csv(args.cases)
    left, right = stratified_split(data, ratio, substream(cfg.seed, "split", args.label))
    write_cases_csv(os.path.join(out, f"{name_a}.csv"), left)
    write_cases_csv(os.path.join(out, f"{name_b}.csv"), right)
    write_json(
        os.path.join(out, "split_manifest.json"),
        {
            "label": args.label,
            "ratio": list(ratio),
            "seed": cfg.seed,
            name_a: left.n_cases,
            name_b: right.n_cases,
        },
    )
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    data = read_cases_csv(args.cases)
    if data.features is None:
        raise ValueError(f"{args.cases}: no feature columns; cannot train")
    forest = train_forest(data.features, data.y, cfg.forest_params())
    save_forest(_out_file(args), forest)
    return 0


def _scored_cases(args) -> tuple[CohortDataset, np.ndarray]:
    """The cases file and the model's score of each case."""
    data = read_cases_csv(args.cases)
    if data.features is None:
        raise ValueError(f"{args.cases}: no feature columns; cannot score")
    return data, load_forest(args.model).predict_propensity(data.features)


def _cmd_roc(args) -> int:
    data, scores = _scored_cases(args)
    write_roc_csv(_out_file(args), build_roc(scores, data.y))
    return 0


def _bench_inputs(args) -> tuple:
    """Counts of the makers with at least ``min_cases`` cases, the curve, the config."""
    cfg = _load_config(args)
    data, _ = _filter_small_makers(read_cases_csv(args.cases), cfg.min_cases)
    return data.counts_by_maker(), read_roc_csv(args.roc), cfg


def _cmd_bench_freq(args) -> int:
    counts, roc, cfg = _bench_inputs(args)
    (verdicts,) = _verdicts(counts, roc, cfg, cov=args.cov, bayes=False)
    write_frequentist_csv(_out_file(args), verdicts)
    return 0


def _cmd_bench_bayes(args) -> int:
    counts, roc, cfg = _bench_inputs(args)
    (verdicts,) = _verdicts(counts, roc, cfg, cov=None)
    write_bayesian_csv(_out_file(args), verdicts)
    return 0


def _cmd_combine(args) -> int:
    data, scores = _scored_cases(args)
    verdicts = read_bayesian_csv(args.verdicts)
    raw = rate_pair(data.pooled_counts())
    combined = combine_decisions(data, verdicts, scores)
    write_combined_csv(
        _out_file(args),
        [("raw", raw, 0), ("combined", combined.pair, combined.n_replaced)],
    )
    return 0


def _cmd_path(args) -> int:
    data, scores = _scored_cases(args)
    points = replacement_path(data, read_bayesian_csv(args.verdicts), _parse_floats(args.fractions), scores)
    write_path_csv(_out_file(args), points)
    return 0


def _cmd_randomized(args) -> int:
    cfg = _load_config(args)
    data, scores = _scored_cases(args)
    verdicts = read_bayesian_csv(args.verdicts)
    rows = _randomized_rows(data, verdicts, scores, cfg.seed, _parse_floats(args.lambdas), args.scope)
    write_randomized_csv(_out_file(args), rows)
    return 0


def _cmd_report(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    data = read_cases_csv(args.cases)
    data, dropped = _filter_small_makers(data, cfg.min_cases)

    classification, performance = stratified_split(
        data, cfg.outer_ratio, substream(cfg.seed, "split", "outer")
    )
    train, validation = stratified_split(
        classification, cfg.inner_ratio, substream(cfg.seed, "split", "inner")
    )
    if data.features is None:
        raise ValueError(f"{args.cases}: no feature columns; cannot train")
    counts = classification.counts_by_maker()
    for m, c in counts.items():  # a one-class maker is refused before the forest trains
        with naming_maker(m):
            rate_pair(c)
    forest = train_forest(train.features, train.y, cfg.forest_params())
    roc_val = build_roc(forest.predict_propensity(validation.features), validation.y)
    scores = forest.predict_propensity(performance.features)
    roc_perf = build_roc(scores, performance.y)

    verdicts_freq, verdicts_bayes = _verdicts(counts, roc_val, cfg)

    raw_pair = rate_pair(performance.pooled_counts())
    combined_bayes = combine_decisions(performance, verdicts_bayes, scores)
    combined_freq = combine_decisions(performance, verdicts_freq, scores)
    points = replacement_path(performance, verdicts_bayes, PATH_FRACTIONS, scores)
    lam_rows = _randomized_rows(performance, verdicts_bayes, scores, cfg.seed)

    write_json(os.path.join(out, "config.json"), dataclasses.asdict(cfg))
    write_json(
        os.path.join(out, "split_manifest.json"),
        {
            "min_cases": cfg.min_cases,
            "makers_dropped": dropped,
            "makers_kept": len(data.makers),
            "outer": {
                "ratio": list(cfg.outer_ratio),
                "classification": classification.n_cases,
                "performance": performance.n_cases,
            },
            "inner": {
                "ratio": list(cfg.inner_ratio),
                "train": train.n_cases,
                "validation": validation.n_cases,
            },
        },
    )
    save_forest(os.path.join(out, "forest.json"), forest)
    write_roc_csv(os.path.join(out, "roc_validation.csv"), roc_val)
    write_roc_csv(os.path.join(out, "roc_performance.csv"), roc_perf)
    write_frequentist_csv(os.path.join(out, "verdicts_freq.csv"), verdicts_freq)
    write_bayesian_csv(os.path.join(out, "verdicts_bayes.csv"), verdicts_bayes)
    write_combined_csv(
        os.path.join(out, "combined.csv"),
        [
            ("raw", raw_pair, 0),
            ("bayes", combined_bayes.pair, combined_bayes.n_replaced),
            ("freq", combined_freq.pair, combined_freq.n_replaced),
        ],
    )
    write_path_csv(os.path.join(out, "path.csv"), points)
    write_randomized_csv(os.path.join(out, "randomized.csv"), lam_rows)

    summary = {
        "seed": cfg.seed,
        "n_cases": data.n_cases,
        "n_makers": len(data.makers),
        "makers_dropped": dropped,
        "base_rate": data.base_rate_hat,
        "auc_validation": roc_val.auc(),
        "auc_performance": roc_perf.auc(),
        "raw": _pair_dict(raw_pair),
        "raw_gap_to_curve": float(roc_val.tpr_at_fpr(raw_pair.alpha) - raw_pair.beta),
        "combined_bayes": {**_pair_dict(combined_bayes.pair), "n_replaced": combined_bayes.n_replaced},
        "combined_freq": {**_pair_dict(combined_freq.pair), "n_replaced": combined_freq.n_replaced},
        "case_labels": {c.value: int(np.count_nonzero(verdicts_freq["case_label"] == c.value)) for c in CaseLabel},
        "bayes_replaced": int(np.count_nonzero(verdicts_bayes["replace"])),
    }
    write_json(os.path.join(out, "summary.json"), summary)
    return 0


# -- argument plumbing ----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": message}), file=sys.stderr)
        raise SystemExit(2)


# RunConfig field -> its flag and argparse keywords; unset flags stay None
_CONFIG_FLAGS = {
    "seed": ("--seed", dict(type=int, help="run seed (all stages derive from it)")),
    "level": ("--level", dict(type=float, help="confidence/credible level")),
    "min_cases": ("--min-cases", dict(type=int, help="minimum cases per maker")),
    "outer_ratio": ("--outer-ratio", dict(help="classification:performance, e.g. 7:3")),
    "inner_ratio": ("--inner-ratio", dict(help="train:validation, e.g. 4:3")),
    "n_trees": ("--trees", dict(type=int, help="forest size")),
    "max_features": ("--max-features", dict(type=int, help="features tried per node")),
    "min_samples_split": ("--min-split", dict(type=int, help="minimum node size to split")),
    "bootstrap": ("--no-bootstrap", dict(action="store_false", default=None, help="fit trees on the raw sample")),
    "n_resamples": ("--resamples", dict(type=int, help="bootstrap resamples")),
    "n_draws": ("--draws", dict(type=int, help="posterior draws")),
    "loss_kind": ("--loss", dict(help="posterior loss kind")),
    "grid_size": ("--grid", dict(type=int, help="curve candidate grid size")),
    "prior_weight": ("--prior", dict(type=float, help="Dirichlet prior weight per cell")),
}


# simulate flag -> its flag and argparse keywords; unset flags stay None and the spec's default holds.
# Each names a generator spec field, except cutoff_lo and cutoff_hi, the bounds in `cutoffs`.
_SIMULATE_FLAGS = {
    "seed": ("--seed", dict(type=int, help="generator seed")),
    "n_cases": ("--n-cases", dict(type=int, help="cases in all")),
    "n_makers": ("--n-makers", dict(type=int, help="makers")),
    "capable_fraction": ("--capable-fraction", dict(type=float, help="share of capable makers")),
    "export_hidden": ("--export-hidden", dict(action="store_true", default=None, help="write the hidden signal")),
    "shuffle_groups": ("--shuffle-groups", dict(action="store_true", default=None, help="draw the capable makers")),
    "scenario": ("--scenario", dict(type=int, help="scenario 1, 2 or 3")),
    "n": ("--n", dict(type=int, help="cases")),
    "c0": ("--c0", dict(type=float, help="doctor's cutoff")),
    "cases_per_maker": ("--cases-per-maker", dict(type=int, help="cases per maker")),
    "cutoff_lo": ("--cutoff-lo", dict(type=float, help="lower bound of the uniform cutoffs")),
    "cutoff_hi": ("--cutoff-hi", dict(type=float, help="upper bound of the uniform cutoffs")),
    "cutoffs": ("--cutoffs", dict(help="comma-separated cutoffs, one per maker")),
}


def _add_config_flags(p, *fields: str) -> None:
    """``--config`` plus the flags of the RunConfig ``fields`` the subcommand reads."""
    p.add_argument("--config", help="JSON config file (any RunConfig key); flags override its values")
    for name in fields:
        flag, kwargs = _CONFIG_FLAGS[name]
        p.add_argument(flag, dest=name, **kwargs)


# input flag -> its help; every input a subcommand takes is required
_INPUTS = {
    "--cases": "cases file", "--roc": "curve file", "--verdicts": "bayesian verdict file", "--model": "model file",
}

# subcommand -> (handler, help, required inputs, default output file or None when
# --out is a directory, the RunConfig fields it has flags for); in --help order
_COMMANDS = {
    "simulate": (_cmd_simulate, "generate a synthetic cohort", (), None, ()),
    "split": (_cmd_split, "stratified split of a cases file", ("--cases",), None, ("seed",)),
    "train": (_cmd_train, "fit the forest on a cases file", ("--cases",), "forest.json",
              ("seed", "n_trees", "max_features", "min_samples_split", "bootstrap")),
    "roc": (_cmd_roc, "score a cases file with a model and emit its curve", ("--cases", "--model"), "roc.csv", ()),
    "bench-freq": (_cmd_bench_freq, "confidence-set verdict per maker", ("--cases", "--roc"), "verdicts_freq.csv",
                   ("seed", "level", "min_cases", "n_resamples")),
    "bench-bayes": (_cmd_bench_bayes, "posterior dominance verdict per maker", ("--cases", "--roc"),
                    "verdicts_bayes.csv",
                    ("seed", "level", "min_cases", "n_draws", "loss_kind", "grid_size", "prior_weight")),
    "combine": (_cmd_combine, "evaluate the cohort with flagged makers replaced", ("--cases", "--verdicts", "--model"),
                "combined.csv", ()),
    "path": (_cmd_path, "pooled pair as the replaced fraction sweeps 0 to 1", ("--cases", "--verdicts", "--model"),
             "path.csv", ()),
    "randomized": (_cmd_randomized, "per-case coin flip between maker and machine",
                   ("--cases", "--verdicts", "--model"), "randomized.csv", ("seed",)),
    "report": (_cmd_report, "full pipeline on one cases file", ("--cases",), None, tuple(_CONFIG_FLAGS)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rocbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, (func, summary, inputs, out_file, settings) in _COMMANDS.items():
        p = subs[name] = sub.add_parser(name, help=summary)
        for flag in inputs:
            p.add_argument(flag, required=True, help=_INPUTS[flag])
        p.add_argument("--out", help=f"output file (default {out_file})" if out_file
                       else f"output directory (default ${OUT_ENV} or .)")
        if settings:
            _add_config_flags(p, *settings)
        p.set_defaults(func=func, out_file=out_file)

    p = subs["simulate"]
    p.add_argument("--dgp", required=True, choices=list(GENERATORS),
                   help="generator; any flag below that it does not read is refused")
    for name, (flag, kwargs) in _SIMULATE_FLAGS.items():
        readers = ", ".join(g for g, (spec_type, _) in GENERATORS.items() if _reads(spec_type, name))
        p.add_argument(flag, dest=name, **{**kwargs, "help": f"{kwargs['help']} (read by {readers})"})
    p = subs["split"]
    p.add_argument("--ratio", required=True, help="e.g. 7:3")
    p.add_argument("--label", default="outer", help="substream label; vary it for nested splits")
    p.add_argument("--names", default="a,b", help="output basenames, e.g. classification,performance")
    subs["bench-freq"].add_argument("--cov", choices=["bootstrap", "asymptotic"], default="bootstrap")
    subs["path"].add_argument("--fractions", default=",".join(map(format_float, PATH_FRACTIONS)))
    subs["randomized"].add_argument("--lambdas", default=",".join(map(format_float, LAMBDAS)))
    subs["randomized"].add_argument("--scope", choices=SCOPES, default=SCOPES[0])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise
    except Exception as exc:  # single-line machine-readable failure
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
