"""Command-line front end.

Subcommands:

* ``run``: execute one experiment from a config, write CSV results.
* ``sweep``: repeat an experiment while varying one config key over a
  list of values, one CSV pair per value.
* ``plot``: render one or more summary CSVs as a self-contained SVG
  regret chart (mean line plus a one-standard-deviation band).
* ``oracle``: print the exhaustive optimum and the per-assignment gap
  table of an environment (joint spaces up to 2**20). For a
  restricted-action environment the table lists its playable candidate
  set, not the full product space.

Config files are line-oriented ``key = value`` text; ``#`` starts a
comment. Unknown keys, missing required keys and type errors are fatal
and name the offending key and location. The same assignments can be
given inline with ``--set key=value``, which also overrides file values.
The keys, their types, defaults and the kinds that accept them are the
``SCHEMA`` table below; range errors come from the environment builders
and ``PolicyConfig``, which own the values. ``parse_config`` builds both
and returns the experiment itself (``RunConfig``, an ``ExperimentSpec``
with an output prefix), so ``sweep`` refuses a bad value anywhere in its
list before the first run writes a file.

CSV schemas (floats always carry six fractional digits):

    <out>.trials.csv    trial,t,cum_regret
    <out>.summary.csv   t,mean_cum_regret,std_cum_regret,mean_wall_ns,
                        mean_gauss_draws

Results are byte-reproducible for a fixed config and seed; measured
wall time is therefore written as 0 unless --record-timing is given
(real timings always go to stderr).
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence
from xml.sax.saxutils import escape

from .elimination import DEFAULT_BRUTE_CAP, joint_totals
from .environments import (
    Environment,
    chain_env,
    decoys_per_group,
    gem_mining_env,
    load_table_env,
    lower_bound_env,
    pseudo_regret,
)
from .harness import ExperimentSpec, ExperimentSummary, RegretTrace, run_experiment
from .hypergraph import enumerate_joint
from .policies import POLICY_KINDS, PolicyConfig


class ConfigError(ValueError):
    pass


ENV_KINDS = ("bernoulli_chain", "poisson_chain", "gem_mining", "lower_bound", "table")
_CHAINS = ("bernoulli_chain", "poisson_chain")


def _number_or_ln_T(raw: str):
    return raw if raw == "ln_T" else float(raw)


_TYPE_NAMES = {int: "integer", float: "number", _number_or_ln_T: "number or ln_T"}

# The config schema: key -> (type, default, kinds that accept it). A kind
# is an environment or policy kind; None accepts the key in every run. A
# default of None makes the key required; a callable default is computed
# from the values of the keys above it and the config path. Without a
# policy nothing runs, so the run keys are optional and None if not given.
_RUN_KEYS = ("T", "trials", "seed", "log_every")
SCHEMA = {
    "env": (str, None, None),
    "policy": (str, None, None),
    "T": (int, None, None),
    "trials": (int, None, None),
    "seed": (int, None, None),
    "log_every": (int, lambda v, path: max(1, v["T"] // 100), None),
    "out": (str, lambda v, path: (os.path.splitext(os.path.basename(path))[0]
                                  if path else "experiment"), None),
    "m": (int, None, _CHAINS),
    "d": (int, None, _CHAINS),
    "villages": (int, None, ("gem_mining",)),
    "env_seed": (int, None, ("gem_mining",)),
    "rho": (int, None, ("lower_bound",)),
    "L": (int, lambda v, path: decoys_per_group(v["rho"]), ("lower_bound",)),
    "X": (float, 3.5, ("lower_bound",)),
    "delta": (float, 0.5, ("lower_bound",)),
    "table_file": (str, None, ("table",)),
    "epsilon": (float, None, ("eps_mats",)),
    "c": (_number_or_ln_T, "ln_T", ("eps_mats",)),
    "ucb_range": (float, None, ("ucb_baseline",)),
}


def _owned(build, sources: dict, *args, **kwargs):
    """Call an owner of config values (an environment builder or
    PolicyConfig). Owners start a range error with the offending config
    key; it is re-raised naming that key and where it was set."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        key = str(exc).split(" ", 1)[0]
        if key not in SCHEMA:
            raise
        raise ConfigError(f"invalid value for '{key}' "
                          f"({sources.get(key, 'default')}): {exc}") from None


@dataclass(frozen=True)
class RunConfig(ExperimentSpec):
    """A parsed run: the built experiment and where its CSVs go. Parsed
    without a policy (the oracle), the policy and each absent run key are None."""

    out_prefix: str


def _build_env(kind: str, params: dict, sources: dict) -> Environment:
    if kind in _CHAINS:
        return _owned(chain_env, sources, params["m"], params["d"],
                      kind.removesuffix("_chain"))
    if kind == "gem_mining":
        return _owned(gem_mining_env, sources, params["villages"],
                      random.Random(params["env_seed"]))
    if kind == "lower_bound":
        return _owned(lower_bound_env, sources, **params)
    try:
        return load_table_env(params["table_file"])
    except ValueError as exc:
        raise ConfigError(f"table file {params['table_file']}: {exc}") from None


def _read_config_file(path: str) -> dict:
    entries = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            if key in entries:
                raise ConfigError(f"duplicate key '{key}' (line {lineno})")
            entries[key] = (value, f"line {lineno}")
    return entries


def _kind(entries: dict, key: str, choices, required: bool) -> Optional[str]:
    if key not in entries:
        if required:
            raise ConfigError(f"missing required key '{key}'")
        return None
    value, where = entries[key]
    if value not in choices:
        raise ConfigError(f"unknown {key} '{value}' ({where}); choose from "
                          f"{', '.join(choices)}")
    return value


def parse_config(path: Optional[str] = None,
                 assignments: Sequence[str] = (),
                 need_policy: bool = True) -> RunConfig:
    """Load and fully validate a run configuration from a file, inline
    key=value assignments, or both (later assignments win). The policy
    and the environment are built here, so a config that parses can run."""
    entries = _read_config_file(path) if path else {}
    for item in assignments:
        key, sep, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"bad --set argument {item!r}: expected key=value")
        entries[key] = (value, f"flag --set {item!r}")

    env_kind = _kind(entries, "env", ENV_KINDS, True)
    policy_kind = _kind(entries, "policy", POLICY_KINDS, need_policy)
    accepted = [key for key, (_, _, kinds) in SCHEMA.items()
                if kinds is None or env_kind in kinds or policy_kind in kinds]
    for key, (_value, where) in entries.items():
        if key not in accepted:
            raise ConfigError(f"unknown key '{key}' ({where})")

    values = {}
    sources = {}
    for key in accepted:
        if key in ("env", "policy"):
            continue
        kind, default, _ = SCHEMA[key]
        if key in entries:
            raw, sources[key] = entries[key]
            try:
                values[key] = kind(raw)
            except ValueError:
                raise ConfigError(
                    f"invalid value for '{key}' ({sources[key]}): expected "
                    f"{_TYPE_NAMES[kind]}, got {raw!r}") from None
        elif policy_kind is None and key in _RUN_KEYS:
            values[key] = None
            continue
        elif default is None:
            raise ConfigError(f"missing required key '{key}'")
        elif callable(default):
            values[key] = _owned(default, sources, values, path)
        else:
            values[key] = default
        # the CLI needs T for ln_T and the default stride
        if key in ("T", "trials", "log_every") and values[key] < 1:
            raise ConfigError(f"'{key}' must be >= 1 ({sources[key]})")

    if policy_kind == "eps_mats" and values["c"] == "ln_T":
        values["c"] = math.log(values["T"])
        sources["c"] = (f"{sources.get('c', 'default')}, "
                        f"ln_T at T = {values['T']}")

    def owned_by(kind):
        return {key: values[key] for key in accepted
                if SCHEMA[key][2] is not None and kind in SCHEMA[key][2]}

    policy = (None if policy_kind is None else
              _owned(PolicyConfig, sources, policy_kind, **owned_by(policy_kind)))
    env = _build_env(env_kind, owned_by(env_kind), sources)
    return RunConfig(env, policy, values["T"], values["trials"], values["seed"],
                     values["log_every"], values["out"])


# ---------------------------------------------------------------------
# CSV emission and parsing
# ---------------------------------------------------------------------

TRIALS_HEADER = "trial,t,cum_regret"
SUMMARY_HEADER = "t,mean_cum_regret,std_cum_regret,mean_wall_ns,mean_gauss_draws"


def emit_csv(traces: Sequence[RegretTrace], summary: ExperimentSummary,
             prefix: str, record_timing: bool = False) -> tuple[str, str]:
    """Write <prefix>.trials.csv and <prefix>.summary.csv.

    Floats carry exactly six fractional digits and lines end with a bare
    newline, so identical experiments produce byte-identical files. Wall
    time is nondeterministic and is written as 0 unless record_timing is
    set.
    """
    trials_path = f"{prefix}.trials.csv"
    summary_path = f"{prefix}.summary.csv"

    lines = [TRIALS_HEADER]
    for i, trace in enumerate(traces):
        for t, r in trace.checkpoints:
            lines.append(f"{i},{t},{r:.6f}")
    _write_lines(trials_path, lines)

    wall = summary.mean_wall_ns if record_timing else 0.0
    lines = [SUMMARY_HEADER]
    for t, mean, std in zip(summary.ts, summary.mean_cum_regret,
                            summary.std_cum_regret):
        lines.append(f"{t},{mean:.6f},{std:.6f},{wall:.6f},"
                     f"{summary.mean_gaussian_draws:.6f}")
    _write_lines(summary_path, lines)
    return trials_path, summary_path


def _write_lines(path: str, lines: Sequence[str]) -> None:
    """Write `lines` to `path`, each ended by a bare newline, creating the
    parent directory if needed."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_summary_csv(path: str) -> ExperimentSummary:
    """Parse a summary CSV back into an ExperimentSummary (num_trials is
    not stored in the file and is reported as 0). A file without rows, or
    with a non-finite value, is rejected: it has nothing to plot."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != SUMMARY_HEADER:
        raise ConfigError(f"{path}: not a summary CSV (bad header)")
    if len(lines) == 1:
        raise ConfigError(f"{path}: summary CSV has no rows")
    ts, means, stds = [], [], []
    for row, ln in enumerate(lines[1:], start=1):
        t, *values = ln.split(",")
        try:
            t = int(t)
            mean, std, wall, draws = map(float, values)
        except ValueError:
            raise ConfigError(f"{path}: row {row} ({ln!r}) is malformed") from None
        if not all(map(math.isfinite, (mean, std, wall, draws))):
            raise ConfigError(f"{path}: row {row} ({ln!r}) has a non-finite value")
        ts.append(t)
        means.append(mean)
        stds.append(std)
    return ExperimentSummary(ts=tuple(ts), mean_cum_regret=tuple(means),
                             std_cum_regret=tuple(stds), mean_wall_ns=wall,
                             mean_gaussian_draws=draws, num_trials=0)


# ---------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#e377c2")


def render_svg(series: Sequence[tuple[str, Sequence[int], Sequence[float],
                                      Sequence[float]]], path: str) -> str:
    """Render (label, ts, means, stds) series as a regret chart: one
    polyline per series plus a translucent band of one standard deviation
    around it. Returns the output path."""
    if not series:
        raise ConfigError("no summaries to plot")
    width, height = 880, 560
    left, right, top, bottom = 70, 200, 30, 50
    plot_w = width - left - right
    plot_h = height - top - bottom
    x_max = max(max(ts) for _, ts, _, _ in series)
    y_max = max(max(m + s for m, s in zip(means, stds))
                for _, _, means, stds in series)
    x_max = max(x_max, 1)
    y_max = max(y_max * 1.05, 1e-9)

    def px(t):
        return left + plot_w * (t / x_max)

    def py(v):
        return top + plot_h * (1.0 - v / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        f'stroke="black"/>',
    ]
    for i in range(6):
        t = x_max * i / 5
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{top + plot_h}" x2="{x:.2f}" '
                     f'y2="{top + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{top + plot_h + 20}" '
                     f'font-size="12" text-anchor="middle">{t:g}</text>')
        v = y_max * i / 5
        y = py(v)
        parts.append(f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.2f}" font-size="12" '
                     f'text-anchor="end">{v:.6g}</text>')
    parts.append(f'<text x="{left + plot_w / 2}" y="{height - 10}" '
                 f'font-size="13" text-anchor="middle">round t</text>')
    parts.append(f'<text x="18" y="{top + plot_h / 2}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{top + plot_h / 2})">mean cumulative regret</text>')

    for i, (label, ts, means, stds) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        upper = [(px(t), py(m + s)) for t, m, s in zip(ts, means, stds)]
        lower = [(px(t), py(max(m - s, 0.0))) for t, m, s in zip(ts, means, stds)]
        band = " ".join(f"{x:.2f},{y:.2f}" for x, y in upper + lower[::-1])
        parts.append(f'<polygon points="{band}" fill="{color}" '
                     f'fill-opacity="0.18" stroke="none"/>')
        line = " ".join(f"{px(t):.2f},{py(m):.2f}" for t, m in zip(ts, means))
        parts.append(f'<polyline points="{line}" fill="none" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        ly = top + 14 + 20 * i
        lx = left + plot_w + 18
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly + 4}" font-size="12">'
                     f'{escape(label)}</text>')
    parts.append("</svg>")
    _write_lines(path, parts)
    return path


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def _run_one(cfg: RunConfig, record_timing: bool):
    result = run_experiment(cfg)
    trials_path, summary_path = emit_csv(result.traces, result.summary,
                                         cfg.out_prefix, record_timing)
    print(f"wrote {trials_path}")
    print(f"wrote {summary_path}")
    print(f"final mean cumulative regret: "
          f"{result.summary.mean_cum_regret[-1]:.6f}")
    print(f"mean trial wall time: {result.summary.mean_wall_ns / 1e9:.3f} s",
          file=sys.stderr)
    return result


def _cmd_run(args) -> int:
    _run_one(parse_config(args.config, args.set), args.record_timing)
    return 0


def _cmd_sweep(args) -> int:
    # every value's environment and policy are built before the first run,
    # so a bad value anywhere in the list writes no file
    configs = {}
    for value in args.values.split(","):
        value = value.strip()
        if not value:
            raise ConfigError("empty value in --values")
        if value in configs:
            raise ConfigError(f"duplicate value {value!r} in --values")
        configs[value] = parse_config(args.config, list(args.set) + [f"{args.param}={value}"])
    for value, cfg in configs.items():
        print(f"[sweep] {args.param}={value}")
        _run_one(replace(cfg, out_prefix=f"{cfg.out_prefix}.{args.param}_{value}"),
                 args.record_timing)
    return 0


def _cmd_plot(args) -> int:
    labels = None
    if args.labels:
        labels = [s.strip() for s in args.labels.split(",")]
        if len(labels) != len(args.summaries):
            raise ConfigError(
                f"{len(labels)} labels for {len(args.summaries)} summaries")
    series = []
    for i, path in enumerate(args.summaries):
        summary = read_summary_csv(path)
        label = labels[i] if labels else os.path.basename(path).removesuffix(
            ".summary.csv")
        series.append((label, summary.ts, summary.mean_cum_regret,
                       summary.std_cum_regret))
    out = render_svg(series, args.out)
    print(f"wrote {out}")
    return 0


def _cmd_oracle(args) -> int:
    env = parse_config(args.config, args.set, need_policy=False).env
    graph = env.graph
    if env.candidates is None:
        totals = joint_totals(graph, list(env.means))
        playable = enumerate_joint(graph)
        gaps = (float(totals.max()) - totals).tolist()
    else:
        # a restricted-action environment can play its candidates only
        if env.candidates.size > DEFAULT_BRUTE_CAP:
            raise ValueError(
                f"candidate set has {env.candidates.size} assignments, exceeding "
                f"the oracle cap {DEFAULT_BRUTE_CAP}")
        playable = list(env.candidates)
        gaps = [pseudo_regret(env, arms) for arms in playable]
    suboptimal = [g for g in gaps if g > 0]
    print(f"environment: {env.name}")
    print(f"joint_arms: {len(gaps)}")
    print(f"local_arms: {graph.num_local_arms}")
    print(f"optimal_arm: {' '.join(map(str, env.optimal_assignment))}")
    print(f"mu_star: {env.optimal_value:.6f}")
    if suboptimal:
        print(f"delta_min: {min(suboptimal):.6f}")
    else:
        print("delta_min: none (all assignments optimal)")
    print(f"delta_max: {max(gaps):.6f}")
    print("arm,delta")
    for arms, gap in zip(playable, gaps):
        print(f"{' '.join(map(str, arms))},{gap:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mamab",
        description="Multi-agent bandit experiments on coordination hypergraphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, policy=True):
        p.add_argument("config", nargs="?", default=None,
                       help="config file (may be omitted if --set covers "
                            "all required keys)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="inline config assignment, overrides the file")
        for key in ("seed", "trials", "out"):
            p.add_argument(f"--{key}", dest="set", action="append",
                           type=lambda v, key=key: f"{key}={v}",
                           metavar=key.upper(), help=f"same as --set {key}=...")
        if policy:
            p.add_argument("--record-timing", action="store_true",
                           help="write measured wall time into the summary CSV "
                                "(breaks byte-reproducibility across runs)")

    p_run = sub.add_parser("run", help="run one experiment")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="vary one config key over a list")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, help="config key to vary")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list of values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_plot = sub.add_parser("plot", help="render summary CSVs as an SVG chart")
    p_plot.add_argument("summaries", nargs="+", help="summary CSV files")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.add_argument("--labels", default=None,
                        help="comma-separated legend labels (default: file stems)")
    p_plot.set_defaults(func=_cmd_plot)

    p_oracle = sub.add_parser(
        "oracle", help="print the exhaustive optimum and gap table")
    common(p_oracle, policy=False)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout consumer went away (e.g. piped into head); exit quietly
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
