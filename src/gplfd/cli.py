"""Command-line surface tying the pipeline together.

Every command takes one declarative JSON config (``--config``, optionally a
run manifest) with ``--set section.field=value`` overrides, and drops a
manifest next to its outputs recording the resolved config, input hashes
and output hashes. Re-running a command with its manifest as the config
reproduces the outputs byte for byte. ``main`` resolves the config and
creates the output directory; each ``_cmd_*`` then does only its own work.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import io
from .admittance import check_stability, constant_force, simulate
from .alignment import align_demonstrations
from .config import (RunConfig, apply_overrides, config_from_dict,
                     distance_weights, learn_config, read_config_payload,
                     via_strength)
from .errors import InvalidInputError, ToolkitError
from .policy import (DIM_NAMES, adapt_with_viapoints, learn_policy, query,
                     streaming_evaluation)
from .synthetic import generate_synthetic_door_set

# Largest --grid: each query time becomes one table row.
MAX_QUERY_POINTS = 100_000
# Manifest ``versions`` fields that can change an output's last bits.
REPLAY_FIELDS = ("numpy", "scipy", "blas", "threads")

logger = logging.getLogger(__name__)


def _resolve_config(args) -> RunConfig:
    payload = read_config_payload(args.config) if args.config else {}
    if args.config:
        _check_replay_environment(args.config)
    if args.set:
        payload = apply_overrides(payload, args.set)
    return config_from_dict(payload)


def _check_replay_environment(path) -> None:
    """Log one WARNING when ``path`` is a run manifest written under other
    numpy, scipy, BLAS builds or BLAS thread settings than this process's,
    naming each field that differs: a replay may then differ in its last
    bits. Outputs and exit codes do not change."""
    manifest = io.read_json(path)
    if manifest.get("format") != io.FORMAT_MANIFEST:
        return
    recorded, here = manifest.get("versions"), io._versions()
    recorded = recorded if isinstance(recorded, dict) else {}
    differ = []
    for name in REPLAY_FIELDS:
        ours, theirs = here[name], recorded.get(name)
        if isinstance(ours, dict):
            theirs = theirs if isinstance(theirs, dict) else {}
            differ += [(f"{name}.{key}", theirs.get(key), ours[key])
                       for key in ours if theirs.get(key) != ours[key]]
        elif theirs != ours:
            differ.append((name, theirs, ours))
    if differ:
        logger.warning(
            "%s was written under another environment, so this replay may "
            "differ in its last bits: %s", path, "; ".join(
                f"{name} {theirs!r} there, {ours!r} here"
                for name, theirs, ours in differ))


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(args, config: RunConfig, out: Path,
                    inputs, outputs, **arguments) -> None:
    io.write_manifest(out / f"{args.command}.manifest.json", args.command,
                      config.to_dict(), inputs, outputs, arguments=arguments)


def _output(args, out: Path, name: str) -> Path:
    """The ``--out`` path, or ``name`` in the output directory."""
    return Path(args.out) if args.out else out / name


def _save_demos(out: Path, prefix: str, demos) -> list:
    """Write ``<prefix>_01.csv``, ``<prefix>_02.csv``, ... in demo order."""
    paths = [out / f"{prefix}_{i:02d}.csv" for i in range(1, len(demos) + 1)]
    for path, demo in zip(paths, demos):
        io.save_demonstration(path, demo)
    return paths


def _numbers(text: str, flag: str) -> np.ndarray:
    """Comma-separated numbers from a command-line argument."""
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise InvalidInputError(f"{flag} must be comma-separated numbers, "
                                f"got {text!r}") from None


def _query_times(args) -> np.ndarray:
    if args.times is not None:
        return _numbers(args.times, "--times")
    if not 1 <= args.grid <= MAX_QUERY_POINTS:
        raise InvalidInputError(f"--grid must lie in [1, {MAX_QUERY_POINTS}]")
    return np.linspace(0.0, 1.0, args.grid)


def _distribution_table(path, ts, post) -> None:
    header = (["t"] + [f"mean_{n}" for n in DIM_NAMES]
              + [f"var_{n}" for n in DIM_NAMES] + ["extrapolated"])
    io.write_table(path, header, np.column_stack(
        [ts, post.mean, post.var, post.extrapolated]))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_gen_data(args, config, out) -> None:
    demos = generate_synthetic_door_set(seed=config.seed,
                                        **asdict(config.data))
    outputs = _save_demos(out, args.prefix, demos)
    _write_manifest(args, config, out, [], outputs, prefix=args.prefix)
    print(f"wrote {len(outputs)} demonstrations to {out}")


def _cmd_align(args, config, out) -> None:
    demos = io.load_demonstrations(args.demos)
    aligned = align_demonstrations(demos, weights=distance_weights(config),
                                   measure=config.alignment.measure)
    outputs = _save_demos(out, args.prefix, aligned)
    _write_manifest(args, config, out, args.demos, outputs, prefix=args.prefix)
    print(f"aligned {len(aligned)} demonstrations onto a common time grid")


def _cmd_fit(args, config, out) -> None:
    demos = io.load_demonstrations(args.demos)
    policy = learn_policy(demos, learn_config(config))
    path = Path(args.policy) if args.policy else out / "policy.json"
    io.save_policy(path, policy)
    _write_manifest(args, config, out, args.demos, [path], policy=str(path))
    # Alignment skips flat demonstrations; each fitted one adds a grid.
    fitted = len(policy.dims[0].signal_gp.train) // policy.grid.size
    print(f"fitted policy on {fitted} demonstrations -> {path}")
    for name, dim in zip(DIM_NAMES, policy.dims):
        print(f"  {name}: length_scale {dim.params.length_scale!r}, "
              f"signal_std {dim.params.signal_std!r}, "
              f"lml {dim.signal_gp.log_marginal_likelihood()!r}")


def _cmd_query(args, config, out) -> None:
    policy = io.load_policy(args.policy)
    ts = _query_times(args)
    path = _output(args, out, "query.csv")
    _distribution_table(path, ts, query(policy, ts))
    _write_manifest(args, config, out, [args.policy], [path],
                    grid=args.grid, times=args.times)
    print(f"queried policy at {ts.size} times -> {path}")


def _cmd_adapt(args, config, out) -> None:
    policy = io.load_policy(args.policy)
    vias = io.load_viapoints(args.via)
    ts = _query_times(args)
    path = _output(args, out, "adapted.csv")
    _distribution_table(path, ts, adapt_with_viapoints(policy, vias, ts))
    _write_manifest(args, config, out, [args.policy, args.via], [path],
                    grid=args.grid, times=args.times)
    print(f"adapted policy with {len(vias)} via-points -> {path}")


def _cmd_simulate(args, config, out) -> None:
    sim, ctrl = config.simulation, config.controller
    # A policy wins over --sigma; simulate refuses a run with neither.
    setpoint = io.load_policy(args.policy) if args.policy else None
    sigma = None if args.policy else args.sigma
    inputs = [args.policy] if args.policy else []
    force = constant_force(_numbers(args.force, "--force")) \
        if args.force else None
    trace = simulate(setpoint, force, ctrl, dt=sim.dt, horizon=sim.horizon,
                     sigma=sigma, shared_sigma=sim.shared_sigma,
                     integrator=sim.integrator)
    path = _output(args, out, "trace.csv")
    io.save_trace(path, trace)
    _write_manifest(args, config, out, inputs, [path],
                    sigma=args.sigma, force=args.force)
    report = check_stability(ctrl, trace.max_sigma_rate())
    state = "ok" if report.satisfied else "violated"
    print(f"simulated {trace.times[-1]:g} s -> {path}")
    print(f"stability: max |dsigma/dt| = {report.observed_sigma_rate:.6g}, "
          f"bound = {report.sigma_rate_bound:.6g} ({state})")


def _cmd_eval(args, config, out) -> None:
    policy = io.load_policy(args.policy)
    truth = io.load_demonstration(args.truth)
    report = streaming_evaluation(policy, truth, via_strength(config))
    path = _output(args, out, "eval.csv")
    header = (["adaptive"] + [f"mse_{n}" for n in DIM_NAMES] + ["mse_mean"]
              + [f"within_2sd_{n}" for n in DIM_NAMES]
              + [f"median_z_{n}" for n in DIM_NAMES])
    rows = [[0.0, *report.static_mse, float(np.mean(report.static_mse)),
             *report.static_within_2sd, *report.static_median_z],
            [1.0, *report.adaptive_mse, float(np.mean(report.adaptive_mse)),
             *report.adaptive_within_2sd, *report.adaptive_median_z]]
    io.write_table(path, header, rows)
    _write_manifest(args, config, out, [args.policy, args.truth], [path])
    print(f"streaming evaluation -> {path}")
    for name, static, adaptive in zip(DIM_NAMES, report.static_mse,
                                      report.adaptive_mse):
        print(f"  {name}: static {static:.3e}, adaptive {adaptive:.3e}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_command(subs, name: str, func, text: str):
    """The subcommand ``name``, running ``func``, with the options every
    command takes."""
    sub = subs.add_parser(name, help=text)
    sub.set_defaults(func=func)
    sub.add_argument("--config", help="JSON config file or run manifest")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config field, e.g. data.noise=0.01")
    sub.add_argument("--out-dir", default=".",
                     help="directory for outputs and the run manifest")
    return sub


def _add_times(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--grid", type=int, default=100,
                       help="query on a uniform grid over [0, 1]")
    group.add_argument("--times", help="explicit comma-separated query times")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gplfd",
        description="Learning-from-demonstration pipeline: uncertainty-aware "
                    "pose policies with variable-stiffness execution.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = _add_command(subs, "gen-data", _cmd_gen_data,
                       "generate synthetic door pulls")
    sub.add_argument("--prefix", default="demo", help="output file prefix")

    sub = _add_command(subs, "align", _cmd_align,
                       "time-align demonstration files")
    sub.add_argument("demos", nargs="+", help="demonstration CSV files")
    sub.add_argument("--prefix", default="aligned", help="output file prefix")

    sub = _add_command(subs, "fit", _cmd_fit,
                       "learn a policy from demonstrations")
    sub.add_argument("demos", nargs="+", help="demonstration CSV files")
    sub.add_argument("--policy", help="output policy path (policy.json)")

    sub = _add_command(subs, "query", _cmd_query,
                       "evaluate the policy posterior")
    sub.add_argument("--policy", required=True, help="fitted policy file")
    sub.add_argument("--out", help="output table path")
    _add_times(sub)

    sub = _add_command(subs, "adapt", _cmd_adapt,
                       "fuse the policy with via-points")
    sub.add_argument("--policy", required=True, help="fitted policy file")
    sub.add_argument("--via", required=True, help="via-point CSV file")
    sub.add_argument("--out", help="output table path")
    _add_times(sub)

    sub = _add_command(subs, "simulate", _cmd_simulate,
                       "run the variable-stiffness error dynamics")
    sub.add_argument("--policy", help="drive stiffness from this policy")
    sub.add_argument("--sigma", type=float,
                     help="constant uncertainty instead of a policy")
    sub.add_argument("--force", help="constant external force, 6 comma-"
                                     "separated values")
    sub.add_argument("--out", help="output trace path")

    sub = _add_command(subs, "eval", _cmd_eval, "streaming via-point "
                       "evaluation on a measured trajectory")
    sub.add_argument("--policy", required=True, help="fitted policy file")
    sub.add_argument("--truth", required=True,
                     help="measured trajectory CSV used as the observation "
                          "stream and ground truth")
    sub.add_argument("--out", help="output table path")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Resolved first: a bad config exits before the directory exists.
        args.func(args, _resolve_config(args), _out_dir(args))
    # OSError covers missing or unreadable files: user input, not an
    # internal fault.
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
