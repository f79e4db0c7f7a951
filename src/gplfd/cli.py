"""Command-line surface tying the pipeline together.

Every command takes one declarative JSON config (``--config``, optionally a
run manifest) with ``--set section.field=value`` overrides, and drops a
manifest next to its outputs recording the resolved config, input hashes
and output hashes. Re-running a command with its manifest as the config
reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
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

# Largest --grid: each query time becomes a pose distribution and a table row.
MAX_QUERY_POINTS = 100_000


def _resolve_config(args) -> RunConfig:
    payload = read_config_payload(args.config) if args.config else {}
    if args.set:
        payload = apply_overrides(payload, args.set)
    return config_from_dict(payload)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(args, command: str, config: RunConfig,
                    inputs, outputs, **arguments) -> None:
    path = _out_dir(args) / f"{command}.manifest.json"
    io.write_manifest(path, command, config.to_dict(), inputs, outputs,
                      arguments=arguments)


def _numbers(text: str, flag: str) -> np.ndarray:
    """Comma-separated numbers from a command-line argument."""
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise InvalidInputError(f"{flag} must be comma-separated numbers, "
                                f"got {text!r}") from None


def _query_times(args) -> np.ndarray:
    if args.times:
        return _numbers(args.times, "--times")
    if not 1 <= args.grid <= MAX_QUERY_POINTS:
        raise InvalidInputError(f"--grid must lie in [1, {MAX_QUERY_POINTS}]")
    return np.linspace(0.0, 1.0, args.grid)


def _distribution_table(path, ts, dists) -> None:
    header = (["t"] + [f"mean_{n}" for n in DIM_NAMES]
              + [f"var_{n}" for n in DIM_NAMES] + ["extrapolated"])
    rows = [[t, *d.mean, *d.var, float(d.extrapolated)]
            for t, d in zip(ts, dists)]
    io.write_table(path, header, rows)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_gen_data(args) -> None:
    config = _resolve_config(args)
    out = _out_dir(args)
    demos = generate_synthetic_door_set(seed=config.seed,
                                        **asdict(config.data))
    outputs = []
    for i, demo in enumerate(demos, start=1):
        path = out / f"{args.prefix}_{i:02d}.csv"
        io.save_demonstration(path, demo)
        outputs.append(path)
    _write_manifest(args, "gen-data", config, [], outputs,
                    prefix=args.prefix)
    print(f"wrote {len(outputs)} demonstrations to {out}")


def _cmd_align(args) -> None:
    config = _resolve_config(args)
    out = _out_dir(args)
    demos = io.load_demonstrations(args.demos)
    aligned = align_demonstrations(demos, weights=distance_weights(config),
                                   measure=config.alignment.measure)
    outputs = []
    for i, demo in enumerate(aligned, start=1):
        path = out / f"{args.prefix}_{i:02d}.csv"
        io.save_demonstration(path, demo)
        outputs.append(path)
    _write_manifest(args, "align", config, args.demos, outputs,
                    prefix=args.prefix)
    print(f"aligned {len(aligned)} demonstrations onto a common time grid")


def _cmd_fit(args) -> None:
    config = _resolve_config(args)
    out = _out_dir(args)
    demos = io.load_demonstrations(args.demos)
    policy = learn_policy(demos, learn_config(config))
    path = Path(args.policy) if args.policy else out / "policy.json"
    io.save_policy(path, policy)
    _write_manifest(args, "fit", config, args.demos, [path],
                    policy=str(path))
    # Alignment skips flat demonstrations; each fitted one adds a grid.
    fitted = len(policy.dims[0].signal_gp.train) // policy.grid.size
    print(f"fitted policy on {fitted} demonstrations -> {path}")
    for name, dim in zip(DIM_NAMES, policy.dims):
        print(f"  {name}: length_scale {dim.params.length_scale!r}, "
              f"signal_std {dim.params.signal_std!r}, "
              f"lml {dim.signal_gp.log_marginal_likelihood()!r}")


def _cmd_query(args) -> None:
    config = _resolve_config(args)
    out = _out_dir(args)
    policy = io.load_policy(args.policy)
    ts = _query_times(args)
    path = Path(args.out) if args.out else out / "query.csv"
    _distribution_table(path, ts, query(policy, ts))
    _write_manifest(args, "query", config, [args.policy], [path],
                    grid=args.grid, times=args.times)
    print(f"queried policy at {ts.size} times -> {path}")


def _cmd_adapt(args) -> None:
    config = _resolve_config(args)
    out = _out_dir(args)
    policy = io.load_policy(args.policy)
    vias = io.load_viapoints(args.via)
    ts = _query_times(args)
    path = Path(args.out) if args.out else out / "adapted.csv"
    _distribution_table(path, ts, adapt_with_viapoints(policy, vias, ts))
    _write_manifest(args, "adapt", config, [args.policy, args.via],
                    [path], grid=args.grid, times=args.times)
    print(f"adapted policy with {len(vias)} via-points -> {path}")


def _cmd_simulate(args) -> None:
    config = _resolve_config(args)
    out = _out_dir(args)
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
    path = Path(args.out) if args.out else out / "trace.csv"
    io.save_trace(path, trace)
    _write_manifest(args, "simulate", config, inputs, [path],
                    sigma=args.sigma, force=args.force)
    report = check_stability(ctrl, trace.max_sigma_rate())
    state = "ok" if report.satisfied else "violated"
    print(f"simulated {trace.times[-1]:g} s -> {path}")
    print(f"stability: max |dsigma/dt| = {report.observed_sigma_rate:.6g}, "
          f"bound = {report.sigma_rate_bound:.6g} ({state})")


def _cmd_eval(args) -> None:
    config = _resolve_config(args)
    out = _out_dir(args)
    policy = io.load_policy(args.policy)
    truth = io.load_demonstration(args.truth)
    report = streaming_evaluation(policy, truth, via_strength(config))
    path = Path(args.out) if args.out else out / "eval.csv"
    header = (["adaptive"] + [f"mse_{n}" for n in DIM_NAMES] + ["mse_mean"]
              + [f"within_2sd_{n}" for n in DIM_NAMES]
              + [f"median_z_{n}" for n in DIM_NAMES])
    rows = [[0.0, *report.static_mse, float(np.mean(report.static_mse)),
             *report.static_within_2sd, *report.static_median_z],
            [1.0, *report.adaptive_mse, float(np.mean(report.adaptive_mse)),
             *report.adaptive_within_2sd, *report.adaptive_median_z]]
    io.write_table(path, header, rows)
    _write_manifest(args, "eval", config, [args.policy, args.truth],
                    [path])
    print(f"streaming evaluation -> {path}")
    for name, static, adaptive in zip(DIM_NAMES, report.static_mse,
                                      report.adaptive_mse):
        print(f"  {name}: static {static:.3e}, adaptive {adaptive:.3e}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub) -> None:
    sub.add_argument("--config", help="JSON config file or run manifest")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config field, e.g. data.noise=0.01")
    sub.add_argument("--out-dir", default=".",
                     help="directory for outputs and the run manifest")


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

    sub = subs.add_parser("gen-data", help="generate synthetic door pulls")
    _add_common(sub)
    sub.add_argument("--prefix", default="demo", help="output file prefix")
    sub.set_defaults(func=_cmd_gen_data)

    sub = subs.add_parser("align", help="time-align demonstration files")
    _add_common(sub)
    sub.add_argument("demos", nargs="+", help="demonstration CSV files")
    sub.add_argument("--prefix", default="aligned", help="output file prefix")
    sub.set_defaults(func=_cmd_align)

    sub = subs.add_parser("fit", help="learn a policy from demonstrations")
    _add_common(sub)
    sub.add_argument("demos", nargs="+", help="demonstration CSV files")
    sub.add_argument("--policy", help="output policy path (policy.json)")
    sub.set_defaults(func=_cmd_fit)

    sub = subs.add_parser("query", help="evaluate the policy posterior")
    _add_common(sub)
    sub.add_argument("--policy", required=True, help="fitted policy file")
    sub.add_argument("--out", help="output table path")
    _add_times(sub)
    sub.set_defaults(func=_cmd_query)

    sub = subs.add_parser("adapt", help="fuse the policy with via-points")
    _add_common(sub)
    sub.add_argument("--policy", required=True, help="fitted policy file")
    sub.add_argument("--via", required=True, help="via-point CSV file")
    sub.add_argument("--out", help="output table path")
    _add_times(sub)
    sub.set_defaults(func=_cmd_adapt)

    sub = subs.add_parser("simulate",
                          help="run the variable-stiffness error dynamics")
    _add_common(sub)
    sub.add_argument("--policy", help="drive stiffness from this policy")
    sub.add_argument("--sigma", type=float,
                     help="constant uncertainty instead of a policy")
    sub.add_argument("--force", help="constant external force, 6 comma-"
                                     "separated values")
    sub.add_argument("--out", help="output trace path")
    sub.set_defaults(func=_cmd_simulate)

    sub = subs.add_parser("eval",
                          help="streaming via-point evaluation on a "
                               "measured trajectory")
    _add_common(sub)
    sub.add_argument("--policy", required=True, help="fitted policy file")
    sub.add_argument("--truth", required=True,
                     help="measured trajectory CSV used as the observation "
                          "stream and ground truth")
    sub.add_argument("--out", help="output table path")
    sub.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    # OSError covers missing or unreadable files: user input, not an
    # internal fault.
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
