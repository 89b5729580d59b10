"""Command-line front end: run, compare, preset and batch subcommands.

Every failure path prints one machine-parsable line ``error: <CODE>: message``
to stderr and exits nonzero (2 config/preset problems, 3 data/operating-point
problems, 4 runtime integration failures); a closed stdout (``| head -1``) ends
it quietly, exit 1. Set CLM_SIM_LOG=DEBUG|INFO|WARNING for log verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from . import sim
from .config import COMPONENTS, PRESETS, load_config, parse_integrator, parse_outputs
from .dera import DERA_PRESET_BASES
from .errors import ChannelError, ClmSimError, ConfigError, PresetError

logger = logging.getLogger("clm_sim")


def _setup_logging() -> None:
    level = os.environ.get("CLM_SIM_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _split_channels(text: str | None) -> list[str] | None:
    """The names in a --channels value, or None when the option was not given."""
    return None if text is None else [c.strip() for c in text.split(",") if c.strip()]


def _overridden(section, **overrides):
    """The section's fields with the options that were given (not None) put over them."""
    return {**dataclasses.asdict(section), **{k: v for k, v in overrides.items() if v is not None}}


def _configured(path, out_dir=None, dt=None, t_end=None, channels=None):
    """The config at path with the options of `run` that were given (not None) put over it."""
    cfg = load_config(path)
    cfg.integrator = parse_integrator(_overridden(cfg.integrator, dt=dt, t_end=t_end))
    cfg.outputs = parse_outputs(_overridden(cfg.outputs, out_dir=out_dir, channels=channels))
    return cfg


def _output_paths(cfg):
    """The files a run of cfg writes: (paths, csvs, binary, summary).

    paths holds them all in the order the run prints them; csvs holds
    (path, channels or None for every channel) per CSV, the trajectory's
    first; binary is None when the run writes none.
    """
    outputs, out_dir = cfg.outputs, Path(cfg.outputs.out_dir)
    names = [c for c in COMPONENTS if c in cfg.components] if outputs.figure_csvs else []
    csvs = [(out_dir / outputs.trajectory_csv, outputs.channels),
            *((out_dir / f"figure_{c}.csv", [*COMPONENTS[c].figure, f"{c}.P", f"{c}.Q"])
              for c in names)]
    binary = out_dir / outputs.binary if outputs.binary is not None else None
    summary = out_dir / outputs.summary_json
    paths = [csvs[0][0], *([binary] if binary else []), summary, *(path for path, _ in csvs[1:])]
    return paths, csvs, binary, summary


def cmd_run(args) -> int:
    return _run(_configured(args.config, args.out_dir, args.dt, args.t_end,
                            _split_channels(args.channels)))


def _run(cfg) -> int:
    """Run one configured scenario, writing its outputs and printing their paths."""
    scenario = cfg.build()
    channels = sim.channel_names(scenario.components(cfg.integrator.dt))
    paths, csvs, binary_path, summary_path = _output_paths(cfg)
    real = [path.resolve() for path in paths]  # out/../out/a.csv is out/a.csv
    for path, file in zip(paths, real):
        if real.count(file) > 1:
            raise ConfigError(f"two outputs would both be written to {path}", field="outputs")

    # Each block of rows goes to the outputs' temporary names as it is stepped; all are
    # renamed once the run is done. A run that fails, however, leaves none of them, nor
    # a directory that it made.
    out_dir = Path(cfg.outputs.out_dir)
    made = [path for path in (out_dir, *out_dir.parents) if not path.exists()]  # deepest first
    temp = {path: path.with_name(f".{path.name}.tmp") for path in paths}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with sim.BlockWriter(channels, {temp[path]: names for path, names in csvs},
                             binary_path and temp[binary_path]) as writer:
            result = sim.run_simulation(scenario, cfg.integrator, write=writer.write)
        summary = {**result.summary, "channels": channels, "config": cfg.to_dict()}
        with open(temp[summary_path], "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for path in paths:
            os.replace(temp[path], path)
    except BaseException as exc:  # a failed write or run, or an interrupt
        for path in filter(Path.exists, temp.values()):  # none where the directory is missing
            path.unlink()
        for path in made:
            try:
                path.rmdir()
            except OSError:  # not empty: something else wrote there meanwhile
                pass
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write outputs: {exc}") from None
        raise

    print(*paths, sep="\n")
    return 0


def cmd_compare(args) -> int:
    a = sim.read_csv(args.traj_a)
    b = a if args.traj_b == args.traj_a else sim.read_csv(args.traj_b)
    channels = _split_channels(args.channels)
    if channels is None:
        common = [c for c in a.pq_channels() if c in b.channels]
        channels = common or [c for c in a.channels[1:] if c in b.channels]
    if not channels:
        raise ChannelError(f"no channel to compare between {args.traj_a} and {args.traj_b}")
    for path, traj in ((args.traj_a, a), (args.traj_b, b)):  # before any line is printed
        sim.require_channels(channels, traj.channels, path)
    if sim.grids_match(a, b):
        b_on_a = b
    else:
        logger.info("grids differ; resampling %s onto the grid of %s", args.traj_b, args.traj_a)
        compared = ["t", *dict.fromkeys(c for c in channels if c != "t")]  # only these
        b = sim.Trajectory(compared, b.data[:, [b.channels.index(c) for c in compared]])
        b_on_a = sim.resample(b, a.t)
    width = max(len(c) for c in channels)
    print(f"{'channel'.ljust(width)}  mean squared error")
    for c in channels:
        value = sim.mse(a, b_on_a, c)
        print(f"{c.ljust(width)}  {value:.4e}")
    return 0


def cmd_preset(args) -> int:
    if args.action == "list":
        for name in PRESETS:
            print(name)
        return 0
    if args.name is None:
        raise PresetError("preset show needs a preset name")
    if args.name not in PRESETS:
        raise PresetError(f"unknown preset {args.name!r}; available: {list(PRESETS)}")
    values = {**dataclasses.asdict(PRESETS[args.name]), **DERA_PRESET_BASES.get(args.name, {})}
    for key, value in values.items():
        print(f"{key}: {value!r}")
    return 0


def cmd_batch(args) -> int:
    out_dirs = [Path(args.out_dir) / Path(c).stem if args.out_dir else None for c in args.configs]
    runs = []  # the config, or the error its own run reports, per config path
    for config_path, out_dir in zip(args.configs, out_dirs):
        try:
            runs.append(_configured(config_path, out_dir and str(out_dir)))
        except ClmSimError as exc:
            runs.append(exc)
    first_run = {}  # each file that a run writes, resolved -> the first run that writes it
    for i, cfg in enumerate(runs):
        for path in [] if isinstance(cfg, ClmSimError) else _output_paths(cfg)[0]:
            first = first_run.setdefault(path.resolve(), i)
            if first != i:
                raise ConfigError(f"{args.configs[first]} and {args.configs[i]} "
                                  f"would both write {path}")
    failures = 0
    for config_path, cfg in zip(args.configs, runs):
        try:
            if isinstance(cfg, ClmSimError):
                raise cfg
            _run(cfg)
        except ClmSimError as exc:
            failures += 1
            print(f"error: {exc.code}: {config_path}: {exc}", file=sys.stderr)
    if failures:
        print(f"batch: {failures} of {len(args.configs)} scenario(s) failed", file=sys.stderr)
        return 1
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clm-sim",
        description="Composite load model simulator: motors, DER, static loads "
                    "under scripted bus disturbances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario config")
    p_run.add_argument("--config", required=True, help="scenario YAML path")
    p_run.add_argument("--out-dir", default=None, help="override outputs.out_dir")
    p_run.add_argument("--dt", type=float, default=None, help="override integrator.dt")
    p_run.add_argument("--t-end", type=float, default=None, help="override integrator.t_end")
    p_run.add_argument("--channels", default=None,
                       help="comma-separated channel subset for the trajectory CSV")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="per-channel MSE between two trajectory CSVs")
    p_cmp.add_argument("traj_a")
    p_cmp.add_argument("traj_b")
    p_cmp.add_argument("--channels", default=None,
                       help="comma-separated channels (default: common P/Q channels)")
    p_cmp.set_defaults(func=cmd_compare)

    p_pre = sub.add_parser("preset", help="list or show parameter presets")
    p_pre.add_argument("action", choices=("list", "show"))
    p_pre.add_argument("name", nargs="?", default=None)
    p_pre.set_defaults(func=cmd_preset)

    p_batch = sub.add_parser("batch", help="run several scenario configs sequentially")
    p_batch.add_argument("configs", nargs="+", help="scenario YAML paths")
    p_batch.add_argument("--out-dir", default=None,
                         help="parent directory; each scenario writes to <out-dir>/<stem>")
    p_batch.set_defaults(func=cmd_batch)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return status
    except ClmSimError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_status
    except BrokenPipeError:  # the reader of stdout is gone, as after `| head -1`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the flush at exit
        return 1


if __name__ == "__main__":
    sys.exit(main())
