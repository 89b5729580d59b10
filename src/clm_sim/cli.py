"""Command-line front end: run, compare, preset and batch subcommands.

Every failure path prints one machine-parsable line ``error: <CODE>: message``
to stderr and exits nonzero (2 config/preset problems, 3 data/operating-point
problems, 4 runtime integration failures). Set CLM_SIM_LOG=DEBUG|INFO|WARNING
for log verbosity. Runs are deterministic; --seed is accepted but reserved.
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
from .config import PRESET_NAMES, get_dera_preset, get_motor_preset, load_config, parse_integrator
from .dera import DERA_PRESET_BASES
from .errors import ClmSimError, PresetError
from .motor3 import MOTOR_PRESETS

logger = logging.getLogger("clm_sim")


def _setup_logging() -> None:
    level = os.environ.get("CLM_SIM_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _figure_channels(traj: sim.Trajectory, component: str) -> list[str]:
    """Plot-ready channel set for one component: bus signals plus its P/Q."""
    cols = ["V"]
    if component == "dera":
        cols.append("Freq")
    cols += [f"{component}.P", f"{component}.Q"]
    return [c for c in cols if c in traj.channels]


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    overrides = {key: value for key, value in (("dt", args.dt), ("t_end", args.t_end))
                 if value is not None}
    cfg.integrator = parse_integrator({**dataclasses.asdict(cfg.integrator), **overrides})
    if args.out_dir is not None:
        cfg.outputs.out_dir = args.out_dir
    if args.channels is not None:
        cfg.outputs.channels = [c.strip() for c in args.channels.split(",") if c.strip()]

    scenario = cfg.build()
    result = sim.run_simulation(scenario, cfg.integrator)
    traj = result.trajectory

    out_dir = Path(cfg.outputs.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    csv_path = out_dir / cfg.outputs.trajectory_csv
    sim.write_csv(traj, csv_path, channels=cfg.outputs.channels)
    written = [str(csv_path)]

    if cfg.outputs.binary:
        bin_path = out_dir / cfg.outputs.binary
        sim.write_binary(traj, bin_path)
        written.append(str(bin_path))

    summary = dict(result.summary)
    summary["channels"] = traj.channels
    summary["config"] = cfg.to_dict()
    summary_path = out_dir / cfg.outputs.summary_json
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(str(summary_path))

    if cfg.outputs.figure_csvs:
        components = [c[:-2] for c in traj.channels if c.endswith(".P") and c != "total.P"]
        for component in components:
            fig_path = out_dir / f"figure_{component}.csv"
            sim.write_csv(traj, fig_path, channels=_figure_channels(traj, component))
            written.append(str(fig_path))

    for path in written:
        print(path)
    return 0


def cmd_compare(args) -> int:
    a = sim.read_csv(args.traj_a)
    b = a if args.traj_b == args.traj_a else sim.read_csv(args.traj_b)
    if args.channels is not None:
        channels = [c.strip() for c in args.channels.split(",") if c.strip()]
    else:
        common = [c for c in a.pq_channels() if c in b.channels]
        channels = common or [c for c in a.channels[1:] if c in b.channels]
    if sim.grids_match(a, b):
        b_on_a = b
    else:
        logger.info("grids differ; resampling %s onto the grid of %s", args.traj_b, args.traj_a)
        b_on_a = sim.resample(b, a.t)
    width = max(len(c) for c in channels) if channels else 8
    print(f"{'channel'.ljust(width)}  mean squared error")
    for c in channels:
        value = sim.mse(a, b_on_a, c)
        print(f"{c.ljust(width)}  {value:.4e}")
    return 0


def _preset_values(name: str) -> dict:
    if name in MOTOR_PRESETS:
        return dataclasses.asdict(get_motor_preset(name))
    values = dataclasses.asdict(get_dera_preset(name))
    values.update(DERA_PRESET_BASES.get(name, {}))
    return values


def cmd_preset(args) -> int:
    if args.action == "list":
        for name in PRESET_NAMES:
            print(name)
        return 0
    if args.name is None:
        raise PresetError("preset show needs a preset name")
    if args.name not in PRESET_NAMES:
        raise PresetError(f"unknown preset {args.name!r}; available: {list(PRESET_NAMES)}")
    for key, value in _preset_values(args.name).items():
        print(f"{key}: {value!r}")
    return 0


def cmd_batch(args) -> int:
    failures = 0
    for config_path in args.configs:
        ns = argparse.Namespace(
            config=config_path,
            out_dir=str(Path(args.out_dir) / Path(config_path).stem)
            if args.out_dir
            else None,
            dt=None,
            t_end=None,
            channels=None,
        )
        try:
            cmd_run(ns)
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
    parser.add_argument("--seed", type=int, default=None,
                        help="reserved; the models are deterministic and ignore it")
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
        return args.func(args)
    except ClmSimError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_status


if __name__ == "__main__":
    sys.exit(main())
