"""Command-line entry point: one binary, one subcommand per pipeline stage.

Stages compose through files and pipes; stdout carries only machine-readable
payload (JSON lines or CSV) and diagnostics go to stderr. Exit codes: 0 ok,
1 runtime failure, 2 bad arguments or malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config, denoise, image_io, kinematics, learned, sim, so3, trajectory
from .classical import CameraCalibration, GraspProposal, VisionError
# Kept as a cli attribute: perfbench's tracer test checks that this alias
# of a traced function is wrapped and restored.
from .classical import classical_pipeline  # noqa: F401
from .so3 import Pose


class BadUsage(Exception):
    """Invalid arguments or malformed input files."""


def _load_cfg(args) -> config.PipelineConfig:
    try:
        cfg = config.load_config(args.config) if args.config else config.PipelineConfig()
        overrides = {}
        for item in args.set or []:
            if "=" not in item:
                raise ValueError(f"--set expects key=value, got {item!r}")
            key, val = item.split("=", 1)
            overrides[key.strip()] = val
        return config.apply_overrides(cfg, overrides)
    except (ValueError, OSError) as err:
        raise BadUsage(str(err)) from err


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise BadUsage(f"{what} not found: {p}")
    return p


def _load_params(path):
    try:
        return learned.load_params(_require_file(path, "params file"))
    except ValueError as err:
        raise BadUsage(str(err)) from err


def _finite(value: float, flag: str) -> None:
    if not math.isfinite(value):
        raise BadUsage(f"{flag} must be finite, got {value!r}")


def _at_least(value: int, low: int, flag: str) -> None:
    if value < low:
        raise BadUsage(f"{flag} must be >= {low}, got {value}")


def _numbers(text: str, flag: str, form: str) -> list[float]:
    """The finite comma-separated numbers of a flag such as --target X,Y."""
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        vals = []
    if len(vals) != form.count(",") + 1 or not all(map(math.isfinite, vals)):
        raise BadUsage(f"{flag} expects {form} as finite numbers, got {text!r}")
    return vals


def cmd_vision(args, cfg) -> int:
    _finite(args.t, "--t")
    rgb = image_io.load_ppm(_require_file(args.rgb, "rgb image"))
    depth = params = None
    if args.mode == "learned":
        if not args.depth:
            raise BadUsage("learned mode requires --depth")
        if not (args.params or cfg.params_path):
            raise BadUsage("learned mode requires --params or params_path")
        depth = image_io.load_pgm(_require_file(args.depth, "depth image"))
        params = _load_params(args.params or cfg.params_path)
    proposal = sim.vision_source(args.mode, cfg, params)(rgb, depth, args.t)
    print(proposal.to_json_line())
    if args.overlay:
        cal = CameraCalibration.from_config(cfg)
        overlay = sim.draw_overlay(rgb, cal.to_pixel(proposal.target),
                                   proposal.theta)
        image_io.save_ppm(overlay, args.overlay)
    return 0


def _parse_proposals(lines) -> list[GraspProposal]:
    """JSON-lines proposals; blank lines are skipped, a bad line is BadUsage."""
    props = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            props.append(GraspProposal.from_json_line(line))
        except (ValueError, KeyError, TypeError) as err:
            raise BadUsage(f"malformed proposal line {line!r}: {err}") from err
    return props


def cmd_denoise(args, cfg) -> int:
    if args.now is not None:
        _finite(args.now, "--now")
    proposals = _parse_proposals(sys.stdin)
    if not proposals:
        print("no proposals on stdin", file=sys.stderr)
        return 1
    now = args.now if args.now is not None else max(p.t for p in proposals)
    print(denoise.denoise(proposals, now, cfg.window,
                          cfg.distance_threshold).to_json_line())
    return 0


def _start_pose(args, cfg) -> Pose:
    if args.start:
        vals = _numbers(args.start, "--start", "PX,PY,PZ,YAW")
        return Pose(vals[:3], so3.grasp_orientation(vals[3]))
    return kinematics.fk(sim.arm_for(cfg), sim.HOME_Q)


def cmd_plan(args, cfg) -> int:
    tx, ty = _numbers(args.target, "--target", "X,Y")
    for flag, value in (("--theta", args.theta), ("--grasp-z", args.grasp_z),
                        ("--ti", args.ti), ("--tf", args.tf),
                        ("--rate", args.rate)):
        if value is not None:
            _finite(value, flag)
    if args.rate <= 0:
        raise BadUsage("--rate must be > 0")
    if args.tf <= args.ti:
        raise BadUsage("--tf must be > --ti")
    if not (args.tf - args.ti) * args.rate <= config.MAX_CONTROL_STEPS:
        raise BadUsage(f"(--tf - --ti) * --rate must be <= {config.MAX_CONTROL_STEPS}")
    try:
        proposal = GraspProposal(tx, ty, args.theta, args.ti)
    except ValueError as err:
        raise BadUsage(f"--theta: {err}") from err
    traj = trajectory.plan(_start_pose(args, cfg), proposal,
                           args.grasp_z if args.grasp_z is not None else cfg.grasp_z,
                           args.ti, args.tf)
    lines = ["t,px,py,pz,vx,vy,vz,r11,r12,r13,r21,r22,r23,r31,r32,r33,"
             "wffx,wffy,wffz"]
    ts = trajectory.sample_times(traj, args.rate)
    s = trajectory.sample(traj, ts)
    table = np.column_stack([ts, s.p_d, s.pdot_d, s.R_d.reshape(-1, 9), s.w_ff])
    lines += [",".join(map(repr, row)) for row in table.tolist()]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_simulate(args, cfg) -> int:
    _at_least(args.seed, 0, "--seed")
    if args.batch is not None:
        _at_least(args.batch, 1, "--batch")
    if args.vision == "file":
        if args.batch is not None:
            raise BadUsage("--vision file runs a single episode; batch episodes "
                           "run on generated scenes, so drop --batch")
        if not args.proposals:
            raise BadUsage("--vision file requires --proposals")
        source = _parse_proposals(
            _require_file(args.proposals, "proposals file").read_text().splitlines())
        scene = None
    else:
        params = None
        if args.vision == "learned":
            if not (args.params or cfg.params_path):
                raise BadUsage("learned vision requires --params or params_path")
            params = _load_params(args.params or cfg.params_path)
        if args.batch is not None:
            _, success_rate, good_rate = sim.run_batch(
                cfg, args.batch, args.seed, vision=args.vision, params=params,
                out_dir=args.out)
            print("episodes,success_rate,good_grasp_rate")
            print(f"{args.batch},{success_rate!r},{good_rate!r}")
            return 0
        source = sim.vision_source(args.vision, cfg, params)
        scene = sim.generate_scene(args.seed, cfg, flat=args.flat)
    report = sim.run_episode(cfg, args.seed, sim.arm_for(cfg), source, scene,
                             out_dir=args.out)
    print(json.dumps(sim.report_to_dict(report), sort_keys=True, allow_nan=False))
    return 0


def cmd_train(args, cfg) -> int:
    _at_least(args.epochs, 0, "--epochs")
    _at_least(args.seed, 0, "--seed")
    _finite(args.lr, "--lr")
    if args.lr <= 0:
        raise BadUsage("--lr must be > 0")
    try:
        dataset = learned.load_dataset(_require_file(Path(args.data) / "labels.csv",
                                                     "labels.csv").parent)
    except ValueError as err:
        raise BadUsage(str(err)) from err
    if not dataset:
        print("dataset is empty", file=sys.stderr)
        return 1
    params, losses = learned.train(dataset, args.epochs, args.lr, args.seed,
                                   cfg.batch_size)
    learned.save_params(params, args.out)
    if args.loss_out:
        lines = ["epoch,loss"] + [f"{i},{loss!r}" for i, loss in enumerate(losses)]
        Path(args.loss_out).write_text("\n".join(lines) + "\n")
    # With no epochs the params are the initial ones; report their loss.
    print(repr(losses[-1] if losses else float(learned.training_loss(params, dataset))))
    return 0


def cmd_genscenes(args, cfg) -> int:
    _at_least(args.n, 1, "--n")
    _at_least(args.seed, 0, "--seed")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["id,px,py,theta"]
    for i in range(args.n):
        scene = sim.generate_scene(args.seed + i, cfg, flat=args.flat)
        image_io.save_ppm(scene.rgb, out / f"scene_{i:04d}.ppm")
        image_io.save_pgm(scene.depth, out / f"scene_{i:04d}.pgm")
        if scene.label is not None:
            (px, py), theta = scene.label
            rows.append(f"{i},{float(px)!r},{float(py)!r},{float(theta)!r}")
    (out / "labels.csv").write_text("\n".join(rows) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="baggrasp",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", "-c", help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key")

    p = sub.add_parser("vision", help="one grasp proposal from an image pair")
    common(p)
    p.add_argument("--mode", choices=["classical", "learned"], default="classical")
    p.add_argument("--rgb", required=True)
    p.add_argument("--depth")
    p.add_argument("--params")
    p.add_argument("--overlay")
    p.add_argument("--t", type=float, default=0.0, help="proposal timestamp")
    p.set_defaults(func=cmd_vision)

    p = sub.add_parser("denoise", help="stdin proposal stream -> one proposal")
    common(p)
    p.add_argument("--now", type=float, help="window end (default: newest t)")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("plan", help="sampled trajectory CSV for a target")
    common(p)
    p.add_argument("--target", required=True, metavar="X,Y")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--grasp-z", type=float, dest="grasp_z")
    p.add_argument("--ti", type=float, default=0.0)
    p.add_argument("--tf", type=float, default=5.0)
    p.add_argument("--rate", type=float, default=100.0)
    p.add_argument("--start", metavar="PX,PY,PZ,YAW",
                   help="start pose (default: arm home)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="run one episode or a batch")
    common(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="artifact directory")
    p.add_argument("--batch", type=int, metavar="N")
    p.add_argument("--vision", choices=["classical", "learned", "file"],
                   default="classical")
    p.add_argument("--params")
    p.add_argument("--proposals",
                   help="JSON-lines proposals for --vision file (single episode)")
    p.add_argument("--flat", action="store_true", help="crease-free scene")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the learned vision model")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="params file to write")
    p.add_argument("--loss-out", dest="loss_out", help="per-epoch loss CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("genscenes", help="write a synthetic dataset directory")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--flat", action="store_true")
    p.set_defaults(func=cmd_genscenes)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = _load_cfg(args)
        return args.func(args, cfg)
    except BadUsage as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (image_io.FormatError, kinematics.ArmFileError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except VisionError as err:
        print(f"vision failure: {err}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
