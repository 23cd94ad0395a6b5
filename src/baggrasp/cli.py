"""Command-line entry point: one binary, one subcommand per pipeline stage.

Stages compose through files and pipes; stdout carries only machine-readable
payload (JSON lines or CSV) and diagnostics go to stderr. Exit codes: 0 ok,
1 runtime failure, 2 bad arguments or malformed input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import config, denoise, image_io, kinematics, learned, sim, so3, trajectory
from .classical import GraspProposal, VisionError, workspace_to_pixel
from .config import InputError
# Kept as a cli attribute: perfbench's tracer test checks that this alias
# of a traced function is wrapped and restored.
from .classical import classical_pipeline  # noqa: F401
from .so3 import Pose


def _load_cfg(args) -> config.PipelineConfig:
    cfg = config.load_config(args.config) if args.config else config.PipelineConfig()
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise InputError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        overrides[key.strip()] = val
    return config.apply_overrides(cfg, overrides)


def _learned_params(args) -> dict:
    if not args.params:
        raise InputError("learned vision requires --params")
    return learned.load_params(args.params)


# argparse types: each declares a flag's domain, so a bad value exits 2
# naming the flag before any work is done.
def _checked(convert, test, domain: str, name: str = ""):
    """An argparse type: convert the text (argparse reports a ValueError as
    an invalid `name` value), then require test(value)."""
    def parse(text: str):
        value = convert(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"expected {domain}, got {text!r}")
        return value
    parse.__name__ = name or convert.__name__
    return parse


_GRASP_Z = _checked(float, lambda v: abs(v) <= config.WORKSPACE_LIMIT,
                    f"a height within +-{config.WORKSPACE_LIMIT} m")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_TIME = _checked(float, lambda v: abs(v) <= config.MAX_TIMESTAMP,
                 f"a time within +-{config.MAX_TIMESTAMP:g} s")
_JAW_ANGLE = _checked(float, lambda v: -math.pi / 2 < v <= math.pi / 2,
                      "an angle in (-pi/2, pi/2]")


def _int_at_least(low: int):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


def _numbers(form: str):
    """Comma-separated numbers shaped like form (e.g. X,Y), each within the
    workspace limit."""
    return _checked(lambda text: [float(v) for v in text.split(",")],
                    lambda vals: len(vals) == form.count(",") + 1 and all(
                        abs(v) <= config.WORKSPACE_LIMIT for v in vals),
                    f"{form} within +-{config.WORKSPACE_LIMIT}", form)


def _unread(args, mode: str, *names) -> None:
    """Reject any of the named flags given with a mode that never reads it."""
    if name := next((n for n in names if getattr(args, n)), None):
        raise InputError(f"--{name} is not read with {mode}; drop it")


def cmd_vision(args, cfg) -> int:
    if args.mode == "classical":
        _unread(args, "--mode classical", "depth", "params")
    rgb = image_io.load_ppm(args.rgb)
    depth = params = None
    if args.mode == "learned":
        if not args.depth:
            raise InputError("learned mode requires --depth")
        params = _learned_params(args)
        depth = image_io.load_pgm(args.depth)
    try:
        proposal = sim.vision_source(args.mode, cfg, params)(rgb, depth)
    except InputError as err:  # the pair's sizes
        raise InputError(f"{args.rgb}, {args.depth}: {err}") from err
    proposal = dataclasses.replace(proposal, t=args.t)
    print(proposal.to_json_line())
    if args.overlay:
        overlay = sim.draw_overlay(rgb, workspace_to_pixel(proposal.target, cfg),
                                   proposal.theta)
        image_io.save_ppm(overlay, args.overlay)
    return 0


def _parse_proposals(lines, source: str) -> list[GraspProposal]:
    """JSON-lines proposals; blank lines are skipped, and a bad line is an
    InputError naming source:line."""
    return [GraspProposal.from_json_line(line, f"{source}:{lineno}")
            for lineno, line in enumerate(lines, 1) if line.strip()]


def cmd_denoise(args, cfg) -> int:
    proposals = _parse_proposals(sys.stdin, "<stdin>")
    if not proposals:
        raise InputError("<stdin>: no proposals")
    now = args.now if args.now is not None else max(p.t for p in proposals)
    print(denoise.denoise(proposals, now, cfg.window,
                          cfg.distance_threshold).to_json_line())
    return 0


def _start_pose(args, cfg) -> Pose:
    if args.start:
        return Pose(args.start[:3], so3.grasp_orientation(args.start[3]))
    return kinematics.fk(sim.arm_for(cfg), sim.HOME_Q)


def cmd_plan(args, cfg) -> int:
    if args.tf <= args.ti:
        raise InputError("--tf must be > --ti")
    if not (args.tf - args.ti) * args.rate <= config.MAX_CONTROL_STEPS:
        raise InputError(f"(--tf - --ti) * --rate must be <= {config.MAX_CONTROL_STEPS}")
    start = _start_pose(args, cfg)
    p_f = (*args.target, args.grasp_z if args.grasp_z is not None else cfg.grasp_z)
    try:
        traj = trajectory.plan(start, p_f, args.theta, args.ti, args.tf)
    except ValueError as err:  # each flag is valid alone; the pair is not
        raise InputError(f"--start, --theta: {err}") from err
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
    _unread(args, f"--vision {args.vision}", *{  # the flags each mode never reads
        "classical": ("params", "proposals"), "learned": ("proposals",),
        "file": ("params", "flat")}[args.vision])
    if args.batch is not None:
        _unread(args, "--batch", "flat")
    if args.vision != "file" and args.seed is None:
        raise InputError(f"--vision {args.vision} requires --seed")
    if args.vision == "file":
        if args.batch is not None:
            raise InputError("--vision file runs a single episode; batch episodes "
                             "run on generated scenes, so drop --batch")
        if not args.proposals:
            raise InputError("--vision file requires --proposals")
        source = _parse_proposals(config.read_text(
            args.proposals, "proposals file").splitlines(), args.proposals)
        if not source:
            raise InputError(f"{args.proposals}: no proposals in the file")
        scene = None
    else:
        params = _learned_params(args) if args.vision == "learned" else None
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
    dataset = learned.load_dataset(args.data)
    if not dataset:
        raise InputError(f"{args.data}: dataset is empty (no label inside the crop)")
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
    p.add_argument("--t", type=_TIME, default=0.0, help="proposal timestamp")
    p.set_defaults(func=cmd_vision)

    p = sub.add_parser("denoise", help="stdin proposal stream -> one proposal")
    common(p)
    p.add_argument("--now", type=_TIME, help="window end (default: newest t)")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("plan", help="sampled trajectory CSV for a target")
    common(p)
    p.add_argument("--target", type=_numbers("X,Y"), required=True, metavar="X,Y")
    p.add_argument("--theta", type=_JAW_ANGLE, default=0.0)
    p.add_argument("--grasp-z", type=_GRASP_Z, dest="grasp_z")
    p.add_argument("--ti", type=_TIME, default=0.0)
    p.add_argument("--tf", type=_TIME, default=5.0)
    p.add_argument("--rate", type=_POSITIVE, default=100.0)
    p.add_argument("--start", type=_numbers("PX,PY,PZ,YAW"), metavar="PX,PY,PZ,YAW",
                   help="start pose (default: arm home)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="run one episode or a batch")
    common(p)
    p.add_argument("--seed", type=_int_at_least(0))  # file mode reads none
    p.add_argument("--out", help="artifact directory")
    p.add_argument("--batch", type=_int_at_least(1), metavar="N")
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
    p.add_argument("--epochs", type=_int_at_least(0), default=50)
    p.add_argument("--lr", type=_POSITIVE, default=1e-3)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True, help="params file to write")
    p.add_argument("--loss-out", dest="loss_out", help="per-epoch loss CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("genscenes", help="write a synthetic dataset directory")
    common(p)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--flat", action="store_true")
    p.set_defaults(func=cmd_genscenes)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse takes "-1e-3" for an option; no option starts with a digit: pass --opt=-1e-3.
    words: list[str] = []
    for word in sys.argv[1:] if argv is None else argv:
        joins = words and words[-1][:1] == "-" and "=" not in words[-1]
        words.append(f"{words.pop()}={word}" if joins and re.match(r"-\.?\d", word) else word)
    try:
        args = parser.parse_args(words)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = _load_cfg(args)
        return args.func(args, cfg)
    except InputError as err:
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
