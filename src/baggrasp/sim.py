"""Deterministic kinematic simulator: synthetic ball-in-bag scenes, a
perfect-velocity-tracking plant, and the end-to-end episode runner
(proposal source -> denoise -> plan -> control) with report/trace artifacts.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import classical, denoise, image_io, kinematics, learned, so3, trajectory
from .classical import CameraCalibration, GraspProposal, VisionError, wrap_half_pi
from .config import PipelineConfig
from .image_io import DepthImage, RgbImage

BACKGROUND = (100, 100, 100)
BALL_COLOR = (183, 72, 27)    # same luminance as the background: the ball is
                              # invisible to the edge detector, only to color
CREASE_COLOR = (255, 255, 255)
BASE_DEPTH_MM = 800.0
BALL_BUMP_MM = 40.0

HOME_Q = np.array([0.0, 0.45, 0.0, -1.05, 0.0, 0.6, 0.0])


@dataclass
class CreaseSegment:
    p0: np.ndarray      # (x, y) px
    p1: np.ndarray
    width: float        # px
    elevation: float    # mm

    def __post_init__(self):
        self.p0 = np.asarray(self.p0, dtype=float).reshape(2)
        self.p1 = np.asarray(self.p1, dtype=float).reshape(2)

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.p0 + self.p1)

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.p1 - self.p0))

    @property
    def angle(self) -> float:
        d = self.p1 - self.p0
        return wrap_half_pi(math.atan2(d[1], d[0]))


@dataclass
class Scene:
    rgb: RgbImage
    depth: DepthImage
    ball_center: np.ndarray
    ball_radius: float
    creases: list = field(default_factory=list)
    label: tuple | None = None  # ((x, y) px, theta)


@dataclass
class EpisodeReport:
    proposal: GraspProposal | None
    success: bool
    reason: str
    final_pos_err: float | None
    final_yaw_err: float | None
    proposal_px_err: float | None
    # One (t, ||e_p||, ||e_o||) row per control step.
    series: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    stats: dict = field(default_factory=dict)


def _capsule_dist(xg: np.ndarray, yg: np.ndarray, seg: CreaseSegment) -> np.ndarray:
    d = seg.p1 - seg.p0
    len2 = float(d @ d)
    px = xg - seg.p0[0]
    py = yg - seg.p0[1]
    t = np.clip((px * d[0] + py * d[1]) / len2, 0.0, 1.0)
    return np.hypot(px - t * d[0], py - t * d[1])


def _segments_close(a: CreaseSegment, b: CreaseSegment, min_gap: float) -> bool:
    ta = np.linspace(0.0, 1.0, max(2, int(a.length)))
    tb = np.linspace(0.0, 1.0, max(2, int(b.length)))
    pa = a.p0 + ta[:, None] * (a.p1 - a.p0)
    pb = b.p0 + tb[:, None] * (b.p1 - b.p0)
    dists = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    return bool(dists.min() < min_gap + 0.5 * (a.width + b.width))


def _sample_crease(rng, center, dist: float, length: float, width: int,
                   elevation: float) -> CreaseSegment:
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    beta = alpha + math.pi / 2 + rng.uniform(-0.25, 0.25)
    mid = center + dist * np.array([math.cos(alpha), math.sin(alpha)])
    half = 0.5 * length * np.array([math.cos(beta), math.sin(beta)])
    return CreaseSegment(mid - half, mid + half, width, elevation)


def generate_scene(seed: int, cfg: PipelineConfig, flat: bool = False) -> Scene:
    """Render one synthetic scene, deterministically from the seed.

    The ball sits near the frame center; crease segments are bright raised
    strokes placed around it without touching it or each other. The labeled
    best grasp is the crease whose midpoint distance to the ball center is
    nearest 1.1 radii (the first crease is always generated in that band).
    A flat scene has no creases and no label.
    """
    rng = np.random.default_rng(seed)
    w, h = cfg.scene_width, cfg.scene_height
    center = np.array([rng.uniform(0.42, 0.58) * w, rng.uniform(0.42, 0.58) * h])
    radius = rng.uniform(16.0, 22.0)

    ox, oy, cw, ch = image_io.crop_window(w, h)
    creases: list[CreaseSegment] = []
    if not flat:
        n_creases = int(rng.integers(2, 5))
        for idx in range(n_creases):
            band = (1.5, 1.9) if idx == 0 else (2.6, 3.4)
            for _ in range(200):
                dist = rng.uniform(*band) * radius
                seg = _sample_crease(rng, center, dist,
                                     length=rng.uniform(45.0, 75.0),
                                     width=int(rng.integers(2, 5)),
                                     elevation=rng.uniform(10.0, 20.0))
                if not all(8 <= x < w - 8 and 8 <= y < h - 8  # 8 px margins
                           for x, y in (seg.p0, seg.p1)):
                    continue
                if any(_segments_close(seg, other, 6.0) for other in creases):
                    continue
                if idx == 0:
                    mx, my = seg.midpoint
                    if not (ox + 4 <= mx < ox + cw - 4 and oy + 4 <= my < oy + ch - 4):
                        continue
                creases.append(seg)
                break

    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    rgb = np.empty((h, w, 3), dtype=np.uint8)
    rgb[:] = BACKGROUND
    depth = np.full((h, w), BASE_DEPTH_MM)
    for seg in creases:
        # Depth stays in [512, 1024) mm, where half an ulp is 5.7e-14; a ridge (20 mm
        # at most) falls below it past 8.2 widths, so draw within 8.5 widths + 1 px.
        reach = 8.5 * seg.width + 1.0
        x0, y0 = np.maximum(np.minimum(seg.p0, seg.p1) - reach, 0).astype(int)
        x1, y1 = (np.maximum(seg.p0, seg.p1) + reach + 1).astype(int)
        win = np.s_[y0:y1, x0:x1]
        dist = _capsule_dist(xs[win], ys[win], seg)
        rgb[win][dist <= seg.width / 2.0] = CREASE_COLOR
        depth[win] -= seg.elevation * np.exp(-(dist * dist) / (2.0 * seg.width ** 2))
    ball_dist2 = (xs - center[0]) ** 2 + (ys - center[1]) ** 2
    rgb[ball_dist2 <= radius * radius] = BALL_COLOR
    depth -= BALL_BUMP_MM * np.exp(-ball_dist2 / (2.0 * (0.8 * radius) ** 2))

    label = None
    if creases:
        best = min(
            creases,
            key=lambda s: (abs(np.linalg.norm(s.midpoint - center) - 1.1 * radius),
                           -s.length))
        label = (best.midpoint.copy(), best.angle)
    return Scene(RgbImage(rgb), DepthImage(np.clip(np.round(depth), 0, 65535)
                                           .astype(np.uint16)),
                 center, radius, creases, label)


def add_pixel_noise(rng, rgb: RgbImage, depth: DepthImage,
                    sigma: float) -> tuple[RgbImage, DepthImage]:
    """Per-frame Gaussian pixel noise (intensity levels / millimeters)."""
    if sigma <= 0:
        return rgb, depth
    return _noisy_frame(rng, rgb, depth, sigma, np.empty(depth.pixels.size))


def _noisy_frame(rng, rgb: RgbImage, depth: DepthImage, sigma: float,
                 buf: np.ndarray) -> tuple[RgbImage, DepthImage]:
    """add_pixel_noise for sigma > 0, drawn in runs through the float buffer
    buf: the runs draw numpy normal's values in its order, and sigma * z is
    its 0 + sigma * z once a pixel is added."""
    frame = []
    for image, top in ((rgb, 255), (depth, 65535)):
        src = image.pixels.reshape(-1)
        out = np.empty_like(src)
        for i in range(0, src.size, buf.size):
            run = rng.standard_normal(out=buf[:src.size - i])
            run *= sigma
            run += src[i:i + run.size]
            out[i:i + run.size] = np.clip(np.round(run, out=run), 0, top, out=run)
        frame.append(type(image)(out.reshape(image.pixels.shape)))
    return tuple(frame)


def step_plant(q, qdot_d, dt: float, lower, upper) -> np.ndarray:
    """Perfect velocity tracking: q + qdot_d * dt, clamped to [lower, upper]."""
    return np.minimum(np.maximum(q + qdot_d * dt, lower), upper)


def draw_overlay(rgb: RgbImage, px, theta: float, half_len: float = 18.0) -> RgbImage:
    """Copy of rgb with the grasp marked: cyan angle line under a red dot."""
    out = rgb.pixels.copy()
    cx, cy = float(px[0]), float(px[1])
    s = np.linspace(-half_len, half_len, int(8 * half_len) + 1)
    line = np.round([cx + s * math.cos(theta), cy + s * math.sin(theta)]).astype(int)
    off = np.mgrid[-2:3, -2:3].reshape(2, -1)
    dot = np.round([[cx], [cy]]).astype(int) + off[:, (off * off).sum(0) <= 4]
    for (x, y), color in ((line, (0, 255, 255)), (dot, (255, 0, 0))):
        keep = (0 <= x) & (x < rgb.width) & (0 <= y) & (y < rgb.height)
        out[y[keep], x[keep]] = color
    return RgbImage(out)


def arm_for(cfg: PipelineConfig) -> kinematics.ArmModel:
    """The arm named by cfg.arm_file, or the bundled 7-DOF arm."""
    return kinematics.load_arm(cfg.arm_file or kinematics.default_arm_path())


def vision_source(vision: str, cfg: PipelineConfig, params=None):
    """Frame -> proposal function for an image vision mode, cfg and params
    bound: source(rgb, depth, timestamp) -> GraspProposal or VisionError."""
    if vision == "classical":
        return lambda rgb, depth, t: classical.classical_pipeline(rgb, cfg, t)
    if vision == "learned":
        if params is None:
            raise ValueError("learned vision requires params")
        cal = CameraCalibration.from_config(cfg)

        def learned_source(rgb, depth, t):
            px, theta = learned.predict(params, rgb, depth)
            return classical.pixel_to_workspace(px, theta, cal, t)
        return learned_source
    raise ValueError(f"no image vision mode {vision!r}")


_SAMPLE_BLOCK = 100  # control steps per trajectory.sample call


def _control_times(t_i: float, n_steps: int, cfg: PipelineConfig) -> np.ndarray:
    return t_i + np.arange(n_steps) * (1.0 / cfg.control_rate)


def run_control(arm: kinematics.ArmModel, q0, trajs, cfg: PipelineConfig):
    """Run the PD loop for a stack of episodes over their trajectories plus
    settle time, starting each from q0.

    The trajectories must share t_i and t_f (image vision gives every
    episode the same window end and duration), so one loop steps all of them
    as one joint state Q (B, 7). Every step works episode by episode, so an
    episode's numbers do not depend on what else is in the stack. Returns
    (final Q (B, 7), series (steps, B, 2) of ||e_p||, ||e_o|| per step).
    """
    traj = trajectory.stack(trajs)
    dt = 1.0 / cfg.control_rate
    n_steps = int(round((traj.t_f - traj.t_i + cfg.settle_time) * cfg.control_rate))
    q = np.tile(np.asarray(q0, dtype=float), (len(trajs), 1))
    lower, upper = arm.limits.T.copy()
    errors = np.empty((n_steps, len(trajs), 6))  # e of every step
    times = _control_times(traj.t_i, n_steps, cfg)
    for i in range(n_steps):
        k = i % _SAMPLE_BLOCK
        if k == 0:
            # Trajectories and feedforward come a block of steps at a time:
            # one call's overhead per block, and memory for one block only.
            block = trajectory.sample(traj, times[i:i + _SAMPLE_BLOCK])
            v_ff = kinematics.feedforward(block)
        samp = trajectory.TrajectorySample(block.p_d[k], block.pdot_d[k],
                                           block.R_d[k], block.w_ff[k])
        qdot, errors[i] = kinematics.control_step(
            arm, q, samp, cfg.k_p, cfg.k_d, errors[i - 1] if i else None, dt,
            cfg.damping, cfg.qdot_max, v_ff[k])
        q = step_plant(q, qdot, dt, lower, upper)
    return q, np.stack([np.linalg.norm(errors[..., :3], axis=-1),
                        np.linalg.norm(errors[..., 3:], axis=-1)], axis=-1)


def _yaw_error(R_current, R_target) -> float:
    try:
        return float(np.linalg.norm(so3.log_so3(R_current.T @ R_target)))
    except ValueError:
        return math.pi


def _collect(source, scene: Scene | None, cfg: PipelineConfig, seed: int):
    """The denoiser's proposals from the proposal source: a fixed proposal
    list, or a vision function run on the scene's per-frame noisy images.

    Noisy frames are drawn one ahead on one worker thread, the only one to
    touch the episode's rng, in frame order: they are add_pixel_noise's bit
    for bit, and no draw outlives the call. The source runs on the calling
    thread. Noise-free frames differ only in their timestamps, so the source
    runs on the first and its proposal is restamped for the rest.

    Returns (proposals, window end, frames attempted, last vision error).
    """
    if not callable(source):
        return list(source), max((p.t for p in source), default=cfg.window), 0, ""
    n_frames = int(round(cfg.window * cfg.frame_rate))
    rng = np.random.default_rng([seed, 1])
    buf = np.empty(scene.depth.pixels.size)
    if noisy := cfg.noise_sigma > 0:  # imported here: noise-free runs never load it
        from concurrent.futures import ThreadPoolExecutor
    proposals, last_error, prop = [], "", None
    # The worker starts at the first submit; leaving the block waits for it.
    with ThreadPoolExecutor(max_workers=1) if noisy else nullcontext() as pool:
        def draw():
            return pool.submit(_noisy_frame, rng, scene.rgb, scene.depth,
                               cfg.noise_sigma, buf)
        ahead = draw() if noisy and n_frames else None
        for k in range(n_frames):
            t = k / cfg.frame_rate
            if k == 0 or noisy:
                rgb, depth = ahead.result() if noisy else (scene.rgb, scene.depth)
                ahead = draw() if noisy and k + 1 < n_frames else None
                try:
                    prop = source(rgb, depth, t)
                except VisionError as err:
                    prop, last_error = None, str(err)
            if prop is not None:
                proposals.append(replace(prop, t=t))
    return proposals, cfg.window, n_frames, last_error


def _plan_episode(cfg: PipelineConfig, seed: int, start: so3.Pose, source,
                  scene: Scene | None):
    """Collect, denoise and plan one episode. Returns (report, trajectory);
    the trajectory is None when the episode failed here, and then the
    report is final."""
    proposals, now, frames, vision_error = _collect(source, scene, cfg, seed)
    stats = {"frames_attempted": frames,
             "proposals_collected": len(proposals),
             "control_steps": 0}
    if not proposals:
        reason = vision_error or "vision produced no proposals"
        return EpisodeReport(None, False, reason, None, None, None, stats=stats), None
    final_prop = denoise.denoise(proposals, now, cfg.window, cfg.distance_threshold)
    try:
        traj = trajectory.plan(start, final_prop, cfg.grasp_z,
                               now, now + cfg.duration)
    except ValueError as err:
        return EpisodeReport(final_prop, False, f"planning failed: {err}",
                             None, None, None, stats=stats), None
    px_err = None
    if scene is not None and scene.label is not None:
        cal = CameraCalibration.from_config(cfg)
        px_err = float(np.linalg.norm(cal.to_pixel(final_prop.target)
                                      - scene.label[0]))
    return EpisodeReport(final_prop, False, "", None, None, px_err, stats=stats), traj


def _score(cfg: PipelineConfig, report: EpisodeReport, traj, pose: so3.Pose,
           series: np.ndarray) -> None:
    """Fill in a controlled episode's report from its final pose and
    (steps, 2) series."""
    prop = report.proposal
    pos_err = float(np.linalg.norm(pose.p - np.array([prop.x, prop.y, cfg.grasp_z])))
    yaw_err = _yaw_error(pose.R, so3.grasp_orientation(prop.theta))
    report.final_pos_err, report.final_yaw_err = pos_err, yaw_err
    report.success = pos_err < cfg.pos_tol and yaw_err < cfg.ang_tol
    report.reason = "" if report.success else "tracking tolerance not met"
    report.series = np.column_stack([_control_times(traj.t_i, len(series), cfg),
                                     series])
    report.stats["control_steps"] = len(series)


def _run_episodes(cfg: PipelineConfig, arm: kinematics.ArmModel,
                  episodes) -> list[EpisodeReport]:
    """Run episodes given as (seed, source, scene, out_dir) in three phases:
    each is collected, denoised and planned in turn; the planned ones then
    share one run_control loop and are scored; last, every episode's
    artifacts are written, in index order."""
    start = kinematics.fk(arm, HOME_Q)
    reports, trajs, outputs = [], [], []
    for seed, source, scene, out_dir in episodes:
        report, traj = _plan_episode(cfg, seed, start, source, scene)
        reports.append(report)
        trajs.append(traj)
        if out_dir is not None:  # only the images overlays need are kept
            outputs.append((report, out_dir, scene.rgb if scene is not None else None))
    planned = [i for i, traj in enumerate(trajs) if traj is not None]
    if planned:
        q, series = run_control(arm, HOME_Q, [trajs[i] for i in planned], cfg)
        poses = kinematics.fk(arm, q)
        for k, i in enumerate(planned):
            _score(cfg, reports[i], trajs[i], so3.Pose(poses.p[k], poses.R[k]),
                   series[:, k])
    for report, out_dir, rgb in outputs:
        write_episode_artifacts(report, cfg, out_dir, rgb)
    return reports


def run_episode(cfg: PipelineConfig, seed: int, arm: kinematics.ArmModel,
                source, scene: Scene | None = None, out_dir=None) -> EpisodeReport:
    """One full episode: collect proposals, denoise, plan, track, score.

    source is a list of proposals, or a vision function from
    vision_source() that runs on the scene's frames. Success means the final
    position error is under pos_tol and the final yaw error under ang_tol.
    All randomness comes from the seed; reports are bit-identical across runs
    and equal to the same episode's report from run_batch.
    """
    return _run_episodes(cfg, arm, [(seed, source, scene, out_dir)])[0]


def report_to_dict(report: EpisodeReport) -> dict:
    prop = None if report.proposal is None else asdict(report.proposal)
    return {f.name: getattr(report, f.name) for f in fields(report)
            if f.name != "series"} | {"proposal": prop, "stats": dict(report.stats)}


def write_episode_artifacts(report: EpisodeReport, cfg: PipelineConfig,
                            out_dir, rgb: RgbImage | None) -> None:
    """report.json + trace.csv (+ overlay.ppm when an image is available)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report_to_dict(report), indent=2, sort_keys=True,
                   allow_nan=False) + "\n")
    lines = ["t,pos_err,rot_err"]
    lines += [f"{t!r},{pe!r},{re_!r}" for t, pe, re_ in report.series.tolist()]
    (out / "trace.csv").write_text("\n".join(lines) + "\n")
    if rgb is not None:
        if (prop := report.proposal) is not None:
            cal = CameraCalibration.from_config(cfg)
            rgb = draw_overlay(rgb, cal.to_pixel(prop.target), prop.theta)
        image_io.save_ppm(rgb, out / "overlay.ppm")


SUMMARY_HEADER = "episode,success,pos_err,yaw_err,proposal_px_err"


def _fmt(value) -> str:
    return "nan" if value is None else repr(value)


def run_batch(cfg: PipelineConfig, n: int, seed: int, vision: str = "classical",
              params=None, out_dir=None):
    """n seeded episodes on generated scenes; returns (rows, success_rate,
    good_grasp_rate) and writes summary.csv when out_dir is given."""
    arm = arm_for(cfg)
    source = vision_source(vision, cfg, params)
    # Scenes are made one at a time as the episodes are planned.
    episodes = ((seed + i, source, generate_scene(seed + i, cfg),
                 Path(out_dir) / f"episode_{i:03d}" if out_dir is not None else None)
                for i in range(n))
    rows = [{"episode": i,
             "success": report.success,
             "pos_err": report.final_pos_err,
             "yaw_err": report.final_yaw_err,
             "proposal_px_err": report.proposal_px_err}
            for i, report in enumerate(_run_episodes(cfg, arm, episodes))]
    success_rate = float(np.mean([r["success"] for r in rows])) if rows else 0.0
    good = [r["proposal_px_err"] is not None
            and r["proposal_px_err"] <= cfg.good_grasp_px for r in rows]
    good_rate = float(np.mean(good)) if rows else 0.0
    if out_dir is not None:
        lines = [SUMMARY_HEADER]
        lines += [f"{r['episode']},{int(r['success'])},{_fmt(r['pos_err'])},"
                  f"{_fmt(r['yaw_err'])},{_fmt(r['proposal_px_err'])}"
                  for r in rows]
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "summary.csv").write_text("\n".join(lines) + "\n")
    return rows, success_rate, good_rate
