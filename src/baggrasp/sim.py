"""Deterministic kinematic simulator: synthetic ball-in-bag scenes, a
perfect-velocity-tracking plant, and the end-to-end episode runner
(proposal source -> denoise -> plan -> control) with report/trace artifacts.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pickle
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import classical, denoise, image_io, kinematics, learned, so3, trajectory
from .classical import GraspProposal, VisionError, workspace_to_pixel, wrap_half_pi
from .config import PipelineConfig

BACKGROUND = (100, 100, 100)
BALL_COLOR = (183, 72, 27)    # same luminance as the background: the ball is
                              # invisible to the edge detector, only to color
CREASE_COLOR = (255, 255, 255)
BASE_DEPTH_MM = 800.0
BALL_BUMP_MM = 40.0
OVERLAY_HALF_LEN = 18.0  # px, half the length of the overlay's angle line

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
    rgb: np.ndarray     # uint8 (h, w, 3)
    depth: np.ndarray   # uint16 (h, w), mm
    ball_center: np.ndarray
    ball_radius: float
    creases: list = field(default_factory=list)
    label: tuple | None = None  # ((x, y) px, theta)


@dataclass
class EpisodeReport:
    proposal: GraspProposal | None
    success: bool
    reason: str
    final_pos_err: float | None = None
    final_yaw_err: float | None = None
    proposal_px_err: float | None = None
    # |wrap_half_pi(theta - label theta)|, rad; None without a label.
    proposal_theta_err: float | None = None
    # One (t, ||e_p||, ||e_o||) row per control step.
    series: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    stats: dict = field(default_factory=dict)


def _capsule_dist(x: np.ndarray, y: np.ndarray, seg: CreaseSegment) -> np.ndarray:
    """Distance to the segment from the points (x, y), broadcast together."""
    d = seg.p1 - seg.p0
    px, py = x - seg.p0[0], y - seg.p0[1]
    t = px * d[0] + py * d[1]
    np.clip(np.divide(t, float(d @ d), out=t), 0.0, 1.0, out=t)
    ex = px - t * d[0]
    return np.hypot(ex, np.subtract(py, np.multiply(t, d[1], out=t), out=t), out=ex)


def _segments_close(a: CreaseSegment, b: CreaseSegment, min_gap: float) -> bool:
    reach = min_gap + 0.5 * (a.width + b.width)
    # Boxes apart by reach + 1 px on an axis (1 px covers the sampled points'
    # rounding) hold no sampled pair closer than reach.
    gap = np.maximum(np.minimum(a.p0, a.p1) - np.maximum(b.p0, b.p1),
                     np.minimum(b.p0, b.p1) - np.maximum(a.p0, a.p1))
    if gap.max() >= reach + 1.0:
        return False
    pa, pb = (s.p0 + np.linspace(0.0, 1.0, max(2, int(s.length)))[:, None]
              * (s.p1 - s.p0) for s in (a, b))
    # The least norm sqrt(dx * dx + dy * dy), bit for bit: sqrt is monotonic.
    dx, dy = pa[:, :1] - pb[:, 0], pa[:, 1:] - pb[:, 1]
    return math.sqrt((dx * dx + dy * dy).min()) < reach


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
    strokes placed around it without touching it or each other. The label is
    the crease whose midpoint is nearest 1.1 radii from the ball center: the
    first is placed 1.5-1.9 radii out and the rest 2.6-3.4, so whenever the
    first crease exists, it is the label. A flat scene has no creases and no label.
    """
    rng = np.random.default_rng(seed)
    w, h = cfg.scene_width, cfg.scene_height
    center = np.array([rng.uniform(0.42, 0.58) * w, rng.uniform(0.42, 0.58) * h])
    radius = rng.uniform(16.0, 22.0)

    ox, oy, cw, ch = image_io.crop_window(w, h)
    creases: list[CreaseSegment] = []
    # A crease is >= 45 px long, both ends in [8, w - 8) x [8, h - 8); where none
    # fits (1 px spare), skip its 200 tries: nothing after this draws from rng.
    if not flat and min(w, h) > 16 and math.hypot(w - 16, h - 16) > 44:
        for idx in range(int(rng.integers(2, 5))):
            band = (1.5, 1.9) if idx == 0 else (2.6, 3.4)
            for _ in range(200):
                seg = _sample_crease(rng, center, rng.uniform(*band) * radius,
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

    y, x = np.ogrid[:h, :w]  # an (h, 1) column and a (1, w) row, broadcast
    rgb = np.empty((h, w, 3), dtype=np.uint8)
    rgb[:1] = BACKGROUND  # one row, copied down: numpy repeats 3 values slowly
    rgb[1:] = rgb[:1]
    pixels = rgb.view("V3")[..., 0]  # (h, w) items of 3 bytes: fast masked writes
    crease_px, ball_px = np.array([CREASE_COLOR, BALL_COLOR], np.uint8).view("V3")
    depth = np.full((h, w), BASE_DEPTH_MM)
    for seg in creases:
        # Depth stays in [512, 1024) mm, where half an ulp is 5.7e-14; a ridge (20 mm
        # at most) falls below it past 8.2 widths, so draw within 8.5 widths + 1 px.
        reach = 8.5 * seg.width + 1.0
        x0, y0 = np.maximum(np.minimum(seg.p0, seg.p1) - reach, 0).astype(int)
        x1, y1 = (np.maximum(seg.p0, seg.p1) + reach + 1).astype(int)
        win = np.s_[y0:y1, x0:x1]
        dist = _capsule_dist(x[:, x0:x1], y[y0:y1], seg)
        pixels[win][dist <= seg.width / 2.0] = crease_px
        depth[win] -= seg.elevation * np.exp(-(dist * dist) / (2.0 * seg.width ** 2))
    d2 = (x - center[0]) ** 2 + (y - center[1]) ** 2  # to the ball center
    pixels[d2 <= radius * radius] = ball_px
    np.divide(np.negative(d2, out=d2), 2.0 * (0.8 * radius) ** 2, out=d2)  # in place
    depth -= np.multiply(np.exp(d2, out=d2), BALL_BUMP_MM, out=d2)
    np.clip(np.round(depth, out=depth), 0, 65535, out=depth)

    label = None
    if creases:
        best = min(creases, key=lambda s: (
            abs(np.linalg.norm(s.midpoint - center) - 1.1 * radius), -s.length))
        label = (best.midpoint.copy(), best.angle)
    return Scene(rgb, depth.astype(np.uint16), center, radius, creases, label)


def _noisy_frame(rng, rgb: np.ndarray, depth: np.ndarray, sigma: float,
                 buf: np.ndarray, out) -> tuple[np.ndarray, np.ndarray]:
    """One frame's per-pixel Gaussian noise of sigma > 0 (levels, mm), into
    out, the (rgb, depth) pair of arrays it returns, bit for bit a float copy
    plus rng.normal(0, sigma), rounded, clipped and cast: runs through the
    float buffer buf draw numpy normal's values in its order, and sigma * z
    is its 0 + sigma * z once a pixel is added."""
    for image, top, pixels in zip((rgb, depth), (255, 65535), out):
        src, dst = image.reshape(-1), pixels.reshape(-1)
        for i in range(0, src.size, buf.size):
            run = rng.standard_normal(out=buf[:src.size - i])
            run *= sigma
            run += src[i:i + run.size]
            dst[i:i + run.size] = np.clip(np.round(run, out=run), 0, top, out=run)
    return out


def draw_overlay(rgb: np.ndarray, px, theta: float) -> np.ndarray:
    """Copy of the RGB image with the grasp marked: cyan angle line under a red dot."""
    out = rgb.copy()
    cx, cy = float(px[0]), float(px[1])
    s = np.linspace(-OVERLAY_HALF_LEN, OVERLAY_HALF_LEN, int(8 * OVERLAY_HALF_LEN) + 1)
    line = np.round([cx + s * math.cos(theta), cy + s * math.sin(theta)]).astype(int)
    off = np.mgrid[-2:3, -2:3].reshape(2, -1)
    dot = np.round([[cx], [cy]]).astype(int) + off[:, (off * off).sum(0) <= 4]
    for (x, y), color in ((line, (0, 255, 255)), (dot, (255, 0, 0))):
        keep = (0 <= x) & (x < rgb.shape[1]) & (0 <= y) & (y < rgb.shape[0])
        out[y[keep], x[keep]] = color
    return out


def arm_for(cfg: PipelineConfig) -> kinematics.ArmModel:
    """The arm named by cfg.arm_file, or the bundled 7-DOF arm."""
    return kinematics.load_arm(cfg.arm_file or kinematics.default_arm_path())


def vision_source(vision: str, cfg: PipelineConfig, params=None):
    """Frame -> proposal function for an image vision mode, cfg and params
    bound: source(rgb, depth, ws=None) -> GraspProposal at t = 0, or
    VisionError; ws, a frame workspace, serves the classical source only."""
    if vision == "classical":
        return lambda rgb, depth, ws=None: classical.classical_pipeline(rgb, cfg, ws)
    if vision == "learned":
        if params is None:
            raise ValueError("learned vision requires params")
        return lambda rgb, depth, ws=None: classical.pixel_to_workspace(
            *learned.predict(params, rgb, depth), cfg)
    raise ValueError(f"no image vision mode {vision!r}")


_SAMPLE_BLOCK = 100  # control steps per trajectory.sample call


def run_control(arm: kinematics.ArmModel, q0, trajs, cfg: PipelineConfig):
    """Run the workspace PD law for a stack of episodes over their
    trajectories plus settle time, starting each from q0: qdot = J^T (J J^T +
    damping^2 I)^-1 u within +-qdot_max, u = -k_p e - k_d edot + v_ff, for
    e = [p - p_d; e_o] (e_o the cross-product orientation error) and edot its
    backward difference (0 at first); the plant moves q to q + qdot dt within
    the joint limits.

    The trajectories must share t_i and t_f (image vision gives every
    episode the same window end and duration), so one loop steps them as one
    joint state Q (B, 7) on one kinematics.Chain. Each step works episode by
    episode: an episode's numbers do not depend on the rest of the stack.
    Returns (final Q (B, 7), step times (steps,), series (steps, B, 2) of
    ||e_p||, ||e_o|| per step).
    """
    traj = trajectory.stack(trajs)
    dt = 1.0 / cfg.control_rate
    n_steps = int(round((traj.t_f - traj.t_i + cfg.settle_time) * cfg.control_rate))
    q = np.tile(np.asarray(q0, dtype=float), (len(trajs), 1))
    lower, upper = np.repeat(arm.limits.T[:, None], len(trajs), axis=1)  # (B, 7): no broadcast
    chain = kinematics.Chain(arm, q.shape[:-1])
    orientation_error = so3.rotation_error_into(q.shape[:-1])
    errors = np.empty((n_steps, len(trajs), 6))  # e of every step
    e_p, e_o = errors[..., :3], errors[..., 3:]
    edot, u, kd_edot = np.zeros((3, len(trajs), 6))  # u = -k_p e - kd_edot + v_ff
    # Scalars as 0-d arrays: ufuncs take them faster than floats, with the same values.
    step, neg_k_p, k_d, v_min, v_max = map(
        np.array, (dt, -cfg.k_p, cfg.k_d, -cfg.qdot_max, cfg.qdot_max))
    times = traj.t_i + np.arange(n_steps) * dt
    settled = False
    for i, e, e_p_i, e_o_i in zip(range(n_steps), errors, e_p, e_o):
        if i % _SAMPLE_BLOCK == 0 and not settled:
            # Trajectories and feedforward come a block of steps at a time:
            # one call's overhead per block, and memory for one block only.
            # From t_f on, tau clamps to 1: one sampled pose serves every step.
            settled = times[i] >= traj.t_f
            block = trajectory.sample(traj, times[i:i + (1 if settled else _SAMPLE_BLOCK)])
            rows = zip(block.p_d, block.R_d.swapaxes(-1, -2), trajectory.feedforward(block))
            if settled:
                rows = itertools.repeat(next(rows))
        p_d, R_dT, v_ff = next(rows)
        chain.update(q)
        np.subtract(chain.pose.p, p_d, out=e_p_i)
        orientation_error(R_dT, chain.pose.R, e_o_i)
        if i:
            np.divide(np.subtract(e, errors[i - 1], out=edot), step, out=edot)
        np.multiply(neg_k_p, e, out=u)
        np.subtract(u, np.multiply(k_d, edot, out=kd_edot), out=u)
        qdot = chain.dls(cfg.damping, np.add(u, v_ff, out=u))
        np.minimum(np.maximum(qdot, v_min, out=qdot), v_max, out=qdot)
        q += np.multiply(qdot, step, out=qdot)
        np.minimum(np.maximum(q, lower, out=q), upper, out=q)
    return q, times, np.stack([np.linalg.norm(e_p, axis=-1),
                               np.linalg.norm(e_o, axis=-1)], axis=-1)


def _yaw_error(R_current, R_target) -> float:
    try:
        return float(np.linalg.norm(so3.log_so3(R_current.T @ R_target)))
    except ValueError:
        return math.pi


class _Draws:
    """A run's frames for _collect. Where os.fork exists, one child process,
    forked at the run's first noisy collect and reaped by close(), draws
    every noisy frame: each collect writes its scene (one shape a run) into
    a shared anonymous mmap and sends its rng, and the child draws frame k
    into slot k % 2 of a ring there while the caller reads frame k - 1. One
    pipe carries a byte per frame drawn (or a failed draw's pickled
    exception), the other the request and a byte per slot freed; EOF on it
    lets the child out. A collect that stops early closes its _Draws."""

    child = None  # (pid, ready_r, free_r, free_w, rgb, depth): scene at 0, ring at 1 and 2

    def frames(self, rng, scene: Scene, sigma: float, n_frames: int):
        """The scene's own (rgb, depth) once for sigma 0, else n_frames
        frames of _noisy_frame's noise from rng in frame order."""
        if sigma == 0:
            yield scene.rgb, scene.depth
        elif not hasattr(os, "fork"):  # inline, on the calling thread
            buf = np.empty(scene.depth.size)
            out = (np.empty_like(scene.rgb), np.empty_like(scene.depth))
            for _ in range(n_frames):
                yield _noisy_frame(rng, scene.rgb, scene.depth, sigma, buf, out)
        else:
            pid, ready_r, _, free_w, rgb, depth = self.child or self._fork(scene)
            rgb[0], depth[0] = scene.rgb, scene.depth
            try:  # the caller's free_r stays open: writing free_w never raises EPIPE
                os.write(free_w, pickle.dumps((rng, sigma, n_frames)))
                for k in range(n_frames):
                    if (head := os.read(ready_r, 1)) != b"\0":  # the child has exited
                        error = head + b"".join(iter(lambda: os.read(ready_r, 1 << 16), b""))
                        status = self.close()
                        raise pickle.loads(error) if error else RuntimeError(
                            f"the draw of frame {k} gave no frame: wait status {status}")
                    yield rgb[1 + k % 2], depth[1 + k % 2]
                    if k + 2 < n_frames:
                        os.write(free_w, b"\0")
            except BaseException:  # GeneratorExit too: the child is mid-collect
                self.close()
                raise

    def _fork(self, scene: Scene):
        import mmap  # here: noise-free runs never load its shared library
        rgb, depth = (np.frombuffer(mmap.mmap(-1, 3 * a.nbytes), a.dtype).reshape(3, *a.shape)
                      for a in (scene.rgb, scene.depth))
        (ready_r, ready_w), (free_r, free_w) = os.pipe(), os.pipe()
        if (pid := os.fork()) == 0:  # the child: draw each request's frames
            try:  # it holds only its own pipe ends, so EOF means the caller has gone
                lo, hi = sorted((ready_w, free_r))
                for a, b in ((3, lo), (lo + 1, hi), (hi + 1, os.sysconf("SC_OPEN_MAX"))):
                    os.closerange(a, b)
                buf = np.empty(scene.depth.size)
                while request := os.read(free_r, 4096):
                    rng, sigma, n_frames = pickle.loads(request)
                    for k in range(n_frames):
                        if k >= 2 and not os.read(free_r, 1):
                            break  # EOF: the caller stopped before freeing frame k - 2
                        _noisy_frame(rng, rgb[0], depth[0], sigma, buf,
                                     (rgb[1 + k % 2], depth[1 + k % 2]))
                        os.write(ready_w, b"\0")
                os._exit(0)
            except Exception as err:
                os.write(ready_w, pickle.dumps(err))
            finally:
                os._exit(1)
        os.close(ready_w)  # the child's is then the only one: EOF when it exits
        self.child = (pid, ready_r, free_r, free_w, rgb, depth)
        return self.child

    def close(self):
        """Close the caller's pipe ends and reap the child: its wait status."""
        if self.child is not None:
            (pid, *fds, _, _), self.child = self.child, None
            for fd in fds:
                os.close(fd)
            return os.waitpid(pid, 0)[1]


def _collect(source, scene: Scene | None, cfg: PipelineConfig, seed: int, draws: _Draws):
    """The denoiser's proposals from the proposal source: a fixed proposal
    list, or a vision function run on the scene's frames from draws, the
    run's _Draws.

    Frame state is freed on return: the image_io.Workspace that every
    source(rgb, depth, ws) call gets, so a frame is valid until the source
    returns. The source runs in the calling process and thread; each
    proposal is stamped here with its frame's time, so the proposal from
    the one noise-free frame serves them all.

    Returns (proposals, window end, frames attempted, last vision error).
    """
    if not callable(source):
        return list(source), max((p.t for p in source), default=cfg.window), 0, ""
    n_frames = int(round(cfg.window * cfg.frame_rate))
    rng = np.random.default_rng([seed, 1])
    ws = image_io.Workspace(*scene.depth.shape)
    props, last_error = [], ""
    with closing(draws.frames(rng, scene, cfg.noise_sigma, n_frames)) as frames:
        for rgb, depth in frames:
            try:
                props.append(source(rgb, depth, ws))
            except VisionError as err:
                props.append(None)
                last_error = str(err)
    props += props[-1:] * (n_frames - len(props))
    proposals = [replace(prop, t=k / cfg.frame_rate)
                 for k, prop in enumerate(props) if prop is not None]
    return proposals, cfg.window, n_frames, last_error


def _plan_episode(cfg: PipelineConfig, seed: int, start: so3.Pose, source,
                  scene: Scene | None, draws: _Draws):
    """Collect, with the run's draws, denoise and plan one episode. Returns
    (report, trajectory); the trajectory is None when the episode failed
    here, and then the report is final."""
    proposals, now, frames, vision_error = _collect(source, scene, cfg, seed, draws)
    stats = {"frames_attempted": frames,
             "proposals_collected": len(proposals),
             "control_steps": 0}
    if not proposals:
        reason = vision_error or "vision produced no proposals"
        return EpisodeReport(None, False, reason, stats=stats), None
    final_prop = denoise.denoise(proposals, now, cfg.window, cfg.distance_threshold)
    try:
        traj = trajectory.plan(start, (final_prop.x, final_prop.y, cfg.grasp_z),
                               final_prop.theta, now, now + cfg.duration)
    except ValueError as err:
        return EpisodeReport(final_prop, False, f"planning failed: {err}",
                             stats=stats), None
    px_err = theta_err = None
    if scene is not None and scene.label is not None:
        px_err = float(np.linalg.norm(workspace_to_pixel(final_prop.target, cfg)
                                      - scene.label[0]))
        theta_err = abs(wrap_half_pi(final_prop.theta - scene.label[1]))
    return EpisodeReport(final_prop, False, "", proposal_px_err=px_err,
                         proposal_theta_err=theta_err, stats=stats), traj


def _score(cfg: PipelineConfig, report: EpisodeReport, pose: so3.Pose,
           times: np.ndarray, series: np.ndarray) -> None:
    """Fill in a controlled episode's report from its final pose, step times
    and (steps, 2) series."""
    prop = report.proposal
    pos_err = float(np.linalg.norm(pose.p - np.array([prop.x, prop.y, cfg.grasp_z])))
    yaw_err = _yaw_error(pose.R, so3.grasp_orientation(prop.theta))
    report.final_pos_err, report.final_yaw_err = pos_err, yaw_err
    report.success = pos_err < cfg.pos_tol and yaw_err < cfg.ang_tol
    report.reason = "" if report.success else "tracking tolerance not met"
    report.series = np.column_stack([times, series])
    report.stats["control_steps"] = len(series)


def _run_episodes(cfg: PipelineConfig, arm: kinematics.ArmModel,
                  episodes) -> list[EpisodeReport]:
    """Run episodes given as (seed, source, scene, out_dir) in three phases:
    each is collected, denoised and planned in turn, their noisy frames all
    drawn by one _Draws child, reaped after the last; the planned ones then
    share one run_control loop and are scored; last, every episode's
    artifacts are written, in index order."""
    start = kinematics.fk(arm, HOME_Q)
    reports, trajs, outputs = [], [], []
    with closing(_Draws()) as draws:
        for seed, source, scene, out_dir in episodes:
            report, traj = _plan_episode(cfg, seed, start, source, scene, draws)
            reports.append(report)
            trajs.append(traj)
            if out_dir is not None:  # only the images overlays need are kept
                outputs.append((report, out_dir, scene.rgb if scene is not None else None))
    planned = [i for i, traj in enumerate(trajs) if traj is not None]
    if planned:
        q, times, series = run_control(arm, HOME_Q, [trajs[i] for i in planned], cfg)
        poses = kinematics.fk(arm, q)
        for k, i in enumerate(planned):
            _score(cfg, reports[i], so3.Pose(poses.p[k], poses.R[k]), times,
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
                            out_dir, rgb: np.ndarray | None) -> None:
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
            rgb = draw_overlay(rgb, workspace_to_pixel(prop.target, cfg), prop.theta)
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
             "proposal_px_err": report.proposal_px_err,
             "proposal_theta_err": report.proposal_theta_err}
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
