import dataclasses
import inspect
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

from baggrasp import classical, image_io, kinematics, learned, sim, so3
from baggrasp.classical import GraspProposal, workspace_to_pixel
from baggrasp.config import PipelineConfig
from conftest import control_steps, noisy_frame

ARM = sim.arm_for(PipelineConfig())


def classical_source(cfg):
    return sim.vision_source("classical", cfg)


def test_generate_scene_deterministic(cfg):
    a = sim.generate_scene(42, cfg)
    b = sim.generate_scene(42, cfg)
    assert np.array_equal(a.rgb, b.rgb)
    assert np.array_equal(a.depth, b.depth)
    assert np.array_equal(a.label[0], b.label[0]) and a.label[1] == b.label[1]


def test_generate_scene_flat(cfg):
    scene = sim.generate_scene(3, cfg, flat=True)
    assert scene.creases == [] and scene.label is None
    with pytest.raises(classical.NoViableContour):
        classical.classical_pipeline(scene.rgb, cfg)


def test_generated_ball_recovered_by_color(cfg):
    for seed in range(10):
        scene = sim.generate_scene(seed, cfg)
        center, _ = classical.detect_ball(scene.rgb, cfg.color_low, cfg.color_high)
        assert np.linalg.norm(center - scene.ball_center) < 1.0


def test_generated_creases_avoid_ball_and_stay_in_frame(cfg):
    for seed in range(15):
        scene = sim.generate_scene(seed, cfg)
        for seg in scene.creases:
            assert np.linalg.norm(seg.midpoint - scene.ball_center) \
                > scene.ball_radius
            for p in (seg.p0, seg.p1):
                assert 0 <= p[0] < cfg.scene_width
                assert 0 <= p[1] < cfg.scene_height


def test_depth_raster_has_ridges(cfg):
    scene = sim.generate_scene(1, cfg)
    depth = scene.depth
    seg = scene.creases[0]
    mx, my = int(round(seg.midpoint[0])), int(round(seg.midpoint[1]))
    assert depth[my, mx] < sim.BASE_DEPTH_MM - 5  # raised crease is closer
    bx, by = int(round(scene.ball_center[0])), int(round(scene.ball_center[1]))
    assert depth[by, bx] < sim.BASE_DEPTH_MM - 20


def _render_full_frame(scene, cfg):
    """generate_scene's rasters drawn with every crease over the whole frame."""
    h, w = cfg.scene_height, cfg.scene_width
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    rgb = np.empty((h, w, 3), dtype=np.uint8)
    rgb[:] = sim.BACKGROUND
    depth = np.full((h, w), sim.BASE_DEPTH_MM)
    for seg in scene.creases:
        dist = sim._capsule_dist(xs, ys, seg)
        rgb[dist <= seg.width / 2.0] = sim.CREASE_COLOR
        depth -= seg.elevation * np.exp(-(dist * dist) / (2.0 * seg.width ** 2))
    center, radius = scene.ball_center, scene.ball_radius
    ball_dist2 = (xs - center[0]) ** 2 + (ys - center[1]) ** 2
    rgb[ball_dist2 <= radius * radius] = sim.BALL_COLOR
    depth -= sim.BALL_BUMP_MM * np.exp(-ball_dist2 / (2.0 * (0.8 * radius) ** 2))
    return rgb, np.clip(np.round(depth), 0, 65535).astype(np.uint16)


@pytest.mark.parametrize("size, seeds", [((256, 144), range(400)),
                                         ((112, 80), range(100))],
                         ids=["256x144", "112x80"])
def test_windowed_creases_match_full_frame_oracle(size, seeds):
    # Each crease is drawn only within 8.5 widths + 1 px of its bounding box;
    # the scene must still equal the full-frame rendering byte for byte, also
    # where that window runs past the frame border. Depth is rounded to whole
    # mm, so these bytes catch a window cut to 4 widths but not one of 5; the
    # 8.5 bound is what leaves the unrounded depth unchanged too.
    cfg = PipelineConfig(scene_width=size[0], scene_height=size[1])
    clipped = 0
    for seed in seeds:
        scene = sim.generate_scene(seed, cfg)
        rgb, depth = _render_full_frame(scene, cfg)
        assert scene.rgb.tobytes() == rgb.tobytes(), seed
        assert scene.depth.tobytes() == depth.tobytes(), seed
        for seg in scene.creases:
            reach = 8.5 * seg.width + 1.0
            clipped += bool(np.any(np.minimum(seg.p0, seg.p1) - reach < 0)
                            or np.any(np.maximum(seg.p0, seg.p1) + reach >= size))
    assert clipped >= 10


def _capsule_dist_oracle(xg, yg, seg):
    d = seg.p1 - seg.p0
    len2 = float(d @ d)
    px = xg - seg.p0[0]
    py = yg - seg.p0[1]
    t = np.clip((px * d[0] + py * d[1]) / len2, 0.0, 1.0)
    return np.hypot(px - t * d[0], py - t * d[1])


def _generate_scene_oracle(seed, cfg, flat=False):
    """Reference generate_scene: the pixel grid as two np.mgrid float grids,
    a full-frame temporary per step, colors written channel by channel, and
    the sampled crease-gap test without its early exit."""
    rng = np.random.default_rng(seed)
    w, h = cfg.scene_width, cfg.scene_height
    center = np.array([rng.uniform(0.42, 0.58) * w, rng.uniform(0.42, 0.58) * h])
    radius = rng.uniform(16.0, 22.0)
    ox, oy, cw, ch = image_io.crop_window(w, h)
    creases = []
    if not flat:
        n_creases = int(rng.integers(2, 5))
        for idx in range(n_creases):
            band = (1.5, 1.9) if idx == 0 else (2.6, 3.4)
            for _ in range(200):
                dist = rng.uniform(*band) * radius
                seg = sim._sample_crease(rng, center, dist,
                                         length=rng.uniform(45.0, 75.0),
                                         width=int(rng.integers(2, 5)),
                                         elevation=rng.uniform(10.0, 20.0))
                if not all(8 <= x < w - 8 and 8 <= y < h - 8
                           for x, y in (seg.p0, seg.p1)):
                    continue
                if any(_segments_close_oracle(seg, other, 6.0) for other in creases):
                    continue
                if idx == 0:
                    mx, my = seg.midpoint
                    if not (ox + 4 <= mx < ox + cw - 4 and oy + 4 <= my < oy + ch - 4):
                        continue
                creases.append(seg)
                break
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    rgb = np.empty((h, w, 3), dtype=np.uint8)
    rgb[:] = sim.BACKGROUND
    depth = np.full((h, w), sim.BASE_DEPTH_MM)
    for seg in creases:
        reach = 8.5 * seg.width + 1.0
        x0, y0 = np.maximum(np.minimum(seg.p0, seg.p1) - reach, 0).astype(int)
        x1, y1 = (np.maximum(seg.p0, seg.p1) + reach + 1).astype(int)
        win = np.s_[y0:y1, x0:x1]
        dist = _capsule_dist_oracle(xs[win], ys[win], seg)
        rgb[win][dist <= seg.width / 2.0] = sim.CREASE_COLOR
        depth[win] -= seg.elevation * np.exp(-(dist * dist) / (2.0 * seg.width ** 2))
    ball_dist2 = (xs - center[0]) ** 2 + (ys - center[1]) ** 2
    rgb[ball_dist2 <= radius * radius] = sim.BALL_COLOR
    depth -= sim.BALL_BUMP_MM * np.exp(-ball_dist2 / (2.0 * (0.8 * radius) ** 2))
    label = None
    if creases:
        best = min(
            creases,
            key=lambda s: (abs(np.linalg.norm(s.midpoint - center) - 1.1 * radius),
                           -s.length))
        label = (best.midpoint.copy(), best.angle)
    return sim.Scene(rgb, np.clip(np.round(depth), 0, 65535).astype(np.uint16),
                     center, radius, creases, label)


def _assert_same_scene(got, want, where):
    assert got.rgb.tobytes() == want.rgb.tobytes(), where
    assert got.depth.tobytes() == want.depth.tobytes(), where
    assert got.depth.dtype == want.depth.dtype == np.uint16, where
    assert got.ball_center.tobytes() == want.ball_center.tobytes(), where
    assert got.ball_radius == want.ball_radius, where
    assert (got.label is None) == (want.label is None), where
    if want.label is not None:
        assert got.label[0].tobytes() == want.label[0].tobytes(), where
        assert got.label[1] == want.label[1], where
    assert len(got.creases) == len(want.creases), where
    for a, b in zip(got.creases, want.creases):
        assert a.p0.tobytes() == b.p0.tobytes() and a.p1.tobytes() == b.p1.tobytes(), where
        assert (a.width, a.elevation) == (b.width, b.elevation), where


@pytest.mark.parametrize("size, seeds, flat", [
    ((256, 144), range(5000, 5100), False),
    ((256, 144), range(5000, 5010), True),
    ((8, 8), range(6), False),
    ((33, 17), range(6), False),
    ((160, 160), range(10), False),
    ((160, 160), range(3), True),
    ((512, 288), range(8), False),
], ids=["256x144", "256x144-flat", "8x8", "33x17", "160x160", "160x160-flat",
        "512x288"])
def test_generate_scene_matches_mgrid_oracle(size, seeds, flat):
    # Broadcast row and column coordinates, in-place chains and 3-byte pixel
    # writes must leave every output bit as the full-grid rendering drew it.
    cfg = PipelineConfig(scene_width=size[0], scene_height=size[1])
    labels = 0
    for seed in seeds:
        want = _generate_scene_oracle(seed, cfg, flat)
        _assert_same_scene(sim.generate_scene(seed, cfg, flat), want, seed)
        labels += want.label is not None
    assert labels == (0 if flat or size in ((8, 8), (33, 17)) else len(seeds))


@pytest.mark.parametrize("size", [(8, 8), (16, 40), (40, 16), (17, 17), (33, 17),
                                  (40, 40)])
def test_generate_scene_samples_no_crease_where_none_fits(size, monkeypatch):
    # A crease is at least 45 px long with both ends in [8, w - 8) x [8, h - 8),
    # so none fits these frames: the loop is skipped, and the scene is the flat one.
    cfg = PipelineConfig(scene_width=size[0], scene_height=size[1])
    flat = [sim.generate_scene(seed, cfg, flat=True) for seed in range(5)]

    def never(*args, **kwargs):
        raise AssertionError("a crease was sampled")
    monkeypatch.setattr(sim, "_sample_crease", never)
    for seed, want in enumerate(flat):
        _assert_same_scene(sim.generate_scene(seed, cfg), want, (size, seed))


def test_generate_scene_samples_creases_where_one_may_fit(monkeypatch):
    # Just past the bound (hypot(48 - 16, 48 - 16) = 45.3 > 44) the loop runs.
    calls = []
    sample_crease = sim._sample_crease

    def counted(*args, **kwargs):
        calls.append(1)
        return sample_crease(*args, **kwargs)
    monkeypatch.setattr(sim, "_sample_crease", counted)
    for size in ((48, 48), (17, 61), (61, 17)):
        del calls[:]
        sim.generate_scene(0, PipelineConfig(scene_width=size[0], scene_height=size[1]))
        assert calls, size


def test_genscenes_files_match_mgrid_oracle(tmp_path, monkeypatch):
    from baggrasp import cli
    for flat in ([], ["--flat"]):
        argv = ["genscenes", "--n", "4", "--seed", "5000", *flat]
        assert cli.main(argv + ["--out", str(tmp_path / "new")]) == 0
        with monkeypatch.context() as m:
            m.setattr(sim, "generate_scene", _generate_scene_oracle)
            assert cli.main(argv + ["--out", str(tmp_path / "old")]) == 0
        names = sorted(f.name for f in (tmp_path / "old").iterdir())
        assert len(names) == 9
        assert sorted(f.name for f in (tmp_path / "new").iterdir()) == names
        for name in names:
            assert (tmp_path / "new" / name).read_bytes() \
                == (tmp_path / "old" / name).read_bytes(), (flat, name)


def test_generate_scene_allocates_at_most_three_and_a_half_frames():
    # One frame of float64 depth, one of squared ball distance, the RGB and a
    # mask: no full-frame coordinate grids and no temporary per step.
    import tracemalloc
    cfg = PipelineConfig()
    assert (cfg.scene_width, cfg.scene_height) == (256, 144)
    sim.generate_scene(0, cfg)  # warm up lazy imports and caches
    for seed in (0, 5065):  # 5065 peaked highest of 300 seeds, in a crease window
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sim.generate_scene(seed, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 256 * 144 * 8, f"seed {seed}: peak {peak / 1024:.0f} KiB"


def _segments_close_oracle(a, b, min_gap):
    """Sampled-distance test without the bounding-box early exit."""
    ta = np.linspace(0.0, 1.0, max(2, int(a.length)))
    tb = np.linspace(0.0, 1.0, max(2, int(b.length)))
    pa = a.p0 + ta[:, None] * (a.p1 - a.p0)
    pb = b.p0 + tb[:, None] * (b.p1 - b.p0)
    dists = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    return bool(dists.min() < min_gap + 0.5 * (a.width + b.width))


def _segment_pairs(rng, n):
    """Random pairs: anywhere, crossing, short or zero-length, and b moved
    off a so the box gap or the closest distance lies near its bound."""
    for _ in range(n):
        a = sim.CreaseSegment(rng.uniform(0, 256, 2), rng.uniform(0, 144, 2),
                              int(rng.integers(2, 5)), 10.0)
        kind = int(rng.integers(5))
        if kind == 1:  # crossing a at its midpoint
            half = rng.uniform(-40, 40, 2)
            b = sim.CreaseSegment(a.midpoint - half, a.midpoint + half, 3, 10.0)
        elif kind == 2:  # short, possibly a single point
            p = rng.uniform(0, 200, 2)
            b = sim.CreaseSegment(p, p + rng.choice([0.0, 0.3, 1.7]) * rng.normal(size=2),
                                  int(rng.integers(2, 5)), 10.0)
        elif kind >= 3:  # a shifted by the bound, plus a little, along an axis
            width = int(rng.integers(2, 5))
            bound = 6.0 + 0.5 * (a.width + width) + (1.0 if kind == 3 else 0.0)
            if kind == 4:  # parallel: the shift is also the closest distance
                a = sim.CreaseSegment(a.p0, (a.p1[0], a.p0[1]), a.width, 10.0)
            lo, hi = np.minimum(a.p0, a.p1), np.maximum(a.p0, a.p1)
            shift = np.zeros(2)
            shift[1] = hi[1] - lo[1] + bound + rng.choice([-1e-9, 0.0, 1e-9, rng.normal()])
            b = sim.CreaseSegment(a.p0 + shift, a.p1 + shift, width, 10.0)
        else:
            b = sim.CreaseSegment(rng.uniform(0, 256, 2), rng.uniform(0, 144, 2),
                                  int(rng.integers(2, 5)), 10.0)
        yield a, b


def test_segments_close_matches_sampled_oracle():
    # The early exit on bounding boxes apart by more than the bound + 1 px
    # must never change the answer of the sampled distance matrix.
    rng = np.random.default_rng(31)
    seen = set()
    for a, b in _segment_pairs(rng, 1000):
        for x, y in ((a, b), (b, a)):
            want = _segments_close_oracle(x, y, 6.0)
            assert sim._segments_close(x, y, 6.0) == want
            gap = np.maximum(np.minimum(x.p0, x.p1) - np.maximum(y.p0, y.p1),
                             np.minimum(y.p0, y.p1) - np.maximum(x.p0, x.p1)).max()
            seen.add((want, bool(gap >= 6.0 + 0.5 * (x.width + y.width) + 1.0)))
    assert seen == {(True, False), (False, False), (False, True)}


# --- the plant, inside run_control's steps (conftest.control_steps) ---

def test_step_plant_zero_velocity():
    # No gains and no feedforward at t_i: a zero command leaves q exactly.
    q0 = np.linspace(-1, 1, 7)
    pose = kinematics.fk(ARM, q0)
    q, _ = control_steps(q0, so3.Pose(pose.p + 0.1, pose.R),
                         PipelineConfig(k_p=0.0, k_d=0.0))
    assert np.array_equal(q, q0)


def test_step_plant_constant_velocity_exact():
    # Far from its target every joint's command stays clamped at +-qdot_max,
    # so 50 steps move each joint 50 * dt * qdot_max one way.
    home = sim.HOME_Q
    pose = kinematics.fk(ARM, home)
    cfg = PipelineConfig(k_p=1e3, qdot_max=0.1)
    start = so3.Pose(pose.p + (-0.3, 0.4, 0.3), pose.R)
    q1, _ = control_steps(home, start, cfg)
    q50, _ = control_steps(home, start, cfg, 50)
    assert np.allclose(np.abs(q1 - home), 0.01 * 0.1, atol=1e-12)
    assert np.allclose(q50, home + 50 * 0.01 * 0.1 * np.sign(q1 - home), atol=1e-12)


def test_step_plant_clamps_at_limits():
    # Each joint moves by +-qdot_max dt = +-0.1 from 0.09: up to the limit
    # 0.1 exactly, or down to -0.01.
    narrow = kinematics.ArmModel(ARM.zero_pose, ARM.axes, ARM.points,
                                 np.tile((-0.1, 0.1), (7, 1)))
    q0 = np.full(7, 0.09)
    pose = kinematics.fk(narrow, q0)
    q, _ = control_steps(q0, so3.Pose(pose.p + (0.3, 0.3, -0.2), pose.R),
                         PipelineConfig(k_p=1e3, qdot_max=10.0), arm=narrow)
    at_limit = q == 0.1
    assert at_limit.any() and np.allclose(q[~at_limit], -0.01, atol=1e-12)


def test_episode_noiseless_classical_succeeds(cfg, tmp_path):
    scene = sim.generate_scene(7, cfg)
    report = sim.run_episode(cfg, 7, ARM, classical_source(cfg), scene,
                             out_dir=tmp_path)
    assert report.success
    assert report.final_pos_err < 1e-3
    assert report.reason == ""
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "overlay.ppm").exists()


def test_episode_file_vision_converges(cfg):
    proposals = [GraspProposal(0.6, 0.05, 0.3, float(t)) for t in range(3)]
    report = sim.run_episode(cfg, 0, ARM, proposals)
    assert report.success
    assert report.final_pos_err < 1e-3
    assert report.proposal_px_err is None and report.proposal_theta_err is None
    assert report.proposal_px_err is None and report.proposal_theta_err is None


def test_episode_accepts_bare_image_pair(cfg):
    scene = sim.generate_scene(12, cfg)
    report = sim.run_episode(cfg, 12, ARM, classical_source(cfg),
                             dataclasses.replace(scene, label=None))
    assert report.success
    assert report.proposal_px_err is None  # no ground truth available
    assert report.proposal_theta_err is None


def test_proposal_theta_err_scores_the_angle_against_the_label(cfg, tmp_path):
    # A top-level report key and a run_batch row key; stats and summary.csv
    # keep their fields.
    rows = sim.run_batch(cfg, 3, 20, out_dir=tmp_path)[0]
    for i, row in enumerate(rows):
        label_theta = sim.generate_scene(20 + i, cfg).label[1]
        rep = json.loads((tmp_path / f"episode_{i:03d}" / "report.json").read_text())
        want = abs(classical.wrap_half_pi(rep["proposal"]["theta"] - label_theta))
        assert row["proposal_theta_err"] == rep["proposal_theta_err"] == want
        assert 0.0 <= want <= math.pi / 2
        assert set(rep["stats"]) == {"frames_attempted", "proposals_collected",
                                     "control_steps"}
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == sim.SUMMARY_HEADER and len(summary[1].split(",")) == 5


def test_proposal_theta_err_wraps_and_is_null_without_a_proposal(cfg):
    # A jaw at -pi/2 + 0.02 is 0.03 rad from a label at pi/2 - 0.01; a flat
    # scene gives no proposal, so neither error.
    scene = sim.generate_scene(6, cfg)
    scene = dataclasses.replace(scene, label=(scene.label[0], math.pi / 2 - 0.01))
    props = [GraspProposal(0.6, 0.05, -math.pi / 2 + 0.02, float(t)) for t in range(3)]
    report = sim.run_episode(cfg, 6, ARM, props, scene)
    assert report.proposal_theta_err == pytest.approx(0.03, abs=1e-12)
    flat = sim.run_episode(cfg, 9, ARM, classical_source(cfg),
                           sim.generate_scene(9, cfg, flat=True))
    assert flat.proposal is None
    assert flat.proposal_px_err is None and flat.proposal_theta_err is None
    assert sim.report_to_dict(flat)["proposal_theta_err"] is None


def test_episode_unreachable_target_fails(cfg):
    proposals = [GraspProposal(1.6, 0.0, 0.0, 0.0)]
    report = sim.run_episode(cfg, 0, ARM, proposals)
    assert not report.success
    assert report.reason == "tracking tolerance not met"


def test_episode_vision_failure_reported(cfg):
    scene = sim.generate_scene(9, cfg, flat=True)
    report = sim.run_episode(cfg, 9, ARM, classical_source(cfg), scene)
    assert not report.success
    assert report.proposal is None
    assert "contour" in report.reason


def test_episode_success_implies_tolerances(cfg):
    for seed in (1, 2, 3):
        scene = sim.generate_scene(seed, cfg)
        report = sim.run_episode(cfg, seed, ARM, classical_source(cfg), scene)
        if report.success:
            assert report.final_pos_err < cfg.pos_tol
            assert report.final_yaw_err < cfg.ang_tol


def test_episode_deterministic_artifacts(cfg, tmp_path):
    scene = sim.generate_scene(5, cfg)
    r1 = sim.run_episode(cfg, 5, ARM, classical_source(cfg), scene,
                         out_dir=tmp_path / "a")
    r2 = sim.run_episode(cfg, 5, ARM, classical_source(cfg), scene,
                         out_dir=tmp_path / "b")
    assert sim.report_to_dict(r1) == sim.report_to_dict(r2)
    for name in ("report.json", "trace.csv", "overlay.ppm"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_episode_noisy_stream_collects_frames(cfg):
    noisy = PipelineConfig(noise_sigma=2.0)
    scene = sim.generate_scene(4, noisy)
    report = sim.run_episode(noisy, 4, ARM, classical_source(noisy), scene)
    assert report.stats["frames_attempted"] == 10
    assert report.stats["proposals_collected"] >= 8
    assert report.success


def _collect(source, scene, cfg, seed):
    """sim._collect with _Draws of its own, closed on return: a run of one."""
    with closing(sim._Draws()) as draws:
        return sim._collect(source, scene, cfg, seed, draws)


def _counting(source):
    calls = []

    def counted(rgb, depth, ws):
        calls.append(rgb)
        return source(rgb, depth, ws)
    return counted, calls


@pytest.mark.parametrize("seed, flat, noise_sigma", [
    (4, False, 0.0), (4, False, 2.0), (9, True, 0.0)])
def test_collect_runs_noise_free_source_once(cfg, seed, flat, noise_sigma):
    run_cfg = dataclasses.replace(cfg, noise_sigma=noise_sigma, frame_rate=2.0)
    scene = sim.generate_scene(seed, run_cfg, flat=flat)
    source, calls = _counting(classical_source(run_cfg))
    proposals, now, frames, error = _collect(source, scene, run_cfg, seed)
    assert frames == 20 and now == run_cfg.window
    assert len(calls) == (1 if noise_sigma == 0 else frames)
    # Oracle: every frame through the source in turn, as noisy frames are,
    # each proposal stamped with its frame's time.
    rng = np.random.default_rng([seed, 1])
    want, want_error = [], ""
    for k in range(frames):
        rgb, depth = noisy_frame(rng, scene, noise_sigma)
        try:
            want.append(dataclasses.replace(classical_source(run_cfg)(rgb, depth),
                                            t=k / run_cfg.frame_rate))
        except classical.VisionError as err:
            want_error = str(err)
    assert proposals == want and error == want_error
    assert (len(want) == 0) == flat and (error != "") == flat


def _seen_frames(source):
    """source wrapped to record the exact bytes of every frame it is given."""
    seen = []

    def recorded(rgb, depth, ws):
        seen.append((rgb.tobytes(), depth.tobytes()))
        return source(rgb, depth, ws)
    return recorded, seen


@pytest.mark.parametrize("vision", ["classical", "learned"])
@pytest.mark.parametrize("frame_rate", [1.0, 4.0])
@pytest.mark.parametrize("noise_sigma", [2.0, 32.0])
def test_collect_sources_see_add_pixel_noise_frames(cfg, vision, frame_rate,
                                                    noise_sigma):
    run_cfg = dataclasses.replace(cfg, noise_sigma=noise_sigma, frame_rate=frame_rate)
    scene = sim.generate_scene(6, run_cfg)
    params = learned.init_params(0) if vision == "learned" else None
    source, seen = _seen_frames(sim.vision_source(vision, run_cfg, params))
    threads = threading.active_count()
    proposals, _, frames, error = _collect(source, scene, run_cfg, 6)
    assert threading.active_count() == threads
    # Oracle: the frame noise as first written, inline, frame after frame
    # from the episode's rng.
    rng = np.random.default_rng([6, 1])
    want, want_props, want_error = [], [], ""
    for k in range(frames):
        rgb, depth = _float_copy_pixel_noise(rng, scene.rgb, scene.depth, noise_sigma)
        want.append((rgb.tobytes(), depth.tobytes()))
        try:
            want_props.append(dataclasses.replace(sim.vision_source(
                vision, run_cfg, params)(rgb, depth), t=k / frame_rate))
        except classical.VisionError as err:
            want_error = str(err)
    assert frames == 10 * frame_rate and seen == want
    assert proposals == want_props and error == want_error


def _thread_starts(monkeypatch):
    """Patch Thread.start to record each thread started."""
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)
    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def _forks(monkeypatch):
    """Patch os.fork to record the pid of each child forked."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return pids


def _append(path, line):
    """Append a line to the file at path, opened anew: a forked draw child
    closes the descriptors it inherits."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        os.write(fd, f"{line}\n".encode())
    finally:
        os.close(fd)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail, rather than hang, a collect that waits forever on its child:
    SIGALRM raises in the test after 60 s (a forked child has no alarm)."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past its 60 s deadline")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("noise_sigma", [0.0, 2.0])
def test_collect_draws_one_frame_ahead_only_when_noisy(cfg, monkeypatch, tmp_path,
                                                       deadline, noise_sigma):
    # The draws (in the child) and the source (here) append to one log, so
    # its order is the order in which draws start and frames are seen.
    run_cfg = dataclasses.replace(cfg, noise_sigma=noise_sigma, frame_rate=2.0)
    scene = sim.generate_scene(4, run_cfg)
    started = _thread_starts(monkeypatch)
    forks = _forks(monkeypatch)
    log = tmp_path / "log"
    noisy_frame = sim._noisy_frame

    def logged_draw(*args):
        _append(log, f"draw {os.getpid()}")
        return noisy_frame(*args)
    monkeypatch.setattr(sim, "_noisy_frame", logged_draw)

    def slow(rgb, depth, ws):
        time.sleep(0.005)  # room for draws queued too far ahead to start
        _append(log, "see")
        return classical_source(run_cfg)(rgb, depth, ws)
    threads = threading.active_count()
    _, _, frames, _ = _collect(slow, scene, run_cfg, 4)
    assert threading.active_count() == threads and started == []
    assert len(forks) == (1 if noise_sigma else 0)
    lines = (tmp_path / "log").read_text().splitlines()
    # Every frame drawn by the one child.
    assert [line for line in lines if line != "see"] == [f"draw {pid}" for pid in forks] * frames
    leads, drawn = [], 0
    for line in lines:
        if line == "see":
            leads.append(drawn - len(leads))  # this is frame len(leads)
        else:
            drawn += 1
    assert len(leads) == (frames if noise_sigma else 1)
    assert max(leads) <= 2  # frame k is seen with at most k + 2 draws started
    _assert_no_child_left()


def _record_public_calls(monkeypatch, modules, log):
    """Wrap every public function of modules, wherever the package holds
    it, to append "name pid thread" of each call to the file log: a forked
    child's calls land there too."""
    wrapped = {}

    def recording(fn):
        def recorded(*args, **kwargs):
            _append(log, f"{fn.__name__} {os.getpid()} {threading.get_ident()}")
            return fn(*args, **kwargs)
        return recorded
    for mod in modules:
        for name, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not name.startswith("_")):
                wrapped[id(fn)] = (fn, recording(fn))
    for mod_name, holder in list(sys.modules.items()):
        if mod_name.split(".")[0] == "baggrasp":
            for name, obj in list(vars(holder).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    monkeypatch.setattr(holder, name, hit[1])


@pytest.mark.parametrize("vision", ["classical", "learned"])
def test_collect_runs_public_functions_on_the_calling_thread(cfg, monkeypatch,
                                                             tmp_path, vision):
    # perfbench's tracer keeps one span stack in the calling process, so
    # vision stays in it; the child that draws the noise runs private code.
    run_cfg = dataclasses.replace(cfg, noise_sigma=2.0, frame_rate=2.0)
    scene = sim.generate_scene(4, run_cfg)
    params = learned.init_params(0) if vision == "learned" else None
    source = sim.vision_source(vision, run_cfg, params)
    _record_public_calls(monkeypatch, (sim, classical, image_io), tmp_path / "calls")
    _collect(source, scene, run_cfg, 4)
    calls = [line.split() for line in (tmp_path / "calls").read_text().splitlines()]
    assert ({"classical_pipeline", "canny", "to_gray"} if vision == "classical"
            else {"pixel_to_workspace", "resize_bilinear"}) <= {name for name, *_ in calls}
    here = [str(os.getpid()), str(threading.get_ident())]
    assert [call for call in calls if call[1:] != here] == []


def test_noisy_collect_reuses_its_frame_buffers(cfg):
    # A noisy episode draws and reads its frames in buffers made once. Frame-
    # sized arrays made and freed every frame are each mapped, faulted in and
    # unmapped again: 12,000 or more minor faults per 40-frame episode. The
    # collects of a run share one drawing child. After the fork the caller
    # takes one copy-on-write fault per page it writes: about 900 in a fresh
    # process and up to 1,600 late in a long test session, paid once a run,
    # in its first collect, and left out here. A later collect takes about
    # 50. The child's faults over its whole life, the fork's included, count
    # in full (about 700): RUSAGE_CHILDREN adds them once it is reaped.
    try:
        import resource
    except ImportError:  # Unix only: nothing to count faults with elsewhere
        pytest.skip("the resource module is not available on this platform")

    def faults(who):
        return resource.getrusage(who).ru_minflt
    run_cfg = dataclasses.replace(cfg, noise_sigma=2.0, frame_rate=4.0)
    scene = sim.generate_scene(4, run_cfg)
    source = classical_source(run_cfg)
    _collect(source, scene, run_cfg, 3)  # warm up imports and the heap
    reaped = faults(resource.RUSAGE_CHILDREN)
    with closing(sim._Draws()) as draws:
        sim._collect(source, scene, run_cfg, 4, draws)  # the run's first: the fork
        before = faults(resource.RUSAGE_SELF)
        _, _, frames, _ = sim._collect(source, scene, run_cfg, 5, draws)
        caller = faults(resource.RUSAGE_SELF) - before
    child = faults(resource.RUSAGE_CHILDREN) - reaped
    assert frames == 40 and caller + child < 2000, f"{caller} + {child} minor faults"


def test_collect_raises_a_failed_draw(cfg, monkeypatch, deadline):
    run_cfg = dataclasses.replace(cfg, noise_sigma=2.0)
    scene = sim.generate_scene(4, run_cfg)
    draws = []
    noisy_frame = sim._noisy_frame

    def failing(*args):
        draws.append(os.getpid())
        if len(draws) == 4:
            raise MemoryError("draw of frame 3")
        return noisy_frame(*args)
    monkeypatch.setattr(sim, "_noisy_frame", failing)
    source, seen = _seen_frames(classical_source(run_cfg))
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="draw of frame 3"):
        _collect(source, scene, run_cfg, 4)
    assert threading.active_count() == threads
    assert len(seen) == 3  # frames 0, 1 and 2
    assert draws == []  # every draw ran in the child, on its copy of the list
    _assert_no_child_left()


def test_collect_raises_when_the_child_is_killed(cfg, monkeypatch, deadline):
    run_cfg = dataclasses.replace(cfg, noise_sigma=2.0)
    scene = sim.generate_scene(4, run_cfg)
    caller, draws = os.getpid(), []
    noisy_frame = sim._noisy_frame

    def killed(*args):
        draws.append(1)
        if len(draws) == 3 and os.getpid() != caller:  # frame 2, in the child only
            os.kill(os.getpid(), signal.SIGKILL)
        return noisy_frame(*args)
    monkeypatch.setattr(sim, "_noisy_frame", killed)
    source, seen = _seen_frames(classical_source(run_cfg))
    with pytest.raises(RuntimeError, match=f"frame 2 .*wait status {int(signal.SIGKILL)}$"):
        _collect(source, scene, run_cfg, 4)
    assert len(seen) == 2 and draws == []
    _assert_no_child_left()


def test_collect_without_fork_draws_inline_to_the_same_proposals(cfg, monkeypatch,
                                                                deadline):
    run_cfg = dataclasses.replace(cfg, noise_sigma=2.0, frame_rate=4.0)
    scene = sim.generate_scene(6, run_cfg)
    forks = _forks(monkeypatch)
    source, forked_seen = _seen_frames(classical_source(run_cfg))
    forked = _collect(source, scene, run_cfg, 6)
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    source, seen = _seen_frames(classical_source(run_cfg))
    threads = threading.active_count()
    inline = _collect(source, scene, run_cfg, 6)
    assert threading.active_count() == threads
    assert repr(inline) == repr(forked) and seen == forked_seen
    assert len(seen) == 40 and len(inline[0]) > 0


def test_collect_propagates_a_source_error(cfg, deadline):
    # A collect that stops early closes the run's draws, reaping its child.
    run_cfg = dataclasses.replace(cfg, noise_sigma=2.0)
    scene = sim.generate_scene(4, run_cfg)
    calls = []

    def broken(rgb, depth, ws):
        calls.append(rgb)
        if len(calls) == 12:  # the second collect's frame 1
            raise RuntimeError("source broke")
        return classical_source(run_cfg)(rgb, depth, ws)
    threads = threading.active_count()
    draws = sim._Draws()
    sim._collect(broken, scene, run_cfg, 3, draws)
    assert draws.child is not None
    with pytest.raises(RuntimeError, match="source broke"):
        sim._collect(broken, scene, run_cfg, 4, draws)
    assert threading.active_count() == threads and len(calls) == 12
    assert draws.child is None
    _assert_no_child_left()


def test_draw_children_hold_no_other_descriptors(cfg, deadline):
    # Two runs' children at once: were the second to hold the first's pipe
    # ends, closing the first would wait on the second's child forever.
    run_cfg = dataclasses.replace(cfg, noise_sigma=2.0)
    scene = sim.generate_scene(4, run_cfg)
    source = classical_source(run_cfg)
    first, second = sim._Draws(), sim._Draws()
    try:
        sim._collect(source, scene, run_cfg, 4, first)
        sim._collect(source, scene, run_cfg, 5, second)
        assert first.close() == 0
    finally:
        second.close()
        first.close()
    _assert_no_child_left()


def test_run_batch_draws_its_noisy_episodes_in_one_child(cfg, monkeypatch, deadline):
    forks = _forks(monkeypatch)
    sim.run_batch(cfg, 3, 20)  # noise-free: nothing to draw
    assert forks == []
    sim.run_batch(dataclasses.replace(cfg, noise_sigma=2.0), 3, 20)
    assert len(forks) == 1
    _assert_no_child_left()


def test_run_batch_noisy_rows_repeat(cfg):
    run_cfg = dataclasses.replace(cfg, noise_sigma=2.0, frame_rate=2.0)
    rows = sim.run_batch(run_cfg, 2, 13)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # any thread would trade turns as often as it can
    try:
        assert sim.run_batch(run_cfg, 2, 13) == rows
    finally:
        sys.setswitchinterval(interval)


def _float_copy_pixel_noise(rng, rgb, depth, sigma):
    """Frame noise as first written: a float copy of each image plus its
    draws, then round, clip and cast."""
    noisy_rgb = np.clip(np.round(rgb.astype(float)
                                 + rng.normal(0.0, sigma, rgb.shape)),
                        0, 255).astype(np.uint8)
    noisy_dep = np.clip(np.round(depth.astype(float)
                                 + rng.normal(0.0, sigma, depth.shape)),
                        0, 65535).astype(np.uint16)
    return noisy_rgb, noisy_dep


@pytest.mark.parametrize("sigma", [0.5, 2.0, 32.0])
def test_noisy_frame_matches_float_copy_formula(cfg, sigma):
    # One seeded stream of frames each: the draws keep their order and values.
    scenes = [sim.generate_scene(seed, cfg) for seed in (3, 4)]
    before = [(s.rgb.copy(), s.depth.copy()) for s in scenes]
    rng, rng_want = np.random.default_rng(11), np.random.default_rng(11)
    # One float buffer and one output pair serve every frame, as in _collect.
    buf = np.empty(scenes[0].depth.size)
    out = (np.empty_like(scenes[0].rgb), np.empty_like(scenes[0].depth))
    for k in range(6):
        scene = scenes[k % 2]
        rgb, depth = sim._noisy_frame(rng, scene.rgb, scene.depth, sigma, buf, out)
        want_rgb, want_dep = _float_copy_pixel_noise(rng_want, scene.rgb,
                                                     scene.depth, sigma)
        assert rgb.dtype == np.uint8 and depth.dtype == np.uint16
        assert rgb is out[0] and depth is out[1]
        assert np.array_equal(rgb, want_rgb)
        assert np.array_equal(depth, want_dep)
    for s, (rgb0, dep0) in zip(scenes, before):
        assert np.array_equal(s.rgb, rgb0) and np.array_equal(s.depth, dep0)


def test_run_batch_rows_do_not_depend_on_batch(cfg):
    for run_cfg in (cfg, dataclasses.replace(cfg, noise_sigma=2.0)):
        rows = sim.run_batch(run_cfg, 4, 30)[0]
        for k, row in enumerate(rows):
            alone = sim.run_batch(run_cfg, 1, 30 + k)[0][0]
            assert {**row, "episode": 0} == alone


def test_run_batch_mixes_failed_and_controlled_episodes(cfg, tmp_path):
    # Episode 1 sees no proposal (fails before control), the others are
    # controlled in one loop; every report and artifact equals its lone run's.
    failed_alone = sim.run_episode(cfg, 9, ARM, classical_source(cfg),
                                     sim.generate_scene(9, cfg, flat=True),
                                     out_dir=tmp_path / "alone_b")
    live = [sim.generate_scene(s, cfg) for s in (7, 8)]
    reports = sim._run_episodes(cfg, ARM, [
        (7, classical_source(cfg), live[0], tmp_path / "a"),
        (9, classical_source(cfg), sim.generate_scene(9, cfg, flat=True), tmp_path / "b"),
        (8, classical_source(cfg), live[1], tmp_path / "c")])
    assert sim.report_to_dict(reports[1]) == sim.report_to_dict(failed_alone)
    for report, seed, scene, name in ((reports[0], 7, live[0], "a"),
                                      (reports[2], 8, live[1], "c")):
        alone = sim.run_episode(cfg, seed, ARM, classical_source(cfg), scene,
                                out_dir=tmp_path / f"alone_{name}")
        assert sim.report_to_dict(report) == sim.report_to_dict(alone)
        assert np.array_equal(report.series, alone.series)
    for name in "abc":
        for artifact in ("report.json", "trace.csv", "overlay.ppm"):
            assert (tmp_path / name / artifact).read_bytes() \
                == (tmp_path / f"alone_{name}" / artifact).read_bytes(), (name, artifact)
    assert (tmp_path / "a" / "overlay.ppm").exists()


def test_trace_has_one_row_per_control_step_at_its_time(cfg, tmp_path):
    # trace.csv's t column is the window end plus the step count over the
    # control rate, bit for bit: cfg.window for image vision, the newest
    # proposal's t for a proposal list.
    sim.run_episode(cfg, 7, ARM, classical_source(cfg), sim.generate_scene(7, cfg),
                    out_dir=tmp_path / "image")
    sim.run_episode(cfg, 0, ARM, [GraspProposal(0.6, 0.05, 0.3, t) for t in (0.3, 2.7)],
                    out_dir=tmp_path / "file")
    sim.run_batch(cfg, 2, 20, out_dir=tmp_path / "batch")
    for out, now in ((tmp_path / "image", cfg.window), (tmp_path / "file", 2.7),
                     (tmp_path / "batch" / "episode_000", cfg.window),
                     (tmp_path / "batch" / "episode_001", cfg.window)):
        n = json.loads((out / "report.json").read_text())["stats"]["control_steps"]
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,pos_err,rot_err" and len(lines) == n + 1 and n > 0, out
        t = np.array([float(line.split(",")[0]) for line in lines[1:]])
        assert np.array_equal(t, now + np.arange(n) * (1 / cfg.control_rate)), out


def test_run_batch_empty(cfg, tmp_path):
    rows, success_rate, good_rate = sim.run_batch(cfg, 0, 0, out_dir=tmp_path)
    assert rows == [] and success_rate == 0.0 and good_rate == 0.0
    assert (tmp_path / "summary.csv").read_text() == sim.SUMMARY_HEADER + "\n"


def test_run_batch_deterministic(cfg, tmp_path):
    sim.run_batch(cfg, 2, 11, out_dir=tmp_path / "a")
    sim.run_batch(cfg, 2, 11, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "summary.csv").read_bytes() \
        == (tmp_path / "b" / "summary.csv").read_bytes()


def test_run_batch_noiseless_all_succeed(cfg, tmp_path):
    rows, success_rate, good_rate = sim.run_batch(cfg, 3, 20, out_dir=tmp_path)
    assert success_rate == 1.0
    assert good_rate == 1.0
    text = (tmp_path / "summary.csv").read_text().splitlines()
    assert text[0] == "episode,success,pos_err,yaw_err,proposal_px_err"
    assert len(text) == 4


def test_report_json_round_trip(cfg, tmp_path):
    scene = sim.generate_scene(6, cfg)
    report = sim.run_episode(cfg, 6, ARM, classical_source(cfg), scene,
                             out_dir=tmp_path)
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded == sim.report_to_dict(report)


@pytest.mark.parametrize("seed, flat", [(6, False), (9, True)])
def test_report_to_dict_is_asdict_without_series(cfg, seed, flat):
    scene = sim.generate_scene(seed, cfg, flat=flat)
    report = sim.run_episode(cfg, seed, ARM, classical_source(cfg), scene)
    assert (report.proposal is None) == flat
    steps = report.stats["control_steps"]
    want = {k: v for k, v in dataclasses.asdict(report).items() if k != "series"}
    got = sim.report_to_dict(report)
    assert got == want and list(got) == list(want)
    assert json.dumps(got, indent=2) == json.dumps(want, indent=2)
    got["stats"]["control_steps"] = -1  # a copy, as asdict's is
    assert report.stats["control_steps"] == steps


def test_importing_the_cli_leaves_the_executor_out():
    # No collection imports concurrent.futures (its dozen modules), and only a
    # noisy one loads mmap's shared library: each would raise the peak memory
    # of runs that draw no noise.
    src = str(Path(sim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, baggrasp.cli\n"
            "from baggrasp import config, sim\n"
            "loaded = lambda: [m in sys.modules for m in ('concurrent.futures', 'mmap')]\n"
            "print(loaded())\n"
            "cfg = config.PipelineConfig()\n"
            "for c in (cfg, config.PipelineConfig(noise_sigma=2.0)):\n"
            "    draws = sim._Draws()\n"
            "    sim._collect(sim.vision_source('classical', c), sim.generate_scene(4, c), c, 4, draws)\n"
            "    draws.close()\n"
            "    print(loaded())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False]\n[False, False]\n[False, True]\n"


def _draw_overlay_by_pixel(rgb, px, theta, half_len=sim.OVERLAY_HALF_LEN):
    """draw_overlay one pixel at a time: the line's samples, then the dot."""
    out = rgb.copy()
    h, w = out.shape[:2]
    cx, cy = float(px[0]), float(px[1])
    for s in np.linspace(-half_len, half_len, int(8 * half_len) + 1):
        x = int(round(cx + s * math.cos(theta)))
        y = int(round(cy + s * math.sin(theta)))
        if 0 <= x < w and 0 <= y < h:
            out[y, x] = (0, 255, 255)
    for dy in range(-2, 3):
        for dx in range(-2, 3):
            if dx * dx + dy * dy <= 4:
                x, y = int(round(cx)) + dx, int(round(cy)) + dy
                if 0 <= x < w and 0 <= y < h:
                    out[y, x] = (255, 0, 0)
    return out


def test_overlay_matches_pixel_loop_oracle(cfg, tmp_path, monkeypatch):
    scene = sim.generate_scene(8, cfg)
    rng = np.random.default_rng(8)
    # Draws inside, across and beyond the frame edges, and half-pixel ties.
    points = [*rng.uniform((-30, -30), (286, 174), (60, 2)), (10.5, 20.5),
              (-2.5, 3.5), (255.5, 143.5), (1e6, -1e6)]
    for k, px in enumerate(points):
        theta = rng.uniform(-np.pi / 2, np.pi / 2) if k % 4 else np.pi / 4
        half_len = sim.OVERLAY_HALF_LEN if k % 3 else rng.uniform(0.0, 40.0)
        with monkeypatch.context() as patch:  # other line lengths, as a constant
            patch.setattr(sim, "OVERLAY_HALF_LEN", half_len)
            got = sim.draw_overlay(scene.rgb, px, theta)
        assert got.tobytes() == _draw_overlay_by_pixel(
            scene.rgb, px, theta, half_len).tobytes(), k
    # The artifact writer's overlay.ppm carries the same bytes.
    report = sim.run_episode(cfg, 8, ARM, classical_source(cfg), scene, out_dir=tmp_path)
    px = workspace_to_pixel(report.proposal.target, cfg)
    want = _draw_overlay_by_pixel(scene.rgb, px, report.proposal.theta)
    assert (tmp_path / "overlay.ppm").read_bytes().endswith(want.tobytes())


def test_overlay_marks_proposal(cfg):
    scene = sim.generate_scene(8, cfg)
    prop = classical.classical_pipeline(scene.rgb, cfg)
    px = workspace_to_pixel(prop.target, cfg)
    overlay = sim.draw_overlay(scene.rgb, px, prop.theta)
    x, y = int(round(px[0])), int(round(px[1]))
    assert tuple(overlay[y, x]) == (255, 0, 0)
    assert (overlay == (0, 255, 255)).all(axis=2).any()
