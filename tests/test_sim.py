import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from baggrasp import classical, image_io, learned, sim
from baggrasp.classical import CameraCalibration, GraspProposal
from baggrasp.config import PipelineConfig
from baggrasp.image_io import DepthImage, RgbImage

ARM = sim.arm_for(PipelineConfig())


def classical_source(cfg):
    return sim.vision_source("classical", cfg)


def test_generate_scene_deterministic(cfg):
    a = sim.generate_scene(42, cfg)
    b = sim.generate_scene(42, cfg)
    assert np.array_equal(a.rgb.pixels, b.rgb.pixels)
    assert np.array_equal(a.depth.pixels, b.depth.pixels)
    assert np.array_equal(a.label[0], b.label[0]) and a.label[1] == b.label[1]


def test_generate_scene_flat(cfg):
    scene = sim.generate_scene(3, cfg, flat=True)
    assert scene.creases == [] and scene.label is None
    with pytest.raises(classical.NoViableContour):
        classical.classical_pipeline(scene.rgb, cfg)


def test_generated_ball_recovered_by_color(cfg):
    for seed in range(10):
        scene = sim.generate_scene(seed, cfg)
        ball = classical.detect_ball(scene.rgb, cfg.color_low, cfg.color_high)
        assert np.linalg.norm(ball.center - scene.ball_center) < 1.0


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
    depth = scene.depth.pixels
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
        assert scene.rgb.pixels.tobytes() == rgb.tobytes(), seed
        assert scene.depth.pixels.tobytes() == depth.tobytes(), seed
        for seg in scene.creases:
            reach = 8.5 * seg.width + 1.0
            clipped += bool(np.any(np.minimum(seg.p0, seg.p1) - reach < 0)
                            or np.any(np.maximum(seg.p0, seg.p1) + reach >= size))
    assert clipped >= 10


def test_step_plant_zero_velocity():
    q = np.linspace(-1, 1, 7)
    limits = np.tile((-2.0, 2.0), (7, 1))
    assert np.array_equal(sim.step_plant(q, np.zeros(7), 0.01, *limits.T), q)


def test_step_plant_constant_velocity_exact():
    q = np.zeros(7)
    qdot = np.full(7, 0.3)
    limits = np.tile((-10.0, 10.0), (7, 1))
    for _ in range(50):
        q = sim.step_plant(q, qdot, 0.01, *limits.T)
    assert np.allclose(q, 50 * 0.01 * 0.3, atol=1e-12)


def test_step_plant_clamps_at_limits():
    limits = np.tile((-0.1, 0.1), (7, 1))
    q = sim.step_plant(np.full(7, 0.09), np.full(7, 10.0), 0.01, *limits.T)
    assert np.allclose(q, 0.1)


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


def test_episode_accepts_bare_image_pair(cfg):
    scene = sim.generate_scene(12, cfg)
    report = sim.run_episode(cfg, 12, ARM, classical_source(cfg),
                             dataclasses.replace(scene, label=None))
    assert report.success
    assert report.proposal_px_err is None  # no ground truth available


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


def _counting(source):
    calls = []

    def counted(rgb, depth, t):
        calls.append(t)
        return source(rgb, depth, t)
    return counted, calls


@pytest.mark.parametrize("seed, flat, noise_sigma", [
    (4, False, 0.0), (4, False, 2.0), (9, True, 0.0)])
def test_collect_runs_noise_free_source_once(cfg, seed, flat, noise_sigma):
    run_cfg = dataclasses.replace(cfg, noise_sigma=noise_sigma, frame_rate=2.0)
    scene = sim.generate_scene(seed, run_cfg, flat=flat)
    source, calls = _counting(classical_source(run_cfg))
    proposals, now, frames, error = sim._collect(source, scene, run_cfg, seed)
    assert frames == 20 and now == run_cfg.window
    assert len(calls) == (1 if noise_sigma == 0 else frames)
    # Oracle: every frame through the source in turn, as noisy frames are.
    rng = np.random.default_rng([seed, 1])
    want, want_error = [], ""
    for k in range(frames):
        rgb, depth = sim.add_pixel_noise(rng, scene.rgb, scene.depth, noise_sigma)
        try:
            want.append(classical_source(run_cfg)(rgb, depth, k / run_cfg.frame_rate))
        except classical.VisionError as err:
            want_error = str(err)
    assert proposals == want and error == want_error
    assert (len(want) == 0) == flat and (error != "") == flat


def _seen_frames(source):
    """source wrapped to record the exact bytes of every frame it is given."""
    seen = []

    def recorded(rgb, depth, t):
        seen.append((t, rgb.pixels.tobytes(), depth.pixels.tobytes()))
        return source(rgb, depth, t)
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
    proposals, _, frames, error = sim._collect(source, scene, run_cfg, 6)
    assert threading.active_count() == threads
    # Oracle: add_pixel_noise as first written, inline, frame after frame
    # from the episode's rng.
    rng = np.random.default_rng([6, 1])
    want, want_props, want_error = [], [], ""
    for k in range(frames):
        noisy_rgb, noisy_dep = _float_copy_pixel_noise(rng, scene.rgb, scene.depth,
                                                       noise_sigma)
        rgb, depth = RgbImage(noisy_rgb), DepthImage(noisy_dep)
        want.append((k / frame_rate, rgb.pixels.tobytes(), depth.pixels.tobytes()))
        try:
            want_props.append(sim.vision_source(vision, run_cfg, params)(
                rgb, depth, k / frame_rate))
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


@pytest.mark.parametrize("noise_sigma", [0.0, 2.0])
def test_collect_draws_one_frame_ahead_only_when_noisy(cfg, monkeypatch, noise_sigma):
    run_cfg = dataclasses.replace(cfg, noise_sigma=noise_sigma, frame_rate=2.0)
    scene = sim.generate_scene(4, run_cfg)
    started = _thread_starts(monkeypatch)
    draws, leads = [], []
    noisy_frame = sim._noisy_frame

    def counted_draw(*args):
        draws.append(threading.current_thread())
        return noisy_frame(*args)
    monkeypatch.setattr(sim, "_noisy_frame", counted_draw)

    def slow(rgb, depth, t):
        time.sleep(0.005)  # room for draws queued too far ahead to start
        leads.append(len(draws) - round(t * run_cfg.frame_rate))
        return classical_source(run_cfg)(rgb, depth, t)
    threads = threading.active_count()
    _, _, frames, _ = sim._collect(slow, scene, run_cfg, 4)
    assert threading.active_count() == threads
    assert len(started) == (1 if noise_sigma else 0)
    assert draws == started * frames  # every frame drawn on the one worker
    assert max(leads) <= 2  # frame k is seen with at most k + 2 draws started


def _record_public_calls(monkeypatch, modules):
    """Wrap every public function of modules, wherever the package holds
    it, to record (name, thread) of each call."""
    calls, wrapped = [], {}

    def recording(fn):
        def recorded(*args, **kwargs):
            calls.append((fn.__name__, threading.current_thread()))
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
    return calls


@pytest.mark.parametrize("vision", ["classical", "learned"])
def test_collect_runs_public_functions_on_the_calling_thread(cfg, monkeypatch,
                                                             vision):
    # perfbench's tracer keeps one span stack, so the draw worker may run
    # only private code.
    run_cfg = dataclasses.replace(cfg, noise_sigma=2.0, frame_rate=2.0)
    scene = sim.generate_scene(4, run_cfg)
    params = learned.init_params(0) if vision == "learned" else None
    source = sim.vision_source(vision, run_cfg, params)
    calls = _record_public_calls(monkeypatch, (sim, classical, image_io))
    sim._collect(source, scene, run_cfg, 4)
    names = {name for name, _ in calls}
    assert ({"classical_pipeline", "canny", "to_gray"} if vision == "classical"
            else {"pixel_to_workspace", "resize_bilinear"}) <= names
    assert [name for name, thread in calls
            if thread is not threading.current_thread()] == []


def test_collect_raises_a_failed_draw(cfg, monkeypatch):
    run_cfg = dataclasses.replace(cfg, noise_sigma=2.0)
    scene = sim.generate_scene(4, run_cfg)
    draws = []
    noisy_frame = sim._noisy_frame

    def failing(*args):
        draws.append(threading.current_thread())
        if len(draws) == 4:
            raise MemoryError("draw of frame 3")
        return noisy_frame(*args)
    monkeypatch.setattr(sim, "_noisy_frame", failing)
    source, seen = _seen_frames(classical_source(run_cfg))
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="draw of frame 3"):
        sim._collect(source, scene, run_cfg, 4)
    assert threading.active_count() == threads
    assert [t for t, _, _ in seen] == [0.0, 1.0, 2.0]
    assert threading.main_thread() not in draws


def test_collect_propagates_a_source_error(cfg):
    run_cfg = dataclasses.replace(cfg, noise_sigma=2.0)
    scene = sim.generate_scene(4, run_cfg)
    calls = []

    def broken(rgb, depth, t):
        calls.append(t)
        if len(calls) == 2:
            raise RuntimeError("source broke")
        return classical_source(run_cfg)(rgb, depth, t)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="source broke"):
        sim._collect(broken, scene, run_cfg, 4)
    assert threading.active_count() == threads and len(calls) == 2


def test_run_batch_noisy_rows_repeat(cfg):
    run_cfg = dataclasses.replace(cfg, noise_sigma=2.0, frame_rate=2.0)
    rows = sim.run_batch(run_cfg, 2, 13)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads trade turns as often as they can
    try:
        assert sim.run_batch(run_cfg, 2, 13) == rows
    finally:
        sys.setswitchinterval(interval)


def _float_copy_pixel_noise(rng, rgb, depth, sigma):
    """add_pixel_noise as first written: a float copy of each image plus its
    draws, then round, clip and cast."""
    noisy_rgb = np.clip(np.round(rgb.pixels.astype(float)
                                 + rng.normal(0.0, sigma, rgb.pixels.shape)),
                        0, 255).astype(np.uint8)
    noisy_dep = np.clip(np.round(depth.pixels.astype(float)
                                 + rng.normal(0.0, sigma, depth.pixels.shape)),
                        0, 65535).astype(np.uint16)
    return noisy_rgb, noisy_dep


@pytest.mark.parametrize("sigma", [0.5, 2.0, 32.0])
def test_add_pixel_noise_matches_float_copy_formula(cfg, sigma):
    # One seeded stream of frames each: the draws keep their order and values.
    scenes = [sim.generate_scene(seed, cfg) for seed in (3, 4)]
    before = [(s.rgb.pixels.copy(), s.depth.pixels.copy()) for s in scenes]
    rng, rng_want = np.random.default_rng(11), np.random.default_rng(11)
    for k in range(6):
        scene = scenes[k % 2]
        rgb, depth = sim.add_pixel_noise(rng, scene.rgb, scene.depth, sigma)
        want_rgb, want_dep = _float_copy_pixel_noise(rng_want, scene.rgb,
                                                     scene.depth, sigma)
        assert rgb.pixels.dtype == np.uint8 and depth.pixels.dtype == np.uint16
        assert np.array_equal(rgb.pixels, want_rgb)
        assert np.array_equal(depth.pixels, want_dep)
    for s, (rgb0, dep0) in zip(scenes, before):
        assert np.array_equal(s.rgb.pixels, rgb0) and np.array_equal(s.depth.pixels, dep0)


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
    # Only a noisy collection imports concurrent.futures: its dozen modules
    # would raise the peak memory of runs that draw no noise.
    src = str(Path(sim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, baggrasp.cli\n"
            "from baggrasp import config, sim\n"
            "print('concurrent.futures' in sys.modules)\n"
            "cfg = config.PipelineConfig()\n"
            "sim._collect(sim.vision_source('classical', cfg), sim.generate_scene(4, cfg), cfg, 4)\n"
            "print('concurrent.futures' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0 and proc.stdout == "False\nFalse\n", proc.stderr


def _draw_overlay_by_pixel(rgb, px, theta, half_len=18.0):
    """draw_overlay one pixel at a time: the line's samples, then the dot."""
    out = rgb.pixels.copy()
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


def test_overlay_matches_pixel_loop_oracle(cfg, tmp_path):
    scene = sim.generate_scene(8, cfg)
    rng = np.random.default_rng(8)
    # Draws inside, across and beyond the frame edges, and half-pixel ties.
    points = [*rng.uniform((-30, -30), (286, 174), (60, 2)), (10.5, 20.5),
              (-2.5, 3.5), (255.5, 143.5), (1e6, -1e6)]
    for k, px in enumerate(points):
        theta = rng.uniform(-np.pi / 2, np.pi / 2) if k % 4 else np.pi / 4
        half_len = 18.0 if k % 3 else rng.uniform(0.0, 40.0)
        got = sim.draw_overlay(scene.rgb, px, theta, half_len)
        assert got.pixels.tobytes() == _draw_overlay_by_pixel(
            scene.rgb, px, theta, half_len).tobytes(), k
    # The artifact writer's overlay.ppm carries the same bytes.
    report = sim.run_episode(cfg, 8, ARM, classical_source(cfg), scene, out_dir=tmp_path)
    px = CameraCalibration.from_config(cfg).to_pixel(report.proposal.target)
    want = _draw_overlay_by_pixel(scene.rgb, px, report.proposal.theta)
    assert (tmp_path / "overlay.ppm").read_bytes().endswith(want.tobytes())


def test_overlay_marks_proposal(cfg):
    scene = sim.generate_scene(8, cfg)
    prop = classical.classical_pipeline(scene.rgb, cfg)
    cal = CameraCalibration.from_config(cfg)
    px = cal.to_pixel(prop.target)
    overlay = sim.draw_overlay(scene.rgb, px, prop.theta)
    x, y = int(round(px[0])), int(round(px[1]))
    assert tuple(overlay.pixels[y, x]) == (255, 0, 0)
    assert (overlay.pixels == (0, 255, 255)).all(axis=2).any()
