"""Held-out grasp quality: classical vision, and learned vision trained on
the acceptance recipe (conftest.acceptance_params), on seeds 5000-5299, one
frame per scene, scored against each scene's label.

Each frame's noise of sigma comes from conftest.noisy_frame on the stream
np.random.default_rng([seed, 9]). A row counts the frames where vision
failed, the pixel distance from the proposal to the label crease's
midpoint, the share of frames within good_grasp_px of it, and the yaw error
|wrap_half_pi(theta - label theta)|. Each bound is the figure measured when
the bound was set: a floor that a better change tightens and none loosens.

Print the table:
    PYTHONPATH=src python tests/test_quality.py
"""

import functools
import math
import statistics

import numpy as np
import pytest

from baggrasp import config, sim
from baggrasp.classical import VisionError, workspace_to_pixel, wrap_half_pi
from baggrasp.image_io import Workspace
from conftest import acceptance_params, noisy_frame

SEEDS = range(5000, 5300)
SIGMAS = {"classical": (0.0, 2.0, 8.0), "learned": (0.0, 2.0)}
# (vision, sigma) -> (failures, max px, good-grasp rate, angles over 2 degrees).
BOUNDS = {("classical", 0.0): (0, 0.5696, 1.0, 65), ("classical", 2.0): (0, 0.5696, 1.0, 65),
          ("classical", 8.0): (0, 0.5696, 1.0, 64),
          ("learned", 0.0): (0, 129.5933, 18 / 300, 295),
          ("learned", 2.0): (0, 128.2878, 19 / 300, 295)}


@functools.cache
def _scenes() -> tuple:
    cfg = config.PipelineConfig()
    return tuple(sim.generate_scene(seed, cfg) for seed in SEEDS)


@functools.cache
def quality_row(vision: str, sigma: float) -> dict:
    """The quality figures of vision ("classical" or "learned") at noise sigma."""
    cfg = config.PipelineConfig()
    ws = Workspace(cfg.scene_height, cfg.scene_width)
    source = sim.vision_source(vision, cfg, acceptance_params() if vision == "learned"
                               else None)
    px, angles, failures = [], [], 0
    for seed, scene in zip(SEEDS, _scenes()):
        try:
            prop = source(*noisy_frame(np.random.default_rng([seed, 9]), scene, sigma), ws)
        except VisionError:
            failures += 1
            continue
        px.append(float(np.linalg.norm(workspace_to_pixel(prop.target, cfg)
                                       - scene.label[0])))
        angles.append(math.degrees(abs(wrap_half_pi(prop.theta - scene.label[1]))))
    return {"failures": failures, "median_px": statistics.median(px), "max_px": max(px),
            "good": sum(p <= cfg.good_grasp_px for p in px) / len(SEEDS),
            "median_angle": statistics.median(angles),
            "p90_angle": float(np.percentile(angles, 90)), "max_angle": max(angles),
            "over_2deg": sum(a > 2.0 for a in angles)}


def _holds_its_floor(vision, sigma):
    row = quality_row(vision, sigma)
    failures, max_px, good, over_2deg = BOUNDS[vision, sigma]
    assert row["failures"] <= failures, row
    assert row["max_px"] <= max_px, row
    assert row["good"] >= good, row
    assert row["over_2deg"] <= over_2deg, row


@pytest.mark.parametrize("sigma", SIGMAS["classical"])
def test_classical_quality_holds_its_floor(sigma):
    _holds_its_floor("classical", sigma)


@pytest.mark.parametrize("sigma", SIGMAS["learned"])
def test_learned_quality_holds_its_floor(sigma):
    _holds_its_floor("learned", sigma)


def table() -> str:
    lines = ["| vision | σ | failures | median px | max px | good-grasp | median angle "
             "| p90 angle | max angle | > 2° |", "| --- " * 10 + "|"]
    for vision, sigma in BOUNDS:
        r = quality_row(vision, sigma)
        lines.append(f"| {vision} | {sigma:g} | {r['failures']} | {r['median_px']:.2f} | "
                     f"{r['max_px']:.2f} | {r['good']:.3f} | {r['median_angle']:.2f}° | "
                     f"{r['p90_angle']:.1f}° | {r['max_angle']:.1f}° | {r['over_2deg']} |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(table())
