"""Held-out grasp quality: classical vision on seeds 5000-5299, one frame
per scene, scored against each scene's label.

Each frame's noise of sigma comes from conftest.noisy_frame on the stream
np.random.default_rng([seed, 9]). A row counts the frames where vision
failed, the pixel distance from the proposal to the label crease's
midpoint, the share of frames within good_grasp_px of it, and the yaw error
|wrap_half_pi(theta - label theta)|. Each bound is the figure measured when
the bound was set: a floor that a better change tightens and none loosens.

Learned vision is not scored here yet: training the acceptance recipe
(200 scenes, 50 epochs) would take this file past its 10 s budget.

Print the table:
    PYTHONPATH=src python tests/test_quality.py
"""

import functools
import math
import statistics

import numpy as np
import pytest

from baggrasp import config, sim
from baggrasp.classical import (VisionError, classical_pipeline, workspace_to_pixel,
                                wrap_half_pi)
from baggrasp.image_io import Workspace
from conftest import noisy_frame

SEEDS = range(5000, 5300)
SIGMAS = (0.0, 2.0, 8.0)
# sigma -> (failures, max px, good-grasp rate, angles over 2 degrees).
BOUNDS = {0.0: (0, 0.5696, 1.0, 65), 2.0: (0, 0.5696, 1.0, 65), 8.0: (0, 0.5696, 1.0, 64)}


@functools.cache
def _scenes() -> tuple:
    cfg = config.PipelineConfig()
    return tuple(sim.generate_scene(seed, cfg) for seed in SEEDS)


@functools.cache
def classical_row(sigma: float) -> dict:
    """The quality figures of classical vision at noise sigma."""
    cfg = config.PipelineConfig()
    ws = Workspace(cfg.scene_height, cfg.scene_width)
    px, angles, failures = [], [], 0
    for seed, scene in zip(SEEDS, _scenes()):
        rgb = noisy_frame(np.random.default_rng([seed, 9]), scene, sigma)[0]
        try:
            prop = classical_pipeline(rgb, cfg, ws)
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


@pytest.mark.parametrize("sigma", SIGMAS)
def test_classical_quality_holds_its_floor(sigma):
    row = classical_row(sigma)
    failures, max_px, good, over_2deg = BOUNDS[sigma]
    assert row["failures"] <= failures, row
    assert row["max_px"] <= max_px, row
    assert row["good"] >= good, row
    assert row["over_2deg"] <= over_2deg, row


def table() -> str:
    lines = ["| vision | σ | failures | median px | max px | good-grasp | median angle "
             "| p90 angle | max angle | > 2° |", "| --- " * 10 + "|"]
    for sigma in SIGMAS:
        r = classical_row(sigma)
        lines.append(f"| classical | {sigma:g} | {r['failures']} | {r['median_px']:.2f} | "
                     f"{r['max_px']:.2f} | {r['good']:.3f} | {r['median_angle']:.2f}° | "
                     f"{r['p90_angle']:.1f}° | {r['max_angle']:.1f}° | {r['over_2deg']} |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(table())
