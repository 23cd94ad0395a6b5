"""Metamorphic tests: transform the input and check that classical vision's
and the denoiser's outputs move the way geometry says they must."""

from collections import Counter

import numpy as np
import pytest

from baggrasp import config, sim
from baggrasp import denoise as denoise_mod
from baggrasp.classical import (GraspProposal, VisionError, classical_pipeline,
                                workspace_to_pixel, wrap_half_pi)
from baggrasp.denoise import denoise


def _pixel_grasp(px, cfg):
    """classical_pipeline's grasp as ((x, y) pixels, theta), or the class of
    the VisionError it raised."""
    try:
        prop = classical_pipeline(np.ascontiguousarray(px), cfg)
    except VisionError as err:
        return type(err)
    return workspace_to_pixel(prop.target, cfg), prop.theta


@pytest.mark.parametrize("size", [(256, 144), (160, 160)], ids=["256x144", "160x160"])
def test_classical_pipeline_commutes_with_flips(size):
    # A horizontal flip maps x to W-1-x, a vertical one y to H-1-y, and
    # either one mirrors the jaw angle: theta to -theta.
    w, h = size
    cfg = config.PipelineConfig(scene_width=w, scene_height=h)
    grasps = 0
    for seed in range(100):
        px = sim.generate_scene(seed, cfg).rgb
        base = _pixel_grasp(px, cfg)
        for flipped, mirror in [(px[:, ::-1], np.array([w - 1.0, 0.0])),
                                (px[::-1], np.array([0.0, h - 1.0]))]:
            got = _pixel_grasp(flipped, cfg)
            if isinstance(base, type):
                assert got is base, seed
                continue
            want = np.where(mirror > 0, mirror - base[0], base[0])
            assert np.abs(got[0] - want).max() <= 1e-9, seed
            assert abs(wrap_half_pi(got[1] + base[1])) <= 1e-9, seed
        grasps += not isinstance(base, type)
    assert grasps >= 90


def _stream(rng, n):
    """n proposals with distinct timestamps: a few clumps of targets, some
    of them within the 0.02 m clustering threshold of each other."""
    centres = rng.uniform([0.40, -0.05], [0.55, 0.10], size=(3, 2))
    targets = centres[rng.integers(0, 3, n)] + rng.uniform(-0.01, 0.01, (n, 2))
    ts = rng.permutation(n) * 0.25 + rng.uniform(0.0, 0.2)
    return [GraspProposal(float(x), float(y), float(th), float(t)) for (x, y), th, t
            in zip(targets, rng.uniform(-1.5, 1.5, n), ts)]


def test_denoise_invariant_under_permuting_distinct_timestamps():
    rng = np.random.default_rng(41)
    for _ in range(60):
        props = _stream(rng, int(rng.integers(1, 40)))
        now = max(p.t for p in props) + rng.choice([0.0, 3.0])
        want = denoise(props, now, 10.0, 0.02)
        for _ in range(4):
            shuffled = [props[i] for i in rng.permutation(len(props))]
            assert denoise(shuffled, now, 10.0, 0.02) == want


def test_denoise_negating_every_theta_negates_the_winner():
    # theta is drawn off the 5-degree bin edges from 3 bins per trial, so
    # the mode's count ties are common; |theta| breaks them either way.
    step = denoise_mod.THETA_BIN
    rng = np.random.default_rng(43)
    trials, ties = 300, 0
    for _ in range(trials):
        n = int(rng.integers(1, 12))
        bins = rng.choice(rng.choice(np.arange(-18, 18), size=3, replace=False), size=n)
        thetas = (bins + rng.uniform(0.05, 0.95, n)) * step
        main = [GraspProposal(float(0.45 + dx), float(0.05 + dy), float(th), float(i))
                for i, (dx, dy, th) in enumerate(zip(*rng.uniform(-0.005, 0.005, (2, n)),
                                                     thetas))]
        outliers = [GraspProposal(0.30, -0.10, float(th), float(n + i))
                    for i, th in enumerate(rng.uniform(-1.5, 1.5, int(rng.integers(0, n))))]
        props = main + outliers
        mirrored = [GraspProposal(p.x, p.y, -p.theta, p.t) for p in props]
        got = denoise(props, 100.0, 1000.0, 0.02)
        neg = denoise(mirrored, 100.0, 1000.0, 0.02)
        assert neg.theta == -got.theta
        assert (neg.x, neg.y, neg.t) == (got.x, got.y, got.t)
        counts = sorted(Counter(bins.tolist()).values(), reverse=True)
        ties += len(counts) > 1 and counts[0] == counts[1]
    assert 0 < ties < trials
