"""Grasp-proposal denoising: order a timestamped stream, keep a sliding
window, single-linkage-cluster the targets, and report the biggest cluster's
centroid with the mode grasp angle."""

from __future__ import annotations

import math

import numpy as np

from .classical import GraspProposal, connected_components
from .config import MAX_FRAMES, InputError

THETA_BIN = math.radians(5.0)


def cluster(proposals, threshold: float) -> list[list[GraspProposal]]:
    """Single-linkage clusters: connected components of the graph with an
    edge wherever two targets are within threshold of each other, in order
    of their first member, each in input order."""
    n = len(proposals)
    targets = np.array([p.target for p in proposals]).reshape(n, 2)
    near = np.linalg.norm(targets[:, None] - targets[None], axis=2) <= threshold
    label = connected_components(n, *np.nonzero(near))
    clusters: dict[int, list[GraspProposal]] = {}
    for prop, root in zip(proposals, label.tolist()):
        clusters.setdefault(root, []).append(prop)
    return list(clusters.values())


def _mode_theta(thetas: list[float]) -> float:
    """Mode after 5-degree quantization; returns the winning bin's mean.

    Count ties go to the bin containing the smallest |theta|.
    """
    bins: dict[int, list[float]] = {}
    for th in thetas:
        bins.setdefault(int(math.floor(th / THETA_BIN)), []).append(th)
    best = min(bins.items(),
               key=lambda kv: (-len(kv[1]), min(abs(t) for t in kv[1]), kv[0]))
    return float(np.mean(best[1]))


def select(clusters) -> GraspProposal:
    """Winning proposal: biggest cluster (ties -> most recent), centroid
    target, mode theta, newest member timestamp."""
    if not clusters:
        raise ValueError("no proposals")
    winner = min(enumerate(clusters),
                 key=lambda kv: (-len(kv[1]), -max(p.t for p in kv[1]), kv[0]))[1]
    centroid = np.mean([p.target for p in winner], axis=0)
    theta = _mode_theta([p.theta for p in winner])
    t = max(p.t for p in winner)
    return GraspProposal(float(centroid[0]), float(centroid[1]), theta, t)


def denoise(proposals, now: float, window: float, threshold: float) -> GraspProposal:
    """Sort stably by timestamp, keep proposals with now - t <= window
    (closed), at most MAX_FRAMES of them, then cluster and select."""
    kept = [p for p in sorted(proposals, key=lambda p: p.t) if now - p.t <= window]
    if len(kept) > MAX_FRAMES:
        raise InputError(f"{len(kept)} proposals in the window; at most {MAX_FRAMES}")
    return select(cluster(kept, threshold))
