"""Grasp-proposal denoising: buffer a timestamped stream, keep a sliding
window, single-linkage-cluster the targets, and report the biggest cluster's
centroid with the mode grasp angle."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classical import GraspProposal, connected_components

THETA_BIN = math.radians(5.0)


@dataclass
class ProposalBuffer:
    """Ordered proposal store with a sliding time window.

    Push and query must be serialized by the caller (the simulator ticks
    them from one loop); cluster/select work on snapshots and are pure.
    """

    window: float = 10.0
    distance_threshold: float = 0.02
    proposals: list = field(default_factory=list)

    def push(self, proposal: GraspProposal) -> "ProposalBuffer":
        if self.proposals and proposal.t < self.proposals[-1].t:
            raise ValueError(
                f"out-of-order timestamp {proposal.t} after {self.proposals[-1].t}")
        self.proposals.append(proposal)
        return self

    def window_filter(self, now: float) -> "ProposalBuffer":
        """New buffer holding proposals with now - t <= window (closed)."""
        kept = [p for p in self.proposals if now - p.t <= self.window]
        return ProposalBuffer(self.window, self.distance_threshold, kept)

    def __len__(self) -> int:
        return len(self.proposals)


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


def denoise(buffer: ProposalBuffer, now: float) -> GraspProposal:
    """Window-filter, cluster, and select in one call."""
    windowed = buffer.window_filter(now)
    return select(cluster(windowed.proposals, buffer.distance_threshold))
