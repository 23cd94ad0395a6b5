import math

import numpy as np
import pytest

from baggrasp import denoise as denoise_mod
from baggrasp.classical import GraspProposal
from baggrasp.denoise import cluster, denoise, select


def prop(x, y, theta=0.0, t=0.0):
    return GraspProposal(x, y, theta, t)


# --- ordering and window ---

def _kept(monkeypatch, proposals, now):
    """The proposals denoise hands to cluster (window 10): its sorted,
    windowed list."""
    seen = []

    def spy(props, threshold):
        seen.extend(props)
        return cluster(props, threshold)
    monkeypatch.setattr(denoise_mod, "cluster", spy)
    denoise(proposals, now, 10.0, 0.02)
    return seen


def test_denoise_shuffled_equals_sorted():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        ts = np.round(rng.uniform(0, 15, n), 1)  # repeats: ties keep input order
        props = [prop(x, y, th, t=float(t)) for x, y, th, t in zip(
            rng.uniform(0.4, 0.5, n), rng.uniform(0, 0.1, n),
            rng.uniform(-1.5, 1.5, n), ts)]
        ordered = sorted(props, key=lambda p: p.t)
        for now in (7.0, 15.0):
            assert (denoise(props, now, 10.0, 0.02)
                    == denoise(ordered, now, 10.0, 0.02))


def test_denoise_allows_equal_timestamps(monkeypatch):
    a, b = prop(0, 0, t=2.0), prop(1, 1, t=2.0)
    assert _kept(monkeypatch, [a, b], 2.0) == [a, b]
    assert _kept(monkeypatch, [b, a], 2.0) == [b, a]


def test_window_filter_boundaries(monkeypatch):
    props = [prop(0, 0, t=t) for t in (11.0, 0.0, 5.0, 1.0)]
    kept = _kept(monkeypatch, props, 11.0)
    assert [p.t for p in kept] == [1.0, 5.0, 11.0]  # 11-1=10 kept


def test_window_filter_now_before_all(monkeypatch):
    props = [prop(0, 0, t=t) for t in (3.0, 4.0)]
    assert len(_kept(monkeypatch, props, 1.0)) == 2


def test_window_filter_empty():
    with pytest.raises(ValueError, match="no proposals"):
        denoise([], 5.0, 10.0, 0.02)
    with pytest.raises(ValueError, match="no proposals"):
        denoise([prop(0, 0, t=0.0)], 20.0, 10.0, 0.02)


# --- clustering ---

def test_cluster_example():
    props = [prop(0, 0), prop(0.01, 0), prop(1, 1)]
    clusters = cluster(props, 0.05)
    assert sorted(len(c) for c in clusters) == [1, 2]


def test_cluster_infinite_threshold():
    props = [prop(i, -i) for i in range(5)]
    assert len(cluster(props, math.inf)) == 1


def test_cluster_zero_threshold_singletons():
    props = [prop(i * 0.1, 0) for i in range(5)]
    assert all(len(c) == 1 for c in cluster(props, 0.0))


def _brute_force_components(props, threshold):
    n = len(props)
    adj = [[np.linalg.norm(props[i].target - props[j].target) <= threshold
            for j in range(n)] for i in range(n)]
    # transitive closure
    for k in range(n):
        for i in range(n):
            for j in range(n):
                adj[i][j] = adj[i][j] or (adj[i][k] and adj[k][j])
    labels = [-1] * n
    next_label = 0
    for i in range(n):
        if labels[i] < 0:
            for j in range(n):
                if adj[i][j]:
                    labels[j] = next_label
            next_label += 1
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(i)
    return {frozenset(g) for g in groups.values()}


def _membership(props, clusters):
    index = {id(p): i for i, p in enumerate(props)}
    return {frozenset(index[id(p)] for p in c) for c in clusters}


def test_cluster_matches_transitive_closure():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 21))
        props = [prop(rng.uniform(0, 0.2), rng.uniform(0, 0.2)) for _ in range(n)]
        threshold = rng.uniform(0.0, 0.1)
        got = _membership(props, cluster(props, threshold))
        assert got == _brute_force_components(props, threshold)


def test_cluster_partition_and_permutation_invariance():
    rng = np.random.default_rng(1)
    props = [prop(rng.uniform(0, 0.1), rng.uniform(0, 0.1), t=float(i))
             for i in range(15)]
    base = cluster(props, 0.03)
    assert sum(len(c) for c in base) == len(props)
    flat = [p for c in base for p in c]
    assert len({id(p) for p in flat}) == len(props)
    key = {frozenset((p.x, p.y, p.t) for p in c) for c in base}
    for _ in range(5):
        order = rng.permutation(len(props))
        shuffled = cluster([props[i] for i in order], 0.03)
        assert {frozenset((p.x, p.y, p.t) for p in c) for c in shuffled} == key


def test_cluster_count_monotone_in_threshold():
    rng = np.random.default_rng(2)
    props = [prop(rng.uniform(0, 0.1), rng.uniform(0, 0.1)) for _ in range(12)]
    counts = [len(cluster(props, th)) for th in np.linspace(0.0, 0.15, 16)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def _bfs_cluster(proposals, threshold):
    """cluster as first written: a BFS from each unassigned proposal in input
    order, members sorted back into input order."""
    n = len(proposals)
    targets = np.array([p.target for p in proposals]).reshape(n, 2)
    assigned = [False] * n
    clusters = []
    for i in range(n):
        if assigned[i]:
            continue
        members = [i]
        assigned[i] = True
        queue = [i]
        while queue:
            j = queue.pop(0)
            dists = np.linalg.norm(targets - targets[j], axis=1)
            for k in range(n):
                if not assigned[k] and dists[k] <= threshold:
                    assigned[k] = True
                    members.append(k)
                    queue.append(k)
        clusters.append([proposals[m] for m in sorted(members)])
    return clusters


def test_cluster_matches_bfs_oracle():
    rng = np.random.default_rng(3)
    for trial in range(500):
        n = int(rng.integers(0, 41))
        spread = rng.uniform(0.01, 0.3)
        xy = rng.uniform(0, spread, size=(n, 2))
        if trial % 4 == 0:  # repeated targets, joined even at threshold 0
            xy = np.round(xy, 2)
        props = [prop(x, y, t=float(i)) for i, (x, y) in enumerate(xy.tolist())]
        threshold = (0.0, math.inf, rng.uniform(0.0, 0.05))[trial % 3]
        got = cluster(props, threshold)
        want = _bfs_cluster(props, threshold)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert len(g) == len(w) and all(a is b for a, b in zip(g, w))


# --- selection ---

def test_select_biggest_cluster_centroid():
    clusters = [[prop(0, 0, t=1.0), prop(0.01, 0, t=2.0)], [prop(1, 1, t=3.0)]]
    winner = select(clusters)
    assert abs(winner.x - 0.005) < 1e-12 and winner.y == 0.0
    assert winner.t == 2.0


def test_select_identical_thetas():
    clusters = [[prop(0, 0, 0.3, 1.0), prop(0, 0, 0.3, 2.0)]]
    assert select(clusters).theta == 0.3


def test_select_theta_mode_binning():
    # 5-degree bins: 0.10 and 0.11 rad share a bin, 0.50 rad stands alone.
    clusters = [[prop(0, 0, 0.10, 1.0), prop(0, 0, 0.11, 2.0),
                 prop(0, 0, 0.50, 3.0)]]
    assert abs(select(clusters).theta - 0.105) < 1e-12


def test_select_theta_tie_prefers_smallest_abs():
    clusters = [[prop(0, 0, 0.02, 1.0), prop(0, 0, 0.50, 2.0)]]
    assert abs(select(clusters).theta - 0.02) < 1e-12


def test_select_size_tie_prefers_most_recent():
    clusters = [[prop(0, 0, 0.1, t=1.0)], [prop(1, 1, 0.2, t=9.0)]]
    assert select(clusters).theta == 0.2


def test_select_empty():
    with pytest.raises(ValueError, match="no proposals"):
        select([])


def test_denoise_end_to_end():
    props = [prop(0.5, 0.1, 0.2, t=1.0), prop(0.501, 0.101, 0.21, t=2.0),
             prop(0.9, 0.4, -0.5, t=3.0)]
    out = denoise(props, 10.0, window=10.0, threshold=0.05)
    assert abs(out.x - 0.5005) < 1e-12
    assert abs(out.theta - 0.205) < 1e-12
    assert out.t == 2.0
