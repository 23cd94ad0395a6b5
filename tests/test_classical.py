import itertools
import math

import numpy as np
import pytest

from baggrasp import classical, config, sim
from baggrasp.classical import (BallNotFound, GraspProposal,
                                NoViableContour, canny, classical_pipeline,
                                connected_components, detect_ball, find_contours,
                                gaussian_blur, perimeter, pixel_to_workspace,
                                polygon_theta, select_grasp, sobel_gradients,
                                workspace_to_pixel)
from baggrasp.image_io import Workspace, to_gray
from conftest import noisy_frame


# --- gaussian blur ---

def test_blur_constant_unchanged():
    img = np.full((12, 15), 0.4)
    assert np.allclose(gaussian_blur(img, 1.4), 0.4, atol=1e-9)


def _dense_blur_oracle(src, sigma):
    radius = int(np.ceil(3.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=float)
    k1 = np.exp(-(xs * xs) / (2 * sigma * sigma))
    k1 /= k1.sum()
    kernel = np.outer(k1, k1)
    h, w = src.shape
    padded = np.pad(src, radius, mode="edge")
    out = np.zeros_like(src)
    for y in range(h):
        for x in range(w):
            out[y, x] = np.sum(kernel * padded[y:y + 2 * radius + 1,
                                               x:x + 2 * radius + 1])
    return out


def test_blur_single_pixel_against_direct_convolution():
    src = np.zeros((15, 15))
    src[7, 7] = 1.0
    out = gaussian_blur(src, 1.0)
    assert np.allclose(out, _dense_blur_oracle(src, 1.0), atol=1e-9)
    # interior impulse: normalized kernel preserves total mass
    assert abs(out.sum() - 1.0) < 1e-6
    assert np.allclose(out, out.T, atol=1e-12)


def test_blur_semigroup():
    # Piecewise-constant pipeline-like input; truncated sampled kernels only
    # approximate the continuous semigroup, so high-frequency noise is out.
    gray = to_gray(sim.generate_scene(0, config.PipelineConfig()).rgb)
    two = gaussian_blur(gaussian_blur(gray, 1.4), 1.4)
    one = gaussian_blur(gray, 1.4 * math.sqrt(2.0))
    assert np.abs(two - one).max() < 1e-3


def test_blur_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gaussian_blur(np.zeros((4, 4)), 0.0)


# --- canny ---

def _mask(edges, shape):
    """The bool mask (h, w) of canny's edge set (ids, label)."""
    h, w = shape
    keep = np.zeros((h + 2) * (w + 2), dtype=bool)
    keep[edges[0]] = True
    return keep.reshape(h + 2, w + 2)[1:-1, 1:-1]


def _edge_set(mask):
    """The edge set of a bool mask: np.pad(mask, 1)'s flat ids and their
    classical._label8 labels."""
    ids = np.flatnonzero(np.pad(mask, 1))
    return ids, classical._label8(ids, mask.shape[1])


def _same_edges(got, want):
    return all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def _contours(mask):
    """find_contours on a bool mask's edge set."""
    return find_contours(*_edge_set(mask), mask.shape[1])


def test_canny_constant_empty():
    img = np.full((10, 10), 0.7)
    assert len(canny(img, 0.1, 0.2)[0]) == 0


def test_canny_vertical_step_edge():
    step = np.zeros((20, 30))
    step[:, 15:] = 1.0
    edges = _mask(canny(step, 0.1, 0.2), step.shape)
    cols = np.unique(np.nonzero(edges)[1])
    assert len(cols) == 1 and abs(int(cols[0]) - 15) <= 1
    # one-pixel-wide line spanning the image height
    assert edges[:, cols[0]].all()


def test_canny_weak_speckle_absent():
    img = np.full((11, 11), 0.5)
    img[5, 5] = 0.52  # gradient well below the low threshold
    assert len(canny(img, 0.1, 0.2)[0]) == 0


def test_canny_mask_subset_of_low_threshold():
    gray = to_gray(sim.generate_scene(3, config.PipelineConfig()).rgb)
    blurred = gaussian_blur(gray, 1.4)
    edges = _mask(canny(blurred, 0.1, 0.2), blurred.shape)
    gx, gy = sobel_gradients(blurred)
    mag = np.hypot(gx, gy)
    assert np.all(mag[edges] >= 0.1)


def test_canny_requires_ordered_thresholds():
    with pytest.raises(ValueError):
        canny(np.zeros((4, 4)), 0.3, 0.2)


# --- ball detection ---

def _disc_image(cx, cy, r, color, w=200, h=200, bg=(128, 128, 128)):
    ys, xs = np.mgrid[0:h, 0:w]
    img = np.empty((h, w, 3), dtype=np.uint8)
    img[:] = bg
    img[(xs - cx) ** 2 + (ys - cy) ** 2 <= r * r] = color
    return img


ORANGE_LO, ORANGE_HI = (200, 80, 0), (255, 160, 80)


def test_detect_ball_synthetic_disc():
    img = _disc_image(100, 100, 20, (230, 120, 40))
    center, radius = detect_ball(img, ORANGE_LO, ORANGE_HI)
    assert np.linalg.norm(center - (100, 100)) < 1.0
    assert abs(radius - 20) / 20 < 0.05


def test_detect_ball_no_pixels():
    img = np.zeros((10, 10, 3), dtype=np.uint8)
    with pytest.raises(BallNotFound):
        detect_ball(img, ORANGE_LO, ORANGE_HI)


def test_detect_ball_rejects_an_inverted_color_box():
    img = _disc_image(100, 100, 20, (230, 120, 40))
    with pytest.raises(ValueError, match="color_low must be componentwise <= color_high"):
        detect_ball(img, ORANGE_HI, ORANGE_LO)


def test_detect_ball_ignores_out_of_range_disc():
    img = _disc_image(60, 60, 15, (230, 120, 40))
    px = img.copy()
    ys, xs = np.mgrid[0:200, 0:200]
    px[(xs - 150) ** 2 + (ys - 150) ** 2 <= 400] = (0, 0, 255)  # distractor
    center, _ = detect_ball(px, ORANGE_LO, ORANGE_HI)
    assert np.linalg.norm(center - (60, 60)) < 1.0


def test_detect_ball_matches_all_channels_formula():
    # Oracle: the (H, W, 3) box test reduced with np.all over the channels,
    # on noisy scenes and on the tiny and 0/255 frames of _oracle_frames.
    cfg = config.PipelineConfig()
    rng = np.random.default_rng(8)
    scenes = [sim.generate_scene(seed, cfg) for seed in range(6)]
    frames = [noisy_frame(rng, scene, sigma)[0]
              for scene in scenes for sigma in (0.0, 2.0, 32.0)]
    found = []
    for rgb in frames + list(_oracle_frames()):
        boxes = [(cfg.color_low, cfg.color_high), ((0, 0, 0), (255, 255, 255)),
                 ((255, 255, 255), (255, 255, 255)), ((0, 0, 0), (0, 0, 0))]
        for _ in range(4):
            a, b = rng.integers(0, 256, size=(2, 3))
            boxes.append((np.minimum(a, b), np.maximum(a, b)))
        for lo, hi in boxes:
            lo8, hi8 = np.asarray(lo, np.uint8), np.asarray(hi, np.uint8)
            ys, xs = np.nonzero(np.all((rgb >= lo8) & (rgb <= hi8), axis=2))
            found.append(len(xs) > 0)
            if len(xs) == 0:
                with pytest.raises(BallNotFound):
                    detect_ball(rgb, lo, hi)
                continue
            center, radius = detect_ball(rgb, lo, hi)
            assert np.array_equal(center, [xs.mean(), ys.mean()])
            assert radius == math.sqrt(len(xs) / math.pi)
    assert any(found) and not all(found)  # both outcomes were checked


def test_detect_ball_needs_green_and_blue_inside_the_box():
    # The red channel alone matches every pixel: only the green and blue
    # tests decide, on a ball whose mean is off the frame's centre.
    px = np.zeros((40, 50, 3), dtype=np.uint8)
    px[..., 0] = 180
    px[..., 1:] = (200, 200)
    px[5:15, 30:44, 1:] = (70, 30)
    px[20, 10] = (180, 70, 200)  # green inside, blue outside
    px[21, 11] = (180, 200, 30)  # blue inside, green outside
    lo, hi = (150, 40, 0), (215, 105, 60)
    center, radius = detect_ball(px, lo, hi)
    assert np.array_equal(center, [36.5, 9.5])
    assert radius == math.sqrt(140 / math.pi)
    px[5:15, 30:44, 2] = 61
    with pytest.raises(BallNotFound):
        detect_ball(px, lo, hi)


# --- contours ---

def test_find_contours_empty():
    assert _contours(np.zeros((8, 8), dtype=bool)) == []


def test_find_contours_hollow_square():
    mask = np.zeros((20, 20), dtype=bool)
    mask[5, 5:15] = mask[14, 5:15] = True
    mask[5:15, 5] = mask[5:15, 14] = True
    polys = _contours(mask)
    assert len(polys) == 1
    assert abs(perimeter(polys[0]) - 36.0) <= 4.0


def test_find_contours_two_segments():
    mask = np.zeros((20, 20), dtype=bool)
    mask[3, 2:8] = True
    mask[15, 10:17] = True
    assert len(_contours(mask)) == 2


def test_find_contours_drops_tiny_components():
    mask = np.zeros((8, 8), dtype=bool)
    mask[2, 2] = mask[5, 5] = mask[5, 6] = True
    assert _contours(mask) == []


# --- labeller oracles: the earlier fixpoint hysteresis and DFS contours ---

def test_connected_components_small_graphs():
    # A path numbered in reverse: 999-998-...-0, edges listed from the far end.
    far = np.arange(999, 0, -1)
    assert (connected_components(1000, far, far - 1) == 0).all()
    # Isolated nodes 0, 1 and 2 (with a self edge); duplicate edges 3-5.
    got = connected_components(7, [3, 3, 5, 2, 6], [5, 5, 3, 2, 4])
    assert got.tolist() == [0, 1, 2, 3, 4, 3, 4]
    assert connected_components(0, [], []).tolist() == []


def test_connected_components_matches_union_find():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        i, j = rng.integers(0, n, size=(2, int(rng.integers(0, 2 * n))))
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a
        for a, b in zip(i.tolist(), j.tolist()):
            ra, rb = find(a), find(b)
            parent[max(ra, rb)] = min(ra, rb)
        assert connected_components(n, i, j).tolist() == [find(a) for a in range(n)]


def _shifted(mag, dx, dy):
    """mag sampled at (x+dx, y+dy) with zeros outside the frame."""
    out = np.zeros_like(mag)
    h, w = mag.shape
    ys = slice(max(0, -dy), min(h, h - dy))
    xs = slice(max(0, -dx), min(w, w - dx))
    ys_src = slice(max(0, dy), min(h, h + dy))
    xs_src = slice(max(0, dx), min(w, w + dx))
    out[ys, xs] = mag[ys_src, xs_src]
    return out


def _fixpoint_canny(image, low, high):
    """Canny as first written: hysteresis grows the strong pixels by 8-way
    shifts until nothing changes."""
    gx, gy = sobel_gradients(image)
    mag = np.hypot(gx, gy)
    sector = np.round(np.arctan2(gy, gx) / (np.pi / 4.0)).astype(int) % 8
    thin = np.zeros(mag.shape, dtype=bool)
    for q, (dx, dy) in enumerate(classical._COMPASS):
        along = _shifted(mag, dx, dy)
        against = _shifted(mag, -dx, -dy)
        thin |= (sector == q) & (mag >= along) & (mag > against)
    thin &= mag > 0
    weak = thin & (mag >= low)
    keep = thin & (mag >= high)
    while True:
        grown = keep.copy()
        for dx, dy in classical._COMPASS:
            grown |= _shifted(keep, dx, dy).astype(bool)
        grown &= weak
        grown |= keep
        if np.array_equal(grown, keep):
            return keep
        keep = grown


_MOORE = [(-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0)]


def _tuple_trace_boundary(component):
    """_trace_boundary as first written: a Moore trace over a set of (x, y)
    tuples, clockwise from the topmost-leftmost pixel."""
    start = min(component, key=lambda p: (p[1], p[0]))
    if len(component) == 1:
        return np.array([start, start], dtype=float)
    # Enter from the west; that neighbor is background by choice of start.
    backtrack = (start[0] - 1, start[1])
    path = [start]
    current = start
    first_move = None
    for _ in range(4 * len(component) + 8):
        base = _MOORE.index((backtrack[0] - current[0], backtrack[1] - current[1]))
        nxt = None
        for k in range(1, 9):
            dx, dy = _MOORE[(base + k) % 8]
            cand = (current[0] + dx, current[1] + dy)
            if cand in component:
                nxt = cand
                prev_dx, prev_dy = _MOORE[(base + k - 1) % 8]
                backtrack = (current[0] + prev_dx, current[1] + prev_dy)
                break
        if nxt is None:
            break
        if first_move is None:
            first_move = nxt
        elif current == start and nxt == first_move:
            break
        path.append(nxt)
        current = nxt
    if path[-1] == start and len(path) > 1:
        path.pop()
    return np.array(path, dtype=float)


def _dfs_find_contours(mask):
    """find_contours as first written: a stack-and-set flood fill per
    component, in np.nonzero order of each component's first pixel."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    seen = np.zeros_like(mask)
    polygons = []
    ys, xs = np.nonzero(mask)
    for y0, x0 in zip(ys, xs):
        if seen[y0, x0]:
            continue
        stack = [(x0, y0)]
        seen[y0, x0] = True
        component = set()
        while stack:
            x, y = stack.pop()
            component.add((x, y))
            for dx, dy in _MOORE:
                nx, ny = x + dx, y + dy
                if 0 <= nx < w and 0 <= ny < h and mask[ny, nx] and not seen[ny, nx]:
                    seen[ny, nx] = True
                    stack.append((nx, ny))
        if len(component) >= 3:
            polygons.append(_tuple_trace_boundary(component))
    return polygons


def _same_polygons(got, want):
    return len(got) == len(want) and all(
        g.shape == w.shape and np.array_equal(g, w) for g, w in zip(got, want))


def _oracle_masks():
    """About 200 masks: edge cases first, then random densities and shapes."""
    masks = [np.zeros((5, 7), bool), np.zeros((1, 1), bool), np.ones((1, 1), bool),
             np.ones((6, 9), bool), np.ones((1, 12), bool), np.ones((12, 1), bool)]
    ring = np.zeros((9, 11), bool)
    ring[[0, -1], :] = ring[:, [0, -1]] = True
    corners = np.zeros((6, 6), bool)
    corners[[0, 0, -1, -1], [0, -1, 0, -1]] = True
    corners[[0, 1, 0], [1, 0, 0]] = True
    masks += [ring, corners, np.eye(7, dtype=bool), np.eye(7, dtype=bool)[::-1]]
    rng = np.random.default_rng(4)
    while len(masks) < 200:
        h, w = rng.integers(1, 25, size=2)
        masks.append(rng.random((h, w)) < rng.uniform(0.05, 0.7))
    return masks


def test_find_contours_matches_dfs_oracle_on_masks():
    for mask in _oracle_masks():
        assert _same_polygons(_contours(mask), _dfs_find_contours(mask))


def test_canny_and_contours_match_oracles_on_scenes():
    cfg = config.PipelineConfig()
    for seed in range(20):
        scene = sim.generate_scene(seed, cfg)
        rng = np.random.default_rng([seed, 1])
        frames = [scene.rgb] + [noisy_frame(rng, scene, noise)[0]
                                for noise in (2.0, 2.0, 8.0, 32.0)]
        for rgb in frames:
            for sigma in (1.4, 0.6):
                blurred = gaussian_blur(to_gray(rgb), sigma)
                for low, high in ((cfg.canny_low, cfg.canny_high), (0.02, 0.05),
                                  (0.3, 0.9)):
                    edges = canny(blurred, low, high)
                    mask = _fixpoint_canny(blurred, low, high)
                    assert _same_edges(edges, _edge_set(mask))
                    assert _same_polygons(find_contours(*edges, blurred.shape[1]),
                                          _dfs_find_contours(mask))


def test_canny_matches_fixpoint_oracle_on_random_images():
    rng = np.random.default_rng(5)
    for _ in range(30):
        h, w = rng.integers(2, 30, size=2)
        img = rng.random((h, w))
        low = rng.uniform(0.01, 0.5)
        high = rng.uniform(low + 1e-3, 1.0)
        assert _same_edges(canny(img, low, high), _edge_set(_fixpoint_canny(img, low, high)))


@pytest.mark.parametrize("low", [3 * 5e-324, 1e-300, 1e-3])
def test_canny_matches_fixpoint_oracle_at_small_thresholds(low):
    # Gradients of a few lows: many pixels sit on either side of 0.7 low.
    rng = np.random.default_rng(9)
    for _ in range(30):
        h, w = rng.integers(2, 30, size=2)
        img = rng.integers(0, 9, (h, w)) * (low * rng.uniform(0.5, 3.0))
        high = low * rng.integers(2, 7)
        assert _same_edges(canny(img, low, high), _edge_set(_fixpoint_canny(img, low, high)))


@pytest.mark.parametrize("low", [0.1, 1e-300])
@pytest.mark.parametrize("share", [0.71, "just under 0.7"])
def test_canny_neighbour_near_magnitude_cutoff(monkeypatch, low, share):
    # Strong pixel S at (2, 1) above weak pixel P at (2, 2), whose gradient
    # points at N (3, 2). N's gradient has both components share * low: under
    # 0.7 low its magnitude (0.99 low) is below P's, at 0.71 low it is above.
    v = np.nextafter(0.7 * low, 0.0) if isinstance(share, str) else share * low
    gx, gy = np.zeros((5, 5)), np.zeros((5, 5))
    gx[1, 2], gx[2, 2] = 5.0 * low, low
    gx[2, 3], gy[2, 3] = v, -v
    fake = lambda image, ws=None: (gx.copy(), gy.copy())  # noqa: E731
    monkeypatch.setattr(classical, "sobel_gradients", fake)
    monkeypatch.setitem(globals(), "sobel_gradients", fake)
    img = np.zeros((5, 5))
    want = np.zeros((5, 5), dtype=bool)
    want[1, 2] = True
    want[2, 2 if isinstance(share, str) else 3] = True  # P, or N over P
    assert np.array_equal(_fixpoint_canny(img, low, 4.0 * low), want)
    assert _same_edges(canny(img, low, 4.0 * low), _edge_set(want))


def test_find_contours_takes_canny_labels_only_for_its_mask():
    # find_contours traces from the labels it is given: on canny's own edge
    # set, and on the edge set of that mask with one pixel moved (same count,
    # other pixels, so other labels), it must match the DFS oracle.
    rng = np.random.default_rng(7)
    images = [rng.random(rng.integers(2, 30, size=2)) for _ in range(30)]
    cfg = config.PipelineConfig()
    for seed in range(4):
        scene = sim.generate_scene(seed, cfg)
        noisy = noisy_frame(rng, scene, 2.0)[0]
        images += [gaussian_blur(to_gray(rgb), cfg.sigma) for rgb in (scene.rgb, noisy)]
    for img in images:
        w = img.shape[1]
        for low, high in ((cfg.canny_low, cfg.canny_high), (0.02, 0.05), (0.3, 0.9)):
            ids, label = canny(img, low, high)
            edges = _mask((ids, label), img.shape)
            assert _same_polygons(find_contours(ids, label, w), _dfs_find_contours(edges))
            on, off = np.flatnonzero(edges), np.flatnonzero(~edges)
            if len(on) and len(off):
                edges.flat[[on[rng.integers(len(on))], off[rng.integers(len(off))]]] = False, True
                assert _same_polygons(_contours(edges), _dfs_find_contours(edges))


# --- polygon operations ---

def test_polygon_theta_diagonal():
    pts = np.array([(i, i) for i in range(6)], dtype=float)
    assert abs(polygon_theta(pts) - math.pi / 4) < 1e-9


def test_polygon_theta_horizontal():
    pts = np.array([(i, 3.0) for i in range(6)])
    assert polygon_theta(pts) == 0.0


def test_polygon_theta_vertical_boundary():
    pts = np.array([(2.0, i) for i in range(6)])
    assert polygon_theta(pts) == math.pi / 2


def test_polygon_theta_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        polygon_theta(np.array([(1.0, 1.0)] * 4))
    for n in (0, 1):
        with pytest.raises(ValueError, match="need at least 2 points"):
            polygon_theta(np.zeros((n, 2)))


def test_polygon_theta_matches_polyfit():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pts = rng.uniform(0, 50, (30, 2))
        slope = np.polyfit(pts[:, 0], pts[:, 1], 1)[0]
        assert abs(polygon_theta(pts) - math.atan(slope)) < 1e-9


def test_perimeter_unit_square():
    pts = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    assert perimeter(pts) == 4.0


def test_perimeter_two_points():
    pts = np.array([(0.0, 0.0), (3.0, 4.0)])
    assert perimeter(pts) == 10.0  # closed loop walks there and back


# --- grasp selection ---

def _poly_with(mean, per_target, n=16):
    # regular polygon centered on `mean` with an approximate target perimeter
    r = per_target / (2 * math.pi)
    ang = np.linspace(0, 2 * math.pi, n, endpoint=False)
    return np.stack([mean[0] + r * np.cos(ang), mean[1] + r * np.sin(ang)],
                    axis=1)


def test_select_grasp_prefers_distance_band():
    near = _poly_with((22.0, 0.0), 80)   # |22 - 22| = 0
    far = _poly_with((30.0, 0.0), 80)    # |30 - 22| = 8
    mean, _ = select_grasp([far, near], (0, 0), 20.0, 60.0)
    assert np.allclose(mean, np.mean(near, axis=0), atol=1e-9)


def test_select_grasp_all_below_threshold():
    with pytest.raises(NoViableContour):
        select_grasp([_poly_with((5, 5), 30)], (0, 0), 10.0, 60.0)


@pytest.mark.parametrize("perimeter_min", [0.0, -1.0])
def test_select_grasp_rejects_a_non_positive_perimeter_floor(perimeter_min):
    with pytest.raises(ValueError, match="perimeter_min must be > 0"):
        select_grasp([_poly_with((22.0, 0.0), 80)], (0, 0), 20.0, perimeter_min)


def test_select_grasp_singleton():
    poly = _poly_with((400, 400), 100)
    mean, theta = select_grasp([poly], (0, 0), 10.0, 60.0)
    assert np.allclose(mean, np.mean(poly, axis=0), atol=1e-9)
    assert theta == polygon_theta(poly)


def _select_grasp_oracle(polygons, center, radius, perimeter_min):
    candidates = []
    for idx, poly in enumerate(polygons):
        per = perimeter(poly)
        if per <= perimeter_min:
            continue
        mean = np.mean(poly, axis=0)
        score = abs(np.linalg.norm(mean - center) - 1.1 * radius)
        candidates.append((score, -per, idx, mean, poly))
    if not candidates:
        raise NoViableContour("none")
    best = sorted(candidates, key=lambda c: c[:3])[0]
    return best[3], polygon_theta(best[4])


def test_select_grasp_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(100):
        center, radius = rng.uniform(20, 80, 2), rng.uniform(5, 25)
        polys = [_poly_with(rng.uniform(0, 100, 2), rng.uniform(20, 150))
                 for _ in range(rng.integers(1, 50))]
        try:
            got = select_grasp(polys, center, radius, 60.0)
        except NoViableContour:
            with pytest.raises(NoViableContour):
                _select_grasp_oracle(polys, center, radius, 60.0)
            continue
        want = _select_grasp_oracle(polys, center, radius, 60.0)
        assert np.allclose(got[0], want[0], atol=1e-12)
        assert got[1] == want[1]


# --- calibration / pipeline ---

def _calibrated(scale, shift) -> config.PipelineConfig:
    return config.PipelineConfig(scale_x=scale[0], scale_y=scale[1],
                                 shift_x=shift[0], shift_y=shift[1])


def test_pixel_to_workspace_identity():
    cfg = _calibrated((1, 1), (0, 0))
    prop = pixel_to_workspace((12.0, 34.0), 0.3, cfg)
    assert (prop.x, prop.y, prop.theta, prop.t) == (12.0, 34.0, 0.3, 0.0)


def test_pixel_to_workspace_arithmetic():
    cfg = _calibrated((0.001, 0.001), (0.2, -0.1))
    prop = pixel_to_workspace((100.0, 50.0), 0.0, cfg)
    assert abs(prop.x - 0.3) < 1e-12 and abs(prop.y - -0.05) < 1e-12


def test_pixel_to_workspace_inverse_round_trip():
    cfg = _calibrated((0.0012, -0.002), (0.4, 0.3))
    p = np.array([37.0, 91.0])
    prop = pixel_to_workspace(p, 0.1, cfg)
    assert np.allclose(workspace_to_pixel(prop.target, cfg), p, atol=1e-9)


def test_grasp_proposal_validation():
    with pytest.raises(ValueError):
        GraspProposal(0.1, 0.2, 2.0)
    with pytest.raises(ValueError):
        GraspProposal(float("nan"), 0.2, 0.0)
    with pytest.raises(ValueError):
        GraspProposal(0.1, 0.2, 0.0, float("inf"))
    with pytest.raises(ValueError, match="within"):
        GraspProposal(0.1, -1e300, 0.0)


def test_pipeline_hits_scene_label(cfg):
    scene = sim.generate_scene(11, cfg)
    prop = classical_pipeline(scene.rgb, cfg)
    assert np.linalg.norm(workspace_to_pixel(prop.target, cfg) - scene.label[0]) <= 10.0


def test_pipeline_blank_scene_errors(cfg):
    blank = np.full((60, 80, 3), 100, dtype=np.uint8)
    with pytest.raises(classical.VisionError):
        classical_pipeline(blank, cfg)


def test_pipeline_finds_the_ball_before_any_edge_stage(cfg, monkeypatch):
    # A flat scene keeps its ball, so its frame is blurred and fails at grasp
    # selection (the flat_vision_failure golden case). Painted out, the ball
    # is missed first: the same BallNotFound, and no edge stage runs.
    blurred = []
    blur = classical.gaussian_blur
    monkeypatch.setattr(classical, "gaussian_blur", lambda *a: blurred.append(1) or blur(*a))
    rgb = sim.generate_scene(9, cfg, flat=True).rgb
    with pytest.raises(NoViableContour):
        classical_pipeline(rgb, cfg)
    assert blurred == [1]
    ball = np.all(rgb == sim.BALL_COLOR, axis=-1)
    assert ball.any()
    rgb[ball] = sim.BACKGROUND
    with pytest.raises(BallNotFound, match="^ball not found: no pixels inside the color range$"):
        classical_pipeline(rgb, cfg)
    assert blurred == [1]


def test_pipeline_deterministic(cfg):
    scene = sim.generate_scene(5, cfg)
    a = classical_pipeline(scene.rgb, cfg)
    b = classical_pipeline(scene.rgb, cfg)
    assert (a.x, a.y, a.theta, a.t) == (b.x, b.y, b.theta, b.t)


# --- bit-for-bit oracles: the np.pad / float-copy formulas of each stage ---

def _to_gray_oracle(px):
    rgb = px.astype(float)
    return (0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]) / 255.0


def _blur_oracle(src, sigma):
    radius = int(np.ceil(3.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    padded = np.pad(src, ((0, 0), (radius, radius)), mode="edge")
    out = np.zeros_like(src)
    for k in range(2 * radius + 1):
        out += kernel[k] * padded[:, k:k + src.shape[1]]
    padded = np.pad(out, ((radius, radius), (0, 0)), mode="edge")
    out = np.zeros_like(src)
    for k in range(2 * radius + 1):
        out += kernel[k] * padded[k:k + src.shape[0], :]
    return np.clip(out, 0.0, 1.0)


def _sobel_oracle(src):
    p = np.pad(src, 1, mode="edge")
    gx = (p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:]
          - p[:-2, :-2] - 2.0 * p[1:-1, :-2] - p[2:, :-2]) / 4.0
    gy = (p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:]
          - p[:-2, :-2] - 2.0 * p[:-2, 1:-1] - p[:-2, 2:]) / 4.0
    return gx, gy


def _canny_oracle(src, low, high):
    """canny's edge set (ids, labels), from _sobel_oracle and a full-frame
    max(|gx|, |gy|)."""
    gx, gy = _sobel_oracle(src)
    h, w = gx.shape
    near = np.flatnonzero(np.maximum(np.abs(gx), np.abs(gy)) >= 0.7 * low)
    gx, gy = gx.ravel()[near], gy.ravel()[near]
    at = near + 2 * (near // w) + w + 3
    padded = np.zeros((h + 2) * (w + 2))
    padded[at] = mag = np.hypot(gx, gy)
    weak = mag >= low
    at = at[weak]
    sector = np.round(np.arctan2(gy[weak], gx[weak]) / (np.pi / 4.0)).astype(int) % 8
    step = np.array([dy * (w + 2) + dx for dx, dy in classical._COMPASS])[sector]
    at = at[(padded[at] >= padded[at + step]) & (padded[at] > padded[at - step])]
    label = classical._label8(at, w)
    kept = np.isin(label, label[padded[at] >= high])
    return at[kept], (np.cumsum(kept) - 1)[label[kept]]


def _oracle_frames():
    """Noisy scene frames at sigma 0, 2 and 8; tiny random frames, where the
    edge padding is most of the frame; frames of only 0 and 255."""
    cfg = config.PipelineConfig()
    rng = np.random.default_rng(17)
    for seed in range(3):
        scene = sim.generate_scene(seed, cfg)
        for sigma in (0.0, 2.0, 8.0):
            yield noisy_frame(rng, scene, sigma)[0]
    for h, w in [(1, 1), (1, 7), (7, 1), (2, 2), (3, 5), (9, 4)]:
        yield rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        yield rng.choice(np.array([0, 255], dtype=np.uint8), size=(h, w, 3))
    for value in (0, 255):
        yield np.full((6, 5, 3), value, dtype=np.uint8)
    yield np.where(rng.random((20, 30, 1)) < 0.5, 255, 0).astype(np.uint8).repeat(3, 2)


def test_stages_match_pad_and_float_copy_oracles_bit_for_bit():
    cfg = config.PipelineConfig()
    for px in _oracle_frames():
        gray = to_gray(px)
        assert np.array_equal(gray, _to_gray_oracle(px))
        for sigma in (0.3, 1.0, cfg.sigma, 3.3):
            assert np.array_equal(gaussian_blur(gray, sigma), _blur_oracle(gray, sigma))
        blurred = gaussian_blur(gray, cfg.sigma)
        for src in (gray, blurred):
            gx, gy = sobel_gradients(src)
            ox, oy = _sobel_oracle(src)
            assert np.array_equal(gx, ox) and np.array_equal(gy, oy)
            for low, high in [(cfg.canny_low, cfg.canny_high), (0.01, 0.02), (1e-3, 1.0)]:
                assert _same_edges(canny(src, low, high, Workspace(*src.shape)),
                                   _canny_oracle(src, low, high))


def test_gray_and_blur_stay_in_unit_interval():
    # canny's thresholds are fractions of a unit step, so its input must lie in
    # [0, 1]. to_gray's rounded products and sums are monotone in each channel,
    # so the all-0 and all-255 frames among _oracle_frames bound every frame.
    for px in _oracle_frames():
        gray = to_gray(px)
        assert gray.dtype == np.float64 and gray.shape == px.shape[:2]
        assert 0.0 <= gray.min() and gray.max() <= 1.0
        for sigma in (0.3, 1.4, 3.3):
            blurred = gaussian_blur(gray, sigma)
            assert 0.0 <= blurred.min() and blurred.max() <= 1.0
    assert to_gray(np.full((1, 1, 3), 255, np.uint8))[0, 0] == 1.0


def test_classical_pipeline_allocates_at_most_five_frames():
    # Noisy 256x144 frames; a float64 copy of one is 288 KiB. A fresh call's
    # traced peak, 1365-1374 KiB on these frames when written, stays under
    # 5 frames (1440 KiB).
    import tracemalloc
    cfg = config.PipelineConfig()
    assert (cfg.scene_width, cfg.scene_height) == (256, 144)
    for seed in range(8):
        scene = sim.generate_scene(seed, cfg)
        rgb = noisy_frame(np.random.default_rng(seed), scene, 2.0)[0]
        classical_pipeline(rgb, cfg)  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            classical_pipeline(rgb, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 5.0 * 256 * 144 * 8, f"seed {seed}: peak {peak / 1024:.0f} KiB"


def _outcome(run):
    """run()'s proposal, or the class and message of its VisionError."""
    try:
        return run()
    except classical.VisionError as err:
        return type(err), str(err)


def test_one_workspace_over_frames_matches_fresh_workspaces_bit_for_bit():
    # Canny writes its magnitude into the pad that Sobel leaves full of this
    # frame's values, the same in a fresh workspace, so each edge set, ids
    # and labels, is held to the zero-padded oracle too. A and A2 are
    # noisy frames of one scene; B is A with all but the quadrant above and
    # left of the ball painted over, so it has far fewer edges, all among
    # A's; blank has none.
    cfg = config.PipelineConfig()
    scene = sim.generate_scene(5, cfg)
    rng = np.random.default_rng(21)
    a, a2 = (noisy_frame(rng, scene, 8.0)[0] for _ in range(2))
    cx, cy = scene.ball_center.astype(int)
    b = a.copy()
    b[:, cx:] = b[cy:] = sim.BACKGROUND
    blank = np.full_like(b, 100)
    frames = [a, b, a2, blank, a]
    counts = [len(canny(gaussian_blur(to_gray(rgb), cfg.sigma), cfg.canny_low,
                        cfg.canny_high)[0]) for rgb in frames]
    assert 0 < counts[1] < counts[0] / 3 and counts[2] > 3 * counts[1] and counts[3] == 0
    ws = Workspace(cfg.scene_height, cfg.scene_width)
    for rgb in frames:
        gray = to_gray(rgb)
        blurred = gaussian_blur(gray, cfg.sigma)
        gx, gy = sobel_gradients(blurred)
        want_prop = _outcome(lambda: classical_pipeline(rgb, cfg))
        # Each output is read before the next stage call on ws may reuse it.
        assert np.array_equal(to_gray(rgb, ws), gray)
        assert np.array_equal(gaussian_blur(gray, cfg.sigma, ws), blurred)
        got_x, got_y = sobel_gradients(blurred, ws)
        assert np.array_equal(got_x, gx) and np.array_equal(got_y, gy)
        # Unblurred, noise puts large magnitudes beside weak pixels.
        for src, (low, high) in itertools.product(
                (gray, blurred), ((cfg.canny_low, cfg.canny_high), (0.02, 0.05))):
            want = _canny_oracle(src, low, high)
            assert _same_edges(canny(src, low, high, Workspace(*src.shape)), want)
            assert _same_edges(canny(src, low, high, ws), want)
        assert _outcome(lambda: classical_pipeline(rgb, cfg, ws)) == want_prop


def test_a_workspace_serves_frames_of_one_size_only():
    cfg = config.PipelineConfig()
    ws = Workspace(cfg.scene_height, cfg.scene_width)
    small = sim.generate_scene(1, config.PipelineConfig(scene_width=128,
                                                        scene_height=96)).rgb
    gray = to_gray(small)
    calls = [lambda: to_gray(small, ws), lambda: gaussian_blur(gray, cfg.sigma, ws),
             lambda: sobel_gradients(gray, ws), lambda: canny(gray, 0.1, 0.2, ws),
             lambda: classical_pipeline(small, cfg, ws),
             lambda: gaussian_blur(gray.T, cfg.sigma, Workspace(*gray.shape))]
    for call in calls:
        with pytest.raises(ValueError, match="workspace for"):
            call()
