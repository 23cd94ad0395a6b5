"""Heuristic grasp proposal pipeline for ball-in-bag scenes.

Blur the grayscale image, run Canny edge detection, trace edge contours into
polygons, locate the ball by color thresholding, then pick the large contour
whose mean sits closest to 1.1 ball radii from the ball center. The winning
mean and its regression angle are scaled/shifted into workspace coordinates.

Each per-pixel stage is bit for bit its plain formula (over np.pad-ed copies
and a float copy of the frame): the same float operations in the same order,
made with fewer passes and temporaries. Tests keep those formulas as oracles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_TIMESTAMP, WORKSPACE_LIMIT, InputError, PipelineConfig
from .image_io import Workspace, to_gray


class VisionError(RuntimeError):
    """A vision stage could not produce a grasp proposal."""


class BallNotFound(VisionError):
    pass


class NoViableContour(VisionError):
    pass


@dataclass
class GraspProposal:
    """Candidate grasp: workspace target (m), gripper yaw (rad), timestamp (s)."""

    x: float
    y: float
    theta: float
    t: float = 0.0

    def __post_init__(self):
        if not (abs(self.x) <= WORKSPACE_LIMIT and abs(self.y) <= WORKSPACE_LIMIT):
            raise ValueError(f"grasp target must be within +-{WORKSPACE_LIMIT} m")
        if not abs(self.t) <= MAX_TIMESTAMP:
            raise ValueError(f"timestamp {self.t} must be within +-{MAX_TIMESTAMP:g} s")
        if not (-math.pi / 2 < self.theta <= math.pi / 2):
            raise ValueError(f"theta {self.theta} outside (-pi/2, pi/2]")

    @property
    def target(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def to_json_line(self) -> str:
        return json.dumps({"x": self.x, "y": self.y, "theta": self.theta, "t": self.t},
                          allow_nan=False)

    @staticmethod
    def from_json_line(line: str, where: str) -> "GraspProposal":
        """Parse one JSON line; a malformed one is an InputError naming where."""
        try:
            obj = json.loads(line)
            values = [obj[k] for k in ("x", "y", "theta", "t")]
            if any(type(v) not in (int, float) for v in values):  # bool is an int
                raise TypeError("x, y, theta and t must be JSON numbers")
            return GraspProposal(*map(float, values))
        except (ValueError, KeyError, TypeError, OverflowError) as err:
            raise InputError(f"{where}: malformed proposal line {line.strip()!r}: "
                             f"{err}") from err


def wrap_half_pi(theta: float) -> float:
    """Wrap an angle into (-pi/2, pi/2] (a parallel jaw is symmetric under pi)."""
    a = (theta + math.pi / 2) % math.pi - math.pi / 2
    return math.pi / 2 if a == -math.pi / 2 else a


def _edge_pad(src: np.ndarray, ry: int, rx: int, ws: Workspace) -> np.ndarray:
    """np.pad(src, ((ry, ry), (rx, rx)), mode="edge"), in ws.pad."""
    h, w = src.shape
    out = ws.pad((h + 2 * ry) * (w + 2 * rx)).reshape(h + 2 * ry, w + 2 * rx)
    mid = out[ry:ry + h]
    mid[:, rx:rx + w] = src
    mid[:, :rx], mid[:, rx + w:] = src[:, :1], src[:, -1:]
    out[:ry], out[ry + h:] = mid[0], mid[-1]
    return out


def gaussian_blur(gray: np.ndarray, sigma: float, ws: Workspace | None = None) -> np.ndarray:
    """Separable Gaussian blur, kernel radius ceil(3 sigma), clamped borders;
    in ws.frames[1] (ws.frames[2] and ws.pad are scratch)."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    ws = Workspace.for_frame(ws, gray.shape)
    radius = int(np.ceil(3.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    h, w = gray.shape
    out, tmp = ws.frames[1], ws.frames[2]
    # One pad buffer, made at its largest at once, serves both passes and Sobel.
    ws.pad(max(h * (w + 2 * radius), (h + 2 * radius) * w, (h + 2) * (w + 2)))
    # A pass sums its taps from 0.0; the first is a kernel value > 0 times a
    # value >= +0, so 0.0 + it is itself and it is written as it is.
    padded = _edge_pad(gray, 0, radius, ws)
    np.multiply(kernel[0], padded[:, :w], out=out)
    for k in range(1, 2 * radius + 1):
        out += np.multiply(kernel[k], padded[:, k:k + w], out=tmp)
    padded = _edge_pad(out, radius, 0, ws)
    np.multiply(kernel[0], padded[:h], out=out)
    for k in range(1, 2 * radius + 1):
        out += np.multiply(kernel[k], padded[k:k + h], out=tmp)
    return np.clip(out, 0.0, 1.0, out=out)


def sobel_gradients(gray: np.ndarray, ws: Workspace | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Sobel x/y gradients, scaled so a unit step edge has magnitude 1; in
    ws.frames[0] and [2] (ws.frames[1] and ws.pad are scratch)."""
    ws = Workspace.for_frame(ws, gray.shape)
    p = _edge_pad(gray, 1, 1, ws)
    tmp = ws.frames[1]

    def grad(g, a, b, c, d, e, f):  # (a + 2b + c - d - 2e - f) / 4; 2b + a == a + 2b
        np.multiply(b, 2.0, out=g)
        g += a
        g += c
        g -= d
        g -= np.multiply(e, 2.0, out=tmp)
        g -= f
        return np.divide(g, 4.0, out=g)
    return (grad(ws.frames[0], p[:-2, 2:], p[1:-1, 2:], p[2:, 2:], p[:-2, :-2], p[1:-1, :-2],
                 p[2:, :-2]),
            grad(ws.frames[2], p[2:, :-2], p[2:, 1:-1], p[2:, 2:], p[:-2, :-2], p[:-2, 1:-1],
                 p[:-2, 2:]))


# Offsets (dx, dy) of the 8 compass directions, index = round(angle / 45deg).
_COMPASS = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]


def connected_components(n: int, i, j) -> np.ndarray:
    """Label nodes 0..n-1 of the undirected graph with edges (i[k], j[k]) by
    the smallest node in their component (Shiloach & Vishkin, 1982): each
    edge hooks the larger of its ends' labels onto the smaller, then every
    label jumps to its label's label, until nothing changes."""
    label = np.arange(n)
    while True:
        a, b = label[i], label[j]
        new = label.copy()
        np.minimum.at(new, np.maximum(a, b), np.minimum(a, b))
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _label8(ids: np.ndarray, w: int) -> np.ndarray:
    """Label pixels, given as sorted flat ids on a grid w+2 wide of which only
    w columns are set (so no neighbour wraps onto another row), by their
    8-connected component's first (topmost-leftmost) pixel's index."""
    # Each pixel's neighbours at one offset of each opposite pair.
    nb = (ids[:, None] + [dy * (w + 2) + dx for dx, dy in _COMPASS[:4]]).ravel()
    k = np.searchsorted(ids, nb)
    hit = ids[np.minimum(k, len(ids) - 1)] == nb
    return connected_components(len(ids), np.nonzero(hit)[0] // 4, k[hit])


def _thin(gx: np.ndarray, gy: np.ndarray, low: float, ws: Workspace):
    """Non-maximum suppression of the weak pixels (magnitude >= low): the
    flat ids (y+1)*(w+2) + x+1 of those that survive, and the zero-padded
    magnitude, in ws.pad, that they were judged on.

    |g| <= sqrt(2) max(|gx|, |gy|): a pixel under 0.7 low is under 0.99 low,
    neither weak nor a neighbour as large as one, so it stays 0 in the
    magnitude. Only weak pixels are suppressed: against their sector's
    neighbours in it at +-step.
    """
    h, w = gx.shape
    gx, gy = gx.ravel(), gy.ravel()
    big = np.abs(gx, out=ws.frames[1].ravel())
    near = np.flatnonzero(np.maximum(big, np.abs(gy, out=ws.pad(h * w)), out=big)
                          >= 0.7 * low)
    at = near + 2 * (near // w) + w + 3
    padded = ws.pad((h + 2) * (w + 2))
    padded.fill(0.0)
    padded[at] = np.hypot(gx[near], gy[near])
    weak = padded[at] >= low
    near, at = near[weak], at[weak]
    sector = np.round(np.arctan2(gy[near], gx[near]) / (np.pi / 4.0)).astype(int) % 8
    step = np.array([dy * (w + 2) + dx for dx, dy in _COMPASS])[sector]
    return at[(padded[at] >= padded[at + step]) & (padded[at] > padded[at - step])], padded


def canny(gray: np.ndarray, low: float, high: float,
          ws: Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Canny edge set: Sobel -> non-maximum suppression -> hysteresis.

    Gradient directions are quantized to the 8 compass sectors; a pixel
    survives suppression iff its magnitude strictly exceeds the neighbor
    against the gradient and is >= the neighbor along it (the asymmetry
    thins symmetric two-pixel ridges to one pixel). Strong pixels have
    magnitude >= high; weak ones (>= low) are kept only when their
    8-connected component of weak pixels holds a strong pixel. Returns
    (ids, label): the kept pixels' flat ids (y+1)*(w+2) + x+1, ascending, and
    for each the index in ids of its component's first pixel (ws's buffers
    are scratch).
    """
    if not (0.0 < low < high <= 1.0):
        raise ValueError("require 0 < low < high <= 1")
    ws = Workspace.for_frame(ws, gray.shape)
    at, padded = _thin(*sobel_gradients(gray, ws), low, ws)
    label = _label8(at, gray.shape[1])
    kept = np.isin(label, label[padded[at] >= high])
    # A kept component's first pixel is kept, so labels re-index into the kept.
    return at[kept], (np.cumsum(kept) - 1)[label[kept]]


def detect_ball(image: np.ndarray, color_low, color_high) -> tuple[np.ndarray, float]:
    """Centroid (x, y) and equivalent-area-disc radius of RGB pixels in a color box."""
    lo = np.asarray(color_low, dtype=np.uint8)
    hi = np.asarray(color_high, dtype=np.uint8)
    if np.any(lo > hi):
        raise ValueError("color_low must be componentwise <= color_high")
    red = image[..., 0].ravel()  # a copy; green and blue only on its hits
    ids = np.flatnonzero((red >= lo[0]) & (red <= hi[0]))  # row-major order
    g, b = image.reshape(-1, 3)[ids, 1:].T
    ys, xs = np.divmod(ids[(g >= lo[1]) & (g <= hi[1]) & (b >= lo[2]) & (b <= hi[2])],
                       image.shape[1])
    if len(xs) == 0:
        raise BallNotFound("ball not found: no pixels inside the color range")
    return np.array([xs.mean(), ys.mean()]), math.sqrt(len(xs) / math.pi)


def _trace_boundary(edge: set[int], start: int, w: int, size: int) -> np.ndarray:
    """Moore boundary trace, clockwise from its topmost-leftmost pixel start,
    of the 8-connected component of `size` pixels in the set of flat pixel
    ids (y+1)*(w+2)+(x+1) `edge`. Points are (x, y)."""
    moore = [dy * (w + 2) + dx for dx, dy in _COMPASS]  # clockwise
    # Enter from the west; that neighbor is background by choice of start.
    backtrack = start - 1
    path = [start]
    current = start
    first_move = None
    for _ in range(4 * size + 8):
        base = moore.index(backtrack - current)
        for k in range(1, 9):
            nxt = current + moore[(base + k) % 8]
            if nxt in edge:
                backtrack = current + moore[(base + k - 1) % 8]
                break
        else:
            break
        if first_move is None:
            first_move = nxt
        elif current == start and nxt == first_move:
            break
        path.append(nxt)
        current = nxt
    if path[-1] == start and len(path) > 1:
        path.pop()
    ids = np.array(path)
    return np.column_stack([ids % (w + 2) - 1, ids // (w + 2) - 1]).astype(float)


def find_contours(ids: np.ndarray, label: np.ndarray, w: int) -> list[np.ndarray]:
    """Boundary polygons of the 8-connected components of a frame w wide
    whose edge set is canny's (ids, label).

    Components smaller than 3 pixels are dropped. Each polygon is an (N, 2)
    array of (x, y) vertices in trace order, components in row-major order.
    """
    # A label is the index of its component's first pixel, so size[k] is
    # the size of the component that starts at pixel k. A trace only visits
    # the 8-neighbours of its own component, so one set serves every trace.
    size = np.bincount(label)
    edge = set(ids.tolist())
    return [_trace_boundary(edge, int(ids[k]), w, int(size[k]))
            for k in np.flatnonzero(size >= 3)]


def polygon_theta(polygon: np.ndarray) -> float:
    """Feature angle atan(slope) from the least-squares line y = m x + c.

    Vertical features (x variance under 1e-9) return the pi/2 range boundary.
    """
    poly = np.asarray(polygon, dtype=float)
    if len(poly) < 2:
        raise ValueError("need at least 2 points")
    x, y = poly[:, 0], poly[:, 1]
    var_x = np.mean((x - x.mean()) ** 2)
    var_y = np.mean((y - y.mean()) ** 2)
    if var_x < 1e-9 and var_y < 1e-9:
        raise ValueError("degenerate polygon: all points identical")
    if var_x < 1e-9:
        return math.pi / 2
    slope = np.mean((x - x.mean()) * (y - y.mean())) / var_x
    return math.atan(slope)


def perimeter(polygon: np.ndarray) -> float:
    """Sum of consecutive vertex distances, closing the loop."""
    poly = np.asarray(polygon, dtype=float)
    diffs = np.diff(np.vstack([poly, poly[:1]]), axis=0)
    return float(np.hypot(diffs[:, 0], diffs[:, 1]).sum())


def select_grasp(polygons, center, radius: float, perimeter_min: float):
    """Pick the contour mean nearest 1.1 radii from the ball center (x, y) px.

    Only polygons with perimeter > perimeter_min compete; ties go to the
    larger perimeter, then to input order. Returns (mean point, angle).
    """
    if perimeter_min <= 0:
        raise ValueError("perimeter_min must be > 0")
    best = None
    for idx, poly in enumerate(polygons):
        per = perimeter(poly)
        if per <= perimeter_min:
            continue
        mean = poly.mean(axis=0)
        score = abs(np.linalg.norm(mean - center) - 1.1 * radius)
        key = (score, -per, idx)
        if best is None or key < best[0]:
            best = (key, mean, poly)
    if best is None:
        raise NoViableContour("no viable contour above the perimeter threshold")
    return best[1], polygon_theta(best[2])


def pixel_to_workspace(point, theta: float, cfg: PipelineConfig) -> GraspProposal:
    """Map a pixel point into workspace meters, per axis scale * px + shift
    (cfg's scale_x, shift_x, scale_y, shift_y); theta passes through, t is 0."""
    p = np.asarray(point, dtype=float).reshape(2)
    target = p * (cfg.scale_x, cfg.scale_y) + (cfg.shift_x, cfg.shift_y)
    return GraspProposal(float(target[0]), float(target[1]), theta)


def workspace_to_pixel(target, cfg: PipelineConfig) -> np.ndarray:
    """The pixel that pixel_to_workspace maps to the workspace point target."""
    return ((np.asarray(target, dtype=float) - (cfg.shift_x, cfg.shift_y))
            / (cfg.scale_x, cfg.scale_y))


def classical_pipeline(rgb: np.ndarray, cfg: PipelineConfig,
                       ws: Workspace | None = None) -> GraspProposal:
    """Full classical path: ball first (a frame without one costs no edge stage),
    blur, Canny, contours, selection, calibration, the per-pixel stages in ws (or
    a fresh workspace). The proposal's t is 0; its caller stamps the frame's time."""
    ws = Workspace.for_frame(ws, rgb.shape[:2])
    center, radius = detect_ball(rgb, cfg.color_low, cfg.color_high)
    polygons = find_contours(*canny(gaussian_blur(to_gray(rgb, ws), cfg.sigma, ws),
                                    cfg.canny_low, cfg.canny_high, ws), rgb.shape[1])
    mean, theta = select_grasp(polygons, center, radius, cfg.perimeter_min)
    return pixel_to_workspace(mean, theta, cfg)
