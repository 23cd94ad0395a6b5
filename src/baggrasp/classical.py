"""Heuristic grasp proposal pipeline for ball-in-bag scenes.

Blur the grayscale image, run Canny edge detection, trace edge contours into
polygons, locate the ball by color thresholding, then pick the large contour
whose mean sits closest to 1.1 ball radii from the ball center. The winning
mean and its regression angle are scaled/shifted into workspace coordinates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import WORKSPACE_LIMIT, InputError, PipelineConfig
from .image_io import GrayImage, RgbImage, to_gray


class VisionError(RuntimeError):
    """A vision stage could not produce a grasp proposal."""


class BallNotFound(VisionError):
    pass


class NoViableContour(VisionError):
    pass


@dataclass
class BallDetection:
    center: np.ndarray  # (x, y) pixels
    radius: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).reshape(2)
        if self.radius <= 0:
            raise ValueError("ball radius must be > 0")


@dataclass
class CameraCalibration:
    """Per-axis affine pixel -> workspace map: meters = scale * px + shift."""

    scale: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        self.scale = np.asarray(self.scale, dtype=float).reshape(2)
        self.shift = np.asarray(self.shift, dtype=float).reshape(2)
        if np.any(self.scale == 0.0):
            raise ValueError("calibration scale components must be nonzero")

    @classmethod
    def from_config(cls, cfg: PipelineConfig) -> "CameraCalibration":
        return cls((cfg.scale_x, cfg.scale_y), (cfg.shift_x, cfg.shift_y))

    def to_pixel(self, target) -> np.ndarray:
        return (np.asarray(target, dtype=float) - self.shift) / self.scale


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
        if not math.isfinite(self.t):
            raise ValueError(f"timestamp {self.t} must be finite")
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
            return GraspProposal(float(obj["x"]), float(obj["y"]),
                                 float(obj["theta"]), float(obj["t"]))
        except (ValueError, KeyError, TypeError, OverflowError) as err:
            raise InputError(f"{where}: malformed proposal line {line.strip()!r}: "
                             f"{err}") from err


def wrap_half_pi(theta: float) -> float:
    """Wrap an angle into (-pi/2, pi/2] (a parallel jaw is symmetric under pi)."""
    a = (theta + math.pi / 2) % math.pi - math.pi / 2
    return math.pi / 2 if a == -math.pi / 2 else a


def gaussian_blur(image: GrayImage, sigma: float) -> GrayImage:
    """Separable Gaussian blur, kernel radius ceil(3 sigma), clamped borders."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    radius = int(np.ceil(3.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    src = image.pixels
    padded = np.pad(src, ((0, 0), (radius, radius)), mode="edge")
    out = np.zeros_like(src)
    for k in range(2 * radius + 1):
        out += kernel[k] * padded[:, k:k + src.shape[1]]
    padded = np.pad(out, ((radius, radius), (0, 0)), mode="edge")
    out = np.zeros_like(src)
    for k in range(2 * radius + 1):
        out += kernel[k] * padded[k:k + src.shape[0], :]
    return GrayImage(np.clip(out, 0.0, 1.0))


def sobel_gradients(image: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    """Sobel x/y gradients, scaled so a unit step edge has magnitude 1."""
    p = np.pad(image.pixels, 1, mode="edge")
    gx = (p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:]
          - p[:-2, :-2] - 2.0 * p[1:-1, :-2] - p[2:, :-2]) / 4.0
    gy = (p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:]
          - p[:-2, :-2] - 2.0 * p[:-2, 1:-1] - p[:-2, 2:]) / 4.0
    return gx, gy


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


# canny's last kept pixels, [w, sorted flat ids, their `_label8` labels], so
# find_contours on its mask takes hysteresis' labels and makes none.
_kept = [0, np.zeros(0, int), np.zeros(0, int)]


def canny(image: GrayImage, low: float, high: float) -> np.ndarray:
    """Canny edge mask: Sobel -> non-maximum suppression -> hysteresis.

    Gradient directions are quantized to the 8 compass sectors; a pixel
    survives suppression iff its magnitude strictly exceeds the neighbor
    against the gradient and is >= the neighbor along it (the asymmetry
    thins symmetric two-pixel ridges to one pixel). Strong pixels have
    magnitude >= high; weak ones (>= low) are kept only when their
    8-connected component of weak pixels holds a strong pixel.
    """
    if not (0.0 < low < high <= 1.0):
        raise ValueError("require 0 < low < high <= 1")
    gx, gy = sobel_gradients(image)
    h, w = gx.shape
    # |g| <= sqrt(2) max(|gx|, |gy|): a pixel under 0.7 low is under 0.99 low,
    # neither weak nor a neighbour as large as one, so it stays 0 in the
    # zero-padded magnitude. Only weak pixels (>= low) are suppressed: against
    # their sector's neighbours in it at +-step.
    near = np.flatnonzero(np.maximum(np.abs(gx), np.abs(gy)) >= 0.7 * low)
    gx, gy = gx.ravel()[near], gy.ravel()[near]
    at = near + 2 * (near // w) + w + 3  # flat id (y+1)*(w+2) + x+1
    padded = np.zeros((h + 2) * (w + 2))
    padded[at] = mag = np.hypot(gx, gy)
    weak = mag >= low
    at = at[weak]
    sector = np.round(np.arctan2(gy[weak], gx[weak]) / (np.pi / 4.0)).astype(int) % 8
    step = np.array([dy * (w + 2) + dx for dx, dy in _COMPASS])[sector]
    at = at[(padded[at] >= padded[at + step]) & (padded[at] > padded[at - step])]

    label = _label8(at, w)
    kept = np.isin(label, label[padded[at] >= high])
    # A kept component's first pixel is kept, so labels re-index into the kept.
    _kept[:] = w, at[kept], (np.cumsum(kept) - 1)[label[kept]]
    keep = np.zeros(padded.size, dtype=bool)
    keep[_kept[1]] = True
    return keep.reshape(h + 2, w + 2)[1:-1, 1:-1]


def detect_ball(image: RgbImage, color_low, color_high) -> BallDetection:
    """Centroid and equivalent-area-disc radius of pixels inside a color box."""
    lo = np.asarray(color_low, dtype=np.uint8)
    hi = np.asarray(color_high, dtype=np.uint8)
    if np.any(lo > hi):
        raise ValueError("color_low must be componentwise <= color_high")
    px = image.pixels
    ys, xs = np.nonzero(np.logical_and.reduce(
        [(px[..., c] >= lo[c]) & (px[..., c] <= hi[c]) for c in range(3)]))
    if len(xs) == 0:
        raise BallNotFound("ball not found: no pixels inside the color range")
    return BallDetection(np.array([xs.mean(), ys.mean()]),
                         math.sqrt(len(xs) / math.pi))


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


def find_contours(mask: np.ndarray) -> list[np.ndarray]:
    """Boundary polygons of the 8-connected components of an edge mask.

    Components smaller than 3 pixels are dropped. Each polygon is an (N, 2)
    array of (x, y) vertices in trace order, components in row-major order.
    """
    w = np.shape(mask)[1]
    ids = np.flatnonzero(np.pad(mask, 1))
    # A label is the index of its component's first pixel, so size[k] is
    # the size of the component that starts at pixel k. A trace only visits
    # the 8-neighbours of its own component, so one set serves every trace.
    last_w, last_ids, last_label = _kept
    same = last_w == w and np.array_equal(ids, last_ids)
    size = np.bincount(last_label if same else _label8(ids, w))
    edge = set(ids.tolist())
    return [_trace_boundary(edge, int(ids[k]), w, int(size[k]))
            for k in np.flatnonzero(size >= 3)]


def polygon_mean(polygon: np.ndarray) -> np.ndarray:
    poly = np.asarray(polygon, dtype=float)
    if poly.size == 0:
        raise ValueError("polygon is empty")
    return poly.mean(axis=0)


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


def select_grasp(polygons, ball: BallDetection, perimeter_min: float):
    """Pick the contour mean nearest 1.1 radii from the ball center.

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
        mean = polygon_mean(poly)
        score = abs(np.linalg.norm(mean - ball.center) - 1.1 * ball.radius)
        key = (score, -per, idx)
        if best is None or key < best[0]:
            best = (key, mean, poly)
    if best is None:
        raise NoViableContour("no viable contour above the perimeter threshold")
    return best[1], polygon_theta(best[2])


def pixel_to_workspace(point, theta: float, cal: CameraCalibration,
                       timestamp: float = 0.0) -> GraspProposal:
    """Affine-map a pixel point into workspace meters; theta passes through."""
    p = np.asarray(point, dtype=float).reshape(2)
    target = cal.scale * p + cal.shift
    return GraspProposal(float(target[0]), float(target[1]), theta, timestamp)


def classical_pipeline(rgb: RgbImage, cfg: PipelineConfig,
                       timestamp: float = 0.0) -> GraspProposal:
    """Full classical path: blur, Canny, contours, ball, selection, calibration."""
    gray = gaussian_blur(to_gray(rgb), cfg.sigma)
    edges = canny(gray, cfg.canny_low, cfg.canny_high)
    polygons = find_contours(edges)
    ball = detect_ball(rgb, cfg.color_low, cfg.color_high)
    mean, theta = select_grasp(polygons, ball, cfg.perimeter_min)
    return pixel_to_workspace(mean, theta, CameraCalibration.from_config(cfg), timestamp)
