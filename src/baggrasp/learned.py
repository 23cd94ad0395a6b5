"""Two-branch convolutional grasp regressor with hand-written backprop.

Each branch (RGB, depth) runs two stride-2 3x3 convolutions with relu and
flattens to a 1920-dim embedding; the branch embeddings are added and feed
two linear heads, one for the target pixel (2 outputs) and one for the
grasp angle (1 output). Training minimizes the mean absolute error of the
three outputs with plain SGD.

The network operates on normalized quantities throughout: inputs scaled to
roughly [0, 1], pixel labels divided by (width-1, height-1), angles divided
by pi/2. `predict` converts raw head outputs back to pixels/radians.

Conv internals are channel-last: the (n, c, h, w) inputs are views of the
(n, h, w, c) floats made from the pixels, so im2col copies contiguous runs and
a conv's output is its product's rows as they come. Kernels stay (oc, ic, kh, kw),
the embedding is still flattened in (c, y, x) order, and params files are unchanged.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import image_io
from .config import InputError, read_bytes, read_text
from .image_io import DepthImage, RgbImage

IN_H, IN_W = 36, 64
DEPTH_SCALE = 1000.0  # raw depth (mm) -> meters for network input

_MAGIC = b"BAGNET01"


@dataclass
class LabeledScene:
    """A 36x64 training sample: rasters plus the labeled grasp pixel/angle."""

    rgb: RgbImage
    depth: DepthImage
    label_px: tuple
    label_theta: float

    def __post_init__(self):
        for img in (self.rgb, self.depth):
            if (img.height, img.width) != (IN_H, IN_W):
                raise ValueError(f"scene rasters must be {IN_H}x{IN_W}")

    def normalized_label(self) -> np.ndarray:
        x, y = self.label_px
        return np.array([x / (IN_W - 1), y / (IN_H - 1),
                         self.label_theta / (math.pi / 2)])


def image_tensors(rgbs, depths) -> tuple[np.ndarray, np.ndarray]:
    """Network inputs of n image pairs: RGB in [0, 1] (n,3,h,w), depth in m (n,1,h,w)."""
    r = np.stack([img.pixels for img in rgbs]).astype(float) / 255.0
    d = np.stack([img.pixels for img in depths])[..., None].astype(float) / DEPTH_SCALE
    return r.transpose(0, 3, 1, 2), d.transpose(0, 3, 1, 2)


# Model parameters (and their gradients) are a name -> array dict in this
# order, which is also the order of the arrays in a params file.
# (out_ch, in_ch, kh, kw) per conv; embedding dim follows from two stride-2
# valid 3x3 convolutions over a 36x64 input: 17x31 then 8x15 maps.
_SHAPES = {
    "rgb_k1": (8, 3, 3, 3), "rgb_b1": (8,),
    "rgb_k2": (16, 8, 3, 3), "rgb_b2": (16,),
    "dep_k1": (8, 1, 3, 3), "dep_b1": (8,),
    "dep_k2": (16, 8, 3, 3), "dep_b2": (16,),
    "pos_w": (2, 1920), "pos_b": (2,),
    "theta_w": (1, 1920), "theta_b": (1,),
}
STRIDE = 2


def init_params(seed: int) -> dict[str, np.ndarray]:
    """Fan-in-scaled normal kernels/weights, zero biases, deterministic."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in _SHAPES.items():
        if len(shape) == 1:
            arrays[name] = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[1:]))
            arrays[name] = rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)
    return arrays


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int):
    """Patches of a channel-last x (n, h, w, c) as rows (n, oh*ow, kh*kw*c)."""
    n, h, w, c = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError(f"kernel {kh}x{kw} does not fit input {h}x{w}")
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, (n, out_h, out_w, kh, kw, c),
        (s0, s1 * stride, s2 * stride, s1, s2, s3), writeable=False)
    return windows.reshape(n, out_h * out_w, kh * kw * c), out_h, out_w


def _conv_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                  stride: int):
    """Channel-last valid convolution: (out (n, oh, ow, oc), patch rows)."""
    oc, ic, kh, kw = kernel.shape
    if x.shape[-1] != ic:
        raise ValueError(f"input has {x.shape[-1]} channels, kernel expects {ic}")
    cols, out_h, out_w = _im2col(x, kh, kw, stride)
    flat = cols @ kernel.transpose(2, 3, 1, 0).reshape(-1, oc)
    flat += bias
    return flat.reshape(x.shape[0], out_h, out_w, oc), cols


def _conv_backward(dout: np.ndarray, cols: np.ndarray, x_shape,
                   kernel: np.ndarray, stride: int):
    """(dx, dkernel, dbias) of `_conv_forward`; dx is None when x_shape is."""
    n, out_h, out_w, oc = dout.shape
    _, ic, kh, kw = kernel.shape
    dflat = dout.reshape(-1, oc)
    dkernel = (dflat.T @ cols.reshape(len(dflat), -1)).reshape(oc, kh, kw, ic)
    dkernel = dkernel.transpose(0, 3, 1, 2)
    dbias = np.ones(len(dflat)) @ dflat
    if x_shape is None:
        return None, dkernel, dbias
    dcols = dflat @ kernel.transpose(0, 2, 3, 1).reshape(oc, -1)
    dcols = dcols.reshape(n, out_h, out_w, kh, kw, ic)
    dx = np.zeros(x_shape)
    for i, j in np.ndindex(kh, kw):
        dx[:, i:i + out_h * stride:stride, j:j + out_w * stride:stride] += dcols[:, :, :, i, j]
    return dx, dkernel, dbias


def _branch_forward(x: np.ndarray, k1, b1, k2, b2):
    h1, cols1 = _conv_forward(np.ascontiguousarray(x.transpose(0, 2, 3, 1)),
                              k1, b1, STRIDE)
    h2, cols2 = _conv_forward(np.maximum(h1, 0.0), k2, b2, STRIDE)
    # The embedding keeps the (c, y, x) order that pos_w and theta_w expect.
    emb = np.maximum(h2, 0.0).transpose(0, 3, 1, 2).reshape(len(x), -1)
    return emb, (cols1, h1, cols2, h2)


def _branch_backward(demb: np.ndarray, cache, k1, k2):
    cols1, h1, cols2, h2 = cache
    dh2 = demb.reshape(len(demb), -1, *h2.shape[1:3]).transpose(0, 2, 3, 1) * (h2 > 0.0)
    da1, dk2, db2 = _conv_backward(dh2, cols2, h1.shape, k2, STRIDE)
    # Nothing reads the input's gradient, so the input layer makes none.
    _, dk1, db1 = _conv_backward(da1 * (h1 > 0.0), cols1, None, k1, STRIDE)
    return dk1, db1, dk2, db2


def forward_batch(params: dict, rgb: np.ndarray, dep: np.ndarray):
    """Batched forward pass; returns (pos (n,2), theta (n,1), cache).

    Outputs are in the network's normalized units; see `predict` for pixels
    and radians.
    """
    if rgb.shape[1:] != (3, IN_H, IN_W) or dep.shape[1:] != (1, IN_H, IN_W):
        raise ValueError(f"inputs must be (n,3,{IN_H},{IN_W}) and (n,1,{IN_H},{IN_W})")
    emb_rgb, cache_rgb = _branch_forward(rgb, params["rgb_k1"], params["rgb_b1"],
                                         params["rgb_k2"], params["rgb_b2"])
    emb_dep, cache_dep = _branch_forward(dep, params["dep_k1"], params["dep_b1"],
                                         params["dep_k2"], params["dep_b2"])
    emb = emb_rgb + emb_dep
    pos = emb @ params["pos_w"].T + params["pos_b"]
    theta = emb @ params["theta_w"].T + params["theta_b"]
    return pos, theta, (cache_rgb, cache_dep, emb)


def l1_loss(pred: np.ndarray, label: np.ndarray):
    """Mean absolute error and its subgradient w.r.t. pred (0 at equality)."""
    pred = np.asarray(pred, dtype=float)
    label = np.asarray(label, dtype=float)
    diff = pred - label
    loss = float(np.mean(np.abs(diff)))
    grad = np.sign(diff) / diff.size
    return loss, grad


def backward(params: dict, rgb: np.ndarray, dep: np.ndarray,
             labels: np.ndarray):
    """Loss and analytic gradients for a batch.

    labels is (n, 3) in normalized units: (x, y, theta). Gradients come back
    as a name -> array dict of the parameters' names and shapes.
    """
    pos, theta, (cache_rgb, cache_dep, emb) = forward_batch(params, rgb, dep)
    pred = np.concatenate([pos, theta], axis=1)
    loss, dpred = l1_loss(pred, labels)
    dpos, dtheta = dpred[:, :2], dpred[:, 2:]
    demb = dpos @ params["pos_w"] + dtheta @ params["theta_w"]
    grads_rgb = _branch_backward(demb, cache_rgb, params["rgb_k1"], params["rgb_k2"])
    grads_dep = _branch_backward(demb, cache_dep, params["dep_k1"], params["dep_k2"])
    return loss, dict(zip(_SHAPES, (*grads_rgb, *grads_dep, dpos.T @ emb, dpos.sum(axis=0),
                                    dtheta.T @ emb, dtheta.sum(axis=0))))


def batch_tensors(scenes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rgb, dep = image_tensors([s.rgb for s in scenes], [s.depth for s in scenes])
    return rgb, dep, np.stack([s.normalized_label() for s in scenes])


def train(dataset, epochs: int, lr: float = 1e-3, seed: int = 0,
          batch_size: int = 4):
    """Plain SGD over shuffled mini-batches; deterministic given the seed.

    Returns (params, per-epoch mean losses). Raises FloatingPointError once
    an epoch's mean loss or the parameters after it are not finite.
    """
    if not dataset:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(seed)
    params = init_params(seed)
    losses = []
    for epoch in range(epochs):
        order = rng.permutation(len(dataset))
        epoch_losses = []
        for begin in range(0, len(dataset), batch_size):
            batch = [dataset[i] for i in order[begin:begin + batch_size]]
            loss, grads = backward(params, *batch_tensors(batch))
            for name, grad in grads.items():
                params[name] -= lr * grad
            epoch_losses.append(loss)
        losses.append(float(np.mean(epoch_losses)))
        if not (math.isfinite(losses[-1])
                and all(np.isfinite(arr).all() for arr in params.values())):
            raise FloatingPointError(f"training diverged in epoch {epoch}: "
                                     "non-finite mean loss or parameters")
    return params, losses


def training_loss(params: dict, dataset) -> float:
    rgb, dep, labels = batch_tensors(dataset)
    pos, theta, _ = forward_batch(params, rgb, dep)
    return l1_loss(np.concatenate([pos, theta], axis=1), labels)[0]


def save_params(params: dict, path) -> None:
    """Flat binary dump: magic, array count, per-array dims, float64 LE data."""
    chunks = [_MAGIC, struct.pack("<I", len(_SHAPES))]
    for arr in params.values():
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_params(path) -> dict[str, np.ndarray]:
    data = read_bytes(path, "params file")
    if data[:8] != _MAGIC:
        raise InputError(f"{path}: bad params-file magic")
    pos = 8
    try:
        (count,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if count != len(_SHAPES):
            raise InputError(f"{path}: expected {len(_SHAPES)} arrays, got {count}")
        arrays = {}
        for name, shape in _SHAPES.items():
            (ndim,) = struct.unpack_from("<I", data, pos)
            pos += 4
            dims = struct.unpack_from(f"<{ndim}I", data, pos)
            pos += 4 * ndim
            if dims != shape:
                raise InputError(f"{path}: {name} has shape {dims}, expected {shape}")
            n = int(np.prod(shape))
            if pos + 8 * n > len(data):
                raise InputError(f"{path}: truncated params file")
            arrays[name] = np.frombuffer(data, "<f8", n, pos).reshape(shape).copy()
            if not np.isfinite(arrays[name]).all():
                raise InputError(f"{path}: {name} holds non-finite values")
            pos += 8 * n
    except struct.error as err:
        raise InputError(f"{path}: truncated params file") from err
    return arrays


def preprocess(rgb: RgbImage, depth: DepthImage):
    """Full-frame pair -> network tensors plus the 36x64 -> full-frame
    pixel map (crop offsets and per-axis scales)."""
    if rgb.pixels.shape[:2] != depth.pixels.shape:
        raise InputError(f"RGB image is {rgb.width}x{rgb.height} but depth image "
                         f"is {depth.width}x{depth.height}")
    ox, oy, cw, ch = image_io.crop_window(rgb.width, rgb.height)
    rgb_small = image_io.resize_bilinear(image_io.crop_center_quarter(rgb), IN_W, IN_H)
    dep_small = image_io.resize_bilinear(image_io.crop_center_quarter(depth), IN_W, IN_H)
    sx, sy = cw / IN_W, ch / IN_H
    return rgb_small, dep_small, (ox, oy, sx, sy)


def net_to_full_px(px, py, frame) -> tuple[float, float]:
    ox, oy, sx, sy = frame
    return ox + (px + 0.5) * sx - 0.5, oy + (py + 0.5) * sy - 0.5


def full_to_net_px(px, py, frame) -> tuple[float, float]:
    ox, oy, sx, sy = frame
    return (px - ox + 0.5) / sx - 0.5, (py - oy + 0.5) / sy - 0.5


def predict(params: dict, rgb: RgbImage, depth: DepthImage):
    """Predicted grasp for a full-frame pair: ((x, y) full-frame pixels, theta).

    theta is wrapped into (-pi/2, pi/2].
    """
    from .classical import wrap_half_pi

    rgb_small, dep_small, frame = preprocess(rgb, depth)
    pos, theta, _ = forward_batch(params, *image_tensors([rgb_small], [dep_small]))
    px = float(pos[0, 0]) * (IN_W - 1)
    py = float(pos[0, 1]) * (IN_H - 1)
    full = net_to_full_px(px, py, frame)
    return full, wrap_half_pi(float(theta[0, 0]) * (math.pi / 2))


def load_dataset(directory) -> list[LabeledScene]:
    """Load scene_####.ppm/.pgm pairs listed in labels.csv (id,px,py,theta).

    Full-frame scenes are center-cropped and resized to 36x64; labels are
    mapped into the small frame, and rows whose label falls outside the crop
    are skipped. A row with a missing column, a scene file that cannot be
    read or parsed, a scene pair of two sizes or under 4x4, a non-integer
    id, a non-finite px or py or a theta outside (-pi/2, pi/2] raises
    InputError naming its file and line.
    """
    path = Path(directory) / "labels.csv"
    scenes = []
    reader = csv.DictReader(io.StringIO(read_text(path, "labels file"), newline=""),
                            restval="")
    for row in reader:
        where = f"{path}:{reader.line_num}"
        try:
            idx = int(row["id"])
            label = [float(row[key]) for key in ("px", "py", "theta")]
        except KeyError as err:
            raise InputError(f"{where}: missing column {err}") from err
        except ValueError as err:
            raise InputError(f"{where}: bad label row: {err}") from err
        if not (all(map(math.isfinite, label[:2]))
                and -math.pi / 2 < label[2] <= math.pi / 2):
            raise InputError(f"{where}: px and py must be finite and theta "
                             "in (-pi/2, pi/2]")
        try:
            rgb = image_io.load_ppm(path.parent / f"scene_{idx:04d}.ppm")
            depth = image_io.load_pgm(path.parent / f"scene_{idx:04d}.pgm")
            rgb_small, dep_small, frame = preprocess(rgb, depth)
        except InputError as err:
            raise InputError(f"{where}: {err}") from err
        px, py = full_to_net_px(label[0], label[1], frame)
        if not (-0.5 <= px <= IN_W - 0.5 and -0.5 <= py <= IN_H - 0.5):
            continue
        scenes.append(LabeledScene(rgb_small, dep_small, (px, py), label[2]))
    return scenes
