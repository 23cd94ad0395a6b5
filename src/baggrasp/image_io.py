"""Binary PPM/PGM file I/O and the grayscale / crop / resize preprocessing
shared by the vision paths. An RGB image is a uint8 array (height, width, 3);
a depth image is a native uint16 array (height, width), in millimeters.

Wire formats: PPM is binary P6 with maxval 255; PGM is binary P5 with
maxval 65535 and big-endian 16-bit samples (depth in millimeters).
'#' comments are allowed anywhere in the headers.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .config import InputError, read_bytes


class FormatError(InputError):
    """Malformed or unsupported image file."""


# A header field, after any whitespace and '#' comments (each to its line's end).
_FIELD = re.compile(rb"(?:\s|#[^\n]*\n?)*([^\s#]*)")


def _parse_header(data: bytes, magic: bytes, path) -> tuple[list[int], int]:
    """Parse a netpbm header; returns ([width, height, maxval], payload offset)."""
    if data[:2] != magic:
        raise FormatError(f"{path}: bad magic, expected {magic.decode()}")
    pos = 2
    fields: list[int] = []
    for _ in range(3):
        match = _FIELD.match(data, pos)
        token, pos = match[1], match.end()
        if not token:
            raise FormatError(f"{path}: truncated header")
        if not token.isdigit():
            raise FormatError(f"{path}: non-numeric header field {token!r}")
        try:
            fields.append(int(token))
        except ValueError as err:  # more digits than int() converts (4,300)
            raise FormatError(f"{path}: header field too long ({len(token)} digits)") from err
    # Exactly one whitespace byte separates the header from the payload.
    if not data[pos:pos + 1].isspace():
        raise FormatError(f"{path}: missing separator after header")
    return fields, pos + 1


def _load_netpbm(path, what: str, magic: bytes, maxval: int, channels: int,
                 dtype: str) -> np.ndarray:
    """Pixels (height, width, channels) of a binary netpbm file whose header
    must carry this magic and maxval, samples stored as dtype."""
    data = read_bytes(path, what)
    (width, height, got), offset = _parse_header(data, magic, path)
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad dimensions {width}x{height}")
    if got != maxval:
        raise FormatError(f"{path}: unsupported maxval {got}, expected {maxval}")
    need = width * height * channels * np.dtype(dtype).itemsize
    payload = data[offset:offset + need]
    if len(payload) < need:
        raise FormatError(f"{path}: truncated payload ({len(payload)} of {need} bytes)")
    if len(data) > offset + need:  # one image per file
        raise FormatError(f"{path}: {len(data) - offset - need} bytes after the image")
    return np.frombuffer(payload, dtype).reshape(height, width, channels)


def load_ppm(path) -> np.ndarray:
    """A binary (P6) PPM file's RGB image: a writable uint8 array (height, width, 3)."""
    return _load_netpbm(path, "PPM image", b"P6", 255, 3, "u1").copy()


def save_ppm(image: np.ndarray, path) -> None:
    header = f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode()
    Path(path).write_bytes(header + image.tobytes())


def load_pgm(path) -> np.ndarray:
    """A binary (P5) PGM file's 16-bit big-endian depth image: a writable,
    native-endian uint16 array (height, width)."""
    return _load_netpbm(path, "PGM image", b"P5", 65535, 1, ">u2")[:, :, 0].astype(np.uint16)


def save_pgm(image: np.ndarray, path) -> None:
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n65535\n".encode()
    Path(path).write_bytes(header + image.astype(">u2").tobytes())


class Workspace:
    """A frame's state, reused frame after frame for frames of one (height,
    width): `frames`, three zeroed float frames made with the workspace, and
    `pad(size)`, one float buffer that grows, for the per-pixel stages
    (to_gray; classical's gaussian_blur, sobel_gradients and canny), so a run
    of frames makes no frame-sized array after the first. A stage output made
    in a workspace is one of its buffers: valid only until the next stage call
    on it, never past its next frame, and not to be written into. A stage
    given no workspace makes a fresh one."""

    def __init__(self, height: int, width: int):
        self.shape = (height, width)
        self.frames = np.zeros((3, height, width))
        self._pad = np.zeros(0)

    @classmethod
    def for_frame(cls, ws: "Workspace | None", shape) -> "Workspace":
        """ws, which must be for frames of shape (height, width), or a fresh one."""
        if ws is None:
            return cls(*shape)
        if ws.shape != shape:
            raise ValueError(f"workspace for {ws.shape[0]}x{ws.shape[1]} frames "
                             f"given a {shape[0]}x{shape[1]} frame")
        return ws

    def pad(self, size: int) -> np.ndarray:
        """The first size items of the pad buffer, made anew, zeroed, when smaller."""
        if self._pad.size < size:
            self._pad = np.zeros(size)
        return self._pad[:size]


def to_gray(image: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """Luminance 0.299 R + 0.587 G + 0.114 B of an RGB image, scaled to [0, 1]:
    a float array (height, width), in ws.frames[0] (ws.frames[1] is scratch)."""
    ws = Workspace.for_frame(ws, image.shape[:2])
    lum = np.multiply(image[..., 0], 0.299, out=ws.frames[0])  # no float copy of the frame
    tmp = ws.frames[1]
    lum += np.multiply(image[..., 1], 0.587, out=tmp)
    lum += np.multiply(image[..., 2], 0.114, out=tmp)
    return np.divide(lum, 255.0, out=lum)


def crop_window(w: int, h: int) -> tuple[int, int, int, int]:
    """(ox, oy, cw, ch) of the central-quarter crop of a w x h image."""
    cw, ch = w // 2, h // 2
    return (w - cw) // 2, (h - ch) // 2, cw, ch


def _bilinear(src: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Pixel-center-aligned bilinear resample of a float array (h, w[, c]): x over
    every source row, then y, so each value is the four-gather form's, bit for bit."""
    in_h, in_w = src.shape[:2]
    xs = np.clip((np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5, 0.0, in_w - 1.0)
    ys = np.clip((np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5, 0.0, in_h - 1.0)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    channels = (1,) * (src.ndim - 2)
    fx = (xs - x0).reshape(1, -1, *channels)
    fy = (ys - y0).reshape(-1, 1, *channels)
    cols = src.take(x0, axis=1) * (1 - fx) + src.take(x1, axis=1) * fx
    return cols[y0] * (1 - fy) + cols[y1] * fy  # take's C order: whole-row copies


def resize_bilinear(image: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resize of an RGB or depth image to exactly (out_w, out_h):
    rounded and clipped to the input's unsigned integer dtype, which it keeps."""
    if out_w < 1 or out_h < 1:
        raise ValueError("output dimensions must be >= 1")
    out = _bilinear(image.astype(float), out_w, out_h)
    return np.clip(np.round(out), 0, np.iinfo(image.dtype).max).astype(image.dtype)
