"""Raster containers, binary PPM/PGM file I/O, and the grayscale / crop /
resize preprocessing shared by the vision paths.

Wire formats: PPM is binary P6 with maxval 255; PGM is binary P5 with
maxval 65535 and big-endian 16-bit samples (depth in millimeters).
'#' comments are allowed anywhere in the headers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import InputError, read_bytes


class FormatError(InputError):
    """Malformed or unsupported image file."""


@dataclass
class _Raster:
    """Pixel array shaped (height, width) plus the subclass's CHANNELS axes."""

    pixels: np.ndarray
    DTYPE = float
    CHANNELS = ()

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=self.DTYPE)
        if self.pixels.shape[2:] != self.CHANNELS or self.pixels.ndim < 2:
            dims = ", ".join(["height", "width", *map(str, self.CHANNELS)])
            raise ValueError(f"{type(self).__name__} pixels must be ({dims})")
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass
class RgbImage(_Raster):
    """8-bit RGB raster, pixels shaped (height, width, 3)."""

    DTYPE = np.uint8
    CHANNELS = (3,)


@dataclass
class DepthImage(_Raster):
    """16-bit depth raster in millimeters, pixels shaped (height, width)."""

    DTYPE = np.uint16


@dataclass
class GrayImage(_Raster):
    """Real-valued intensities in [0, 1], pixels shaped (height, width)."""

    def __post_init__(self):
        super().__post_init__()
        if self.pixels.min() < 0.0 or self.pixels.max() > 1.0:
            raise ValueError("GrayImage values must lie in [0, 1]")


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
    return np.frombuffer(payload, dtype).reshape(height, width, channels)


def load_ppm(path) -> RgbImage:
    """Load a binary (P6) PPM file."""
    return RgbImage(_load_netpbm(path, "PPM image", b"P6", 255, 3, "u1").copy())


def save_ppm(image: RgbImage, path) -> None:
    header = f"P6\n{image.width} {image.height}\n255\n".encode()
    Path(path).write_bytes(header + image.pixels.tobytes())


def load_pgm(path) -> DepthImage:
    """Load a binary (P5) PGM file with 16-bit big-endian samples."""
    return DepthImage(_load_netpbm(path, "PGM image", b"P5", 65535, 1, ">u2")[:, :, 0])


def save_pgm(image: DepthImage, path) -> None:
    header = f"P5\n{image.width} {image.height}\n65535\n".encode()
    Path(path).write_bytes(header + image.pixels.astype(">u2").tobytes())


def to_gray(image: RgbImage) -> GrayImage:
    """Luminance 0.299 R + 0.587 G + 0.114 B, scaled to [0, 1]."""
    rgb = image.pixels.astype(float)
    lum = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
    return GrayImage(lum / 255.0)


def crop_center_quarter(image):
    """Central crop of half the width and half the height (1/4 of the area).

    Accepts RgbImage, DepthImage, or GrayImage and returns the same type.
    """
    w, h = image.width, image.height
    if w < 4 or h < 4:
        raise InputError(f"image too small to crop: {w}x{h}")
    ox, oy, cw, ch = crop_window(w, h)
    return type(image)(image.pixels[oy:oy + ch, ox:ox + cw].copy())


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


def resize_bilinear(image, out_w: int, out_h: int):
    """Bilinear resize to exactly (out_w, out_h); same image type out."""
    if out_w < 1 or out_h < 1:
        raise ValueError("output dimensions must be >= 1")
    out = _bilinear(image.pixels.astype(float), out_w, out_h)
    if isinstance(image, GrayImage):
        return GrayImage(np.clip(out, 0.0, 1.0))
    if isinstance(image, RgbImage):
        return RgbImage(np.clip(np.round(out), 0, 255).astype(np.uint8))
    return DepthImage(np.clip(np.round(out), 0, 65535).astype(np.uint16))
