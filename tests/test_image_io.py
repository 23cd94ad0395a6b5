import collections
import random

import numpy as np
import pytest

from baggrasp.config import InputError
from baggrasp.image_io import (FormatError, _bilinear, _parse_header, crop_window,
                               load_pgm, load_ppm, resize_bilinear, save_pgm, save_ppm,
                               to_gray)
from baggrasp.learned import preprocess


def _random_rgb(rng, w, h):
    return rng.integers(0, 256, (h, w, 3), dtype=np.uint8)


def _assert_loaded(img, dtype, shape):
    """The loaders' contract: a writable, C-contiguous, native-endian array
    of the image's dtype and shape."""
    assert img.dtype == dtype and img.dtype.isnative and img.shape == shape
    assert img.flags.writeable and img.flags.c_contiguous


def _center_quarter(img):
    """The central-quarter crop that learned.preprocess takes."""
    ox, oy, cw, ch = crop_window(img.shape[1], img.shape[0])
    return img[oy:oy + ch, ox:ox + cw]


# --- PPM ---

def test_load_ppm_single_white_pixel(tmp_path):
    p = tmp_path / "white.ppm"
    p.write_bytes(b"P6\n1 1\n255\n\xff\xff\xff")
    img = load_ppm(p)
    assert (img.shape[1], img.shape[0]) == (1, 1)
    assert tuple(img[0, 0]) == (255, 255, 255)


def test_ppm_round_trip_bytes(tmp_path):
    rng = np.random.default_rng(0)
    img = _random_rgb(rng, 13, 7)
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    save_ppm(img, p1)
    loaded = load_ppm(p1)
    _assert_loaded(loaded, np.uint8, (7, 13, 3))
    assert np.array_equal(loaded, img)
    save_ppm(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_ppm_header_comments(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6\n# a comment\n2 # trailing\n1\n# another\n255\n"
                  + bytes([10, 20, 30, 40, 50, 60]))
    img = load_ppm(p)
    assert (img.shape[1], img.shape[0]) == (2, 1)
    assert tuple(img[0, 1]) == (40, 50, 60)


def test_ppm_bad_magic(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P5\n1 1\n255\n\xff\xff\xff")
    with pytest.raises(FormatError, match="magic"):
        load_ppm(p)


def test_ppm_malformed_header(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P6\nnope 1\n255\n\xff\xff\xff")
    with pytest.raises(FormatError, match="non-numeric"):
        load_ppm(p)


def test_ppm_truncated_payload(tmp_path):
    p = tmp_path / "short.ppm"
    p.write_bytes(b"P6\n2 2\n255\n\xff\xff")
    with pytest.raises(FormatError, match="truncated"):
        load_ppm(p)


def test_ppm_wrong_maxval(tmp_path):
    p = tmp_path / "max.ppm"
    p.write_bytes(b"P6\n1 1\n65535\n\xff\xff\xff")
    with pytest.raises(FormatError, match="maxval"):
        load_ppm(p)


# --- PGM ---

def test_pgm_gradient_fixture(tmp_path):
    p = tmp_path / "g.pgm"
    payload = b"".join(v.to_bytes(2, "big") for v in (0, 1000, 2000, 3000))
    p.write_bytes(b"P5\n2 2\n65535\n" + payload)
    img = load_pgm(p)
    assert img.tolist() == [[0, 1000], [2000, 3000]]


def test_pgm_round_trip_bytes(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 65536, (5, 9), dtype=np.uint16)
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    save_pgm(img, p1)
    loaded = load_pgm(p1)
    _assert_loaded(loaded, np.uint16, (5, 9))
    assert np.array_equal(loaded, img)
    save_pgm(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_pgm_truncated_payload(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n\x00\x01")
    with pytest.raises(FormatError, match="truncated"):
        load_pgm(p)


def test_pgm_wrong_maxval(tmp_path):
    p = tmp_path / "max.pgm"
    p.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(FormatError, match="maxval"):
        load_pgm(p)


# --- netpbm header ---

def _scan_header(data: bytes, magic: bytes, path) -> tuple[list[int], int]:
    """_parse_header as first written, a byte-by-byte scanner: the oracle."""
    if data[:2] != magic:
        raise FormatError(f"{path}: bad magic, expected {magic.decode()}")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(data):
            c = data[pos:pos + 1]
            if c == b"#":
                nl = data.find(b"\n", pos)
                pos = len(data) if nl < 0 else nl + 1
            elif c.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace() and data[pos:pos + 1] != b"#":
            pos += 1
        token = data[start:pos]
        if not token:
            raise FormatError(f"{path}: truncated header")
        if not token.isdigit():
            raise FormatError(f"{path}: non-numeric header field {token!r}")
        fields.append(int(token))
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise FormatError(f"{path}: missing separator after header")
    return fields, pos + 1


_WHITESPACE = [bytes([c]) for c in b" \t\n\r\x0b\x0c"]  # all six bytes.isspace()
_OTHER = [b"\x00", b"\x80", b"\xff", b"\xa0", b"\x85", b"x", b"-", b"+", b"P", b"6"]


def _random_header(rng: random.Random) -> bytes:
    """Magic, then digits, non-digits, whitespace and '#' comments (with and
    without their newline), NUL and high bytes, in random order."""
    parts = [rng.choice([b"P6"] * 18 + [b"P5", b"P"])]
    for _ in range(rng.randrange(12)):
        r = rng.random()
        if r < 0.4:
            parts.append("".join(rng.choices("0123456789", k=rng.randint(1, 4))).encode())
        elif r < 0.75:
            parts += rng.choices(_WHITESPACE, k=rng.randint(1, 2))
        elif r < 0.87:
            body = rng.choices(_WHITESPACE[:1] + _OTHER + [b"#", b"7"], k=rng.randrange(4))
            parts += [b"#", *body] + ([b"\n"] if rng.random() < 0.7 else [])
        else:
            parts.append(rng.choice(_OTHER + _WHITESPACE[2:3]))
    return b"".join(parts)


def _outcome(parse, data):
    try:
        return parse(data, b"P6", "h.ppm")
    except FormatError as err:
        return str(err)


def test_header_regex_matches_byte_scanner_oracle():
    rng = random.Random(12)
    seen = collections.Counter()
    for _ in range(100_000):
        data = _random_header(rng)
        want = _outcome(_scan_header, data)
        assert _outcome(_parse_header, data) == want, data
        seen[want.split(": ")[1].split(" ")[0] if isinstance(want, str) else "ok"] += 1
    # Every outcome is drawn often: a good header and each of the four errors.
    assert set(seen) == {"ok", "bad", "truncated", "non-numeric", "missing"}
    assert min(seen.values()) >= 1000, seen


def test_oversized_header_field_is_format_error(tmp_path):
    # int() converts at most 4,300 digits; a longer field is a FormatError
    # naming the file, in any of the three places.
    big = b"1" * 5000
    for header in (b"P6\n%s 1\n255\n" % big, b"P6\n1 %s\n255\n" % big,
                   b"P6\n1 1\n%s\n" % big):
        p = tmp_path / "big.ppm"
        p.write_bytes(header + b"\0\0\0")
        with pytest.raises(FormatError, match="big.ppm: header field too long"):
            load_ppm(p)
    p = tmp_path / "big.pgm"
    p.write_bytes(b"P5\n%s 1\n65535\n\0\0" % big)
    with pytest.raises(FormatError, match="big.pgm: header field too long"):
        load_pgm(p)


def test_netpbm_missing_path_is_input_error(tmp_path):
    for load in (load_ppm, load_pgm):
        with pytest.raises(InputError, match="nope.pnm: cannot read"):
            load(tmp_path / "nope.pnm")


# --- grayscale ---

def test_to_gray_black_and_white():
    black = np.zeros((2, 2, 3), dtype=np.uint8)
    white = np.full((2, 2, 3), 255, dtype=np.uint8)
    assert np.array_equal(to_gray(black), np.zeros((2, 2)))
    assert np.allclose(to_gray(white), 1.0, atol=1e-12)


def test_to_gray_pure_red():
    red = np.tile(np.array([255, 0, 0], dtype=np.uint8), (1, 1, 1))
    assert abs(to_gray(red)[0, 0] - 0.299) < 1e-6


# --- crop ---

def test_crop_8x8():
    rng = np.random.default_rng(2)
    img = _random_rgb(rng, 8, 8)
    out = _center_quarter(img)
    assert (out.shape[1], out.shape[0]) == (4, 4)
    assert np.array_equal(out, img[2:6, 2:6])


def test_crop_144x256():
    img = np.zeros((256, 144, 3), dtype=np.uint8)
    out = _center_quarter(img)
    assert (out.shape[1], out.shape[0]) == (72, 128)


def test_crop_constant_stays_constant():
    rgb_small, dep_small, _ = preprocess(np.full((10, 12, 3), 250, np.uint8),
                                         np.full((10, 12), 250, np.uint16))
    assert rgb_small.shape == (36, 64, 3) and dep_small.shape == (36, 64)
    assert np.all(rgb_small == 250) and np.all(dep_small == 250)


def test_crop_too_small():
    with pytest.raises(InputError, match="image too small to crop: 8x3"):
        preprocess(np.zeros((3, 8, 3), np.uint8), np.zeros((3, 8), np.uint16))


# --- resize ---

def _bilinear_oracle(src, out_w, out_h):
    in_h, in_w = src.shape[:2]
    out = np.zeros((out_h, out_w) + src.shape[2:])
    for yo in range(out_h):
        for xo in range(out_w):
            x = min(max((xo + 0.5) * in_w / out_w - 0.5, 0.0), in_w - 1.0)
            y = min(max((yo + 0.5) * in_h / out_h - 0.5, 0.0), in_h - 1.0)
            x0, y0 = int(np.floor(x)), int(np.floor(y))
            x1, y1 = min(x0 + 1, in_w - 1), min(y0 + 1, in_h - 1)
            fx, fy = x - x0, y - y0
            out[yo, xo] = ((1 - fy) * ((1 - fx) * src[y0, x0] + fx * src[y0, x1])
                           + fy * ((1 - fx) * src[y1, x0] + fx * src[y1, x1]))
    return out


def _bilinear_four_gathers(src, out_w, out_h):
    """_bilinear as first written, with four 2-D gathers: the oracle."""
    in_h, in_w = src.shape[:2]
    xs = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    ys = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    xs = np.clip(xs, 0.0, in_w - 1.0)
    ys = np.clip(ys, 0.0, in_h - 1.0)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    fx = xs - x0
    fy = ys - y0
    channels = (1,) * (src.ndim - 2)
    fx = fx.reshape(1, -1, *channels)
    fy = fy.reshape(-1, 1, *channels)
    top = src[y0[:, None], x0[None, :]] * (1 - fx) + src[y0[:, None], x1[None, :]] * fx
    bot = src[y1[:, None], x0[None, :]] * (1 - fx) + src[y1[:, None], x1[None, :]] * fx
    return top * (1 - fy) + bot * fy


def test_separable_resize_is_bit_identical_to_four_gathers():
    rng = np.random.default_rng(6)
    for _ in range(40):
        h, w = rng.integers(1, 40, 2)
        out_h, out_w = rng.integers(1, 80, 2)
        for src in (rng.uniform(0, 255, (h, w, 3)), rng.uniform(500, 1100, (h, w))):
            got = _bilinear(src, out_w, out_h)
            want = _bilinear_four_gathers(src, out_w, out_h)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _bilinear_rows_first(src, out_w, out_h):
    """_bilinear before it interpolated along x first: it gathered the two
    source rows of every output row, then their columns (six gathers)."""
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
    top, bot = src[y0], src[y1]
    top = top[:, x0] * (1 - fx) + top[:, x1] * fx
    bot = bot[:, x0] * (1 - fx) + bot[:, x1] * fx
    return top * (1 - fy) + bot * fy


@pytest.mark.parametrize("kind", ["rgb", "depth", "gray"])
@pytest.mark.parametrize("in_wh, out_wh", [
    ((128, 72), (64, 36)),  # the learned path's crop, halved
    ((37, 50), (19, 23)), ((64, 36), (27, 31)),  # non-integer ratios
    ((5, 7), (21, 30)), ((2, 2), (9, 4)),  # up-sampling
    ((30, 20), (1, 9)), ((30, 20), (11, 1)), ((3, 8), (1, 1)),  # 1 pixel wide or tall
    ((1, 6), (4, 3)), ((6, 1), (2, 5)),  # from a single column or row
])
def test_bilinear_matches_rows_first_oracle(kind, in_wh, out_wh):
    rng = np.random.default_rng(sum(in_wh) * 100 + sum(out_wh))
    (w, h), (out_w, out_h) = in_wh, out_wh
    src = {"rgb": lambda: rng.integers(0, 256, (h, w, 3)).astype(float),
           "depth": lambda: rng.integers(500, 1100, (h, w)).astype(float),
           "gray": lambda: rng.uniform(0.0, 1.0, (h, w))}[kind]()
    got = _bilinear(src, out_w, out_h)
    want = _bilinear_rows_first(src, out_w, out_h)
    assert got.shape == want.shape == (out_h, out_w, *src.shape[2:])
    assert np.array_equal(got, want)


def test_resize_constant():
    out = resize_bilinear(np.full((5, 7), 600, np.uint16), 11, 3)
    assert out.shape == (3, 11) and out.dtype == np.uint16
    assert np.allclose(out, 600, atol=1e-12)


def test_resize_midpoint_gray():
    # A 2-wide black/white pair resized to 3 samples exactly between the two
    # source pixels at the middle output pixel.
    img = np.array([[[0, 0, 0], [255, 255, 255]]], dtype=np.uint8)
    out = resize_bilinear(img, 3, 1)
    assert out.dtype == np.uint8
    assert abs(int(out[0, 1, 0]) - 127.5) <= 0.5


def test_resize_against_oracle():
    rng = np.random.default_rng(3)
    src = rng.uniform(0, 1, (9, 14))
    out = _bilinear(src, 5, 21)
    assert np.allclose(out, _bilinear_oracle(src, 5, 21), atol=1e-12)


def test_resize_output_dims_36x64():
    img = np.zeros((72, 128, 3), dtype=np.uint8)
    out = resize_bilinear(img, 64, 36)
    assert (out.shape[1], out.shape[0]) == (64, 36)


def test_resize_preserves_range():
    rng = np.random.default_rng(4)
    img = _random_rgb(rng, 23, 17)
    out = resize_bilinear(img, 40, 9)
    assert out.min() >= int(img.min()) - 1
    assert out.max() <= int(img.max()) + 1


def test_resize_deterministic():
    rng = np.random.default_rng(5)
    img = _random_rgb(rng, 16, 16)
    a = resize_bilinear(_center_quarter(img), 5, 3)
    b = resize_bilinear(_center_quarter(img), 5, 3)
    assert np.array_equal(a, b)
