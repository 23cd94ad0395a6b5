"""Tunable-parameter handling: one dataclass holding every knob in the stack,
a plain-text key=value config file parser, and flag-override merging.

Unknown keys are rejected at parse time; color thresholds are comma-separated
RGB triples. Every input file is read through read_bytes here, and every
rejected input, here and in the other modules' parsers, is an InputError.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

# Most frames an episode may attempt (100 Hz over the default 10 s window), and
# most proposals denoise clusters at once: its n x n arrays peak near 47 MiB.
MAX_FRAMES = 1000
# Most control steps (1000 s at 100 Hz; the trace keeps a row per step) and
# most scene pixels (1920 x 1080) an episode may have.
MAX_CONTROL_STEPS = 100_000
MAX_SCENE_PIXELS = 1920 * 1080
# Largest pixel noise sigma: the 16-bit depth range, past which all saturates.
MAX_NOISE_SIGMA = 65535.0
# Farthest a workspace coordinate (m) may lie from the base: a grasp target,
# the grasp height, an arm point, or where the calibration maps the scene.
# With |scale| >= MIN_SCALE (m/px) and k_p, k_d and damping at most MAX_GAIN,
# every pixel <-> workspace map and every control quantity stays finite.
WORKSPACE_LIMIT = 1e3
MIN_SCALE = 1e-9
MAX_GAIN = 1e3
# Largest |time| (s) of a proposal, a window end or the window: Unix-epoch
# seconds fit, and a float step there is 1.9e-6 s, so a window end plus a
# plan duration above that step still lies past the window end.
MAX_TIMESTAMP = 1e10


class InputError(ValueError):
    """Rejected input: a config value, flag or input file (exit code 2)."""


@dataclass
class PipelineConfig:
    # Classical vision.
    sigma: float = 1.4
    canny_low: float = 0.1
    canny_high: float = 0.2
    perimeter_min: float = 60.0
    color_low: tuple = (150, 40, 0)
    color_high: tuple = (215, 105, 60)
    # Pixel -> workspace calibration (meters = scale * pixel + shift, per axis).
    scale_x: float = 0.3 / 256.0
    scale_y: float = 0.3 / 144.0
    shift_x: float = 0.45
    shift_y: float = -0.15
    grasp_z: float = 0.01
    # Proposal denoiser.
    window: float = 10.0
    distance_threshold: float = 0.02
    # Trajectory and control.
    duration: float = 5.0
    k_p: float = 0.8
    k_d: float = 0.4
    damping: float = 1e-3
    qdot_max: float = 1.5
    control_rate: float = 100.0
    settle_time: float = 2.0
    # Simulator.
    scene_width: int = 256
    scene_height: int = 144
    frame_rate: float = 1.0
    noise_sigma: float = 0.0
    pos_tol: float = 0.005
    ang_tol_deg: float = 2.0
    good_grasp_px: float = 10.0
    arm_file: str = ""
    # Learned vision training.
    batch_size: int = 4

    @property
    def ang_tol(self) -> float:
        return math.radians(self.ang_tol_deg)

    def validate(self) -> "PipelineConfig":
        # NaN fails every comparison, so each bound is written as the test
        # a good value passes.
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise InputError(f"{f.name} must be finite")
        for name in ("sigma", "perimeter_min", "window", "frame_rate", "duration",
                     "control_rate", "k_p", "qdot_max", "pos_tol", "ang_tol_deg",
                     "good_grasp_px"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be > 0")
        for name in ("distance_threshold", "noise_sigma", "k_d", "damping",
                     "settle_time"):
            if not getattr(self, name) >= 0:
                raise InputError(f"{name} must be >= 0")
        # An episode attempts round(window * frame_rate) frames: at least 1
        # (round(0.5) == 0) and at most MAX_FRAMES (round(1000.5) == 1000).
        if not 0.5 < self.window * self.frame_rate <= MAX_FRAMES + 0.5:
            raise InputError(f"window * frame_rate must round to 1 to {MAX_FRAMES} "
                             "frames")
        steps = (self.duration + self.settle_time) * self.control_rate
        if not 0.5 < steps <= MAX_CONTROL_STEPS + 0.5:
            raise InputError("(duration + settle_time) * control_rate must round to "
                             f"1 to {MAX_CONTROL_STEPS} control steps")
        # Window ends lie within +-MAX_TIMESTAMP, where a float step is largest
        # (1.9e-6 s): a duration that moves that end moves all, so t_f > t_i.
        if not MAX_TIMESTAMP + self.duration > MAX_TIMESTAMP:
            raise InputError(f"duration must exceed a float step at {MAX_TIMESTAMP:g} s")
        if not self.window <= MAX_TIMESTAMP:
            raise InputError(f"window must be <= {MAX_TIMESTAMP:g} s")
        if not self.noise_sigma <= MAX_NOISE_SIGMA:
            raise InputError(f"noise_sigma must be <= {MAX_NOISE_SIGMA:g}")
        if not (0.0 < self.canny_low < self.canny_high <= 1.0):
            raise InputError("require 0 < canny_low < canny_high <= 1")
        if not abs(self.grasp_z) <= WORKSPACE_LIMIT:
            raise InputError(f"grasp_z must be within +-{WORKSPACE_LIMIT} m")
        for name in ("k_p", "k_d", "damping"):
            if not getattr(self, name) <= MAX_GAIN:
                raise InputError(f"{name} must be <= {MAX_GAIN}")
        for name in ("color_low", "color_high"):
            trip = getattr(self, name)
            if len(trip) != 3 or any(not (0 <= int(v) <= 255) for v in trip):
                raise InputError(f"{name} must be an RGB triple in 0..255")
        if any(lo > hi for lo, hi in zip(self.color_low, self.color_high)):
            raise InputError("color_low must be componentwise <= color_high")
        if not (min(self.scene_width, self.scene_height) >= 8
                and self.scene_width * self.scene_height <= MAX_SCENE_PIXELS):
            raise InputError("scene_width and scene_height must be >= 8 and "
                             f"scene_width * scene_height <= {MAX_SCENE_PIXELS}")
        for axis, size in (("x", self.scene_width), ("y", self.scene_height)):
            scale, shift = getattr(self, "scale_" + axis), getattr(self, "shift_" + axis)
            if not (abs(scale) >= MIN_SCALE and max(abs(shift), abs(shift + scale * size))
                    <= WORKSPACE_LIMIT):
                raise InputError(f"scale_{axis}, shift_{axis}: need |scale_{axis}| >= "
                                 f"{MIN_SCALE} and the scene mapped within "
                                 f"+-{WORKSPACE_LIMIT} m")
        if not 2 * self.sigma * self.sigma > 0:  # the blur kernel divides by it
            raise InputError("sigma: 2 * sigma^2 underflows to 0")
        # ceil(3 * sigma) <= n exactly when 3 * sigma <= n, for an integer n.
        if not 3 * self.sigma <= max(self.scene_width, self.scene_height):
            raise InputError("sigma: blur radius ceil(3 * sigma) must be <= "
                             "max(scene_width, scene_height)")
        if self.batch_size < 1:
            raise InputError("batch_size must be >= 1")
        return self


def read_bytes(path, what: str) -> bytes:
    """Contents of an input file (the one place one is opened) or InputError."""
    try:
        return Path(path).read_bytes()
    except (OSError, ValueError) as err:  # ValueError: a NUL byte in the path
        raise InputError(f"{path}: cannot read {what}: "
                         f"{getattr(err, 'strerror', None) or err}") from err


def read_text(path, what: str) -> str:
    """Text of an input file; callers split it with str.splitlines, which
    ends a line at a CR LF or a lone CR too. Undecodable bytes become lone
    surrogates, so they fail the file's parser with its path:line."""
    return read_bytes(path, what).decode(errors="surrogateescape")


_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}


def _parse_value(name: str, raw: str):
    """Parse raw as the type of config key `name`; every error names the key."""
    if name not in _FIELDS:
        raise InputError(f"unknown config key {name!r}")
    kind = _FIELDS[name].type
    raw = raw.strip()
    try:
        if kind == "tuple":
            parts = tuple(int(p) for p in raw.split(",") if p.strip())
            if len(parts) != 3:
                raise InputError(f"expected an r,g,b triple, got {raw!r}")
            return parts
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as err:
        raise InputError(f"{name}: {err}") from err
    return raw


def load_config(path) -> PipelineConfig:
    """Read key=value lines ('#' starts a comment) into a PipelineConfig."""
    cfg = PipelineConfig()
    for lineno, line in enumerate(read_text(path, "config file").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "=" not in line:
                raise InputError(f"expected key=value, got {line!r}")
            key, raw = line.split("=", 1)
            setattr(cfg, key.strip(), _parse_value(key.strip(), raw))
        except ValueError as err:
            raise InputError(f"{path}:{lineno}: {err}") from err
    return cfg.validate()


def apply_overrides(cfg: PipelineConfig, overrides: dict) -> PipelineConfig:
    """A validated copy of cfg with key -> string overrides (e.g. CLI flags)."""
    parsed = {key: _parse_value(key, str(raw)) for key, raw in overrides.items()}
    return dataclasses.replace(cfg, **parsed).validate()
