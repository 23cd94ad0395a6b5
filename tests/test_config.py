import ast
import dataclasses
from pathlib import Path

import pytest

from baggrasp import config
from baggrasp.config import (MAX_CONTROL_STEPS, MAX_SCENE_PIXELS, PipelineConfig,
                             apply_overrides, load_config)


def test_defaults_validate():
    cfg = PipelineConfig().validate()
    assert cfg.k_p == 0.8 and cfg.k_d == 0.4
    assert cfg.sigma == 1.4
    assert (cfg.canny_low, cfg.canny_high) == (0.1, 0.2)
    assert cfg.window == 10.0


def test_load_config_parses_types(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("sigma=2.0\nscene_width=128  # inline comment\n"
                 "color_low=10,20,30\n\n# full-line comment\n")
    cfg = load_config(p)
    assert cfg.sigma == 2.0
    assert cfg.scene_width == 128
    assert cfg.color_low == (10, 20, 30)


def test_every_field_type_is_one_that_parse_value_handles():
    # Annotations are strings (config.py postpones them), and _parse_value
    # and validate compare with these four; any other would parse as raw text.
    types = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}
    assert set(types.values()) <= {"float", "int", "tuple", "str"}, types
    assert [config._parse_value(name, "1,2,3" if kind == "tuple" else "7")
            for name, kind in (("sigma", "float"), ("batch_size", "int"),
                               ("color_low", "tuple"), ("arm_file", "str"))] \
        == [7.0, 7, (1, 2, 3), "7"]


def test_load_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("blur=2.0\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(p)


def test_load_config_rejects_bad_line(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("sigma\n")
    with pytest.raises(ValueError, match="key=value"):
        load_config(p)


@pytest.mark.parametrize("text, match", [
    pytest.param("canny_low=0.5\ncanny_high=0.2\n", "canny", id="canny"),
    *[pytest.param(f"{item}\n", item.split("=")[0], id=item) for item in (
        "k_p=0", "k_p=nan", "k_p=inf", "duration=-1", "duration=nan",
        "control_rate=0", "control_rate=inf", "qdot_max=-1", "qdot_max=0",
        "qdot_max=inf", "k_d=nan", "k_d=-0.1", "damping=nan", "damping=-1e-3",
        "settle_time=-5", "settle_time=inf", "grasp_z=nan", "grasp_z=-inf",
        "distance_threshold=nan", "distance_threshold=-0.01", "noise_sigma=nan",
        "noise_sigma=-1", "frame_rate=0", "frame_rate=nan", "frame_rate=0.05",
        "frame_rate=100.1", "frame_rate=1e6",
        "pos_tol=nan", "pos_tol=0", "ang_tol_deg=-1", "good_grasp_px=nan",
        "good_grasp_px=0", "perimeter_min=nan", "window=nan", "window=0",
        "sigma=nan", "canny_low=nan", "scale_x=nan", "scale_y=inf",
        "shift_x=inf", "batch_size=0", "duration=1e9", "settle_time=1e9",
        "control_rate=1e6", "control_rate=1e308", "scene_width=100000",
        "scene_height=100000", "sigma=85.4", "sigma=1e300", "scale_y=1e300",
        "shift_x=1e300", "grasp_z=1e300", "scale_x=1e-300", "damping=1e300",
        "k_p=1e300", "k_d=1e308", "sigma=1e-300", "control_rate=0.01",
        "noise_sigma=65535.5", "noise_sigma=1e308",
        # A channel past 255, and a box whose low corner is above its high one.
        "color_high=215,105,256", "color_low=216,40,0")],
    # A control loop of 0 steps: round(1e-7) == 0.
    pytest.param("settle_time=0\nduration=1e-9\n", r"duration \+ settle_time",
                 id="settle_time=0,duration=1e-9"),
    # Values that do not parse: the error names the file, line and key.
    pytest.param("sigma = abc\n", r"c\.txt:1: sigma", id="sigma=abc"),
    pytest.param("# ok\nscene_width=12.5\n", r"c\.txt:2: scene_width",
                 id="scene_width=12.5"),
    pytest.param("batch_size=two\n", r"c\.txt:1: batch_size", id="batch_size=two"),
    pytest.param("color_low=1,x,3\n", r"c\.txt:1: color_low", id="color_low=1,x,3"),
    pytest.param("sigma=\udcff\n", r"c\.txt:1: sigma", id="sigma=non-utf8"),
])
def test_load_config_validates_values(tmp_path, text, match):
    p = tmp_path / "c.txt"
    p.write_text(text, errors="surrogateescape")
    with pytest.raises(ValueError, match=match):
        load_config(p)


def test_control_keys_accept_zero_where_allowed():
    cfg = apply_overrides(PipelineConfig(),
                          {"k_d": "0", "damping": "0", "settle_time": "0"})
    assert (cfg.k_d, cfg.damping, cfg.settle_time) == (0.0, 0.0, 0.0)


def test_tiny_sigma_validates_while_its_square_is_positive():
    # 2 * 1e-150**2 = 2e-300 is still a normal double; sigma=1e-300 is not.
    assert apply_overrides(PipelineConfig(), {"sigma": "1e-150"}).sigma == 1e-150


def test_frame_count_cap_is_inclusive():
    # 10 s at 100 Hz is exactly the cap; window * frame_rate = 1000.5 still
    # rounds to 1000 frames.
    assert apply_overrides(PipelineConfig(), {"frame_rate": "100"}).frame_rate == 100
    assert apply_overrides(PipelineConfig(), {"window": "1", "frame_rate": "1000.5"})
    with pytest.raises(ValueError, match="window \\* frame_rate"):
        apply_overrides(PipelineConfig(), {"window": "20", "frame_rate": "50.1"})


def test_control_step_and_scene_caps_are_inclusive():
    # Checked by validate() alone: no test allocates a capped size. 998 s plus
    # the 2 s settle at 100 Hz is exactly MAX_CONTROL_STEPS; 100000.5 still
    # rounds to it.
    assert MAX_CONTROL_STEPS == 100_000 and MAX_SCENE_PIXELS == 1920 * 1080
    assert apply_overrides(PipelineConfig(), {"duration": "998"})
    assert apply_overrides(PipelineConfig(), {"duration": "998.005"})
    with pytest.raises(ValueError, match="duration \\+ settle_time"):
        apply_overrides(PipelineConfig(), {"duration": "998.01"})
    # At least one step: 0.6 rounds to 1, 0.5 to 0.
    assert apply_overrides(PipelineConfig(), {"duration": "0.006", "settle_time": "0"})
    with pytest.raises(ValueError, match="duration \\+ settle_time"):
        apply_overrides(PipelineConfig(), {"duration": "0.005", "settle_time": "0"})
    assert apply_overrides(PipelineConfig(), {"noise_sigma": "65535"})
    assert apply_overrides(PipelineConfig(), {"scene_width": "1920",
                                              "scene_height": "1080"})
    with pytest.raises(ValueError, match="scene_width \\* scene_height"):
        apply_overrides(PipelineConfig(), {"scene_width": "1920",
                                           "scene_height": "1081"})
    with pytest.raises(ValueError, match="scene_width and scene_height"):
        apply_overrides(PipelineConfig(), {"scene_width": "7"})


def test_apply_overrides():
    cfg = apply_overrides(PipelineConfig(), {"k_p": "1.2", "color_high": "200,200,200"})
    assert cfg.k_p == 1.2 and cfg.color_high == (200, 200, 200)
    with pytest.raises(ValueError):
        apply_overrides(cfg, {"nope": "1"})


def test_apply_overrides_leaves_its_argument_unchanged():
    # A rejected override set must not leave half of itself behind: each key
    # here parses, and only validate() rejects the whole (sigma < 0).
    cfg = PipelineConfig()
    good = apply_overrides(cfg, {"noise_sigma": "2", "k_p": "1.2"})
    assert (good.noise_sigma, good.k_p) == (2.0, 1.2) and good is not cfg
    assert cfg == PipelineConfig()
    with pytest.raises(ValueError, match="sigma must be > 0"):
        apply_overrides(cfg, {"noise_sigma": "2", "sigma": "-1"})
    assert cfg == PipelineConfig()


def test_bad_color_triple(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("color_low=1,2\n")
    with pytest.raises(ValueError, match="triple"):
        load_config(p)


def test_only_config_reads_files():
    """Every input file is opened by config.read_bytes: no other module calls
    the builtin open, or a read_bytes()/read_text() method of anything but
    the config module. Writes are free."""
    reads = []
    for path in sorted(Path(config.__file__).parent.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if (isinstance(func, ast.Name) and func.id == "open") or (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("read_bytes", "read_text")
                    and not (isinstance(func.value, ast.Name)
                             and func.value.id == "config")):
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []
