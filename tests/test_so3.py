import numpy as np
import pytest

from baggrasp import so3
from conftest import is_rotation, rotation_error


def test_hat_zero():
    assert np.array_equal(so3.hat((0, 0, 0)), np.zeros((3, 3)))


def test_hat_z_basis():
    expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
    assert np.array_equal(so3.hat((0, 0, 1)), expected)


def test_hat_matches_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v, u = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(so3.hat(v) @ u, np.cross(v, u), atol=1e-12)


def test_exp_zero_is_identity():
    assert np.array_equal(so3.exp_so3((0, 0, 0)), np.eye(3))


def test_exp_z_matches_rot_z():
    assert np.allclose(so3.exp_so3((0, 0, np.pi / 2)), so3.rot_z(np.pi / 2),
                       atol=1e-12)


def test_exp_log_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(200):
        w = rng.normal(size=3)
        w *= rng.uniform(0.0, np.pi - 0.01) / np.linalg.norm(w)
        assert np.linalg.norm(so3.log_so3(so3.exp_so3(w)) - w) < 1e-9


def test_exp_outputs_are_rotations():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        R = so3.exp_so3(rng.normal(size=3))
        assert is_rotation(R, tol=1e-9)


def test_exp_small_angle_branch():
    w = np.array([1e-10, -2e-10, 1e-10])
    R = so3.exp_so3(w)
    assert is_rotation(R, tol=1e-9)
    assert np.allclose(so3.log_so3(R), w, atol=1e-15)


def test_log_identity():
    assert np.array_equal(so3.log_so3(np.eye(3)), np.zeros(3))


def test_log_rot_z():
    assert np.allclose(so3.log_so3(so3.rot_z(0.5)), (0, 0, 0.5), atol=1e-12)


def test_log_trace_clamp_no_nan():
    R = np.eye(3) * (1.0 + 5e-16)  # trace numerically above 3
    w = so3.log_so3(R)
    assert np.all(np.isfinite(w))


def test_log_near_antipode_rejected():
    with pytest.raises(ValueError, match="antipode"):
        so3.log_so3(so3.rot_z(np.pi))


def test_rot_z_zero_and_pi():
    assert np.array_equal(so3.rot_z(0.0), np.eye(3))
    assert np.allclose(so3.rot_z(np.pi), np.diag([-1.0, -1.0, 1.0]), atol=1e-12)


def test_rot_z_additivity():
    assert np.allclose(so3.rot_z(0.3) @ so3.rot_z(0.4), so3.rot_z(0.7),
                       atol=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b = rng.uniform(-3, 3, size=2)
        assert np.allclose(so3.rot_z(a) @ so3.rot_z(b), so3.rot_z(a + b),
                           atol=1e-12)


def test_grasp_orientation_zero_is_gripper_down():
    assert np.array_equal(so3.grasp_orientation(0.0), so3.GRIPPER_DOWN)


def test_grasp_orientation_points_down():
    rng = np.random.default_rng(5)
    for theta in rng.uniform(-np.pi / 2, np.pi / 2, size=100):
        R = so3.grasp_orientation(theta)
        assert np.allclose(R[:, 2], (0, 0, -1), atol=1e-12)
        assert is_rotation(R)


def test_grasp_orientation_quarter_turn():
    expected = np.dot(so3.GRIPPER_DOWN, so3.rot_z(np.pi / 2))
    assert np.allclose(so3.grasp_orientation(np.pi / 2), expected, atol=1e-12)


def test_rotation_error_fixed_point():
    rng = np.random.default_rng(6)
    for _ in range(20):
        w = rng.normal(size=3)
        R = so3.exp_so3(w)
        assert np.allclose(rotation_error(R, R), 0.0, atol=1e-15)


def test_rotation_error_quarter_turn():
    # Hand expansion of the three column cross products.
    e = rotation_error(so3.rot_z(np.pi / 2), np.eye(3))
    assert np.allclose(e, (0, 0, -2), atol=1e-12)


def test_rotation_error_magnitude_two_sin_phi():
    for phi in np.arange(0.1, 1.51, 0.1):
        e = rotation_error(so3.rot_z(phi), np.eye(3))
        assert abs(np.linalg.norm(e) - 2.0 * np.sin(phi)) < 1e-9


def _rotation_error_by_columns(R_d, R_e):
    # The defining sum of column cross products (Luh, Walker & Paul, 1980).
    e = np.zeros(3)
    for i in range(3):
        e += np.cross(R_d[:, i], R_e[:, i])
    return e


def test_rotation_error_matches_column_cross_products():
    rng = np.random.default_rng(7)
    for _ in range(200):
        R_d = so3.exp_so3(rng.normal(size=3))
        R_e = so3.exp_so3(rng.normal(size=3))
        want = _rotation_error_by_columns(R_d, R_e)
        assert np.abs(rotation_error(R_d, R_e) - want).max() <= 1e-15


def test_rotation_error_into_fills_its_out_with_the_flat_entry_formula():
    # A stack of 4 with one R_d broadcast or one R_d per slice: the error
    # goes into out, and equals vee(R_e R_d^T - R_d R_e^T) read off flat
    # entries (2,1) (0,2) (1,0) less (1,2) (2,0) (0,1), bit for bit, each
    # time the buffers are reused.
    rng = np.random.default_rng(8)
    R_e = so3.exp_so3(rng.normal(size=(4, 3)))
    error = so3.rotation_error_into((4,))
    for R_d in (so3.exp_so3(rng.normal(size=(4, 3))), so3.exp_so3(rng.normal(size=3))):
        out = np.empty((4, 3))
        assert error(np.swapaxes(R_d, -1, -2), R_e, out) is out
        flat = (R_e @ np.swapaxes(R_d, -1, -2)).reshape(4, 9)
        assert np.array_equal(out, flat[:, [7, 2, 3]] - flat[:, [5, 6, 1]])
        assert np.array_equal(rotation_error(R_d, R_e), out)
    assert rotation_error(np.eye(3), np.eye(3)).shape == (3,)
