import numpy as np
import pytest

from baggrasp import so3, trajectory
from baggrasp.classical import GraspProposal
from baggrasp.kinematics import (compute_error, control_step, default_arm_path,
                                 fk, fk_and_jacobian, load_arm, pinv)
from baggrasp.so3 import Pose
from baggrasp.trajectory import TrajectorySample

ARM = load_arm(default_arm_path())


def random_q(rng):
    return rng.uniform(ARM.limits[:, 0] * 0.6, ARM.limits[:, 1] * 0.6)


# --- arm description ---

def test_load_default_arm():
    assert ARM.axes.shape == (7, 3)
    assert np.allclose(np.linalg.norm(ARM.axes, axis=1), 1.0, atol=1e-9)
    assert so3.is_rotation(ARM.zero_pose.R)


def test_load_arm_missing_zero_pose(tmp_path):
    p = tmp_path / "arm.txt"
    p.write_text("joint 0 0 1 0 0 0 -1 1\n" * 7)
    with pytest.raises(ValueError, match="zero_pose"):
        load_arm(p)


def test_load_arm_wrong_joint_count(tmp_path):
    p = tmp_path / "arm.txt"
    p.write_text("zero_pose 0 0 0 1 0 0 0 1 0 0 0 1\n"
                 + "joint 0 0 1 0 0 0 -1 1\n" * 5)
    with pytest.raises(ValueError, match="expected 7 joints"):
        load_arm(p)


def test_load_arm_non_unit_axis(tmp_path):
    p = tmp_path / "arm.txt"
    p.write_text("zero_pose 0 0 0 1 0 0 0 1 0 0 0 1\n"
                 + "joint 0 0 2 0 0 0 -1 1\n"
                 + "joint 0 0 1 0 0 0 -1 1\n" * 6)
    with pytest.raises(ValueError, match="unit"):
        load_arm(p)


# --- forward kinematics ---

def test_fk_zero_configuration():
    pose = fk(ARM, np.zeros(7))
    assert np.array_equal(pose.p, ARM.zero_pose.p)
    assert np.array_equal(pose.R, ARM.zero_pose.R)


def test_fk_single_joint_rigid_transform_oracle():
    # Rotating only joint j moves the zero-pose point by the rigid rotation
    # about that joint's axis: p' = a + R (p - a).
    rng = np.random.default_rng(0)
    for j in range(7):
        phi = rng.uniform(-1.2, 1.2)
        q = np.zeros(7)
        q[j] = phi
        R = so3.exp_so3(ARM.axes[j] * phi)
        a = ARM.points[j]
        want_p = a + R @ (ARM.zero_pose.p - a)
        want_R = R @ ARM.zero_pose.R
        pose = fk(ARM, q)
        assert np.allclose(pose.p, want_p, atol=1e-12)
        assert np.allclose(pose.R, want_R, atol=1e-12)


def test_fk_2pi_periodic():
    rng = np.random.default_rng(1)
    q = rng.uniform(-1, 1, 7)
    base = fk(ARM, q)
    for j in range(7):
        q2 = q.copy()
        q2[j] += 2 * np.pi
        pose = fk(ARM, q2)
        assert np.linalg.norm(pose.p - base.p) < 1e-9
        assert np.linalg.norm(pose.R - base.R) < 1e-9


# --- jacobian ---

def test_jacobian_zero_config_columns():
    J = fk_and_jacobian(ARM, np.zeros(7))[1]
    p_ee = ARM.zero_pose.p
    for j in range(7):
        assert np.allclose(J[3:, j], ARM.axes[j], atol=1e-12)
        assert np.allclose(J[:3, j], np.cross(ARM.axes[j], p_ee - ARM.points[j]),
                           atol=1e-12)
    # frozen hand computations for the first two joints
    assert np.allclose(J[:3, 0], (0.0, 0.9, 0.0), atol=1e-12)
    assert np.allclose(J[:3, 1], (-0.15, 0.0, -0.9), atol=1e-12)


def test_jacobian_zero_linear_column_for_axis_through_ee():
    # The wrist-yaw axis passes through the tool point at q = 0.
    J = fk_and_jacobian(ARM, np.zeros(7))[1]
    assert np.allclose(J[:3, 6], 0.0, atol=1e-12)


def _fd_jacobian(arm, q, delta=1e-6):
    J = np.zeros((6, 7))
    for j in range(7):
        dq = np.zeros(7)
        dq[j] = delta
        plus = fk(arm, q + dq)
        minus = fk(arm, q - dq)
        J[:3, j] = (plus.p - minus.p) / (2 * delta)
        J[3:, j] = so3.log_so3(plus.R @ minus.R.T) / (2 * delta)
    return J


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = random_q(rng)
        J = fk_and_jacobian(ARM, q)[1]
        J_fd = _fd_jacobian(ARM, q)
        rel = np.abs(J - J_fd).max() / max(np.abs(J_fd).max(), 1e-12)
        assert rel < 1e-5


# --- pseudo-inverse ---

def test_pinv_block_identity():
    J = np.hstack([np.eye(6), np.zeros((6, 1))])
    assert np.allclose(pinv(J, 0.0), np.vstack([np.eye(6), np.zeros((1, 6))]),
                       atol=1e-12)


def test_pinv_moore_penrose_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        J = rng.normal(size=(6, 7))
        Jp = pinv(J, 0.0)
        assert np.linalg.norm(J @ Jp @ J - J) < 1e-8


def test_pinv_singular_rejected_then_damped():
    J = np.zeros((6, 7))
    with pytest.raises(ValueError, match="damping"):
        pinv(J, 0.0)
    out = pinv(J, 0.1)
    assert np.all(np.isfinite(out))


def test_pinv_continuity_near_singularity():
    # q = 0 is the stretched-out singular configuration of the default arm.
    J = fk_and_jacobian(ARM, np.zeros(7))[1]
    for lam in (1e-3, 1e-2, 1e-1):
        assert np.all(np.isfinite(pinv(J, lam)))


# --- error and control ---

def _sample_at(pose, pdot=(0, 0, 0), w_ff=(0, 0, 0)):
    return TrajectorySample(np.array(pose.p, dtype=float),
                            np.asarray(pdot, dtype=float),
                            np.array(pose.R, dtype=float),
                            np.asarray(w_ff, dtype=float))


def test_compute_error_zero_at_match():
    pose = fk(ARM, np.zeros(7))
    e = compute_error(pose, _sample_at(pose))
    assert np.allclose(e, 0.0, atol=1e-12)


def test_compute_error_position_offset():
    pose = Pose((0.5, 0.0, 0.2), so3.GRIPPER_DOWN)
    desired = TrajectorySample(np.array([0.49, 0.0, 0.2]), np.zeros(3),
                               so3.GRIPPER_DOWN.copy(), np.zeros(3))
    e = compute_error(pose, desired)
    assert np.allclose(e, (0.01, 0, 0, 0, 0, 0), atol=1e-12)


def test_compute_error_yaw_offset():
    pose = Pose((0, 0, 0), np.eye(3))
    desired = TrajectorySample(np.zeros(3), np.zeros(3), so3.rot_z(np.pi / 2),
                               np.zeros(3))
    e = compute_error(pose, desired)
    assert np.allclose(e[3:], (0, 0, -2), atol=1e-12)


def test_control_step_zero_error_zero_command():
    q = np.array([0.0, 0.45, 0.0, -1.05, 0.0, 0.6, 0.0])
    pose = fk(ARM, q)
    qdot, e = control_step(ARM, q, _sample_at(pose), 0.8, 0.4, None, 0.01)
    assert np.allclose(qdot, 0.0, atol=1e-9)
    assert np.allclose(e, 0.0, atol=1e-12)


def test_control_step_proportional_in_kp():
    q = np.array([0.0, 0.45, 0.0, -1.05, 0.0, 0.6, 0.0])
    pose = fk(ARM, q)
    desired = TrajectorySample(pose.p + (0.01, -0.02, 0.005), np.zeros(3),
                               pose.R @ so3.rot_z(0.05), np.zeros(3))
    qdot1, _ = control_step(ARM, q, desired, 0.8, 0.0, None, 0.01,
                            qdot_max=100.0)
    qdot2, _ = control_step(ARM, q, desired, 1.6, 0.0, None, 0.01,
                            qdot_max=100.0)
    assert np.allclose(qdot2, 2.0 * qdot1, atol=1e-9)


def test_control_step_derivative_term():
    # With k_p = 0 and no feedforward, the command is -k_d (e - prev_e) / dt.
    q = np.array([0.0, 0.45, 0.0, -1.05, 0.0, 0.6, 0.0])
    pose = fk(ARM, q)
    desired = TrajectorySample(pose.p + (0.01, -0.02, 0.005), np.zeros(3),
                               pose.R @ so3.rot_z(0.05), np.zeros(3))
    e = compute_error(pose, desired)
    prev_e = e - np.array([0.001, 0.0, -0.002, 0.0005, 0.0, 0.001])
    qdot, e_out = control_step(ARM, q, desired, 0.0, 0.4, prev_e, 0.01,
                               qdot_max=100.0)
    J = fk_and_jacobian(ARM, q)[1]
    assert np.array_equal(e_out, e)
    assert np.allclose(qdot, pinv(J, 1e-3) @ (-0.4 * (e - prev_e) / 0.01),
                       atol=1e-12)


def test_control_step_propagates_pinv_error():
    with pytest.raises(ValueError, match="damping"):
        control_step(ARM, np.zeros(7), _sample_at(fk(ARM, np.zeros(7))),
                     0.8, 0.4, None, 0.01, damping=0.0)


def test_control_step_clamps_joint_velocity():
    q = np.array([0.0, 0.45, 0.0, -1.05, 0.0, 0.6, 0.0])
    pose = fk(ARM, q)
    desired = TrajectorySample(pose.p + (0.5, 0.5, -0.1), np.zeros(3),
                               pose.R.copy(), np.zeros(3))
    qdot, _ = control_step(ARM, q, desired, 50.0, 0.0, None, 0.01,
                           qdot_max=1.5)
    assert np.abs(qdot).max() <= 1.5 + 1e-12


def test_closed_loop_converges_quickly():
    from baggrasp import sim
    from baggrasp.config import PipelineConfig

    cfg = PipelineConfig()
    start = fk(ARM, sim.HOME_Q)
    traj = trajectory.plan(start, GraspProposal(0.55, -0.1, 0.7, 0.0), 0.01,
                           0.0, 2.0)
    q, series = sim.run_control(ARM, sim.HOME_Q, traj, cfg)
    pose = fk(ARM, q)
    assert np.linalg.norm(pose.p - (0.55, -0.1, 0.01)) < 1e-3
    assert np.linalg.norm(so3.log_so3(pose.R.T @ so3.grasp_orientation(0.7))) \
        < np.radians(0.5)
