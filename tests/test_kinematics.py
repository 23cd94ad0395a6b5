import numpy as np
import pytest

from baggrasp import sim, so3, trajectory
from baggrasp.config import PipelineConfig
from baggrasp.classical import GraspProposal
from baggrasp.kinematics import (_dls_solve, compute_error, control_step,
                                 default_arm_path, fk, fk_and_jacobian, load_arm, pinv)
from baggrasp.so3 import Pose
from baggrasp.trajectory import TrajectorySample
from conftest import is_rotation

ARM = load_arm(default_arm_path())


def random_q(rng, size=None):
    shape = (7,) if size is None else (size, 7)
    return rng.uniform(ARM.limits[:, 0] * 0.6, ARM.limits[:, 1] * 0.6, shape)


# --- scalar oracles: one configuration at a time, joint by joint ---

def _fk_and_jacobian_by_joint(arm, q):
    """Product of exponentials composed one joint at a time, with the
    Jacobian columns from each joint's moved axis."""
    R_acc = np.eye(3)
    p_acc = np.zeros(3)
    moved_axes = np.empty((7, 3))
    moved_points = np.empty((7, 3))
    for j in range(7):
        moved_axes[j] = R_acc @ arm.axes[j]
        moved_points[j] = R_acc @ arm.points[j] + p_acc
        s, c = np.sin(q[j]), np.cos(q[j])
        R_j = np.eye(3) + s * arm._W[j] + (1.0 - c) * arm._W2[j]
        p_acc = R_acc @ (arm.points[j] - R_j @ arm.points[j]) + p_acc
        R_acc = R_acc @ R_j
    p_ee = R_acc @ arm.zero_pose.p + p_acc
    J = np.vstack([np.cross(moved_axes, p_ee - moved_points).T, moved_axes.T])
    return p_ee, R_acc @ arm.zero_pose.R, J


def _run_control_one_by_one(arm, q0, traj, cfg):
    """The PD loop for one episode, every quantity a plain vector."""
    dt = 1.0 / cfg.control_rate
    n_steps = int(round((traj.t_f - traj.t_i + cfg.settle_time) * cfg.control_rate))
    q = np.array(q0, dtype=float)
    prev_e = None
    series = []
    for i in range(n_steps):
        s = trajectory.sample(traj, traj.t_i + i * dt)
        p, R, J = _fk_and_jacobian_by_joint(arm, q)
        e = np.concatenate([p - s.p_d, so3.rotation_error(s.R_d, R)])
        edot = np.zeros(6) if prev_e is None else (e - prev_e) / dt
        v_ff = np.concatenate([s.pdot_d, s.R_d @ s.w_ff])
        G = J @ J.T + cfg.damping ** 2 * np.eye(6)
        qdot = J.T @ np.linalg.solve(G, -cfg.k_p * e - cfg.k_d * edot + v_ff)
        qdot = np.clip(qdot, -cfg.qdot_max, cfg.qdot_max)
        q = np.clip(q + qdot * dt, arm.limits[:, 0], arm.limits[:, 1])
        prev_e = e
        series.append((np.linalg.norm(e[:3]), np.linalg.norm(e[3:])))
    return q, np.array(series)


# --- arm description ---

def test_load_default_arm():
    assert ARM.axes.shape == (7, 3)
    assert np.allclose(np.linalg.norm(ARM.axes, axis=1), 1.0, atol=1e-9)
    assert is_rotation(ARM.zero_pose.R)


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
    # A component past 1 is rejected before the norm, which 1e308 overflows.
    p = tmp_path / "arm.txt"
    for axis in ("0 0 2", "0 0 1e308", "1e308 1e308 0"):
        p.write_text("zero_pose 0 0 0 1 0 0 0 1 0 0 0 1\n"
                     + f"joint {axis} 0 0 0 -1 1\n"
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


@pytest.mark.parametrize("batch", [1, 3, 4, 16, 64])
def test_stacked_fk_and_jacobian_match_joint_by_joint_oracle(batch):
    # The prefix product reassociates the chain, so the stack matches the
    # oracle within rounding, and each slice matches its lone call exactly.
    rng = np.random.default_rng(batch)
    worst = 0.0
    for _ in range(-(-200 // batch)):
        qs = random_q(rng, batch)
        pose, J = fk_and_jacobian(ARM, qs)
        assert pose.p.shape == (batch, 3) and J.shape == (batch, 6, 7)
        for k, q in enumerate(qs):
            p, R, J_k = _fk_and_jacobian_by_joint(ARM, q)
            worst = max(worst, np.abs(pose.p[k] - p).max(),
                        np.abs(pose.R[k] - R).max(), np.abs(J[k] - J_k).max())
            alone, J_alone = fk_and_jacobian(ARM, q)
            assert np.array_equal(pose.p[k], alone.p)
            assert np.array_equal(pose.R[k], alone.R)
            assert np.array_equal(J[k], J_alone)
    assert worst <= 1e-14


def test_stacked_kernels_do_not_mix_episodes():
    # A configuration's numbers are the same alone and inside any stack.
    rng = np.random.default_rng(4)
    qs = random_q(rng, 5)
    pose, J = fk_and_jacobian(ARM, qs)
    Jp = pinv(J, 1e-3)
    for k in range(5):
        pose_k, J_k = fk_and_jacobian(ARM, qs[k:k + 1])
        assert np.array_equal(pose.p[k], pose_k.p[0])
        assert np.array_equal(pose.R[k], pose_k.R[0])
        assert np.array_equal(J[k], J_k[0])
        assert np.array_equal(Jp[k], pinv(J_k, 1e-3)[0])


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


def test_pinv_stack_raises_on_one_singular_slice():
    rng = np.random.default_rng(5)
    healthy = fk_and_jacobian(ARM, random_q(rng, 4))[1]
    # The stretched-out q = 0 is singular; cholesky still succeeds on it, so
    # only the pivot test of that slice can see it.
    stack = np.concatenate([healthy[:2], fk_and_jacobian(ARM, np.zeros((1, 7)))[1],
                            healthy[2:]])
    with pytest.raises(ValueError, match="damping"):
        pinv(stack, 0.0)
    with pytest.raises(ValueError, match="damping"):
        pinv(np.concatenate([healthy, np.zeros((1, 6, 7))]), 0.0)
    # The pivot test compares pivots within a slice, not across the stack.
    scaled = np.stack([healthy[0], 1e-7 * healthy[1]])
    out = pinv(scaled, 0.0)
    assert np.array_equal(out[1], pinv(scaled[1:], 0.0)[0])
    assert np.all(np.isfinite(pinv(stack, 1e-3)))


def _dls_solve_checking_every_pivot(J, damping, rhs):
    """_dls_solve with the Cholesky pivot check run whatever the damping."""
    G = J @ np.swapaxes(J, -1, -2)
    G.reshape(G.shape[:-2] + (-1,))[..., ::G.shape[-1] + 1] += damping * damping
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as err:
        raise ValueError("J J^T singular") from err
    pivots = np.diagonal(L, axis1=-2, axis2=-1)
    if (pivots.min(axis=-1) <= 1e-7 * pivots.max(axis=-1)).any():
        raise ValueError("J J^T singular")
    return np.linalg.solve(G, rhs)


def test_dls_solve_skips_only_a_pivot_check_that_passes():
    # Stacks of rank 6 and rank 5 (every third slice), damped from 0 up past
    # the skip bound damping > 1e-6 sqrt(max G_ii): the solve raises exactly
    # when the full check does, and otherwise returns np.linalg.solve(G, rhs).
    rng = np.random.default_rng(11)
    outcomes = set()
    for trial in range(40):
        batch = (1, 4, 16)[trial % 3]
        J = rng.normal(size=(batch, 6, 7)) * 10.0 ** rng.uniform(-3, 3)
        J[::3] = J[::3, :, :5] @ rng.normal(size=(5, 7))
        rhs = rng.normal(size=(batch, 6, 1 + trial % 2 * 6))
        scale = np.sqrt(np.einsum("...ij,...ij->...i", J, J).max())
        for damping in (0.0, 1e-9 * scale, 2e-7 * scale, 0.99e-6 * scale,
                        1.01e-6 * scale, 1e-3 * scale, 1e-3):
            try:
                want = _dls_solve_checking_every_pivot(J, damping, rhs)
            except ValueError:
                with pytest.raises(ValueError, match=r"J J\^T singular"):
                    _dls_solve(J, damping, rhs)
                outcomes.add(("raised", damping > 1e-6 * scale))
                continue
            assert np.array_equal(_dls_solve(J, damping, rhs), want)
            outcomes.add(("solved", damping > 1e-6 * scale))
    # Both outcomes occur below the bound, and above it every check passed.
    assert outcomes == {("raised", False), ("solved", False), ("solved", True)}


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


@pytest.mark.parametrize("batch", [1, 3, 64])
def test_control_step_vector_solve_matches_pinv(batch):
    # With k_p = k_d = 0 and no clamp, control_step's command is
    # J^T (J J^T + damping^2 I)^-1 v_ff for any v_ff. Two backward-stable
    # solves of G = J J^T + damping^2 I agree to about eps * cond(G)
    # relative, so the bound is 1e-12 up to cond(G) = 2.25e3 and 2 eps cond(G)
    # above; near the stretched-out q = 0 (every other slice) cond(G) reaches
    # 1e6 at damping 1e-3.
    rng = np.random.default_rng(10 + batch)
    eps = np.finfo(float).eps
    for damping in (1e-3, 1e-2, 1e-1):
        for _ in range(-(-60 // batch)):
            qs = random_q(rng, batch)
            qs[::2] = rng.normal(scale=1e-4, size=qs[::2].shape)
            pose, J = fk_and_jacobian(ARM, qs)
            u = rng.normal(size=(batch, 6))
            qdot, _ = control_step(ARM, qs, _sample_at(pose), 0.0, 0.0, None, 0.01,
                                   damping, np.inf, u)
            want = (pinv(J, damping) @ u[..., None])[..., 0]
            rel = np.linalg.norm(qdot - want, axis=-1) / np.linalg.norm(want, axis=-1)
            G = J @ np.swapaxes(J, -1, -2) + damping ** 2 * np.eye(6)
            assert np.all(rel <= np.maximum(1e-12, 2 * eps * np.linalg.cond(G)))
    # Undamped, one singular slice fails the stack, as pinv does.
    stack = random_q(rng, 4)
    stack[2] = 0.0
    at_pose = _sample_at(fk(ARM, stack), np.zeros((4, 3)), np.zeros((4, 3)))
    for solve in (lambda: control_step(ARM, stack, at_pose, 0.8, 0.4, None, 0.01,
                                       damping=0.0),
                  lambda: pinv(fk_and_jacobian(ARM, stack)[1], 0.0)):
        with pytest.raises(ValueError, match=r"J J\^T singular"):
            solve()


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
    cfg = PipelineConfig()
    start = fk(ARM, sim.HOME_Q)
    traj = trajectory.plan(start, GraspProposal(0.55, -0.1, 0.7, 0.0), 0.01,
                           0.0, 2.0)
    q, series = sim.run_control(ARM, sim.HOME_Q, [traj], cfg)
    pose = fk(ARM, q[0])
    assert np.linalg.norm(pose.p - (0.55, -0.1, 0.01)) < 1e-3
    assert np.linalg.norm(so3.log_so3(pose.R.T @ so3.grasp_orientation(0.7))) \
        < np.radians(0.5)


def test_stacked_control_loop_matches_scalar_oracle():
    cfg = PipelineConfig(duration=2.0)
    start = fk(ARM, sim.HOME_Q)
    targets = [GraspProposal(0.55, -0.1, 0.7, 0.0), GraspProposal(0.7, 0.12, -1.2, 0.0),
               GraspProposal(0.5, 0.0, 0.05, 0.0)]
    trajs = [trajectory.plan(start, t, cfg.grasp_z, 0.0, cfg.duration)
             for t in targets]
    q, series = sim.run_control(ARM, sim.HOME_Q, trajs, cfg)
    assert q.shape == (3, 7) and series.shape == (400, 3, 2)
    for k, traj in enumerate(trajs):
        q_k, series_k = _run_control_one_by_one(ARM, sim.HOME_Q, traj, cfg)
        assert np.abs(q[k] - q_k).max() < 1e-9
        assert np.abs(series[:, k] - series_k).max() < 1e-9


def test_run_control_rejects_trajectories_on_other_windows():
    start = fk(ARM, sim.HOME_Q)
    target = GraspProposal(0.55, -0.1, 0.7, 0.0)
    base = trajectory.plan(start, target, 0.01, 0.0, 2.0)
    for t_i, t_f in ((0.5, 2.0), (0.0, 2.5)):
        other = trajectory.plan(start, target, 0.01, t_i, t_f)
        with pytest.raises(ValueError, match="share t_i and t_f"):
            sim.run_control(ARM, sim.HOME_Q, [base, other], PipelineConfig())
