import numpy as np
import pytest

from baggrasp import sim, so3, trajectory
from baggrasp.config import PipelineConfig
from baggrasp.kinematics import Chain, default_arm_path, fk, fk_and_jacobian, load_arm
from baggrasp.so3 import Pose
from conftest import control_steps, is_rotation, rotation_error

ARM = load_arm(default_arm_path())
HOME = sim.HOME_Q


def gram(J):
    """J J^T, the matrix Chain.dls damps and solves with."""
    return J @ np.swapaxes(J, -1, -2)


def _dls_solve_checking_every_pivot(J, damping, rhs):
    """(J J^T + damping^2 I)^-1 rhs with Chain.dls's Cholesky pivot check run
    whatever the damping: a slice it shows singular raises Chain.dls's error."""
    G = gram(J)
    G.reshape(G.shape[:-2] + (-1,))[..., ::G.shape[-1] + 1] += damping * damping
    try:
        pivots = np.diagonal(np.linalg.cholesky(G), axis1=-2, axis2=-1)
        singular = (pivots.min(axis=-1) <= 1e-7 * pivots.max(axis=-1)).any()
    except np.linalg.LinAlgError:
        singular = True
    if singular:
        raise ValueError("J J^T singular; use damping > 0 near singularities")
    return np.linalg.solve(G, rhs)


def pinv(J, damping):
    """The damped pseudo-inverse J^T (J J^T + damping^2 I)^-1, as (G^-1 J)^T:
    G is symmetric, so one solve of G X = J gives it."""
    return np.swapaxes(_dls_solve_checking_every_pivot(J, damping, J), -1, -2)


def random_q(rng, size=None):
    shape = (7,) if size is None else (size, 7)
    return rng.uniform(ARM.limits[:, 0] * 0.6, ARM.limits[:, 1] * 0.6, shape)


# --- scalar oracles: one configuration at a time, joint by joint ---

def _fk_and_jacobian_by_joint(arm, q):
    """Product of exponentials composed one joint at a time, with the
    Jacobian columns from each joint's moved axis."""
    W = so3.hat(arm.axes)
    W2 = W @ W
    R_acc = np.eye(3)
    p_acc = np.zeros(3)
    moved_axes = np.empty((7, 3))
    moved_points = np.empty((7, 3))
    for j in range(7):
        moved_axes[j] = R_acc @ arm.axes[j]
        moved_points[j] = R_acc @ arm.points[j] + p_acc
        s, c = np.sin(q[j]), np.cos(q[j])
        R_j = np.eye(3) + s * W[j] + (1.0 - c) * W2[j]
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
        e = np.concatenate([p - s.p_d, rotation_error(s.R_d, R)])
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


def test_chain_dls_skips_only_a_pivot_check_that_passes(monkeypatch):
    # Stacks of arm configurations, every third slice the stretched-out
    # singular q = 0 or a configuration near it, damped from 0 up past the
    # floor 1e-6 sqrt(2 gram_bound): Chain.dls raises exactly when the full
    # check does, with its error, otherwise returns the oracle's solve bit for
    # bit, and factors G only at or below the floor.
    factors = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda G: factors.append(1) or cholesky(G))
    floor = 1e-6 * np.sqrt(2.0 * ARM.gram_bound)
    rng = np.random.default_rng(11)
    outcomes = set()
    for trial in range(30):
        batch = (1, 4, 16)[trial % 3]
        qs = random_q(rng, batch)
        qs[::3] = 0.0 if trial % 2 else rng.normal(scale=1e-4, size=qs[::3].shape)
        chain = Chain(ARM, (batch,))
        chain.update(qs)
        u = rng.normal(size=(batch, 6))
        for damping in (0.0, 1e-9, 0.99 * floor, 1.01 * floor, 1e-3):
            try:
                x = _dls_solve_checking_every_pivot(chain.J, damping, u[..., None])
            except ValueError as err:
                with pytest.raises(ValueError) as got:
                    chain.dls(damping, u)
                assert str(got.value) == str(err) == \
                    "J J^T singular; use damping > 0 near singularities"
                outcomes.add(("raised", damping > floor))
                continue
            factors.clear()
            assert np.array_equal(chain.dls(damping, u), (chain.JT @ x)[..., 0])
            assert len(factors) == (damping <= floor)
            outcomes.add(("solved", damping > floor))
    # Both outcomes occur below the floor, and above it every check passed.
    assert outcomes == {("raised", False), ("solved", False), ("solved", True)}


def test_pinv_continuity_near_singularity():
    # q = 0 is the stretched-out singular configuration of the default arm.
    J = fk_and_jacobian(ARM, np.zeros(7))[1]
    for lam in (1e-3, 1e-2, 1e-1):
        assert np.all(np.isfinite(pinv(J, lam)))


# --- error and control: run_control's steps ---

def _first_error(start, k_p=0.8):
    """run_control's first error e from HOME toward the pose start: its norms
    from the series, and e itself from the command, as J qdot = -k_p e on an
    undamped, unclamped first step."""
    cfg = PipelineConfig(k_p=k_p, damping=0.0, qdot_max=np.inf)
    q, series = control_steps(HOME, start, cfg)
    return series[0], -(fk_and_jacobian(ARM, HOME)[1] @ (q - HOME)) * cfg.control_rate / k_p


def test_compute_error_zero_at_match():
    norms, e = _first_error(fk(ARM, HOME))
    assert np.allclose(norms, 0.0, atol=1e-12)
    assert np.allclose(e, 0.0, atol=1e-12)


def test_compute_error_position_offset():
    pose = fk(ARM, HOME)
    norms, e = _first_error(Pose(pose.p - (0.01, 0.0, 0.0), pose.R))
    assert np.allclose(norms, (0.01, 0.0), atol=1e-12)
    assert np.allclose(e, (0.01, 0, 0, 0, 0, 0), atol=1e-12)


def test_compute_error_yaw_offset():
    # R_d = rot_z(pi / 2) R, the current orientation R turned a quarter about z.
    pose = fk(ARM, HOME)
    norms, e = _first_error(Pose(pose.p, so3.rot_z(np.pi / 2) @ pose.R))
    assert np.allclose(norms, (0.0, 2.0), atol=1e-12)
    assert np.allclose(e[3:], (0, 0, -2), atol=1e-12)


def test_control_step_zero_error_zero_command():
    q, series = control_steps(HOME, fk(ARM, HOME), PipelineConfig(k_p=0.8, k_d=0.4))
    assert np.allclose((q - HOME) * 100.0, 0.0, atol=1e-9)
    assert np.allclose(series, 0.0, atol=1e-12)


def test_control_step_proportional_in_kp():
    pose = fk(ARM, HOME)
    start = Pose(pose.p + (0.01, -0.02, 0.005), pose.R @ so3.rot_z(0.05))
    q1, _ = control_steps(HOME, start, PipelineConfig(k_p=0.8, k_d=0.0, qdot_max=100.0))
    q2, _ = control_steps(HOME, start, PipelineConfig(k_p=1.6, k_d=0.0, qdot_max=100.0))
    assert np.allclose((q2 - HOME) * 100.0, 2.0 * (q1 - HOME) * 100.0, atol=1e-9)


def test_control_step_derivative_term():
    # With k_p = 0 the first step has no command (edot is 0, and so is the
    # feedforward at t_i), so both steps run at HOME. The second step's
    # commands with and without k_d differ by pinv(J) (-k_d (e - prev_e) / dt).
    pose = fk(ARM, HOME)
    start = Pose(pose.p + (0.01, -0.02, 0.005), pose.R @ so3.rot_z(0.05))
    end = (start.p + (0.002, -0.001, 0.0), 0.06)  # start.R is at yaw 0.05
    runs = [control_steps(HOME, start, PipelineConfig(k_p=0.0, k_d=k_d, qdot_max=100.0),
                          2, end=end) for k_d in (0.4, 0.0)]
    traj = trajectory.plan(start, *end, 0.0, 0.02)
    e = np.array([np.concatenate([pose.p - s.p_d, rotation_error(s.R_d, pose.R)])
                  for s in (trajectory.sample(traj, t) for t in (0.0, 0.01))])
    for _, series in runs:  # norms over an axis, as run_control takes them
        assert np.array_equal(series, np.stack([np.linalg.norm(e[:, :3], axis=-1),
                                                np.linalg.norm(e[:, 3:], axis=-1)], -1))
    J = fk_and_jacobian(ARM, HOME)[1]
    assert np.allclose((runs[0][0] - runs[1][0]) * 100.0,
                       pinv(J, 1e-3) @ (-0.4 * (e[1] - e[0]) / 0.01), atol=1e-12)


@pytest.mark.parametrize("batch", [1, 3, 64])
def test_control_step_vector_solve_matches_pinv(batch):
    # Chain.dls's command is J^T (J J^T + damping^2 I)^-1 u for any u. Two
    # backward-stable solves of G = J J^T + damping^2 I agree to about
    # eps * cond(G) relative, so the bound is 1e-12 up to cond(G) = 2.25e3
    # and 2 eps cond(G) above; near the stretched-out q = 0 (every other
    # slice) cond(G) reaches 1e6 at damping 1e-3.
    rng = np.random.default_rng(10 + batch)
    eps = np.finfo(float).eps
    chain = Chain(ARM, (batch,))
    for damping in (1e-3, 1e-2, 1e-1):
        for _ in range(-(-60 // batch)):
            qs = random_q(rng, batch)
            qs[::2] = rng.normal(scale=1e-4, size=qs[::2].shape)
            chain.update(qs)
            J = fk_and_jacobian(ARM, qs)[1]
            assert np.array_equal(chain.J, J)
            u = rng.normal(size=(batch, 6))
            qdot = chain.dls(damping, u)
            want = (pinv(J, damping) @ u[..., None])[..., 0]
            rel = np.linalg.norm(qdot - want, axis=-1) / np.linalg.norm(want, axis=-1)
            G = J @ np.swapaxes(J, -1, -2) + damping ** 2 * np.eye(6)
            assert np.all(rel <= np.maximum(1e-12, 2 * eps * np.linalg.cond(G)))
    # Undamped, one singular slice fails the stack, as pinv does.
    stack = random_q(rng, 4)
    stack[2] = 0.0
    chain = Chain(ARM, (4,))
    chain.update(stack)
    for solve in (lambda: chain.dls(0.0, np.zeros((4, 6))),
                  lambda: pinv(fk_and_jacobian(ARM, stack)[1], 0.0)):
        with pytest.raises(ValueError, match=r"J J\^T singular"):
            solve()


def test_control_step_propagates_pinv_error():
    with pytest.raises(ValueError, match="damping"):
        control_steps(np.zeros(7), fk(ARM, np.zeros(7)), PipelineConfig(damping=0.0))


def test_control_step_clamps_joint_velocity():
    pose = fk(ARM, HOME)
    q, _ = control_steps(HOME, Pose(pose.p + (0.5, 0.5, -0.1), pose.R),
                         PipelineConfig(k_p=50.0, k_d=0.0, qdot_max=1.5))
    assert np.abs(q - HOME).max() * 100.0 <= 1.5 + 1e-12


def test_closed_loop_converges_quickly():
    cfg = PipelineConfig()
    start = fk(ARM, sim.HOME_Q)
    traj = trajectory.plan(start, (0.55, -0.1, 0.01), 0.7, 0.0, 2.0)
    q, _, series = sim.run_control(ARM, sim.HOME_Q, [traj], cfg)
    pose = fk(ARM, q[0])
    assert np.linalg.norm(pose.p - (0.55, -0.1, 0.01)) < 1e-3
    assert np.linalg.norm(so3.log_so3(pose.R.T @ so3.grasp_orientation(0.7))) \
        < np.radians(0.5)


def test_stacked_control_loop_matches_scalar_oracle():
    cfg = PipelineConfig(duration=2.0)
    start = fk(ARM, sim.HOME_Q)
    targets = [(0.55, -0.1, 0.7), (0.7, 0.12, -1.2), (0.5, 0.0, 0.05)]
    trajs = [trajectory.plan(start, (x, y, cfg.grasp_z), theta, 0.0, cfg.duration)
             for x, y, theta in targets]
    q, _, series = sim.run_control(ARM, sim.HOME_Q, trajs, cfg)
    assert q.shape == (3, 7) and series.shape == (400, 3, 2)
    for k, traj in enumerate(trajs):
        q_k, series_k = _run_control_one_by_one(ARM, sim.HOME_Q, traj, cfg)
        assert np.abs(q[k] - q_k).max() < 1e-9
        assert np.abs(series[:, k] - series_k).max() < 1e-9


def _run_control_by_expression(arm, q0, trajs, cfg):
    """run_control with its step written plainly: the orientation error of
    R_d in buffers made per step, the PD law as one expression and Chain.dls,
    each array made where it is used."""
    traj = trajectory.stack(trajs)
    dt = 1.0 / cfg.control_rate
    n_steps = int(round((traj.t_f - traj.t_i + cfg.settle_time) * cfg.control_rate))
    q = np.tile(np.asarray(q0, dtype=float), (len(trajs), 1))
    lower, upper = arm.limits.T.copy()
    chain = Chain(arm, q.shape[:-1])
    errors = np.empty((n_steps, len(trajs), 6))
    e_p, e_o = errors[..., :3], errors[..., 3:]
    edot = np.zeros((len(trajs), 6))
    times = traj.t_i + np.arange(n_steps) * dt
    for i in range(n_steps):
        k = i % sim._SAMPLE_BLOCK
        if k == 0:
            block = trajectory.sample(traj, times[i:i + sim._SAMPLE_BLOCK])
            v_ff = trajectory.feedforward(block)
        chain.update(q)
        np.subtract(chain.pose.p, block.p_d[k], out=e_p[i])
        e_o[i] = rotation_error(block.R_d[k], chain.pose.R)
        if i:
            np.divide(np.subtract(errors[i], errors[i - 1], out=edot), dt, out=edot)
        qdot = chain.dls(cfg.damping, -cfg.k_p * errors[i] - cfg.k_d * edot + v_ff[k])
        np.minimum(np.maximum(qdot, -cfg.qdot_max, out=qdot), cfg.qdot_max, out=qdot)
        q += qdot * dt
        np.minimum(np.maximum(q, lower, out=q), upper, out=q)
    return q, times, np.stack([np.linalg.norm(e_p, axis=-1),
                               np.linalg.norm(e_o, axis=-1)], axis=-1)


def test_run_control_samples_the_settle_phase_once(monkeypatch):
    # From t_f on, tau clamps to 1, so a block starting there samples one
    # time and its row serves every later step; the blocks before it sample
    # 100 times each. Outputs equal the oracle's, which samples every block.
    sizes = []
    sample = trajectory.sample
    monkeypatch.setattr(trajectory, "sample",
                        lambda traj, t: sizes.append(np.size(t)) or sample(traj, t))
    start = fk(ARM, HOME)
    for duration, settle_time, want in ((1.5, 2.6, [100, 100, 1]), (1.5, 0.6, [100, 100, 1]),
                                        (2.0, 0.0, [100, 100]), (0.5, 0.0, [50])):
        cfg = PipelineConfig(duration=duration, settle_time=settle_time)
        trajs = [trajectory.plan(start, (0.6, y, cfg.grasp_z), 0.3, 0.0, duration)
                 for y in (-0.05, 0.05)]
        sizes.clear()
        got = sim.run_control(ARM, HOME, trajs, cfg)
        assert sizes == want
        assert all(np.array_equal(g, w) for g, w in zip(
            got, _run_control_by_expression(ARM, HOME, trajs, cfg)))


@pytest.mark.parametrize("damping", [1e-3, 1e-9, 0.0])
def test_run_control_matches_its_expression_form_bit_for_bit(monkeypatch, damping):
    # Stacks of 1, 3 and 4 over 210 steps (three sample blocks) and over one
    # step (edot = 0 only): final q, times and series equal the oracle's.
    # At 1e-3 the arm's Gram bound proves the pivot check passes, and no
    # step factors G; at 1e-9 and 0 every step runs it.
    factors = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda G: factors.append(1) or cholesky(G))
    assert ARM.gram_bound == 7.0
    start = fk(ARM, HOME)
    rng = np.random.default_rng(26)
    for size, duration, settle_time in ((1, 1.5, 0.6), (3, 1.5, 0.6), (4, 1.5, 0.6),
                                        (4, 0.01, 0.0)):
        cfg = PipelineConfig(duration=duration, settle_time=settle_time, damping=damping)
        n_steps = round((duration + settle_time) * cfg.control_rate)
        trajs = [trajectory.plan(start, (*rng.uniform((0.5, -0.12), (0.72, 0.12)),
                                         cfg.grasp_z), rng.uniform(-1.5, 1.5), 0.0,
                                 duration) for _ in range(size)]
        factors.clear()
        got = sim.run_control(ARM, HOME, trajs, cfg)
        assert len(factors) == (0 if damping == 1e-3 else n_steps)
        want = _run_control_by_expression(ARM, HOME, trajs, cfg)
        assert got[2].shape == (n_steps, size, 2)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # From the stretched-out singular q = 0, a stack fails on its first step
    # with the oracle's error below the bound, and runs as the oracle does at 1e-3.
    trajs = [trajectory.plan(fk(ARM, np.zeros(7)), (0.6, y, 0.01), 0.0, 0.0, 1.0)
             for y in (-0.05, 0.05)]
    cfg = PipelineConfig(damping=damping, settle_time=0.0)
    outcomes = []
    for run in (sim.run_control, _run_control_by_expression):
        try:
            outcomes.append(run(ARM, np.zeros(7), trajs, cfg))
        except ValueError as err:
            outcomes.append(str(err))
    if damping == 1e-3:
        assert all(np.array_equal(g, w) for g, w in zip(*outcomes))
    else:
        assert outcomes == ["J J^T singular; use damping > 0 near singularities"] * 2


def _diag_gram_max(arm, q) -> float:
    """The largest diagonal entry of J J^T over the configurations q (n, 7)."""
    J = fk_and_jacobian(arm, q)[1]
    return float(np.einsum("...ij,...ij->...i", J, J).max())


def test_gram_bound_holds_on_the_bundled_arm():
    # 20,000 uniform in-limit configurations; the largest diagonal entry of
    # J J^T reads about 4 there, against the bound's floor of 7.
    rng = np.random.default_rng(20)
    top = max(_diag_gram_max(ARM, rng.uniform(*ARM.limits.T, (5000, 7)))
              for _ in range(4))
    assert 3.9 < top <= ARM.gram_bound == 7.0


def test_gram_bound_holds_on_random_arms(tmp_path):
    # 20 random arms written to files: unit axes, points and zero pose within
    # the workspace limit at scales from 1 cm to 1 km, random limits; 200
    # uniform in-limit configurations each.
    rng = np.random.default_rng(21)
    path = tmp_path / "arm.txt"
    for _ in range(20):
        axes = rng.normal(size=(7, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        scale = 10.0 ** rng.uniform(-2, 3)
        points, p0 = rng.uniform(-scale, scale, (7, 3)), rng.uniform(-scale, scale, 3)
        lower = rng.uniform(-3.0, 0.0, 7)
        upper = lower + rng.uniform(0.1, 3.0, 7)
        R = so3.exp_so3(rng.normal(size=3))
        text = lambda tag, *v: " ".join([tag, *(repr(float(x)) for x in v)]) + "\n"
        path.write_text(text("zero_pose", *p0, *R.ravel()) + "".join(
            text("joint", *a, *p, lo, hi) for a, p, lo, hi in zip(axes, points, lower, upper)))
        arm = load_arm(path)
        assert np.array_equal(arm.points, points) and np.array_equal(arm.axes, axes)
        assert _diag_gram_max(arm, rng.uniform(lower, upper, (200, 7))) <= arm.gram_bound


def test_run_control_keeps_no_state_between_runs():
    # Stacks of 3, 1 and 4 episodes back to back: each episode's final q
    # and series, first step included, equal its lone run bit for bit.
    cfg = PipelineConfig(duration=2.0)
    start = fk(ARM, HOME)
    rng = np.random.default_rng(7)
    for size in (3, 1, 4):
        trajs = [trajectory.plan(start, (*rng.uniform((0.5, -0.12), (0.72, 0.12)),
                                         cfg.grasp_z), rng.uniform(-1.5, 1.5), 0.0,
                                 cfg.duration) for _ in range(size)]
        q, times, series = sim.run_control(ARM, HOME, trajs, cfg)
        for k, traj in enumerate(trajs):
            q_k, times_k, series_k = sim.run_control(ARM, HOME, [traj], cfg)
            assert np.array_equal(q[k], q_k[0]) and np.array_equal(times, times_k)
            assert np.array_equal(series[:, k], series_k[:, 0])


def test_run_control_rejects_trajectories_on_other_windows():
    start = fk(ARM, sim.HOME_Q)
    base = trajectory.plan(start, (0.55, -0.1, 0.01), 0.7, 0.0, 2.0)
    for t_i, t_f in ((0.5, 2.0), (0.0, 2.5)):
        other = trajectory.plan(start, (0.55, -0.1, 0.01), 0.7, t_i, t_f)
        with pytest.raises(ValueError, match="share t_i and t_f"):
            sim.run_control(ARM, sim.HOME_Q, [base, other], PipelineConfig())
