"""7-DOF serial-arm kinematics and the workspace PD velocity law.

The arm is described by its zero-configuration end-effector pose plus one
revolute screw per joint (unit axis and a point on the axis, both in the
base frame). Forward kinematics composes the per-joint rotations in order
(product of exponentials); the Jacobian maps joint rates to the stacked
(linear at the end-effector point; angular) base-frame velocity, matching
the stacked (position; orientation) error vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import so3
from .config import WORKSPACE_LIMIT, InputError, read_text
from .so3 import Pose
from .trajectory import TrajectorySample

N_JOINTS = 7
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]  # cyclic index shifts for cross products


@dataclass
class ArmModel:
    zero_pose: Pose
    axes: np.ndarray    # (7, 3) unit rotation axes, base frame
    points: np.ndarray  # (7, 3) points on the axes, m
    limits: np.ndarray  # (7, 2) lower/upper joint limits, rad

    def __post_init__(self):
        self.axes = np.asarray(self.axes, dtype=float).reshape(N_JOINTS, 3)
        self.points = np.asarray(self.points, dtype=float).reshape(N_JOINTS, 3)
        self.limits = np.asarray(self.limits, dtype=float).reshape(N_JOINTS, 2)
        norms = np.linalg.norm(self.axes, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("joint axes must be unit vectors")
        if np.any(self.limits[:, 0] >= self.limits[:, 1]):
            raise ValueError("joint limits must satisfy lower < upper")
        R = self.zero_pose.R
        if not (np.allclose(R @ R.T, np.eye(3), rtol=0, atol=1e-9)
                and np.linalg.det(R) > 0):
            raise ValueError("zero_pose orientation must be a rotation matrix")
        if not np.all(np.abs([*self.points, self.zero_pose.p]) <= WORKSPACE_LIMIT):
            raise ValueError(f"joint points and zero_pose position must lie "
                             f"within +-{WORKSPACE_LIMIT} m")
        # Constant per-joint skew matrices; reused every control step.
        self._W = so3.hat(self.axes)
        self._W2 = self._W @ self._W


def load_arm(path) -> ArmModel:
    """Parse an arm description file.

    Lines ('#' comments allowed):
      zero_pose px py pz r11 r12 r13 r21 r22 r23 r31 r32 r33
      joint ax ay az px py pz lower upper   (exactly 7 of these, in order)
    Every number must be finite. Any defect raises InputError naming the
    file (and the line, where there is one).
    """
    text = read_text(path, "arm file")
    zero_pose = None
    axes, points, limits = [], [], []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        try:
            vals = [float(v) for v in parts[1:]]
        except ValueError as err:
            raise InputError(f"{path}:{lineno}: {err}") from err
        if not all(map(math.isfinite, vals)):
            raise InputError(f"{path}:{lineno}: numbers must be finite")
        if tag == "zero_pose":
            if len(vals) != 12:
                raise InputError(f"{path}:{lineno}: zero_pose needs 12 numbers")
            zero_pose = Pose(vals[:3], np.array(vals[3:]).reshape(3, 3))
        elif tag == "joint":
            if len(vals) != 8:
                raise InputError(f"{path}:{lineno}: joint needs 8 numbers")
            axes.append(vals[0:3])
            points.append(vals[3:6])
            limits.append(vals[6:8])
        else:
            raise InputError(f"{path}:{lineno}: unknown line tag {tag!r}")
    if zero_pose is None:
        raise InputError(f"{path}: missing zero_pose line")
    if len(axes) != N_JOINTS:
        raise InputError(f"{path}: expected {N_JOINTS} joints, got {len(axes)}")
    try:
        return ArmModel(zero_pose, np.array(axes), np.array(points), np.array(limits))
    except ValueError as err:
        raise InputError(f"{path}: {err}") from err


def default_arm_path() -> Path:
    return Path(__file__).parent / "data" / "arm7.txt"


def fk_and_jacobian(arm: ArmModel, q) -> tuple[Pose, np.ndarray]:
    """Forward kinematics and the 6x7 Jacobian in one pass.

    q is one joint vector (7,) or a stack (..., 7); the pose and the
    Jacobian (..., 6, 7) carry the same leading axes. Jacobian rows are
    (linear velocity at the end-effector point; angular velocity) in the
    base frame; column j comes from joint j's moved axis. Every product
    works slice by slice, so a configuration's result does not depend on
    what else is in the stack.
    """
    q = np.asarray(q, dtype=float)
    lead = q.shape[:-1]
    s, c = np.sin(q)[..., None, None], np.cos(q)[..., None, None]
    R = np.eye(3) + s * arm._W + (1.0 - c) * arm._W2       # (..., 7, 3, 3)
    t = arm.points - (R @ arm.points[:, :, None])[..., 0]  # (..., 7, 3)
    R_acc = np.empty(lead + (N_JOINTS + 1, 3, 3))
    R_acc[..., 0, :, :] = np.eye(3)
    for j in range(N_JOINTS):
        R_acc[..., j + 1, :, :] = R_acc[..., j, :, :] @ R[..., j, :, :]
    before = R_acc[..., :N_JOINTS, :, :]  # rotation ahead of each joint
    moved_axes = (before @ arm.axes[:, :, None])[..., 0]
    # p_acc[j]: translation ahead of joint j, the running sum of R_acc t.
    p_acc = np.zeros(lead + (N_JOINTS + 1, 3))
    np.cumsum((before @ t[..., None])[..., 0], axis=-2, out=p_acc[..., 1:, :])
    moved_points = (before @ arm.points[:, :, None])[..., 0] + p_acc[..., :N_JOINTS, :]
    R_end, p_end = R_acc[..., N_JOINTS, :, :], p_acc[..., N_JOINTS, :]
    p_ee = R_end @ arm.zero_pose.p + p_end
    R_ee = R_end @ arm.zero_pose.R
    # moved_axes x (p_ee - moved_points): the products np.cross forms,
    # without its per-call overhead.
    d = p_ee[..., None, :] - moved_points
    lin = moved_axes[..., _NEXT] * d[..., _PREV] - moved_axes[..., _PREV] * d[..., _NEXT]
    J = np.swapaxes(np.concatenate([lin, moved_axes], axis=-1), -1, -2)
    return Pose(p_ee, R_ee), J


def fk(arm: ArmModel, q) -> Pose:
    """End-effector pose for joint vector q (product of exponentials)."""
    return fk_and_jacobian(arm, q)[0]


def pinv(J: np.ndarray, damping: float = 0.0) -> np.ndarray:
    """Damped least-squares pseudo-inverse J^T (J J^T + damping^2 I)^-1.

    J may be one matrix or a stack (..., m, n). damping = 0 recovers the
    Moore-Penrose inverse when J J^T is invertible and raises otherwise
    (for any slice of a stack).
    """
    J = np.asarray(J, dtype=float)
    G = J @ np.swapaxes(J, -1, -2)
    diag = np.arange(G.shape[-1])
    G[..., diag, diag] += damping * damping
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as err:
        raise ValueError(
            "J J^T singular; use damping > 0 near singularities") from err
    # A rank deficiency shows up as a Cholesky pivot of order sqrt(eps);
    # healthy configurations sit orders of magnitude above this cut.
    pivots = np.diagonal(L, axis1=-2, axis2=-1)
    if np.any(pivots.min(axis=-1) <= 1e-7 * pivots.max(axis=-1)):
        raise ValueError("J J^T singular; use damping > 0 near singularities")
    # G is symmetric, so J^T G^-1 = (G^-1 J)^T: one solve of G X = J gives
    # the pseudo-inverse without forming G^-1.
    return np.swapaxes(np.linalg.solve(G, J), -1, -2)


def compute_error(current: Pose, desired: TrajectorySample) -> np.ndarray:
    """Stacked 6-vector error [p - p_d; e_o] of the current pose w.r.t. the
    trajectory sample, e_o being the cross-product orientation error; both
    may carry the same leading axes."""
    return np.concatenate([current.p - desired.p_d,
                           so3.rotation_error(desired.R_d, current.R)], axis=-1)


def control_step(arm: ArmModel, q, sample: TrajectorySample, k_p: float,
                 k_d: float, prev_e, dt: float, damping: float = 1e-3,
                 qdot_max: float = 1.5) -> tuple[np.ndarray, np.ndarray]:
    """One tick of the workspace PD velocity law; returns (qdot, e).

    qdot = pinv(J) @ (-k_p e - k_d edot + V) with scalar gains on the stacked
    6-vector error e; edot is its backward difference (zero on the first
    step, when prev_e is None). The feedforward V stacks the desired linear
    velocity with the angular rate rotated into the base frame (the
    trajectory stores it along the moving rotation axis). Output joint
    velocities are clamped to +-qdot_max. q (..., 7) and the sample may
    carry a leading episode axis; each episode is computed on its own.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    pose, J = fk_and_jacobian(arm, q)
    e = compute_error(pose, sample)
    edot = np.zeros_like(e) if prev_e is None else (e - prev_e) / dt
    v_ff = np.concatenate([sample.pdot_d,
                           (sample.R_d @ sample.w_ff[..., None])[..., 0]], axis=-1)
    u = -k_p * e - k_d * edot + v_ff
    qdot = (pinv(J, damping) @ u[..., None])[..., 0]
    return np.clip(qdot, -qdot_max, qdot_max), e
