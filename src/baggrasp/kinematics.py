"""7-DOF serial-arm kinematics and the workspace PD velocity law.

The arm is described by its zero-configuration end-effector pose plus one
revolute screw per joint (unit axis and a point on the axis, both in the
base frame). Forward kinematics composes the per-joint rotations in order
(product of exponentials); the Jacobian maps joint rates to the stacked
(linear at the end-effector point; angular) base-frame velocity, matching
the stacked (position; orientation) error vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import so3
from .so3 import Pose
from .trajectory import TrajectorySample

N_JOINTS = 7


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
        # Constant per-joint skew matrices; reused every control step.
        self._W = np.array([so3.hat(a) for a in self.axes])
        self._W2 = np.array([W @ W for W in self._W])


def load_arm(path) -> ArmModel:
    """Parse an arm description file.

    Lines ('#' comments allowed):
      zero_pose px py pz r11 r12 r13 r21 r22 r23 r31 r32 r33
      joint ax ay az px py pz lower upper   (exactly 7 of these, in order)
    """
    zero_pose = None
    axes, points, limits = [], [], []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag, vals = parts[0], [float(v) for v in parts[1:]]
        if tag == "zero_pose":
            if len(vals) != 12:
                raise ValueError(f"{path}:{lineno}: zero_pose needs 12 numbers")
            zero_pose = Pose(vals[:3], np.array(vals[3:]).reshape(3, 3))
        elif tag == "joint":
            if len(vals) != 8:
                raise ValueError(f"{path}:{lineno}: joint needs 8 numbers")
            axes.append(vals[0:3])
            points.append(vals[3:6])
            limits.append(vals[6:8])
        else:
            raise ValueError(f"{path}:{lineno}: unknown line tag {tag!r}")
    if zero_pose is None:
        raise ValueError(f"{path}: missing zero_pose line")
    if len(axes) != N_JOINTS:
        raise ValueError(f"{path}: expected {N_JOINTS} joints, got {len(axes)}")
    return ArmModel(zero_pose, np.array(axes), np.array(points), np.array(limits))


def default_arm_path() -> Path:
    return Path(__file__).parent / "data" / "arm7.txt"


def fk_and_jacobian(arm: ArmModel, q) -> tuple[Pose, np.ndarray]:
    """Forward kinematics and the 6x7 Jacobian in one pass.

    Jacobian rows are (linear velocity at the end-effector point; angular
    velocity) in the base frame; column j comes from joint j's moved axis.
    """
    q = np.asarray(q, dtype=float).reshape(N_JOINTS)
    R_acc = np.eye(3)
    p_acc = np.zeros(3)
    moved_axes = np.empty((N_JOINTS, 3))
    moved_points = np.empty((N_JOINTS, 3))
    for j in range(N_JOINTS):
        moved_axes[j] = R_acc @ arm.axes[j]
        moved_points[j] = R_acc @ arm.points[j] + p_acc
        s, c = np.sin(q[j]), np.cos(q[j])
        R_j = np.eye(3) + s * arm._W[j] + (1.0 - c) * arm._W2[j]
        t_j = arm.points[j] - R_j @ arm.points[j]
        p_acc = R_acc @ t_j + p_acc
        R_acc = R_acc @ R_j
    p_ee = R_acc @ arm.zero_pose.p + p_acc
    R_ee = R_acc @ arm.zero_pose.R
    J = np.empty((6, N_JOINTS))
    J[:3] = np.cross(moved_axes, p_ee - moved_points).T
    J[3:] = moved_axes.T
    return Pose(p_ee, R_ee), J


def fk(arm: ArmModel, q) -> Pose:
    """End-effector pose for joint vector q (product of exponentials)."""
    return fk_and_jacobian(arm, q)[0]


def pinv(J: np.ndarray, damping: float = 0.0) -> np.ndarray:
    """Damped least-squares pseudo-inverse J^T (J J^T + damping^2 I)^-1.

    damping = 0 recovers the Moore-Penrose inverse when J J^T is invertible
    and raises otherwise.
    """
    J = np.asarray(J, dtype=float)
    G = J @ J.T
    G.flat[::G.shape[0] + 1] += damping * damping
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as err:
        raise ValueError(
            "J J^T singular; use damping > 0 near singularities") from err
    # A rank deficiency shows up as a Cholesky pivot of order sqrt(eps);
    # healthy configurations sit orders of magnitude above this cut.
    diag = np.diag(L)
    if diag.min() <= 1e-7 * diag.max():
        raise ValueError("J J^T singular; use damping > 0 near singularities")
    # G is symmetric, so J^T G^-1 = (G^-1 J)^T: two triangular solves of
    # G X = J give the pseudo-inverse without forming G^-1.
    X = np.linalg.solve(L.T, np.linalg.solve(L, J))
    return X.T


def compute_error(current: Pose, desired: TrajectorySample) -> np.ndarray:
    """Stacked 6-vector error [p - p_d; e_o] of the current pose w.r.t. the
    trajectory sample, e_o being the cross-product orientation error."""
    return np.concatenate([current.p - desired.p_d,
                           so3.rotation_error(desired.R_d, current.R)])


def control_step(arm: ArmModel, q, sample: TrajectorySample, k_p: float,
                 k_d: float, prev_e, dt: float, damping: float = 1e-3,
                 qdot_max: float = 1.5) -> tuple[np.ndarray, np.ndarray]:
    """One tick of the workspace PD velocity law; returns (qdot, e).

    qdot = pinv(J) @ (-k_p e - k_d edot + V) with scalar gains on the stacked
    6-vector error e; edot is its backward difference (zero on the first
    step, when prev_e is None). The feedforward V stacks the desired linear
    velocity with the angular rate rotated into the base frame (the
    trajectory stores it along the moving rotation axis). Output joint
    velocities are clamped to +-qdot_max.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    pose, J = fk_and_jacobian(arm, q)
    e = compute_error(pose, sample)
    edot = np.zeros(6) if prev_e is None else (e - prev_e) / dt
    v_ff = np.concatenate([sample.pdot_d, sample.R_d @ sample.w_ff])
    qdot = pinv(J, damping) @ (-k_p * e - k_d * edot + v_ff)
    return np.clip(qdot, -qdot_max, qdot_max), e
