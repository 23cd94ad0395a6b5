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
_CYCLIC = np.eye(4)[[0, 1, 2, 0, 1]]  # row picks: cross-product shifts become slices


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
        if not (np.all(np.abs(self.axes) <= 1 + 1e-9)  # bounded first: no overflow
                and np.all(np.abs(np.linalg.norm(self.axes, axis=1) - 1.0) <= 1e-9)):
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
        # fk_and_jacobian's constants. Joint j's transform [R_j | (I - R_j) p_j]
        # is [1, sin q_j, 1 - cos q_j] @ _basis[j + 1], as R_j = I + s W + (1 - c) W^2;
        # [1, 0, 0] @ _basis[0] is the identity that starts the chain.
        W = so3.hat(self.axes)
        self._W, self._W2 = W, W @ W
        basis = np.zeros((N_JOINTS + 1, 3, 4, 4))
        basis[:, 0], joint = np.eye(4), basis[1:, 1:, :3]
        joint[..., :3] = np.stack([W, self._W2], axis=1)
        joint[..., 3] = -np.einsum("jkab,jb->jka", joint[..., :3], self.points)
        self._basis = basis.reshape(N_JOINTS + 1, 3, 16)
        # Columns [axis; 0] and [point; 1]: a frame maps both in one product.
        self._lines = np.insert(np.stack([self.axes, self.points], -1), 3, (0, 1), axis=1)
        self._zero_T = np.block([[R, self.zero_pose.p[:, None]], [0, 0, 0, 1]])


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
    base frame; column j comes from joint j's moved axis. The frames ahead
    of the joints are the prefix products of [I, T_0, ..., T_6], in three
    stacked steps of strides 1, 2, 4 (Hillis & Steele). Every product works
    slice by slice, so a result does not depend on the rest of the stack.
    """
    q = np.asarray(q, dtype=float)
    lead = q.shape[:-1]
    coef = np.zeros(lead + (N_JOINTS + 1, 1, 3))  # [1, 0, 0], then [1, s_j, 1 - c_j]
    coef[..., 0] = 1.0
    np.sin(q, out=coef[..., 1:, 0, 1])
    np.subtract(1.0, np.cos(q), out=coef[..., 1:, 0, 2])
    P = (coef @ arm._basis).reshape(lead + (N_JOINTS + 1, 4, 4))
    for d in (1, 2, 4):  # P[k] <- P[k - d] @ P[k], from the old P
        P[..., d:, :, :] = P[..., :-d, :, :] @ P[..., d:, :, :]
    F = _CYCLIC @ P  # F[j]: rows 0, 1, 2, 0, 1 of the frame ahead of joint j
    moved = F[..., :N_JOINTS, :, :] @ arm._lines  # (..., 7, 5, 2)
    end = F[..., N_JOINTS, :, :] @ arm._zero_T     # (..., 5, 4)
    # Column j: moved axis a x (p_ee - moved point), np.cross's products.
    a, d = moved[..., 0], end[..., None, :, 3] - moved[..., 1]
    lin = a[..., 1:4] * d[..., 2:] - a[..., 2:] * d[..., 1:4]
    J = np.swapaxes(np.concatenate([lin, a[..., :3]], axis=-1), -1, -2)
    return Pose(end[..., :3, 3], end[..., :3, :3]), J


def fk(arm: ArmModel, q) -> Pose:
    """End-effector pose for joint vector q (product of exponentials)."""
    return fk_and_jacobian(arm, q)[0]


def _dls_solve(J: np.ndarray, damping: float, rhs: np.ndarray) -> np.ndarray:
    """G^-1 rhs for G = J J^T + damping^2 I over a stack J (..., m, n); raises
    when a slice's Cholesky pivots show G singular. Each exact pivot lies in
    [damping, sqrt(G_ii)], so for damping > 1e-6 sqrt(max G_ii) that check
    passes with a 10x margin, and the factorisation is skipped."""
    G = J @ np.swapaxes(J, -1, -2)  # new, so contiguous: a strided diagonal
    diag = G.reshape(G.shape[:-2] + (-1,))[..., ::G.shape[-1] + 1]
    diag += damping * damping
    if not damping > 1e-6 * math.sqrt(diag.max(initial=0.0)):
        # A rank deficiency shows up as a Cholesky pivot of order sqrt(eps);
        # healthy configurations sit orders of magnitude above this cut.
        try:
            pivots = np.diagonal(np.linalg.cholesky(G), axis1=-2, axis2=-1)
            singular = (pivots.min(axis=-1) <= 1e-7 * pivots.max(axis=-1)).any()
        except np.linalg.LinAlgError:
            singular = True
        if singular:
            raise ValueError("J J^T singular; use damping > 0 near singularities")
    return np.linalg.solve(G, rhs)


def pinv(J: np.ndarray, damping: float = 0.0) -> np.ndarray:
    """Damped least-squares pseudo-inverse J^T (J J^T + damping^2 I)^-1.

    J may be one matrix or a stack (..., m, n). damping = 0 recovers the
    Moore-Penrose inverse when J J^T is invertible and raises otherwise
    (for any slice of a stack).
    """
    J = np.asarray(J, dtype=float)
    # G is symmetric, so J^T G^-1 = (G^-1 J)^T: one solve of G X = J gives
    # the pseudo-inverse without forming G^-1.
    return np.swapaxes(_dls_solve(J, damping, J), -1, -2)


def compute_error(current: Pose, desired: TrajectorySample) -> np.ndarray:
    """Stacked 6-vector error [p - p_d; e_o] of the current pose w.r.t. the
    trajectory sample, e_o being the cross-product orientation error; both
    may carry the same leading axes."""
    return np.concatenate([current.p - desired.p_d,
                           so3.rotation_error(desired.R_d, current.R)], axis=-1)


def feedforward(sample: TrajectorySample) -> np.ndarray:
    """Base-frame twist [pdot_d; R_d w_ff] (w_ff is along the moving axis)."""
    return np.concatenate([sample.pdot_d,
                           (sample.R_d @ sample.w_ff[..., None])[..., 0]], axis=-1)


def control_step(arm: ArmModel, q, sample: TrajectorySample, k_p: float,
                 k_d: float, prev_e, dt: float, damping: float = 1e-3,
                 qdot_max: float = 1.5, v_ff=None) -> tuple[np.ndarray, np.ndarray]:
    """One tick of the workspace PD velocity law; returns (qdot, e).

    qdot = pinv(J, damping) @ u, u = -k_p e - k_d edot + V, as J^T x from one
    solve of (J J^T + damping^2 I) x = u; e is the stacked 6-vector error,
    edot its backward difference (zero when prev_e is None), V is v_ff or else
    feedforward(sample); qdot is clamped to +-qdot_max. q (..., 7) and the
    sample may carry a leading episode axis; each episode is its own.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    pose, J = fk_and_jacobian(arm, q)
    e = compute_error(pose, sample)
    edot = np.zeros_like(e) if prev_e is None else (e - prev_e) / dt
    u = -k_p * e - k_d * edot + (feedforward(sample) if v_ff is None else v_ff)
    qdot = (np.swapaxes(J, -1, -2) @ _dls_solve(J, damping, u[..., None]))[..., 0]
    return np.minimum(np.maximum(qdot, -qdot_max), qdot_max), e
