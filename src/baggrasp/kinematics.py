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
from numpy.lib.stride_tricks import sliding_window_view

from . import so3
from .config import WORKSPACE_LIMIT, InputError, read_text
from .so3 import Pose

N_JOINTS = 7
_ONE = np.array(1.0)  # ufuncs take a 0-d array faster than a float


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
        # Chain's constants. Joint j's transform [R_j | (I - R_j) p_j] is
        # [1, sin q_j, 1 - cos q_j] @ _basis[j + 1], as R_j = I + s W + (1 - c) W^2;
        # [1, 0, 0] @ _basis[0] is the identity that starts the chain.
        W = so3.hat(self.axes)
        basis = np.zeros((N_JOINTS + 1, 3, 4, 4))
        basis[:, 0], joint = np.eye(4), basis[1:, 1:, :3]
        joint[..., :3] = np.stack([W, W @ W], axis=1)
        joint[..., 3] = -np.einsum("jkab,jb->jka", joint[..., :3], self.points)
        self._basis = basis.reshape(N_JOINTS + 1, 3, 16)
        # Columns [axis; 0 | point; 1 | 0 | 0] per joint, then the zero-pose
        # transform: one product maps each by the frame ahead of it.
        self._cols = np.zeros((N_JOINTS + 1, 4, 4))
        lines = np.stack([self.axes, self.points], -1)
        self._cols[:-1, :, :2] = np.insert(lines, 3, (0, 1), axis=1)
        self._cols[-1] = np.block([[R, self.zero_pose.p[:, None]], [0, 0, 0, 1]])
        # diag(J J^T) <= gram_bound at every q: |p_ee - p_j| <= the fixed hops from j on.
        hops = np.linalg.norm(np.diff([*self.points, self.zero_pose.p], axis=0), axis=1)
        self.gram_bound = max(7.0, float(np.sum(np.cumsum(hops[::-1]) ** 2)))


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


class Chain:
    """FK, Jacobian and damped least-squares step at a stack of configurations
    lead + (7,), in buffers made once that update(q) and dls refill; pose, J
    and dls's result are views of them. The frames ahead of the joints are the
    prefix products of [I, T_0, ..., T_6] in stacked steps of strides 1, 2, 4
    (Hillis & Steele), and one product with ArmModel._cols maps the joints'
    axes and points and the zero pose. Jacobian column j, (linear velocity at
    the end-effector point; angular velocity) in the base frame, comes from
    joint j's moved axis. Products work slice by slice: no result depends on
    the rest of the stack."""

    def __init__(self, arm: ArmModel, lead: tuple):
        n, self._arm = N_JOINTS, arm
        self._floor = 1e-6 * math.sqrt(2.0 * arm.gram_bound)  # dls()'s pivot check bound
        coef = np.zeros(lead + (n + 1, 1, 3))  # [1, 0, 0], then [1, s_j, 1 - c_j]
        coef[..., 0] = 1.0
        P = np.empty(lead + (n + 1, 4, 4))
        # Mapped columns and d = p_ee - moved points in rows 0, 1, 2, 0, 1:
        # rows 1-3 and 2-4 of them are the cross product's shifted operands.
        M, d = np.empty(lead + (n + 1, 5, 4)), np.empty(lead + (n, 5))
        rows = lambda x, s: np.moveaxis(sliding_window_view(x, 3, -1)[..., s, :], -2, 0)
        self.JT = np.empty(lead + (n, 6))
        self.J, self._G = np.swapaxes(self.JT, -1, -2), np.empty(lead + (6, 6))
        self.pose = Pose(M[..., n, :3, 3], M[..., n, :3, :3])
        self._diag = self._G.reshape(lead + (36,))[..., ::7]  # dls()'s view of G's diagonal
        self._qdot = np.empty(lead + (n, 1))  # and its result column
        # update()'s views, made once: slicing costs more than the products.
        self._views = (
            coef, coef[..., 1:, 0, 1], coef[..., 1:, 0, 2],
            P.reshape(coef.shape[:-2] + (1, 16)),
            [(P[..., s:, :, :], P[..., :-s, :, :]) for s in (1, 2, 4)],
            P[..., :3, :], M[..., :3, :], M[..., 3:, :], M[..., :2, :],
            d, M[..., n, None, :, 3], M[..., :n, :, 1],
            rows(M[..., :n, :, 0], np.s_[1:]), rows(d, np.s_[2:0:-1]),
            np.empty((2,) + lead + (n, 3)),
            self.JT[..., :3], self.JT[..., 3:], M[..., :n, :3, 0])

    def update(self, q) -> None:
        (coef, sin, one_minus_cos, P16, prefix, P3, M3, M_copies, M_rows,
         d, p_ee, moved_points, a_shifted, d_shifted, products, lin, ang, a) = self._views
        np.sin(q, out=sin)
        np.subtract(_ONE, np.cos(q, out=one_minus_cos), out=one_minus_cos)
        np.matmul(coef, self._arm._basis, out=P16)
        for later, earlier in prefix:  # P[k] <- P[k - s] @ P[k], from the old P
            later[...] = earlier @ later
        np.matmul(P3, self._arm._cols, out=M3)
        M_copies[...] = M_rows
        np.subtract(p_ee, moved_points, out=d)
        # Column j: moved axis a x (p_ee - moved point), np.cross's products.
        np.subtract(*np.multiply(a_shifted, d_shifted, out=products), out=lin)
        ang[...] = a

    def dls(self, damping: float, u) -> np.ndarray:
        """J^T (J J^T + damping^2 I)^-1 u, u (..., 6), at the last update. A slice
        whose Cholesky pivots show G = J J^T + damping^2 I singular raises. Each
        exact pivot lies in [damping, sqrt(gram_bound + damping^2)], so the check
        runs only for damping <= 1e-6 sqrt(2 gram_bound) (2x for rounding): above
        that floor it would pass with a 10x margin."""
        G = np.matmul(self.J, self.JT, out=self._G)
        self._diag += damping * damping
        if damping <= self._floor:
            # A rank deficiency shows up as a Cholesky pivot of order sqrt(eps);
            # healthy configurations sit orders of magnitude above this cut.
            try:
                pivots = np.diagonal(np.linalg.cholesky(G), axis1=-2, axis2=-1)
                singular = (pivots.min(axis=-1) <= 1e-7 * pivots.max(axis=-1)).any()
            except np.linalg.LinAlgError:
                singular = True
            if singular:
                raise ValueError("J J^T singular; use damping > 0 near singularities")
        return np.matmul(self.JT, np.linalg.solve(G, u[..., None]), out=self._qdot)[..., 0]


def fk_and_jacobian(arm: ArmModel, q) -> tuple[Pose, np.ndarray]:
    """Forward kinematics and the 6x7 Jacobian of q, one joint vector (7,) or a
    stack (..., 7), in one pass of a Chain; both carry q's leading axes."""
    chain = Chain(arm, np.shape(q)[:-1])
    chain.update(np.asarray(q, dtype=float))
    return chain.pose, chain.J


def fk(arm: ArmModel, q) -> Pose:
    """End-effector pose for joint vector q (product of exponentials)."""
    return fk_and_jacobian(arm, q)[0]

