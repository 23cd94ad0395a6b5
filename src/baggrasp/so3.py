"""Rotation-matrix algebra: hat, exp/log maps, z-axis rotations, the
downward-pointing grasp orientation, and the cross-product orientation error.

Conventions (used everywhere in this package): matrices are row-major 3x3
numpy arrays, frames are right-handed, and the world frame coincides with
the arm base frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Canonical gripper-down orientation: tool z axis anti-parallel to world z,
# x axis flipped to keep the frame right-handed.
GRIPPER_DOWN = np.array([
    [-1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, -1.0],
])

# hat(v)[i, j] = _HAT_SIGN[i, j] * v[_HAT_INDEX[i, j]].
_HAT_INDEX = np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
_HAT_SIGN = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])

_VEE_PLUS, _VEE_MINUS = np.array([7, 2, 3]), np.array([5, 6, 1])
_SMALL_ANGLE = 1e-8
_ANTIPODE_MARGIN = 1e-6


@dataclass
class Pose:
    """End-effector position (m) and orientation in the world frame; a
    stack of poses carries leading axes, p (..., 3) and R (..., 3, 3)."""

    p: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.R = np.asarray(self.R, dtype=float)


def hat(v) -> np.ndarray:
    """Skew-symmetric matrix of v, so that hat(v) @ u == cross(v, u).

    v may carry leading axes: (..., 3) gives (..., 3, 3).
    """
    return np.asarray(v, dtype=float)[..., _HAT_INDEX] * _HAT_SIGN


def _vee_antisym(M) -> np.ndarray:
    """vee(M - M^T) over leading axes, vee being the inverse of hat; read
    off flat entries (2,1) (0,2) (1,0) less (1,2) (2,0) (0,1), no M^T formed."""
    M = M.reshape(M.shape[:-2] + (9,))
    return M.take(_VEE_PLUS, axis=-1) - M.take(_VEE_MINUS, axis=-1)


def exp_so3(w) -> np.ndarray:
    """Rotation matrix for the rotation vector w (Rodrigues formula).

    Angle is ||w||, axis w/||w||; w may carry leading axes, (..., 3) giving
    (..., 3, 3). Below the small-angle cutoff a second-order series is used
    to avoid the 0/0 in the closed form.
    """
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w, axis=-1)[..., None, None]
    small = theta < _SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    s = np.where(small, 1.0, np.sin(safe) / safe)
    c = np.where(small, 0.5, (1.0 - np.cos(safe)) / (safe * safe))
    W = hat(w)
    return np.eye(3) + s * W + c * (W @ W)


def log_so3(R) -> np.ndarray:
    """Rotation vector w with exp_so3(w) == R.

    w = (phi / (2 sin phi)) * vee(R - R^T) with phi = arccos((trace - 1)/2);
    the trace argument is clamped to [-1, 1] against rounding. Angles within
    1e-6 of pi are rejected: the formula is singular there and the axis it
    would return is ill-conditioned.
    """
    R = np.asarray(R, dtype=float)
    cos_phi = np.clip(0.5 * (np.trace(R) - 1.0), -1.0, 1.0)
    phi = np.arccos(cos_phi)
    if phi >= np.pi - _ANTIPODE_MARGIN:
        raise ValueError("log near antipode; axis ill-conditioned by this formula")
    anti = _vee_antisym(R)
    if phi < _SMALL_ANGLE:
        return 0.5 * anti
    return (phi / (2.0 * np.sin(phi))) * anti


def rot_z(theta: float) -> np.ndarray:
    """Rotation by theta radians about the z axis."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([
        [c, -s, 0.0],
        [s, c, 0.0],
        [0.0, 0.0, 1.0],
    ])


def grasp_orientation(theta_d: float) -> np.ndarray:
    """Tool orientation for a top-down grasp with yaw theta_d.

    The gripper-down frame rotated about z; the third column is always
    (0, 0, -1).
    """
    return GRIPPER_DOWN @ rot_z(theta_d)


def rotation_error(R_d, R_e) -> np.ndarray:
    """Cross-product orientation error between desired and current frames.

    Defined as the sum over i of column_i(R_d) x column_i(R_e) (Luh, Walker
    & Paul, 1980). Since hat(a x b) = b a^T - a b^T, the sum equals
    vee(R_e R_d^T - R_d R_e^T), which is how it is computed, over any
    leading axes. Zero iff R_d == R_e; for a single-axis offset of angle phi
    its magnitude is 2|sin phi|.
    """
    R_d = np.asarray(R_d, dtype=float)
    R_e = np.asarray(R_e, dtype=float)
    return _vee_antisym(R_e @ np.swapaxes(R_d, -1, -2))
