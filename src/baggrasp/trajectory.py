"""Rest-to-rest cubic workspace trajectories.

Position runs on one cubic polynomial per axis; orientation runs on a cubic
rotation-vector polynomial composed onto the start orientation through the
exponential map. Both use zero boundary velocities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import so3
from .classical import GraspProposal
from .so3 import Pose


@dataclass
class CubicTrajectory:
    """Coefficients (a, b, c, d) per row for position axes and rotation-vector
    components, valid on [t_i, t_f]. A stack of trajectories sharing
    [t_i, t_f] (see stack()) carries a leading axis on each array."""

    t_i: float
    t_f: float
    pos_coeffs: np.ndarray  # (..., 3, 4)
    rot_coeffs: np.ndarray  # (..., 3, 4)
    R_start: np.ndarray     # (..., 3, 3)

    def __post_init__(self):
        if self.t_f <= self.t_i:
            raise ValueError("t_f must be > t_i")
        self.pos_coeffs = np.asarray(self.pos_coeffs, dtype=float)
        self.rot_coeffs = np.asarray(self.rot_coeffs, dtype=float)
        self.R_start = np.asarray(self.R_start, dtype=float)


@dataclass
class TrajectorySample:
    """Desired state at one or more times; arrays may carry leading axes."""

    p_d: np.ndarray      # desired position, m
    pdot_d: np.ndarray   # desired velocity, m/s
    R_d: np.ndarray      # desired orientation
    w_ff: np.ndarray     # rotation-vector rate (angular feedforward), rad/s


def cubic_coeffs(t_i: float, t_f: float, x_i: float, x_f: float):
    """(a, b, c, d) with x(t_i) = x_i, x(t_f) = x_f, zero end velocities.

    Solves the 4x4 boundary system directly; the residual is asserted below
    1e-10 to catch ill-conditioned time windows.
    """
    if t_f <= t_i:
        raise ValueError("t_f must be > t_i")
    A = np.array([
        [1.0, t_i, t_i ** 2, t_i ** 3],
        [1.0, t_f, t_f ** 2, t_f ** 3],
        [0.0, 1.0, 2.0 * t_i, 3.0 * t_i ** 2],
        [0.0, 1.0, 2.0 * t_f, 3.0 * t_f ** 2],
    ])
    q = np.array([x_i, x_f, 0.0, 0.0])
    coeffs = np.linalg.solve(A, q)
    residual = np.linalg.norm(A @ coeffs - q)
    if residual >= 1e-10:
        raise ArithmeticError(f"cubic solve residual {residual:.3e} too large")
    return tuple(coeffs)


def plan(start: Pose, target: GraspProposal, grasp_z: float,
         t_i: float, t_f: float) -> CubicTrajectory:
    """Plan a grasp approach from `start` to the proposal at height grasp_z.

    The final orientation is the gripper-down frame yawed by the proposal's
    theta; the rotation-vector boundary is 0 -> log(R_start^T R_final).
    Rotations of half a turn or more cannot be planned (log singularity).
    """
    p_f = np.array([target.x, target.y, grasp_z])
    R_f = so3.grasp_orientation(target.theta)
    try:
        w_final = so3.log_so3(start.R.T @ R_f)
    except ValueError as err:
        raise ValueError(f"cannot plan rotation: {err}") from err
    pos = np.array([cubic_coeffs(t_i, t_f, start.p[i], p_f[i]) for i in range(3)])
    rot = np.array([cubic_coeffs(t_i, t_f, 0.0, w_final[i]) for i in range(3)])
    return CubicTrajectory(t_i, t_f, pos, rot, start.R.copy())


def stack(trajs) -> CubicTrajectory:
    """One trajectory with a leading axis over `trajs`, which must all share
    t_i and t_f (a stack is sampled at one time for all of them)."""
    t_i, t_f = trajs[0].t_i, trajs[0].t_f
    if any(tr.t_i != t_i or tr.t_f != t_f for tr in trajs):
        raise ValueError("stacked trajectories must share t_i and t_f")
    return CubicTrajectory(t_i, t_f, np.stack([tr.pos_coeffs for tr in trajs]),
                           np.stack([tr.rot_coeffs for tr in trajs]),
                           np.stack([tr.R_start for tr in trajs]))


def sample(traj: CubicTrajectory, t) -> TrajectorySample:
    """Evaluate the trajectory at t (clamped to [t_i, t_f]).

    t is one time or an array of times; the sample's arrays have the shape
    of t, then the trajectory's leading axes, then (3,) or (3, 3).
    """
    t = np.clip(np.asarray(t, dtype=float), traj.t_i, traj.t_f)
    t = t.reshape(t.shape + (1,) * (traj.R_start.ndim - 2))
    one = np.ones_like(t)
    # A (4, 2) matrix with columns (1, t, t^2, t^3) and (0, 1, 2t, 3t^2):
    # one product gives each polynomial's value and rate.
    powers = np.stack([one, np.zeros_like(t), t, one, t * t, 2.0 * t,
                       t ** 3, 3.0 * t * t], axis=-1).reshape(t.shape + (4, 2))
    pos = traj.pos_coeffs @ powers
    rot = traj.rot_coeffs @ powers
    p_d, pdot_d = pos[..., 0], pos[..., 1]
    w, w_ff = rot[..., 0], rot[..., 1]
    R_d = traj.R_start @ so3.exp_so3(w)
    return TrajectorySample(p_d, pdot_d, R_d, w_ff)


def sample_times(traj: CubicTrajectory, rate: float) -> np.ndarray:
    """Uniform sample instants from t_i to t_f inclusive at `rate` Hz."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    n = int(np.floor((traj.t_f - traj.t_i) * rate))
    ts = traj.t_i + np.arange(n + 1) / rate
    if ts[-1] < traj.t_f:
        ts = np.append(ts, traj.t_f)
    return ts
