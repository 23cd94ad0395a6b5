"""Rest-to-rest cubic workspace trajectories.

Position and the rotation vector both follow the rest-to-rest cubic
s(tau) = 3 tau^2 - 2 tau^3 in normalized time tau = (t - t_i) / (t_f - t_i),
so every boundary velocity is zero: position runs from p_start along
p_delta, and the rotation vector from 0 to w_final, composed onto the start
orientation through the exponential map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import so3
from .so3 import Pose

_ARRAYS = ("p_start", "p_delta", "w_final", "R_start")


@dataclass
class CubicTrajectory:
    """Start position, position change, final rotation vector and start
    orientation, valid on [t_i, t_f]. A stack of trajectories sharing
    [t_i, t_f] (see stack()) carries a leading axis on each array."""

    t_i: float
    t_f: float
    p_start: np.ndarray  # (..., 3)
    p_delta: np.ndarray  # (..., 3)
    w_final: np.ndarray  # (..., 3)
    R_start: np.ndarray  # (..., 3, 3)

    def __post_init__(self):
        if self.t_f <= self.t_i:
            raise ValueError("t_f must be > t_i")
        for name in _ARRAYS:
            setattr(self, name, np.array(getattr(self, name), dtype=float))


@dataclass
class TrajectorySample:
    """Desired state at one or more times; arrays may carry leading axes."""

    p_d: np.ndarray      # desired position, m
    pdot_d: np.ndarray   # desired velocity, m/s
    R_d: np.ndarray      # desired orientation
    w_ff: np.ndarray     # rotation-vector rate (angular feedforward), rad/s


def plan(start: Pose, p_f, theta: float, t_i: float, t_f: float) -> CubicTrajectory:
    """Plan a grasp approach from `start` to the position p_f (3,).

    The final orientation is the gripper-down frame yawed by theta; the
    rotation-vector boundary is 0 -> log(R_start^T R_final). Rotations of
    half a turn or more cannot be planned (log singularity).
    """
    R_f = so3.grasp_orientation(theta)
    try:
        w_final = so3.log_so3(start.R.T @ R_f)
    except ValueError as err:
        raise ValueError(f"cannot plan rotation: {err}") from err
    return CubicTrajectory(t_i, t_f, start.p, np.subtract(p_f, start.p), w_final, start.R)


def stack(trajs) -> CubicTrajectory:
    """One trajectory with a leading axis over `trajs`, which must all share
    t_i and t_f (a stack is sampled at one time for all of them)."""
    t_i, t_f = trajs[0].t_i, trajs[0].t_f
    if any(tr.t_i != t_i or tr.t_f != t_f for tr in trajs):
        raise ValueError("stacked trajectories must share t_i and t_f")
    return CubicTrajectory(t_i, t_f, *[np.stack([getattr(tr, name) for tr in trajs])
                                       for name in _ARRAYS])


def sample(traj: CubicTrajectory, t) -> TrajectorySample:
    """Evaluate the trajectory at t (clamped to [t_i, t_f]).

    t is one time or an array of times; the sample's arrays have the shape
    of t, then the trajectory's leading axes, then (3,) or (3, 3).
    """
    T = traj.t_f - traj.t_i
    tau = np.clip((np.asarray(t, dtype=float) - traj.t_i) / T, 0.0, 1.0)
    tau = tau.reshape(tau.shape + (1,) * (traj.R_start.ndim - 1))
    s = tau * tau * (3.0 - 2.0 * tau)
    s_dot = 6.0 * tau * (1.0 - tau) / T
    R_d = traj.R_start @ so3.exp_so3(s * traj.w_final)
    return TrajectorySample(traj.p_start + s * traj.p_delta, s_dot * traj.p_delta,
                            R_d, s_dot * traj.w_final)


def feedforward(sample: TrajectorySample) -> np.ndarray:
    """Base-frame twist [pdot_d; R_d w_ff] (w_ff is along the moving axis)."""
    return np.concatenate([sample.pdot_d,
                           (sample.R_d @ sample.w_ff[..., None])[..., 0]], axis=-1)


def sample_times(traj: CubicTrajectory, rate: float) -> np.ndarray:
    """Uniform sample instants from t_i to t_f inclusive at `rate` Hz."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    n = int(np.floor((traj.t_f - traj.t_i) * rate))
    ts = traj.t_i + np.arange(n + 1) / rate
    if ts[-1] < traj.t_f:
        ts = np.append(ts, traj.t_f)
    return ts
