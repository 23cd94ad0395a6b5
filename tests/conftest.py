import dataclasses
import functools

import numpy as np
import pytest

from baggrasp import config, learned, sim, so3, trajectory
from baggrasp.learned import LabeledScene, preprocess


@pytest.fixture(scope="session")
def cfg():
    return config.PipelineConfig()


def make_dataset(seed0: int, n: int, cfg=None) -> list:
    """n labeled 36x64 training scenes from consecutive generator seeds."""
    cfg = cfg or config.PipelineConfig()
    out, seed = [], seed0
    while len(out) < n:
        scene = sim.generate_scene(seed, cfg)
        seed += 1
        if scene.label is None:
            continue
        rgb, dep, frame = preprocess(scene.rgb, scene.depth)
        px, py = learned.full_to_net_px(scene.label[0][0], scene.label[0][1], frame)
        if not (-0.5 <= px <= learned.IN_W - 0.5 and -0.5 <= py <= learned.IN_H - 0.5):
            continue
        out.append(LabeledScene(rgb, dep, (px, py), scene.label[1]))
    return out


@functools.cache
def acceptance_params() -> dict:
    """The acceptance recipe's trained parameters (make_dataset(0, 200), 50
    epochs, lr 1e-3, seed 0), trained once per session; read, never write."""
    return learned.train(make_dataset(0, 200), epochs=50, lr=1e-3, seed=0)[0]


def noisy_frame(rng, scene, sigma: float):
    """The scene's (rgb, depth) with sim._noisy_frame's pixel noise of sigma
    drawn from rng; sigma = 0 draws nothing and gives the scene's own images."""
    if sigma == 0:
        return scene.rgb, scene.depth
    return sim._noisy_frame(rng, scene.rgb, scene.depth, sigma,
                            np.empty(scene.depth.size),
                            (np.empty_like(scene.rgb),
                             np.empty_like(scene.depth)))


def control_steps(q0, start, cfg, n=1, arm=None, end=((0.55, -0.1, 0.01), 0.7)):
    """sim.run_control for n steps from q0 (on the bundled arm, or arm) on a
    plan from the pose start to end, a position and a yaw: the first step's
    target is start, with no feedforward. Returns (q after n steps, series
    (n, 2) of ||e_p||, ||e_o||)."""
    traj = trajectory.plan(start, *end, 0.0, n / cfg.control_rate)
    q, _, series = sim.run_control(arm or sim.arm_for(cfg), q0, [traj],
                                   dataclasses.replace(cfg, settle_time=0.0))
    return q[0], series[:, 0]


def rotation_error(R_d, R_e) -> np.ndarray:
    """so3's cross-product orientation error of R_d and R_e, single frames or
    stacks that broadcast, in buffers made for the call."""
    R_d, R_e = np.asarray(R_d, dtype=float), np.asarray(R_e, dtype=float)
    lead = np.broadcast_shapes(R_d.shape[:-2], R_e.shape[:-2])
    return so3.rotation_error_into(lead)(np.swapaxes(R_d, -1, -2), R_e, np.empty(lead + (3,)))


def is_rotation(R, tol=1e-9) -> bool:
    """True if R is orthonormal with determinant +1 within tol."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        return False
    ortho = np.linalg.norm(R.T @ R - np.eye(3))
    return ortho < tol and abs(np.linalg.det(R) - 1.0) < tol


def random_rotation(rng, max_angle=np.pi - 0.01) -> np.ndarray:
    w = rng.normal(size=3)
    w *= rng.uniform(0.0, max_angle) / np.linalg.norm(w)
    return so3.exp_so3(w)
