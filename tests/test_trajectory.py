from fractions import Fraction

import numpy as np
import pytest

from baggrasp import so3
from baggrasp.so3 import Pose
from baggrasp.trajectory import plan, sample, sample_times, stack
from conftest import is_rotation


def cubic_coeffs(t_i: float, t_f: float, x_i: float, x_f: float):
    """Oracle: (a, b, c, d) of x(t) = a + b t + c t^2 + d t^3 with
    x(t_i) = x_i, x(t_f) = x_f and zero end velocities, from a direct solve
    of the 4x4 boundary system in absolute time; the residual is asserted
    below 1e-10 to catch ill-conditioned time windows."""
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


def test_cubic_coeffs_unit_case():
    # Hand-solved boundary system for 0 -> 1 over [0, 1]: p(t) = 3t^2 - 2t^3.
    assert np.allclose(cubic_coeffs(0.0, 1.0, 0.0, 1.0), (0.0, 0.0, 3.0, -2.0),
                       atol=1e-12)


def test_cubic_coeffs_stationary():
    assert np.allclose(cubic_coeffs(1.0, 3.0, 0.7, 0.7), (0.7, 0.0, 0.0, 0.0),
                       atol=1e-12)


def test_cubic_coeffs_time_shift():
    rng = np.random.default_rng(0)
    for _ in range(20):
        t_i, dt = rng.uniform(0, 5), rng.uniform(0.5, 4)
        x_i, x_f = rng.uniform(-1, 1, 2)
        shift = rng.uniform(-3, 3)
        a = cubic_coeffs(t_i, t_i + dt, x_i, x_f)
        b = cubic_coeffs(t_i + shift, t_i + dt + shift, x_i, x_f)
        for frac in (0.0, 0.3, 0.77, 1.0):
            t = t_i + frac * dt
            va = a[0] + a[1] * t + a[2] * t ** 2 + a[3] * t ** 3
            ts = t + shift
            vb = b[0] + b[1] * ts + b[2] * ts ** 2 + b[3] * ts ** 3
            assert abs(va - vb) < 1e-9


def test_cubic_coeffs_bad_window():
    with pytest.raises(ValueError):
        cubic_coeffs(2.0, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="t_f must be > t_i"):
        _plan((0.2, 0.0, 0.3), 0.0, (0.6, 0.1), 0.3, t_i=2.0, t_f=2.0)


def _oracle_sample(traj, t):
    """p_d, pdot_d, the rotation vector and w_ff at time t from the 4x4
    solve per axis, the trajectory's leading axes flattened. The solve runs
    in window time t - t_i: in absolute time its coefficients already carry
    errors of a few 1e-12 at t_i = 10."""
    t = min(max(t, traj.t_i), traj.t_f) - traj.t_i
    powers = np.array([[1.0, t, t * t, t ** 3], [0.0, 1.0, 2.0 * t, 3.0 * t * t]])
    out = []
    for start, end in ((traj.p_start, traj.p_start + traj.p_delta),
                       (np.zeros_like(traj.w_final), traj.w_final)):
        coeffs = np.array([cubic_coeffs(0.0, traj.t_f - traj.t_i, a, b)
                           for a, b in zip(start.ravel(), end.ravel())])
        out.append(coeffs @ powers.T)  # (axes, 2): value and rate
    return out[0][:, 0], out[0][:, 1], out[1][:, 0], out[1][:, 1]


def test_closed_form_matches_cubic_solve():
    rng = np.random.default_rng(7)
    windows = [(10.0, 15.0)] + [(t_i, t_i + rng.uniform(0.5, 8))
                                for t_i in rng.uniform(0, 12, 49)]
    for k, (t_i, t_f) in enumerate(windows):
        trajs = [_plan(rng.uniform(-0.5, 0.5, 3), rng.uniform(-1.4, 1.4),
                       rng.uniform(-0.5, 0.5, 2), rng.uniform(-1.4, 1.4),
                       grasp_z=rng.uniform(0.0, 0.4), t_i=t_i, t_f=t_f)
                 for _ in range(3)]
        traj = stack(trajs[:1 + 2 * (k % 2)])  # stacks of B = 1 and 3
        ts = np.concatenate([[t_i, t_f, t_f + 1.0], rng.uniform(t_i, t_f, 5)])
        got = sample(traj, ts)
        for n, t in enumerate(ts):
            p_d, pdot_d, w, w_ff = _oracle_sample(traj, t)
            assert np.abs(got.p_d[n].ravel() - p_d).max() < 1e-12
            assert np.abs(got.pdot_d[n].ravel() - pdot_d).max() < 1e-12
            assert np.abs(got.w_ff[n].ravel() - w_ff).max() < 1e-12
            R_d = traj.R_start @ so3.exp_so3(w.reshape(traj.w_final.shape))
            assert np.abs(got.R_d[n] - R_d).max() < 1e-12


def test_closed_form_exact_far_from_origin():
    # The 4x4 solve loses digits as t_i grows; the closed form does not.
    # Oracle: s(tau) in exact rational arithmetic.
    rng = np.random.default_rng(8)
    for t_i in (0.0, 10.0, 1e3, 1e6):
        traj = _plan(rng.uniform(-0.5, 0.5, 3), 0.3, rng.uniform(-0.5, 0.5, 2),
                     -0.7, t_i=t_i, t_f=t_i + 5.0)
        for t in t_i + rng.uniform(0.0, 5.0, 10):
            tau = (Fraction(t) - Fraction(t_i)) / 5
            s = tau * tau * (3 - 2 * tau)
            p_d = [float(a + s * Fraction(b))
                   for a, b in zip(traj.p_start, traj.p_delta)]
            w = [float(s * Fraction(c)) for c in traj.w_final]
            R_d = traj.R_start @ so3.exp_so3(w)
            got = sample(traj, t)
            assert np.abs(got.p_d - p_d).max() < 1e-15
            assert np.abs(got.R_d - R_d).max() < 1e-15


def _plan(start_p, start_theta, target, theta, grasp_z=0.01, t_i=0.0, t_f=5.0):
    start = Pose(start_p, so3.grasp_orientation(start_theta))
    return plan(start, (target[0], target[1], grasp_z), theta, t_i, t_f)


def test_plan_stationary_target():
    traj = _plan((0.5, 0.1, 0.3), 0.4, (0.5, 0.1), 0.4, grasp_z=0.3)
    assert np.allclose(traj.p_delta, 0.0, atol=1e-12)
    assert np.allclose(traj.w_final, 0.0, atol=1e-12)


def test_plan_rotation_boundary_value():
    # Oracle: w_final = log(R_start^T R_final) computed with plain matrix ops.
    start_R = so3.GRIPPER_DOWN
    traj = _plan((0.5, 0.0, 0.3), 0.0, (0.5, 0.0), 0.5, grasp_z=0.3)
    w_final = traj.w_final
    oracle = so3.log_so3(start_R.T @ (so3.GRIPPER_DOWN @ so3.rot_z(0.5)))
    assert np.allclose(oracle, (0, 0, 0.5), atol=1e-12)
    assert np.allclose(w_final, oracle, atol=1e-9)


def test_plan_reaches_final_orientation():
    rng = np.random.default_rng(1)
    for _ in range(20):
        theta0, theta1 = rng.uniform(-1.2, 1.2, 2)
        traj = _plan((0.4, -0.1, 0.25), theta0, rng.uniform(0.3, 0.7, 2), theta1)
        R_f = so3.grasp_orientation(theta1)
        assert np.linalg.norm(sample(traj, traj.t_f).R_d - R_f) < 1e-9


def test_plan_rejects_half_turn():
    start = Pose((0.5, 0, 0.3), so3.exp_so3((np.pi - 1e-9, 0, 0)))
    with pytest.raises(ValueError, match="cannot plan"):
        plan(start, (0.5, 0.0, 0.01), 0.0, 0.0, 5.0)


def test_sample_at_start():
    traj = _plan((0.2, 0.3, 0.4), 0.1, (0.6, -0.1), -0.3, t_i=2.0, t_f=7.0)
    s = sample(traj, 2.0)
    assert np.allclose(s.p_d, (0.2, 0.3, 0.4), atol=1e-12)
    assert np.allclose(s.pdot_d, 0.0, atol=1e-12)
    assert np.allclose(s.R_d, so3.grasp_orientation(0.1), atol=1e-12)
    assert np.allclose(s.w_ff, 0.0, atol=1e-12)


def test_sample_midpoint_symmetry():
    traj = _plan((0.0, 0.0, 0.0), 0.0, (1.0, 0.0), 0.0, grasp_z=0.0,
                 t_i=0.0, t_f=1.0)
    assert abs(sample(traj, 0.5).p_d[0] - 0.5) < 1e-12


def test_sample_holds_beyond_end():
    traj = _plan((0.2, 0.0, 0.3), 0.0, (0.6, 0.1), 0.3)
    end = sample(traj, traj.t_f)
    late = sample(traj, traj.t_f + 10.0)
    assert np.array_equal(end.p_d, late.p_d)
    assert np.allclose(late.pdot_d, 0.0, atol=1e-12)
    assert np.allclose(late.w_ff, 0.0, atol=1e-12)


def test_boundary_conditions_random_sweep():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p0 = rng.uniform(-0.5, 0.5, 3)
        theta0, theta1 = rng.uniform(-1.4, 1.4, 2)
        target = rng.uniform(-0.5, 0.5, 2)
        gz = rng.uniform(0.0, 0.4)
        t_i = rng.uniform(0, 3)
        t_f = t_i + rng.uniform(0.5, 8)
        traj = _plan(p0, theta0, target, theta1, grasp_z=gz, t_i=t_i, t_f=t_f)
        s0, s1 = sample(traj, t_i), sample(traj, t_f)
        assert np.linalg.norm(s0.p_d - p0) < 1e-9
        assert np.linalg.norm(s1.p_d - (target[0], target[1], gz)) < 1e-9
        assert np.linalg.norm(s0.pdot_d) < 1e-9
        assert np.linalg.norm(s1.pdot_d) < 1e-9
        assert np.linalg.norm(s0.w_ff) < 1e-9 and np.linalg.norm(s1.w_ff) < 1e-9
        assert np.allclose(s1.R_d[:, 2], (0, 0, -1), atol=1e-9)


def test_rotation_valid_along_trajectory():
    traj = _plan((0.3, 0.2, 0.4), -0.8, (0.6, -0.2), 1.1)
    for t in np.linspace(traj.t_i, traj.t_f, 40):
        assert is_rotation(sample(traj, t).R_d, tol=1e-9)


def test_monotone_no_overshoot():
    traj = _plan((0.2, 0.0, 0.3), 0.0, (0.7, 0.0), 0.0, grasp_z=0.3,
                 t_i=0.0, t_f=4.0)
    xs = [sample(traj, t).p_d[0] for t in np.linspace(0.0, 4.0, 200)]
    assert all(0.2 - 1e-12 <= x <= 0.7 + 1e-12 for x in xs)
    assert all(b >= a - 1e-12 for a, b in zip(xs, xs[1:]))


def test_sample_times_covers_endpoint():
    traj = _plan((0.2, 0.0, 0.3), 0.0, (0.6, 0.1), 0.3, t_i=1.0, t_f=2.05)
    ts = sample_times(traj, 10.0)
    assert ts[0] == 1.0 and ts[-1] == 2.05
