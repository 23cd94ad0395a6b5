"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import time
from dataclasses import replace

import numpy as np
import pytest

from baggrasp import classical, denoise, image_io, kinematics, learned, sim, so3, trajectory
from baggrasp.classical import GraspProposal, workspace_to_pixel
from baggrasp.cli import main
from baggrasp.config import PipelineConfig
from baggrasp.so3 import Pose
from conftest import acceptance_params, make_dataset, noisy_frame, rotation_error

ARM = kinematics.load_arm(kinematics.default_arm_path())


def _report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_so3_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(1000):
        w = rng.normal(size=3)
        w *= rng.uniform(0.0, np.pi - 0.01) / np.linalg.norm(w)
        worst = max(worst, float(np.linalg.norm(
            so3.log_so3(so3.exp_so3(w)) - w)))
    mag_ok = all(
        abs(np.linalg.norm(rotation_error(so3.rot_z(phi), np.eye(3)))
            - 2.0 * np.sin(phi)) < 1e-9
        for phi in np.arange(0.1, 1.51, 0.1))
    elapsed = time.monotonic() - t0
    _report("so3 exp/log round trip < 1e-9 and |e_o| = 2 sin(phi), < 1 s",
            worst < 1e-9 and mag_ok and elapsed < 1.0,
            f"worst {worst:.2e}, {elapsed:.2f} s")


def test_trajectory_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_bc, worst_rot, worst_down = 0.0, 0.0, 0.0
    for _ in range(100):
        start = Pose(rng.uniform(-0.5, 0.5, 3),
                     so3.grasp_orientation(rng.uniform(-1.4, 1.4)))
        theta = rng.uniform(-np.pi / 2 + 0.05, np.pi / 2)
        prop = GraspProposal(*rng.uniform(-0.5, 0.5, 2), theta, 0.0)
        t_i = rng.uniform(0.0, 3.0)
        t_f = t_i + rng.uniform(0.5, 8.0)
        gz = rng.uniform(0.0, 0.4)
        traj = trajectory.plan(start, (prop.x, prop.y, gz), prop.theta, t_i, t_f)
        s0, s1 = trajectory.sample(traj, t_i), trajectory.sample(traj, t_f)
        worst_bc = max(
            worst_bc,
            float(np.linalg.norm(s0.p_d - start.p)),
            float(np.linalg.norm(s1.p_d - (prop.x, prop.y, gz))),
            float(np.linalg.norm(s0.pdot_d)), float(np.linalg.norm(s1.pdot_d)),
            float(np.linalg.norm(s0.w_ff)), float(np.linalg.norm(s1.w_ff)))
        R_f = so3.grasp_orientation(theta)
        worst_rot = max(worst_rot, float(np.linalg.norm(s1.R_d - R_f)))
        worst_down = max(worst_down,
                         float(np.linalg.norm(s1.R_d[:, 2] - (0, 0, -1))))
    elapsed = time.monotonic() - t0
    _report("trajectory boundary conditions < 1e-9 over 100 plans, < 1 s",
            worst_bc < 1e-9 and worst_rot < 1e-9 and worst_down < 1e-9
            and elapsed < 1.0,
            f"bc {worst_bc:.2e}, rot {worst_rot:.2e}, {elapsed:.2f} s")


def test_kinematics_suite():
    rng = np.random.default_rng(102)
    delta = 1e-6
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(ARM.limits[:, 0] * 0.6, ARM.limits[:, 1] * 0.6)
        J = kinematics.fk_and_jacobian(ARM, q)[1]
        J_fd = np.zeros_like(J)
        for j in range(7):
            dq = np.zeros(7)
            dq[j] = delta
            plus = kinematics.fk(ARM, q + dq)
            minus = kinematics.fk(ARM, q - dq)
            J_fd[:3, j] = (plus.p - minus.p) / (2 * delta)
            J_fd[3:, j] = so3.log_so3(plus.R @ minus.R.T) / (2 * delta)
        worst = max(worst, float(np.abs(J - J_fd).max() / np.abs(J_fd).max()))
    mp_ok = True
    for _ in range(50):
        J = rng.normal(size=(6, 7))
        J_plus = np.linalg.solve(J @ J.T, J).T
        mp_ok &= bool(np.linalg.norm(J @ J_plus @ J - J) < 1e-8)
    _report("jacobian vs finite differences < 1e-5; J J+ J = J < 1e-8",
            worst < 1e-5 and mp_ok, f"worst fd rel {worst:.2e}")


def test_closed_loop_convergence():
    t0 = time.monotonic()
    cfg = PipelineConfig(duration=2.0)
    rng = np.random.default_rng(103)
    start = kinematics.fk(ARM, sim.HOME_Q)
    converged = 0
    worst_pos, worst_yaw = 0.0, 0.0
    targets = [GraspProposal(rng.uniform(0.48, 0.75), rng.uniform(-0.15, 0.15),
                             rng.uniform(-np.pi / 2 + 0.01, np.pi / 2), 0.0)
               for _ in range(100)]
    trajs = [trajectory.plan(start, (target.x, target.y, cfg.grasp_z), target.theta,
                             0.0, cfg.duration) for target in targets]
    q_final, _, _ = sim.run_control(ARM, sim.HOME_Q, trajs, cfg)
    for target, q in zip(targets, q_final):
        pose = kinematics.fk(ARM, q)
        pos_err = float(np.linalg.norm(
            pose.p - (target.x, target.y, cfg.grasp_z)))
        yaw_err = float(np.linalg.norm(so3.log_so3(
            pose.R.T @ so3.grasp_orientation(target.theta))))
        worst_pos, worst_yaw = max(worst_pos, pos_err), max(worst_yaw, yaw_err)
        converged += pos_err < 1e-3 and yaw_err < np.radians(0.5)
    elapsed = time.monotonic() - t0
    _report("closed loop kp=0.8 kd=0.4 at 100 Hz: >= 99/100 converged, < 30 s",
            converged >= 99 and elapsed < 30.0,
            f"{converged}/100, worst pos {worst_pos:.1e} m, "
            f"worst yaw {np.degrees(worst_yaw):.2e} deg, {elapsed:.1f} s")


def test_classical_vision():
    cfg = PipelineConfig()
    hits = 0
    for seed in range(50):
        scene = sim.generate_scene(seed, cfg)
        try:
            prop = classical.classical_pipeline(scene.rgb, cfg)
        except classical.VisionError:
            continue
        if np.linalg.norm(workspace_to_pixel(prop.target, cfg) - scene.label[0]) <= 10.0:
            hits += 1

    step = np.zeros((20, 30))
    step[:, 15:] = 1.0
    from test_classical import _mask, _poly_with, _select_grasp_oracle
    cols = np.unique(np.nonzero(_mask(classical.canny(step, 0.1, 0.2), step.shape))[1])
    edge_ok = len(cols) == 1 and abs(int(cols[0]) - 15) <= 1

    rng = np.random.default_rng(104)
    brute_ok = True
    for _ in range(200):
        center, radius = rng.uniform(20, 80, 2), rng.uniform(5, 25)
        polys = [_poly_with(rng.uniform(0, 100, 2), rng.uniform(20, 150))
                 for _ in range(rng.integers(1, 50))]
        try:
            got = classical.select_grasp(polys, center, radius, 60.0)
        except classical.NoViableContour:
            continue
        want = _select_grasp_oracle(polys, center, radius, 60.0)
        brute_ok &= bool(np.allclose(got[0], want[0], atol=1e-12)
                         and got[1] == want[1])
    _report("classical vision: >= 45/50 within 10 px; step edge +-1 px; "
            "select_grasp = brute force x200",
            hits >= 45 and edge_ok and brute_ok, f"{hits}/50 hits")


def test_denoiser():
    from test_denoise import _brute_force_components, _membership, prop

    rng = np.random.default_rng(105)
    oracle_ok = True
    for _ in range(500):
        n = int(rng.integers(1, 21))
        props = [prop(rng.uniform(0, 0.2), rng.uniform(0, 0.2))
                 for _ in range(n)]
        threshold = rng.uniform(0.0, 0.1)
        got = _membership(props, denoise.cluster(props, threshold))
        oracle_ok &= got == _brute_force_components(props, threshold)

    cfg = PipelineConfig(noise_sigma=2.0)
    denoised_d, median_d = [], []
    for seed in range(20):
        scene = sim.generate_scene(seed, cfg)
        rng_noise = np.random.default_rng([seed, 1])
        stream, frame_d = [], []
        for k in range(10):
            rgb, _ = noisy_frame(rng_noise, scene, 2.0)
            try:
                p = replace(classical.classical_pipeline(rgb, cfg), t=float(k))
            except classical.VisionError:
                continue
            stream.append(p)
            frame_d.append(float(np.linalg.norm(
                workspace_to_pixel(p.target, cfg) - scene.label[0])))
        final = denoise.denoise(stream, cfg.window, cfg.window,
                                cfg.distance_threshold)
        denoised_d.append(float(np.linalg.norm(
            workspace_to_pixel(final.target, cfg) - scene.label[0])))
        median_d.append(float(np.median(frame_d)))
    benefit = float(np.mean(denoised_d)) <= float(np.mean(median_d))
    _report("denoiser: single-linkage = transitive closure x500; "
            "denoised beats median under sigma=2 noise",
            oracle_ok and benefit,
            f"mean denoised {np.mean(denoised_d):.3f} px vs "
            f"median {np.mean(median_d):.3f} px")


def test_learned_vision():
    t0 = time.monotonic()
    # Gradients against central differences, every parameter. Seeds chosen so
    # no relu/L1 kink falls inside the probe interval (see decisions notes on
    # epsilon vs kink density).
    scenes = make_dataset(2000, 4)
    rgb, dep, labels = learned.batch_tensors(scenes)
    params = learned.init_params(8)
    _, grads = learned.backward(params, rgb, dep, labels)
    eps = 1e-4
    worst = 0.0

    # The branches do not read the head's parameters, and a branch parameter
    # moves only its own branch's embedding: perturbing a head parameter
    # moves only forward_batch's two head expressions, run here on its emb,
    # and perturbing a branch parameter re-runs that branch alone, adding the
    # other's unperturbed embedding in forward_batch's order.
    inputs, parts = {"rgb": rgb, "dep": dep}, ("k1", "b1", "k2", "b2")

    def branch(name):
        return learned._branch_forward(inputs[name], *(params[f"{name}_{p}"]
                                                       for p in parts))[0]
    embs = {name: branch(name) for name in inputs}
    head = {"pos_w", "pos_b", "theta_w", "theta_b"}

    def loss_only(name):
        moved = embs if name in head else {**embs, name[:3]: branch(name[:3])}
        emb = moved["rgb"] + moved["dep"]
        pos = emb @ params["pos_w"].T + params["pos_b"]
        theta = emb @ params["theta_w"].T + params["theta_b"]
        return learned.l1_loss(np.concatenate([pos, theta], axis=1), labels)[0]

    def full_loss():
        pos, theta, _ = learned.forward_batch(params, rgb, dep)
        return learned.l1_loss(np.concatenate([pos, theta], axis=1), labels)[0]

    assert set(learned._SHAPES) == head | {f"{b}_{p}" for b in inputs for p in parts}
    for name in ("pos_w", "theta_b", "rgb_k1", "rgb_b2", "dep_k1", "dep_b2"):
        old = params[name].flat[0]
        for value in (old, old + eps):
            params[name].flat[0] = value
            assert loss_only(name) == full_loss(), (name, value)
        params[name].flat[0] = old
    for name in learned._SHAPES:
        arr = params[name].reshape(-1)
        g = grads[name].reshape(-1)
        for i in range(arr.size):
            old = arr[i]
            arr[i] = old + eps
            lp = loss_only(name)
            arr[i] = old - eps
            lm = loss_only(name)
            arr[i] = old
            num = (lp - lm) / (2 * eps)
            worst = max(worst, abs(num - g[i])
                        / max(max(abs(num), abs(g[i])), 1e-8))
    grad_ok = worst < 1e-4

    dataset = make_dataset(0, 200)
    initial = learned.training_loss(learned.init_params(0), dataset)
    trained = acceptance_params()
    final = learned.training_loss(trained, dataset)
    halved = final < 0.5 * initial

    small = dataset[:5]
    over, _ = learned.train(small, epochs=500, lr=1e-3, seed=2)
    s_rgb, s_dep, s_labels = learned.batch_tensors(small)
    pos, _, _ = learned.forward_batch(over, s_rgb, s_dep)
    px_err = np.hypot((pos[:, 0] - s_labels[:, 0]) * (learned.IN_W - 1),
                      (pos[:, 1] - s_labels[:, 1]) * (learned.IN_H - 1))
    overfit_ok = float(px_err.mean()) < 2.0

    again, _ = learned.train(dataset[:20], epochs=3, lr=1e-3, seed=9)
    again2, _ = learned.train(dataset[:20], epochs=3, lr=1e-3, seed=9)
    deterministic = all(np.array_equal(a, b)
                        for a, b in zip(again.values(), again2.values()))

    elapsed = time.monotonic() - t0
    _report("learned vision: gradcheck < 1e-4; 50-epoch halving; "
            "5-sample overfit < 2 px; deterministic; < 5 min",
            grad_ok and halved and overfit_ok and deterministic
            and elapsed < 300.0,
            f"gradcheck {worst:.2e}, loss {initial:.3f}->{final:.3f}, "
            f"overfit {px_err.mean():.2f} px, {elapsed:.0f} s")


def test_file_formats(tmp_path):
    rng = np.random.default_rng(106)
    rgb = rng.integers(0, 256, (9, 13, 3), dtype=np.uint8)
    dep = rng.integers(0, 65536, (6, 4), dtype=np.uint16)
    image_io.save_ppm(rgb, tmp_path / "a.ppm")
    image_io.save_ppm(image_io.load_ppm(tmp_path / "a.ppm"), tmp_path / "b.ppm")
    ppm_ok = (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()
    image_io.save_pgm(dep, tmp_path / "a.pgm")
    image_io.save_pgm(image_io.load_pgm(tmp_path / "a.pgm"), tmp_path / "b.pgm")
    pgm_ok = (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()

    params = learned.init_params(0)
    learned.save_params(params, tmp_path / "p1.bin")
    learned.save_params(learned.load_params(tmp_path / "p1.bin"),
                        tmp_path / "p2.bin")
    par_ok = (tmp_path / "p1.bin").read_bytes() \
        == (tmp_path / "p2.bin").read_bytes()

    rejects = []
    fixtures = {
        "bad_magic.ppm": b"P3\n1 1\n255\n\xff\xff\xff",
        "bad_header.ppm": b"P6\nx 1\n255\n\xff\xff\xff",
        "truncated.ppm": b"P6\n2 2\n255\n\xff",
        "bad_maxval.pgm": b"P5\n1 1\n255\n\x00",
        "truncated.pgm": b"P5\n2 2\n65535\n\x00\x01",
    }
    messages = set()
    for name, payload in fixtures.items():
        path = tmp_path / name
        path.write_bytes(payload)
        loader = image_io.load_ppm if name.endswith(".ppm") else image_io.load_pgm
        try:
            loader(path)
            rejects.append(name)
        except image_io.FormatError as err:
            messages.add(str(err).split(":", 2)[-1])
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTPARAM" + b"\x00" * 64)
    try:
        learned.load_params(bad)
        rejects.append("bad.bin")
    except ValueError as err:
        messages.add(str(err))
    distinct = len(messages) == len(fixtures) + 1
    _report("file formats: byte-identical round trips; malformed fixtures "
            "rejected with distinct errors",
            ppm_ok and pgm_ok and par_ok and not rejects and distinct,
            f"{len(messages)} distinct errors")


def test_end_to_end_determinism(tmp_path, capsys):
    for name in ("a", "b"):
        assert main(["simulate", "--seed", "7",
                     "--out", str(tmp_path / name)]) == 0
        assert main(["simulate", "--seed", "7", "--batch", "3",
                     "--out", str(tmp_path / name / "batch")]) == 0
    capsys.readouterr()
    report_ok = (tmp_path / "a" / "report.json").read_bytes() \
        == (tmp_path / "b" / "report.json").read_bytes()
    summary_ok = (tmp_path / "a" / "batch" / "summary.csv").read_bytes() \
        == (tmp_path / "b" / "batch" / "summary.csv").read_bytes()
    _report("end-to-end determinism: seed 7 twice -> bit-identical "
            "report.json and summary.csv", report_ok and summary_ok)
