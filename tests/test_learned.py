import math

import numpy as np
import pytest

from baggrasp import learned
from baggrasp.config import InputError
from baggrasp.learned import (backward, batch_tensors, forward_batch,
                              init_params, l1_loss, load_params, save_params,
                              train)
from conftest import make_dataset


# --- layer primitives ---

def conv2d_forward(x, kernel, bias, stride=1):
    """The model's batched convolution applied to one (channels, h, w) input."""
    out, _ = learned._conv_forward(x.transpose(1, 2, 0)[None], kernel, bias, stride)
    return out[0].transpose(2, 0, 1)


def test_conv_ones():
    x = np.ones((1, 3, 3))
    k = np.ones((1, 1, 2, 2))
    out = conv2d_forward(x, k, np.zeros(1), stride=1)
    assert out.shape == (1, 2, 2)
    assert np.array_equal(out[0], np.full((2, 2), 4.0))


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 5, 6))
    k = np.ones((1, 1, 1, 1))
    assert np.allclose(conv2d_forward(x, k, np.zeros(1)), x, atol=1e-15)


def _conv_oracle(x, k, b, stride):
    ic, h, w = x.shape
    oc, _, kh, kw = k.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.zeros((oc, oh, ow))
    for o in range(oc):
        for yo in range(oh):
            for xo in range(ow):
                acc = b[o]
                for c in range(ic):
                    for dy in range(kh):
                        for dx in range(kw):
                            acc += k[o, c, dy, dx] * x[c, yo * stride + dy,
                                                       xo * stride + dx]
                out[o, yo, xo] = acc
    return out


def test_conv_against_quadruple_loop():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 9, 11))
    k = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    for stride in (1, 2):
        assert np.allclose(conv2d_forward(x, k, b, stride),
                           _conv_oracle(x, k, b, stride), atol=1e-10)


def test_conv_shape_mismatch():
    with pytest.raises(ValueError):
        conv2d_forward(np.zeros((2, 5, 5)), np.zeros((1, 3, 3, 3)), np.zeros(1))
    with pytest.raises(ValueError):
        conv2d_forward(np.zeros((1, 2, 2)), np.zeros((1, 1, 3, 3)), np.zeros(1))


def test_conv_shape_mismatch_names_its_check():
    with pytest.raises(ValueError, match="2 channels, kernel expects 3"):
        conv2d_forward(np.zeros((2, 5, 5)), np.zeros((1, 3, 3, 3)), np.zeros(1))
    with pytest.raises(ValueError, match="kernel 3x3 does not fit input 2x2"):
        conv2d_forward(np.zeros((1, 2, 2)), np.zeros((1, 1, 3, 3)), np.zeros(1))


def _conv_backward_oracle(x, k, dout, stride):
    """Loops over every output and tap of a channel-last convolution:
    (dx, dkernel, dbias) for x (n, h, w, ic) and dout (n, oh, ow, oc)."""
    n, oh, ow, oc = dout.shape
    _, ic, kh, kw = k.shape
    dx, dk = np.zeros(x.shape), np.zeros(k.shape)
    for b in range(n):
        for yo in range(oh):
            for xo in range(ow):
                for o in range(oc):
                    g = dout[b, yo, xo, o]
                    for dy in range(kh):
                        for dxx in range(kw):
                            y, xx = yo * stride + dy, xo * stride + dxx
                            dk[o, :, dy, dxx] += g * x[b, y, xx]
                            dx[b, y, xx] += g * k[o, :, dy, dxx]
    return dx, dk, dout.sum(axis=(0, 1, 2))


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_backward_against_loops(stride):
    rng = np.random.default_rng(10 + stride)
    x = rng.normal(size=(2, 9, 11, 3))
    k = rng.normal(size=(4, 3, 3, 3))
    out, cols = learned._conv_forward(x, k, rng.normal(size=4), stride)
    dout = rng.normal(size=out.shape)
    want = _conv_backward_oracle(x, k, dout, stride)
    got = learned._conv_backward(dout, cols, x.shape, k, stride)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.allclose(g, w, rtol=1e-12, atol=1e-12)
    dx, dk, db = learned._conv_backward(dout, cols, None, k, stride)
    assert dx is None
    assert np.array_equal(dk, got[1]) and np.array_equal(db, got[2])


# The model's channel-first (NCHW) convolution and branch code before its
# internals went channel-last, with an einsum weight gradient: the oracle
# that the channel-last `backward` must match.

def _nchw_im2col(x, kh, kw, stride):
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, (n, c, out_h, out_w, kh, kw),
        (s0, s1, s2 * stride, s3 * stride, s2, s3), writeable=False)
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
    return cols.reshape(n, out_h * out_w, c * kh * kw), out_h, out_w


def _nchw_conv_forward(x, kernel, bias, stride):
    n = x.shape[0]
    oc, ic, kh, kw = kernel.shape
    cols, out_h, out_w = _nchw_im2col(x, kh, kw, stride)
    flat = cols @ kernel.reshape(oc, -1).T + bias
    return flat.transpose(0, 2, 1).reshape(n, oc, out_h, out_w), cols


def _nchw_conv_backward(dout, cols, x_shape, kernel, stride):
    n, oc, out_h, out_w = dout.shape
    _, ic, kh, kw = kernel.shape
    dflat = dout.reshape(n, oc, out_h * out_w).transpose(0, 2, 1)
    dkernel = np.einsum("npo,npk->ok", dflat, cols).reshape(kernel.shape)
    dbias = dflat.sum(axis=(0, 1))
    dcols = (dflat @ kernel.reshape(oc, -1)).reshape(n, out_h, out_w, ic, kh, kw)
    dx = np.zeros(x_shape)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i:i + out_h * stride:stride, j:j + out_w * stride:stride] \
                += dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return dx, dkernel, dbias


def _nchw_branch(x, k1, b1, k2, b2):
    """(embedding, backward function of the embedding's gradient)."""
    h1, cols1 = _nchw_conv_forward(x, k1, b1, learned.STRIDE)
    a1 = np.maximum(h1, 0.0)
    h2, cols2 = _nchw_conv_forward(a1, k2, b2, learned.STRIDE)
    a2 = np.maximum(h2, 0.0)

    def back(demb):
        dh2 = demb.reshape(a2.shape) * (h2 > 0.0)
        da1, dk2, db2 = _nchw_conv_backward(dh2, cols2, a1.shape, k2, learned.STRIDE)
        _, dk1, db1 = _nchw_conv_backward(da1 * (h1 > 0.0), cols1, x.shape, k1,
                                          learned.STRIDE)
        return dk1, db1, dk2, db2

    return a2.reshape(x.shape[0], -1), back


def _nchw_backward(params, rgb, dep, labels):
    emb_rgb, back_rgb = _nchw_branch(rgb, *(params[f"rgb_{k}"] for k in ("k1", "b1", "k2", "b2")))
    emb_dep, back_dep = _nchw_branch(dep, *(params[f"dep_{k}"] for k in ("k1", "b1", "k2", "b2")))
    emb = emb_rgb + emb_dep
    pos = emb @ params["pos_w"].T + params["pos_b"]
    theta = emb @ params["theta_w"].T + params["theta_b"]
    loss, dpred = l1_loss(np.concatenate([pos, theta], axis=1), labels)
    dpos, dtheta = dpred[:, :2], dpred[:, 2:]
    demb = dpos @ params["pos_w"] + dtheta @ params["theta_w"]
    grads = (*back_rgb(demb), *back_dep(demb), dpos.T @ emb, dpos.sum(axis=0),
             dtheta.T @ emb, dtheta.sum(axis=0))
    return loss, dict(zip(learned._SHAPES, grads))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backward_matches_channel_first_oracle(seed):
    rng = np.random.default_rng(20 + seed)
    params = init_params(seed)
    for name in ("rgb_b1", "rgb_b2", "dep_b1", "dep_b2"):
        params[name][:] = rng.normal(0.0, 0.1, params[name].shape)
    n = 1 + seed * 3
    rgb = rng.uniform(0, 1, (n, 36, 64, 3))
    dep = rng.uniform(0.5, 1, (n, 36, 64, 1))
    labels = rng.uniform(-1, 1, (n, 3))
    loss, grads = backward(params, rgb, dep, labels)
    want_loss, want = _nchw_backward(params, rgb.transpose(0, 3, 1, 2),
                                     dep.transpose(0, 3, 1, 2), labels)
    assert np.isclose(loss, want_loss, rtol=1e-12, atol=0)
    for name, shape in learned._SHAPES.items():
        assert grads[name].shape == shape
        # Entries that cancel to near zero are held to 1e-12 of the largest.
        np.testing.assert_allclose(grads[name], want[name], rtol=1e-12,
                                   atol=1e-12 * np.abs(want[name]).max(), err_msg=name)


# --- model forward ---

def _zero_params():
    return {name: np.zeros(s) for name, s in learned._SHAPES.items()}


def _forward_one(params, rgb, dep):
    """One scene through forward_batch: ((2,) position, (1,) angle)."""
    pos, theta, _ = forward_batch(params, rgb[None], dep[None])
    return pos[0], theta[0]


def test_forward_zero_params_returns_biases():
    params = _zero_params()
    params["pos_b"][:] = (0.25, -0.5)
    params["theta_b"][:] = 0.125
    pos, theta = _forward_one(params, np.zeros((36, 64, 3)), np.zeros((36, 64, 1)))
    assert np.array_equal(pos, (0.25, -0.5))
    assert np.array_equal(theta, (0.125,))


def test_forward_output_shapes():
    params = init_params(0)
    pos, theta = _forward_one(params, np.zeros((36, 64, 3)), np.zeros((36, 64, 1)))
    assert pos.shape == (2,) and theta.shape == (1,)


def test_forward_rejects_wrong_dims():
    params = init_params(0)
    with pytest.raises(ValueError, match=r"inputs must be \(n,36,64,3\) and \(n,36,64,1\)"):
        _forward_one(params, np.zeros((36, 63, 3)), np.zeros((36, 64, 1)))
    # The channel-first layout of the same pixels is rejected, not misread.
    with pytest.raises(ValueError, match="inputs must be"):
        _forward_one(params, np.zeros((3, 36, 64)), np.zeros((1, 36, 64)))


def test_forward_head_linearity_in_embedding():
    # With zero biases the network is positively homogeneous, so doubling the
    # inputs doubles both branch embeddings and hence both head outputs.
    rng = np.random.default_rng(3)
    params = init_params(3)
    for name in ("rgb_b1", "rgb_b2", "dep_b1", "dep_b2", "pos_b", "theta_b"):
        params[name][:] = 0.0
    rgb = rng.uniform(0, 1, (36, 64, 3))
    dep = rng.uniform(0, 1, (36, 64, 1))
    pos1, th1 = _forward_one(params, rgb, dep)
    pos2, th2 = _forward_one(params, 2 * rgb, 2 * dep)
    assert np.allclose(pos2, 2 * pos1, atol=1e-9)
    assert np.allclose(th2, 2 * th1, atol=1e-9)


# --- loss and gradients ---

def test_l1_loss_zero_at_equality():
    pred = np.array([1.0, 2.0, 3.0])
    loss, grad = l1_loss(pred, pred.copy())
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros(3))


def test_l1_loss_arithmetic():
    loss, grad = l1_loss(np.array([1.0, -1.0, 2.0]), np.zeros(3))
    assert abs(loss - 4.0 / 3.0) < 1e-15
    assert set(np.round(grad, 12)) <= {round(-1 / 3, 12), 0.0, round(1 / 3, 12)}


def test_backward_zero_loss_gives_zero_grads():
    params = init_params(1)
    rng = np.random.default_rng(4)
    rgb = rng.uniform(0, 1, (2, 36, 64, 3))
    dep = rng.uniform(0, 1, (2, 36, 64, 1))
    pos, theta, _ = forward_batch(params, rgb, dep)
    labels = np.concatenate([pos, theta], axis=1)
    loss, grads = backward(params, rgb, dep, labels)
    assert loss == 0.0
    for arr in grads.values():
        assert np.array_equal(arr, np.zeros_like(arr))


def test_backward_untouched_head_gets_zero_grad():
    # Make only the angle output carry loss: its gradient must not leak into
    # the position head, and vice versa.
    params = init_params(1)
    rng = np.random.default_rng(5)
    rgb = rng.uniform(0, 1, (2, 36, 64, 3))
    dep = rng.uniform(0, 1, (2, 36, 64, 1))
    pos, theta, _ = forward_batch(params, rgb, dep)
    labels = np.concatenate([pos, theta + 1.0], axis=1)
    _, grads = backward(params, rgb, dep, labels)
    assert np.array_equal(grads["pos_w"], np.zeros_like(grads["pos_w"]))
    assert np.array_equal(grads["pos_b"], np.zeros_like(grads["pos_b"]))
    assert not np.array_equal(grads["theta_w"], np.zeros_like(grads["theta_w"]))


def test_backward_sampled_finite_differences():
    # Full-parameter check lives in the acceptance suite; here a sampled
    # probe per array. Seeds chosen with pre-activations clear of the
    # relu/L1 kinks at the probe size.
    scenes = make_dataset(2000, 4)
    rgb, dep, labels = batch_tensors(scenes)
    params = init_params(8)
    _, grads = backward(params, rgb, dep, labels)
    eps = 1e-4
    rng = np.random.default_rng(6)
    for name in learned._SHAPES:
        arr = params[name].reshape(-1)
        g = grads[name].reshape(-1)
        for i in rng.choice(arr.size, size=min(10, arr.size), replace=False):
            old = arr[i]
            arr[i] = old + eps
            lp, _ = backward(params, rgb, dep, labels)
            arr[i] = old - eps
            lm, _ = backward(params, rgb, dep, labels)
            arr[i] = old
            num = (lp - lm) / (2 * eps)
            rel = abs(num - g[i]) / max(max(abs(num), abs(g[i])), 1e-8)
            assert rel < 1e-4, f"{name}[{i}]: rel {rel}"


# --- training ---

def test_train_zero_epochs_returns_init():
    scenes = make_dataset(0, 4)
    params, losses = train(scenes, epochs=0, seed=7)
    init = init_params(7)
    assert losses == []
    for a, b in zip(params.values(), init.values()):
        assert np.array_equal(a, b)


def test_train_deterministic():
    scenes = make_dataset(0, 8)
    p1, l1 = train(scenes, epochs=3, seed=5)
    p2, l2 = train(scenes, epochs=3, seed=5)
    assert l1 == l2
    for a, b in zip(p1.values(), p2.values()):
        assert np.array_equal(a, b)


def test_train_20_scenes_halves_loss():
    scenes = make_dataset(0, 20)
    initial = learned.training_loss(init_params(0), scenes)
    params, _ = train(scenes, epochs=50, lr=1e-3, seed=0)
    assert learned.training_loss(params, scenes) < 0.5 * initial


def test_train_empty_dataset():
    with pytest.raises(ValueError):
        train([], epochs=1)


def test_init_params_matches_bias_names_oracle():
    # The biases are the 1-d entries, named *_b1, *_b2 and *_b.
    for seed in (0, 7):
        rng = np.random.default_rng(seed)
        for name, arr in init_params(seed).items():
            shape = learned._SHAPES[name]
            if name.endswith(("_b1", "_b2", "_b")):
                want = np.zeros(shape)
            else:
                want = rng.normal(0.0, np.sqrt(2.0 / np.prod(shape[1:])), shape)
            assert np.array_equal(arr, want), name


@pytest.mark.parametrize("n, epochs, lr", [(8, 4, 1e300), (4, 1, math.inf)],
                         ids=["lr=1e300", "lr=inf"])
def test_train_divergence_raises(n, epochs, lr):
    # lr=1e300 makes epoch 0's mean loss NaN; lr=inf keeps the one batch's
    # loss finite but leaves non-finite parameters.
    with np.errstate(all="ignore"):  # no RuntimeWarning to raise instead
        with pytest.raises(FloatingPointError,
                           match="training diverged in epoch 0"):
            train(make_dataset(0, n), epochs=epochs, lr=lr)


def test_train_non_finite_loss_with_finite_params_raises(monkeypatch):
    zero_grads = {name: np.zeros(shape) for name, shape in learned._SHAPES.items()}
    monkeypatch.setattr(learned, "backward", lambda *args: (math.inf, zero_grads))
    with pytest.raises(FloatingPointError, match="training diverged in epoch 0"):
        train(make_dataset(0, 4), epochs=2)


# --- params file ---

def test_params_round_trip_bytes(tmp_path):
    params = init_params(9)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_params(params, p1)
    save_params(load_params(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_params_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    save_params(init_params(0), p)
    data = bytearray(p.read_bytes())
    data[:4] = b"XXXX"
    p.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="magic"):
        load_params(p)


def test_params_missing_path_is_input_error(tmp_path):
    with pytest.raises(InputError, match="nope.bin: cannot read params file"):
        load_params(tmp_path / "nope.bin")


def test_params_truncated(tmp_path):
    p = tmp_path / "short.bin"
    save_params(init_params(0), p)
    p.write_bytes(p.read_bytes()[:100])
    with pytest.raises(ValueError, match="truncated"):
        load_params(p)


# Cut inside the array count, and inside the first array's ndim and dims.
@pytest.mark.parametrize("length", [10, 14, 20])
def test_params_truncated_inside_a_header_struct(tmp_path, length):
    p = tmp_path / "short.bin"
    save_params(init_params(0), p)
    p.write_bytes(p.read_bytes()[:length])
    with pytest.raises(InputError, match="short.bin: truncated params file"):
        load_params(p)


def test_params_wrong_array_count(tmp_path):
    import struct

    p = tmp_path / "count.bin"
    save_params(init_params(0), p)
    data = bytearray(p.read_bytes())
    data[8:12] = struct.pack("<I", len(learned._SHAPES) - 1)
    p.write_bytes(bytes(data))
    with pytest.raises(InputError, match="count.bin: expected 12 arrays, got 11"):
        load_params(p)


def test_params_trailing_bytes(tmp_path):
    p = tmp_path / "long.bin"
    save_params(init_params(0), p)
    p.write_bytes(p.read_bytes() + bytes(8))
    with pytest.raises(InputError, match="long.bin: 8 bytes after the last array"):
        load_params(p)


def test_params_shape_mismatch(tmp_path):
    import struct

    p = tmp_path / "shape.bin"
    chunks = [learned._MAGIC, struct.pack("<I", len(learned._SHAPES))]
    for i, shape in enumerate(learned._SHAPES.values()):
        if i == 0:
            shape = (4,) + shape[1:]  # wrong out-channel count
        chunks.append(struct.pack("<I", len(shape)))
        chunks.append(struct.pack(f"<{len(shape)}I", *shape))
        chunks.append(np.zeros(shape).tobytes())
    p.write_bytes(b"".join(chunks))
    with pytest.raises(ValueError, match="shape"):
        load_params(p)


# --- preprocessing / prediction plumbing ---

def test_pixel_frame_round_trip():
    frame = (64, 36, 2.0, 2.0)
    for px, py in [(0.0, 0.0), (31.5, 20.25), (63.0, 35.0)]:
        fx, fy = learned.net_to_full_px(px, py, frame)
        bx, by = learned.full_to_net_px(fx, fy, frame)
        assert abs(bx - px) < 1e-12 and abs(by - py) < 1e-12


def test_batch_tensors_match_per_scene_oracle():
    scenes = make_dataset(30, 5)
    rgb, dep, labels = batch_tensors(scenes)
    assert rgb.shape == (5, 36, 64, 3) and dep.shape == (5, 36, 64, 1)
    assert labels.shape == (5, 3) and rgb.dtype == dep.dtype == np.float64
    for i, s in enumerate(scenes):
        assert np.array_equal(rgb[i], s.rgb.astype(float) / 255.0)
        assert np.array_equal(dep[i], s.depth.astype(float)[..., None] / learned.DEPTH_SCALE)
        assert np.array_equal(labels[i], s.normalized_label())
        one_rgb, one_dep = learned.image_tensors([s.rgb], [s.depth])
        assert np.array_equal(one_rgb, rgb[i:i + 1]) and np.array_equal(one_dep, dep[i:i + 1])
    # im2col's windows run along contiguous rows of the tensors as made.
    assert rgb.flags.c_contiguous and dep.flags.c_contiguous and one_rgb.flags.c_contiguous


def test_normalized_label_ranges():
    scenes = make_dataset(0, 3)
    for s in scenes:
        lab = s.normalized_label()
        assert 0.0 <= lab[0] <= 1.0 and 0.0 <= lab[1] <= 1.0
        assert -1.0 <= lab[2] <= 1.0


def test_predict_wraps_theta():
    params = _zero_params()
    params["theta_b"][:] = 1.2  # raw output 1.2 -> 1.2*pi/2 rad, outside range
    from baggrasp import sim as _sim
    from baggrasp.config import PipelineConfig

    scene = _sim.generate_scene(0, PipelineConfig())
    (_, _), theta = learned.predict(params, scene.rgb, scene.depth)
    assert -math.pi / 2 < theta <= math.pi / 2
