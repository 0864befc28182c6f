"""Network layers checked against finite differences and hand-worked values."""

import re
import tracemalloc

import numpy as np
import pytest

import sonarprep.nn
from sonarprep.errors import ShapeMismatchError
from sonarprep.nn import (DEFAULT_ARCHITECTURE, AdamState, Architecture,
                          CheckpointFormatError, Conv, Dense, GlobalAvgPool,
                          InvalidTargetError, MaxPool, NoCacheError, Relu,
                          ShapeComposeError,
                          WrongChannelCountError, adam_step,
                          aggregate_input_channels, apply_checkpoint, backward,
                          cam_from_activations, cross_entropy_soft, forward,
                          grad_cam, gradients, infer, init_model,
                          load_checkpoint, save_checkpoint)
from sonarprep.nn import (_conv_backward, _conv_forward, _maxpool_backward,
                          _maxpool_forward)

EPS = 1e-6


def fd_check(arch: Architecture, n_classes: int, x_shape, seed: int,
             samples_per_tensor: int = 8) -> float:
    """Worst relative error between backprop and central differences."""
    rng = np.random.default_rng(seed)
    model = init_model(arch, n_classes, seed=seed, dtype=np.float64)
    x = rng.normal(size=x_shape)
    y = np.zeros((x_shape[0], n_classes))
    y[np.arange(x_shape[0]), rng.integers(0, n_classes, x_shape[0])] = 1.0

    def loss():
        logits = forward(model, x)
        return cross_entropy_soft(logits, y)[0]

    cache = []
    logits = forward(model, x, cache)
    _, grad_logits = cross_entropy_soft(logits, y)
    grads, _ = backward(model, cache, grad_logits)
    worst = 0.0
    for name, p in model.params.items():
        flat = p.ravel()
        picks = rng.choice(flat.size, size=min(samples_per_tensor, flat.size),
                           replace=False)
        for i in picks:
            keep = flat[i]
            flat[i] = keep + EPS
            hi = loss()
            flat[i] = keep - EPS
            lo = loss()
            flat[i] = keep
            fd = (hi - lo) / (2 * EPS)
            an = grads[name].ravel()[i]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-12))
    return worst


class TestForward:
    def test_hand_worked_example(self):
        arch = Architecture((Conv(1, 2), Relu(), MaxPool(2), GlobalAvgPool(),
                             Dense()), in_channels=1)
        m = init_model(arch, 2, seed=0, dtype=np.float64)
        m.params["conv0.weight"] = np.array([[[[1.0, -1.0], [0.0, 2.0]]]])
        m.params["conv0.bias"] = np.array([0.25])
        m.params["dense4.weight"] = np.array([[0.5, -1.0]])
        m.params["dense4.bias"] = np.array([0.1, 0.2])
        x = np.array([[[[1, 2, 0, 1], [0, 1, 3, 1],
                        [2, 1, 0, 0], [1, 0, 1, 2]]]], dtype=np.float64)
        logits = forward(m, x)
        np.testing.assert_allclose(logits, [[4.225, -8.05]], rtol=0, atol=1e-12)

    def test_padding_preserves_spatial_size(self):
        arch = Architecture((Conv(4, 3), Relu(), GlobalAvgPool(), Dense()))
        m = init_model(arch, 3, seed=1, dtype=np.float64)
        cache = []
        logits = forward(m, np.zeros((2, 1, 7, 9)), cache)
        assert logits.shape == (2, 3)
        assert cache[0][1].shape == (2, 7, 9, 4)  # the conv output, channels-last

    def test_without_a_list_returns_only_the_logits(self):
        m = init_model(DEFAULT_ARCHITECTURE, 3, seed=1, dtype=np.float64)
        logits = forward(m, np.zeros((2, 1, 8, 6)))
        assert isinstance(logits, np.ndarray)
        assert logits.shape == (2, 3)

    def test_conv_cache_holds_its_im2col_matrix(self):
        m = init_model(DEFAULT_ARCHITECTURE, 3, seed=1, dtype=np.float64)
        x = np.random.default_rng(0).normal(size=(2, 1, 8, 6))
        cache = []
        forward(m, x, cache)
        cols, y = cache[0]
        assert cols.shape == (2 * 8 * 6, 1 * 3 * 3)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for b, h, w in [(0, 0, 0), (1, 7, 5), (1, 3, 2)]:
            np.testing.assert_array_equal(
                cols[(b * 8 + h) * 6 + w],
                xp[b, :, h:h + 3, w:w + 3].transpose(1, 2, 0).ravel())
        assert y.shape == (2, 8, 6, 16)
        cols3 = cache[3][0]
        assert cols3.shape == (2 * 4 * 3, 3 * 3 * 16)  # after the 2x2 pool
        pooled = np.maximum(y, 0).reshape(2, 4, 2, 3, 2, 16).max(axis=(2, 4))
        pp = np.pad(pooled, ((0, 0), (1, 1), (1, 1), (0, 0)))
        np.testing.assert_array_equal(cols3[(1 * 4 + 2) * 3 + 1],  # (k, k, C) order
                                      pp[1, 2:5, 1:4, :].ravel())

    def test_inference_keeps_no_cache(self):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        x = np.random.default_rng(0).normal(size=(8, 1, 126, 32)).astype(np.float32)
        forward(m, x)

        def peak(*cache):
            tracemalloc.start()
            try:
                forward(m, x, *cache)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak() < 0.8 * peak([])

    def test_inference_records_no_pool_positions(self, monkeypatch):
        asked = []
        real_pool = sonarprep.nn._maxpool_forward

        def spy(x, size, positions=True):
            asked.append(positions)
            return real_pool(x, size, positions)

        monkeypatch.setattr(sonarprep.nn, "_maxpool_forward", spy)
        m = init_model(DEFAULT_ARCHITECTURE, 3, seed=1)
        x = np.zeros((2, 1, 8, 6))
        forward(m, x)
        cache = []
        forward(m, x, cache)
        assert asked == [False, True]
        assert cache[2][0].shape == (2, 4, 3, 16)

    def test_odd_input_cropped_by_pooling(self):
        arch = Architecture((Conv(2, 3), Relu(), MaxPool(2), GlobalAvgPool(),
                             Dense()))
        m = init_model(arch, 2, seed=1, dtype=np.float64)
        forward(m, np.zeros((1, 1, 5, 7)))  # 5x7 -> pool -> 2x3

    def test_wrong_input_channels_rejected(self):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        with pytest.raises(ShapeMismatchError):
            forward(m, np.zeros((1, 3, 8, 8)))


class TestInit:
    def test_xavier_bounds_and_zero_bias(self):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0, dtype=np.float64)
        w = m.params["conv0.weight"]
        fan_in, fan_out = 1 * 9, 16 * 9
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.5 * bound  # actually spread out
        np.testing.assert_array_equal(m.params["conv0.bias"], 0.0)
        np.testing.assert_array_equal(m.params["dense6.bias"], 0.0)

    def test_seed_controls_init(self):
        a = init_model(DEFAULT_ARCHITECTURE, 4, seed=0, dtype=np.float64)
        b = init_model(DEFAULT_ARCHITECTURE, 4, seed=0, dtype=np.float64)
        c = init_model(DEFAULT_ARCHITECTURE, 4, seed=1, dtype=np.float64)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])
        assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)

    def test_needs_at_least_two_classes(self):
        with pytest.raises(ValueError):
            init_model(DEFAULT_ARCHITECTURE, 1, seed=0)

    def test_spatial_layer_after_flatten_rejected(self):
        arch = Architecture((GlobalAvgPool(), Conv(4), Dense()))
        with pytest.raises(ShapeComposeError):
            init_model(arch, 2, seed=0)

    def test_missing_final_dense_rejected(self):
        arch = Architecture((Conv(4), Relu(), GlobalAvgPool()))
        with pytest.raises(ShapeComposeError):
            init_model(arch, 2, seed=0)


class TestGradients:
    def test_conv_with_padding(self):
        arch = Architecture((Conv(3, 3), GlobalAvgPool(), Dense()))
        assert fd_check(arch, 2, (2, 1, 6, 5), seed=0) < 1e-6

    def test_conv_without_padding(self):
        arch = Architecture((Conv(2, 2), GlobalAvgPool(), Dense()))
        assert fd_check(arch, 3, (2, 1, 5, 5), seed=1) < 1e-6

    def test_relu(self):
        arch = Architecture((Conv(2, 3), Relu(), GlobalAvgPool(), Dense()))
        assert fd_check(arch, 2, (3, 1, 6, 6), seed=2) < 1e-6

    def test_maxpool_with_crop(self):
        arch = Architecture((Conv(2, 3), MaxPool(2), GlobalAvgPool(), Dense()))
        assert fd_check(arch, 2, (2, 1, 7, 5), seed=3) < 1e-6

    def test_stacked_default_architecture(self):
        assert fd_check(DEFAULT_ARCHITECTURE, 4, (2, 1, 12, 10), seed=4) < 1e-6

    def test_input_gradient_not_needed_for_training_but_cam_path_works(self):
        m = init_model(DEFAULT_ARCHITECTURE, 3, seed=5, dtype=np.float64)
        x = np.random.default_rng(0).normal(size=(1, 1, 10, 8))
        cache = []
        forward(m, x, cache)
        grads, input_grad = backward(m, cache, np.array([[1.0, 0.0, 0.0]]))
        assert input_grad is None
        assert set(grads) == set(m.params)

    def test_stop_gives_the_full_pass_gradients_of_the_layers_it_runs(self):
        m = init_model(DEFAULT_ARCHITECTURE, 3, seed=5, dtype=np.float64)
        rng = np.random.default_rng(0)
        cache = []
        forward(m, rng.normal(size=(2, 1, 10, 8)), cache)
        seed_grad = rng.normal(size=(2, 3))
        full, _ = backward(m, cache, seed_grad)
        for k in range(1, len(DEFAULT_ARCHITECTURE.layers)):
            grads, out_grad = backward(m, cache, seed_grad, stop=k)
            assert set(grads) == {n for n in full if int(re.search(r"\d+", n)[0]) >= k}
            for name in grads:
                np.testing.assert_array_equal(grads[name], full[name])
            if isinstance(DEFAULT_ARCHITECTURE.layers[k - 1], Conv):
                assert out_grad.shape == cache[k - 1][1].shape

    def test_passes_share_no_state(self):
        m = init_model(DEFAULT_ARCHITECTURE, 3, seed=5, dtype=np.float64)
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 2, 1, 10, 8))
        seed_grad = rng.normal(size=(2, 3))
        cache_a, cache_b, alone = [], [], []
        forward(m, a, cache_a)
        forward(m, b, cache_b)
        got, _ = backward(m, cache_a, seed_grad)
        forward(m, a, alone)
        want, _ = backward(m, alone, seed_grad)
        assert set(got) == set(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])


class TestChunkedPasses:
    """A batch of 7 samples of 8 x 6 cells runs as chunks of 3, 3 and 1
    under a budget of 3 * 48 cells, and as one chunk under the real one."""

    @pytest.fixture
    def batch(self):
        rng = np.random.default_rng(11)
        model = init_model(DEFAULT_ARCHITECTURE, 3, seed=6, dtype=np.float64)
        x = rng.normal(size=(7, 8, 6))
        y = rng.dirichlet(np.ones(3), size=7)
        return model, x, y

    def test_gradients_equal_one_unchunked_pass(self, batch, monkeypatch):
        model, x, y = batch
        cache = []
        want_loss, grad_logits = cross_entropy_soft(forward(model, x[:, None], cache), y)
        want, _ = backward(model, cache, grad_logits)
        chunks = []
        monkeypatch.setattr(sonarprep.nn, "CHUNK_CELLS", 3 * 8 * 6)
        monkeypatch.setattr(sonarprep.nn, "forward", lambda m, b, *cache:
                            chunks.append(len(b)) or forward(m, b, *cache))
        loss, got = gradients(model, x, y)
        assert chunks == [3, 3, 1]
        assert loss == pytest.approx(want_loss, rel=1e-10, abs=0)
        assert set(got) == set(want)
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-10, atol=0)

    def test_one_chunk_is_the_unchunked_pass_exactly(self, batch):
        model, x, y = batch
        cache = []
        want_loss, grad_logits = cross_entropy_soft(forward(model, x[:, None], cache), y)
        want, _ = backward(model, cache, grad_logits)
        loss, got = gradients(model, x, y)
        assert loss == want_loss
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])

    def test_infer_does_not_depend_on_the_budget(self, batch, monkeypatch):
        model, x, _ = batch
        whole = infer(model, x)
        np.testing.assert_array_equal(whole, forward(model, x[:, None]))
        monkeypatch.setattr(sonarprep.nn, "CHUNK_CELLS", 3 * 8 * 6)
        chunked = infer(model, x)
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(chunked.argmax(axis=1), whole.argmax(axis=1))

    def test_a_sample_above_the_budget_runs_alone(self, batch, monkeypatch):
        model, x, _ = batch
        monkeypatch.setattr(sonarprep.nn, "CHUNK_CELLS", 10)
        assert infer(model, x).shape == (7, 3)
        assert infer(model, x[:0]).shape == (0, 3)


def loop_conv(x, w, b, pad, dy):
    """Direct convolution of channels-last ``x`` and its gradients for the
    output gradient ``dy``, one output element at a time."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    y = np.zeros(dy.shape)
    dw = np.zeros(w.shape)
    dxp = np.zeros(xp.shape)
    for n, i, j, o in np.ndindex(*dy.shape):
        window = xp[n, i:i + k, j:j + k, :]  # [k, k, C]
        kernel = w[o].transpose(1, 2, 0)
        y[n, i, j, o] = b[o] + (window * kernel).sum()
        dw[o] += dy[n, i, j, o] * window.transpose(2, 0, 1)
        dxp[n, i:i + k, j:j + k, :] += dy[n, i, j, o] * kernel
    return y, dw, dxp[:, pad:xp.shape[1] - pad, pad:xp.shape[2] - pad]


def loop_maxpool(x, size, dy):
    """Window maxima of channels-last ``x`` and the gradient that sends
    ``dy`` to the first maximum of each window in row-major order."""
    y = np.zeros(dy.shape)
    dx = np.zeros(x.shape)
    for n, i, j, c in np.ndindex(*dy.shape):
        window = x[n, i * size:(i + 1) * size, j * size:(j + 1) * size, c]
        di, dj = divmod(int(np.argmax(window)), size)
        y[n, i, j, c] = window[di, dj]
        dx[n, i * size + di, j * size + dj, c] = dy[n, i, j, c]
    return y, dx


class TestKernels:
    @pytest.mark.parametrize("in_ch", [1, 3])
    @pytest.mark.parametrize("kernel,pad", [(2, 0), (3, 1)])
    def test_conv_matches_loops(self, in_ch, kernel, pad):
        rng = np.random.default_rng(kernel * 10 + in_ch)
        x = rng.normal(size=(2, 5, 4, in_ch))
        w = rng.normal(size=(2, in_ch, kernel, kernel))
        b = rng.normal(size=2)
        cols, y = _conv_forward(x, w, b, pad)
        dy = rng.normal(size=y.shape)
        want_y, want_dw, want_dx = loop_conv(x, w, b, pad, dy)
        dw, db, dx = _conv_backward(dy, cols, w, pad, input_grad=True)
        np.testing.assert_allclose(y, want_y, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dw, want_dw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(db, dy.sum(axis=(0, 1, 2)), rtol=0, atol=1e-12)
        assert dx.shape == x.shape
        np.testing.assert_allclose(dx, want_dx, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("size,shape", [(2, (2, 7, 5, 3)), (3, (2, 8, 7, 2))])
    def test_maxpool_matches_loops_on_cropped_input(self, size, shape):
        rng = np.random.default_rng(size)
        x = rng.normal(size=shape)
        y, saved = _maxpool_forward(x, size)
        dy = rng.normal(size=y.shape)
        want_y, want_dx = loop_maxpool(x, size, dy)
        np.testing.assert_allclose(y, want_y, rtol=0, atol=1e-12)
        np.testing.assert_allclose(_maxpool_backward(dy, saved, size), want_dx,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("size", [2, 3])
    def test_tied_maxima_send_the_gradient_to_the_first(self, size):
        x = np.zeros((1, size, size, 1))
        x[0, :, :, 0] = 1.0
        x[0, 0, 0, 0] = -1.0  # the first maximum is the window's second element
        y, saved = _maxpool_forward(x, size)
        dx = _maxpool_backward(np.full(y.shape, 2.0), saved, size)
        want = np.zeros(x.shape)
        want[0, 0, 1, 0] = 2.0
        np.testing.assert_array_equal(y, 1.0)
        np.testing.assert_array_equal(dx, want)


def slice_loop_maxpool_forward(x, size):
    """The slice-per-window-element pooling the blocked kernels replaced:
    maxima and the row-major position of each window's first maximum."""
    out_h, out_w = x.shape[1] // size, x.shape[2] // size

    def element(j):
        di, dj = divmod(j, size)
        return x[:, di:di + out_h * size:size, dj:dj + out_w * size:size]

    y = element(0).copy()
    idx = np.zeros(y.shape, dtype=np.min_scalar_type(size * size - 1))
    for j in range(1, size * size):
        v = element(j)
        np.putmask(idx, v > y, j)
        np.maximum(y, v, out=y)
    return y, idx


def slice_loop_maxpool_backward(dy, idx, x_shape, size):
    _, out_h, out_w, _ = dy.shape
    dx = np.zeros(x_shape, dtype=dy.dtype)
    for j in range(size * size):
        di, dj = divmod(j, size)
        dx[:, di:di + out_h * size:size, dj:dj + out_w * size:size] = \
            np.where(idx == j, dy, 0)
    return dx


def dcols_col2im(dy, w, pad):
    """Input gradient through the full [N, k*k*C] im2col gradient and its
    strided adds, as the blockwise col2im computed it before."""
    out_ch, in_ch, k, _ = w.shape
    batch, out_h, out_w, _ = dy.shape
    wm = w.transpose(2, 3, 1, 0).reshape(k * k * in_ch, out_ch)
    dcols = (dy.reshape(-1, out_ch) @ wm.T).reshape(batch, out_h, out_w, k, k, in_ch)
    dxp = np.zeros((batch, out_h + k - 1, out_w + k - 1, in_ch), dtype=dy.dtype)
    for di in range(k):
        for dj in range(k):
            dxp[:, di:di + out_h, dj:dj + out_w] += dcols[:, :, :, di, dj]
    return dxp[:, pad:dxp.shape[1] - pad, pad:dxp.shape[2] - pad]


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestKernelsMatchSliceLoops:
    """The blocked kernels give the bytes of the loops they replaced."""

    def check_pool(self, x, size, dy_seed):
        y, (idx, x_shape) = _maxpool_forward(x, size)
        want_y, want_idx = slice_loop_maxpool_forward(x, size)
        assert_same_bytes(y, want_y)
        assert_same_bytes(idx, want_idx)
        assert x_shape == x.shape
        y_only, nothing = _maxpool_forward(x, size, positions=False)
        assert nothing is None
        assert_same_bytes(y_only, want_y)
        dy = np.random.default_rng(dy_seed).normal(size=y.shape).astype(x.dtype)
        assert_same_bytes(_maxpool_backward(dy, (idx, x_shape), size),
                          slice_loop_maxpool_backward(dy, want_idx, x.shape, size))

    @pytest.mark.parametrize("size,shape", [(2, (2, 7, 5, 3)), (2, (3, 9, 11, 16)),
                                            (3, (2, 8, 7, 2)), (3, (2, 11, 13, 16))])
    def test_pool_on_cropped_odd_shapes(self, size, shape):
        self.check_pool(np.random.default_rng(size).normal(size=shape), size, 1)

    @pytest.mark.parametrize("size", [2, 3])
    def test_pool_on_tied_float32_after_relu(self, size):
        # A realistic activation: flat indices past 2**16, windows full of
        # tied zeros and of tied quantized values.
        rng = np.random.default_rng(7)
        x = np.maximum(rng.integers(-3, 3, size=(16, 126, 32, 16)), 0).astype(np.float32)
        self.check_pool(x, size, 2)

    def test_col2im_matches_the_dcols_path(self):
        rng = np.random.default_rng(3)
        for shape, (out_ch, k, pad) in [((2, 7, 5, 3), (4, 3, 1)), ((2, 6, 6, 2), (3, 2, 0)),
                                        ((4, 63, 16, 16), (32, 3, 1))]:
            x = rng.normal(size=shape).astype(np.float32)
            w = rng.normal(size=(out_ch, shape[3], k, k)).astype(np.float32)
            cols, y = _conv_forward(x, w, np.zeros(out_ch, np.float32), pad)
            dy = rng.normal(size=y.shape).astype(np.float32)
            _, _, dx = _conv_backward(dy, cols, w, pad, input_grad=True)
            assert_same_bytes(dx, dcols_col2im(dy, w, pad))

    def test_logits_do_not_depend_on_the_cache(self):
        arch = Architecture((Conv(8, 3), Relu(), MaxPool(2), Conv(8, 3), Relu(),
                             MaxPool(3), GlobalAvgPool(), Dense()))
        m = init_model(arch, 3, seed=4)
        x = np.random.default_rng(4).random(size=(4, 1, 41, 29)).astype(np.float32)
        assert_same_bytes(forward(m, x), forward(m, x, []))


class TestLoss:
    def test_value_against_manual_softmax(self):
        logits = np.array([[2.0, 0.5, -1.0]])
        y = np.array([[0.2, 0.5, 0.3]])
        p = np.exp(logits) / np.exp(logits).sum()
        expected = -(y * np.log(p)).sum()
        loss, _ = cross_entropy_soft(logits, y)
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 5))
        y = rng.random((4, 5))
        y /= y.sum(axis=1, keepdims=True)
        _, grad = cross_entropy_soft(logits, y)
        for i, j in [(0, 0), (1, 3), (3, 4)]:
            step = np.zeros_like(logits)
            step[i, j] = EPS
            hi, _ = cross_entropy_soft(logits + step, y)
            lo, _ = cross_entropy_soft(logits - step, y)
            assert grad[i, j] == pytest.approx((hi - lo) / (2 * EPS), rel=1e-4)

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1000.0, -1000.0]])
        y = np.array([[1.0, 0.0]])
        loss, grad = cross_entropy_soft(logits, y)
        assert np.isfinite(loss) and np.isfinite(grad).all()

    def test_bad_target_rows_rejected(self):
        logits = np.zeros((1, 3))
        with pytest.raises(InvalidTargetError):
            cross_entropy_soft(logits, np.array([[0.5, 0.4, 0.0]]))


def reference_adam(params, grads_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar-loop Adam rewrite used to cross-check the vectorized update."""
    p = {k: v.astype(np.float64).copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in p.items()}
    v = {k: np.zeros_like(vv) for k, vv in p.items()}
    for t, grads in enumerate(grads_seq, start=1):
        for k in p:
            m[k] = beta1 * m[k] + (1 - beta1) * grads[k]
            v[k] = beta2 * v[k] + (1 - beta2) * grads[k] ** 2
            mhat = m[k] / (1 - beta1 ** t)
            vhat = v[k] / (1 - beta2 ** t)
            p[k] = p[k] - lr * mhat / (np.sqrt(vhat) + eps)
    return p


class TestAdam:
    def test_first_step_closed_form(self):
        # with hats applied, step one moves by lr * g / (|g| + eps)
        params = {"w": np.array([1.0, -2.0, 0.5])}
        g = np.array([0.3, -0.7, 0.0])
        state = AdamState.for_params(params, lr=0.01)
        adam_step(params, {"w": g.copy()}, state)
        expected = np.array([1.0, -2.0, 0.5]) - 0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params["w"], expected, rtol=1e-9)

    def test_many_steps_match_reference(self):
        rng = np.random.default_rng(0)
        params = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}
        start = {k: v.copy() for k, v in params.items()}
        grads_seq = [{k: rng.normal(size=v.shape) for k, v in params.items()}
                     for _ in range(7)]
        state = AdamState.for_params(params, lr=0.05)
        for g in grads_seq:
            adam_step(params, {k: v.copy() for k, v in g.items()}, state)
        want = reference_adam(start, grads_seq, lr=0.05)
        for k in params:
            np.testing.assert_allclose(params[k], want[k], rtol=1e-10)

    def test_missing_grad_rejected(self):
        params = {"w": np.ones(2)}
        state = AdamState.for_params(params, lr=0.1)
        with pytest.raises(ShapeMismatchError):
            adam_step(params, {}, state)


class TestChannelAggregation:
    def test_sum_across_input_channels(self):
        w = np.arange(2 * 3 * 2 * 2, dtype=np.float64).reshape(2, 3, 2, 2)
        agg = aggregate_input_channels(w)
        assert agg.shape == (2, 1, 2, 2)
        np.testing.assert_array_equal(agg[:, 0], w.sum(axis=1))

    def test_identical_channels_give_identical_logits(self):
        rng = np.random.default_rng(0)
        three = Architecture((Conv(4, 3), Relu(), GlobalAvgPool(), Dense()),
                             in_channels=3)
        m3 = init_model(three, 2, seed=7, dtype=np.float64)
        one = Architecture((Conv(4, 3), Relu(), GlobalAvgPool(), Dense()),
                           in_channels=1)
        m1 = init_model(one, 2, seed=7, dtype=np.float64)
        m1.params["conv0.weight"] = aggregate_input_channels(m3.params["conv0.weight"])
        m1.params["conv0.bias"] = m3.params["conv0.bias"].copy()
        m1.params["dense3.weight"] = m3.params["dense3.weight"].copy()
        m1.params["dense3.bias"] = m3.params["dense3.bias"].copy()
        x1 = rng.normal(size=(2, 1, 6, 6))
        x3 = np.repeat(x1, 3, axis=1)
        np.testing.assert_allclose(forward(m1, x1), forward(m3, x3),
                                   rtol=0, atol=1e-12)

    def test_wrong_channel_count_rejected(self):
        with pytest.raises(WrongChannelCountError):
            aggregate_input_channels(np.zeros((4, 2, 3, 3)))


class TestGradCam:
    def test_map_range_and_shape(self):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0, dtype=np.float64)
        x = np.random.default_rng(1).normal(size=(1, 1, 12, 10))
        cam, predicted = grad_cam(m, x)
        assert predicted == int(np.argmax(forward(m, x)[0]))
        assert cam.shape == (6, 5)  # after the 2x2 pool, conv output is 6x5
        assert cam.min() >= 0.0 and cam.max() <= 1.0

    def test_zero_weights_give_zero_map(self):
        arch = Architecture((Conv(2, 3), Relu(), GlobalAvgPool(), Dense()))
        m = init_model(arch, 2, seed=0, dtype=np.float64)
        m.params["dense3.weight"][:] = 0.0
        cam, predicted = grad_cam(m, np.ones((1, 1, 4, 4)))
        assert predicted == 0  # tied logits pick the lowest class
        np.testing.assert_array_equal(cam, 0.0)

    def test_flat_positive_map_becomes_ones(self):
        acts = np.ones((1, 3, 3))
        grads = np.full((1, 3, 3), 0.5)
        cam = cam_from_activations(acts, grads)
        np.testing.assert_array_equal(cam, 1.0)

    def test_negative_only_map_stays_zero(self):
        acts = np.ones((1, 2, 2))
        grads = np.full((1, 2, 2), -1.0)
        np.testing.assert_array_equal(cam_from_activations(acts, grads), 0.0)

    def test_keeps_only_what_its_backward_reads(self, monkeypatch):
        arch = Architecture((Conv(4, 3), Relu(), MaxPool(2), Conv(4, 3), Relu(),
                             MaxPool(2), GlobalAvgPool(), Dense()))
        m = init_model(arch, 3, seed=2)
        x = np.random.default_rng(2).normal(size=(1, 1, 20, 16)).astype(np.float32)
        cache = []
        logits = forward(m, x, cache)
        predicted = int(np.argmax(logits[0]))
        seed_grad = np.zeros_like(logits)
        seed_grad[0, predicted] = 1.0
        _, grad = backward(m, cache, seed_grad, stop=4)
        want = cam_from_activations(
            np.ascontiguousarray(cache[3][1][0].transpose(2, 0, 1)),
            np.ascontiguousarray(grad[0].transpose(2, 0, 1)))
        kept = []
        real_forward = sonarprep.nn.forward

        def spy(model, batch, cache=None, keep_from=0):
            logits = real_forward(model, batch, cache, keep_from)
            kept.append(list(cache))
            return logits

        monkeypatch.setattr(sonarprep.nn, "forward", spy)
        cam, got_predicted = grad_cam(m, x)
        assert got_predicted == predicted
        assert cam.tobytes() == want.tobytes()
        assert kept[0][:3] == [None] * 3
        # the last conv keeps its output alone, not its im2col matrix
        assert kept[0][3].tobytes() == cache[3][1].tobytes()
        assert all(saved is not None for saved in kept[0][4:])

    def test_no_conv_architecture_rejected(self):
        arch = Architecture((GlobalAvgPool(), Dense()))
        m = init_model(arch, 2, seed=0)
        with pytest.raises(NoCacheError):
            grad_cam(m, np.zeros((1, 1, 6, 5)))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        path = tmp_path / "m.spnn"
        save_checkpoint(path, m.params)
        tensors = load_checkpoint(path)
        assert set(tensors) == set(m.params)
        for k in tensors:
            np.testing.assert_array_equal(tensors[k], m.params[k])

    def test_apply_restores_forward_pass(self, tmp_path):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=3)
        x = np.random.default_rng(0).normal(size=(2, 1, 10, 8)).astype(np.float32)
        want = forward(m, x)
        path = tmp_path / "m.spnn"
        save_checkpoint(path, m.params)
        fresh = init_model(DEFAULT_ARCHITECTURE, 4, seed=99)
        fresh = apply_checkpoint(fresh, load_checkpoint(path))
        np.testing.assert_allclose(forward(fresh, x), want, rtol=0, atol=1e-6)

    def test_three_channel_first_conv_aggregated_on_load(self, tmp_path):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        donor = {k: v.copy() for k, v in m.params.items()}
        rng = np.random.default_rng(5)
        donor["conv0.weight"] = rng.normal(size=(16, 3, 3, 3)).astype(np.float32)
        path = tmp_path / "m.spnn"
        save_checkpoint(path, donor)
        loaded = apply_checkpoint(init_model(DEFAULT_ARCHITECTURE, 4, seed=1),
                                  load_checkpoint(path))
        np.testing.assert_allclose(
            loaded.params["conv0.weight"],
            donor["conv0.weight"].sum(axis=1, keepdims=True), rtol=1e-6)

    def test_failed_write_leaves_no_checkpoint(self, tmp_path):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        tensors = dict(m.params)
        tensors[7] = np.zeros(2)  # a name that cannot be encoded, after the others
        path = tmp_path / "m.spnn"
        with pytest.raises(AttributeError):
            save_checkpoint(path, tensors)
        assert not path.exists()
        save_checkpoint(path, m.params)
        before = path.read_bytes()
        with pytest.raises(AttributeError):  # a failed rewrite keeps the earlier file
            save_checkpoint(path, tensors)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.spnn"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.spnn"
        path.write_bytes(b"JUNK!" + b"\x00" * 32)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        path = tmp_path / "m.spnn"
        save_checkpoint(path, m.params)
        path.write_bytes(path.read_bytes() + b"JUNK")
        with pytest.raises(CheckpointFormatError, match="4 trailing bytes"):
            load_checkpoint(path)

    def test_non_utf8_tensor_name_rejected(self, tmp_path):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        path = tmp_path / "m.spnn"
        save_checkpoint(path, m.params)
        data = bytearray(path.read_bytes())
        data[13] = 0xFF  # magic (5) + count (4) + name length (4)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError, match="not UTF-8"):
            load_checkpoint(path)

    def test_missing_tensor_rejected(self, tmp_path):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        partial = dict(list(m.params.items())[:-1])
        path = tmp_path / "m.spnn"
        save_checkpoint(path, partial)
        with pytest.raises(CheckpointFormatError):
            apply_checkpoint(init_model(DEFAULT_ARCHITECTURE, 4, seed=0),
                             load_checkpoint(path))

    def test_shape_conflict_rejected(self, tmp_path):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        bad = {k: v.copy() for k, v in m.params.items()}
        bad["dense6.weight"] = np.zeros((32, 7), dtype=np.float32)
        path = tmp_path / "m.spnn"
        save_checkpoint(path, bad)
        with pytest.raises(ShapeMismatchError):
            apply_checkpoint(init_model(DEFAULT_ARCHITECTURE, 4, seed=0),
                             load_checkpoint(path))
