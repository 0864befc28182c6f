"""Network layers checked against finite differences and hand-worked values."""

import hashlib
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sonarprep.nn
from sonarprep.errors import SonarprepError
from sonarprep.nn import (DEFAULT_ARCHITECTURE, AdamState, Architecture,
                          Conv, Dense, GlobalAvgPool, MaxPool, Relu, adam_step,
                          aggregate_input_channels, apply_checkpoint, backward,
                          cam_from_activations, cross_entropy_soft, forward,
                          grad_cam, gradients, infer, init_model,
                          load_checkpoint, save_checkpoint)
from sonarprep.nn import (_conv_backward, _conv_forward, _im2col, _maxpool_backward,
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

    def test_inference_peak_is_one_conv_product(self):
        """At 501x64 a pass runs 4-sample chunks, and its peak is the second
        conv's product: while it runs only that conv's im2col matrix and
        output are alive, not its input or its zero-padded copy. One input
        chunk's bytes cover every other array."""
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        x = np.random.default_rng(0).random((20, 501, 64)).astype(np.float32)
        infer(m, x)
        tracemalloc.start()
        try:
            infer(m, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        first, _, pool, second = DEFAULT_ARCHITECTURE.layers[:4]
        chunk = sonarprep.nn.CHUNK_CELLS // (501 * 64)
        cells = chunk * (501 // pool.size) * (64 // pool.size)
        cols = cells * second.kernel ** 2 * first.out_channels * x.itemsize
        out = cells * second.out_channels * x.itemsize
        assert peak <= cols + out + chunk * 501 * 64 * x.itemsize

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
        with pytest.raises(SonarprepError, match=r"expected \[batch, 1, H, W\], got \(1, 3,"):
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

    @pytest.mark.parametrize("arch, n_classes, dtype, digest", [
        (DEFAULT_ARCHITECTURE, 4, np.float32,
         "191ab8c6512ebb8f4037d0b5e4f54ebc0594c412ec3126d01f5f992a954afafc"),
        (Architecture((Conv(3, 3), GlobalAvgPool(), Dense())), 3, np.float64,
         "f8f22d11a38eb12f4aafec8fd4c108c3454707aa5adc486f2eebde408f56fdf3"),
        (Architecture((Conv(2, 2), GlobalAvgPool(), Dense())), 3, np.float64,
         "e2f91e365e4c952169c98071c1534cd9836320c049f15e4711fc6dc506604e27"),
        (Architecture((Conv(2, 3), Relu(), GlobalAvgPool(), Dense())), 3, np.float64,
         "5c61ffd27ef5700209b546fd41db8229682904b25f59e6909053270be841e32a"),
        (Architecture((Conv(2, 3), MaxPool(2), GlobalAvgPool(), Dense())), 3, np.float64,
         "5c61ffd27ef5700209b546fd41db8229682904b25f59e6909053270be841e32a"),
    ], ids=["default", "padded-conv", "unpadded-conv", "relu", "maxpool"])
    def test_draws_are_pinned(self, arch, n_classes, dtype, digest):
        """Names, shapes, dtypes and bytes of seeds 0-2, as first recorded:
        a rewrite that reorders or changes the draws fails here."""
        h = hashlib.sha256()
        for seed in range(3):
            for name, p in init_model(arch, n_classes, seed=seed, dtype=dtype).params.items():
                h.update(f"{name}{p.shape}{p.dtype.str}".encode())
                h.update(p.tobytes())
        assert h.hexdigest() == digest


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
        cols, y = _conv_forward(_im2col(x, kernel, pad), w, b)
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
            cols, y = _conv_forward(_im2col(x, k, pad), w, np.zeros(out_ch, np.float32))
            dy = rng.normal(size=y.shape).astype(np.float32)
            _, _, dx = _conv_backward(dy, cols, w, pad, input_grad=True)
            assert_same_bytes(dx, dcols_col2im(dy, w, pad))

    def test_logits_do_not_depend_on_the_cache(self):
        arch = Architecture((Conv(8, 3), Relu(), MaxPool(2), Conv(8, 3), Relu(),
                             MaxPool(3), GlobalAvgPool(), Dense()))
        m = init_model(arch, 3, seed=4)
        x = np.random.default_rng(4).random(size=(4, 1, 41, 29)).astype(np.float32)
        assert_same_bytes(forward(m, x), forward(m, x, []))


def window_view_im2col(x, k, pad):
    """The window-view gather that multi-channel inputs use, for any input:
    a C-contiguous [B, H', W', k*k*C] matrix in (k, k, C) order."""
    batch, height, width, in_ch = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(
        batch, height + 2 * pad - k + 1, width + 2 * pad - k + 1, k * k * in_ch)


class TestChannelLoops:
    """The one-channel tap-major im2col and the einsum channel sums give the
    bytes of the window-view gather and of ``sum``/``mean``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("height,width", [(7, 6), (8, 9)])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_one_channel_im2col_matches_the_window_view(self, k, pad, height, width,
                                                        batch, dtype):
        rng = np.random.default_rng(k * 100 + pad * 10 + batch)
        x = rng.normal(size=(batch, height, width, 1)).astype(dtype)
        cols = _im2col(x, k, pad)
        want = window_view_im2col(x, k, pad)
        assert_same_bytes(np.ascontiguousarray(cols), want)
        # With the default network's 16 output channels the products are the
        # same whether BLAS reads the matrix transposed or not. At some other
        # counts OpenBLAS sums in another order (SkylakeX at 1-8 more float32
        # outputs than a multiple of 16; one output runs as GEMV everywhere).
        w = rng.normal(size=(16, 1, k, k)).astype(dtype)
        b = rng.normal(size=16).astype(dtype)
        flat, y = _conv_forward(cols, w, b)
        want_flat, want_y = _conv_forward(want, w, b)
        assert_same_bytes(y, want_y)
        dy = rng.normal(size=y.shape).astype(dtype)
        for got, expected in zip(_conv_backward(dy, flat, w, pad, input_grad=False)[:2],
                                 _conv_backward(dy, want_flat, w, pad, input_grad=False)[:2]):
            assert_same_bytes(got, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (16 * 126 * 32, 16), (16 * 63 * 16, 32),    # train-small conv0, conv3
        (4 * 501 * 64, 16), (4 * 250 * 32, 32),     # paper-infer conv0, conv3
        (84, 3), (60, 2), (84, 2),                  # criterion 05
        (240, 16), (60, 32),
        (20, 1), (64512, 1)])                       # one output channel
    def test_bias_gradient_is_the_row_sum(self, shape, dtype):
        rng = np.random.default_rng(shape[0] + shape[1])
        dy = rng.normal(size=shape).astype(dtype)
        out_ch = shape[1]
        w = np.zeros((out_ch, 1, 1, 1), dtype)
        cols = np.zeros((shape[0], 1), dtype)
        _, db, _ = _conv_backward(dy.reshape(1, -1, 1, out_ch), cols, w, 0,
                                  input_grad=False)
        assert_same_bytes(db, dy.sum(axis=0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (16, 63, 16, 32), (4, 250, 32, 32),         # the benchmark's pooled maps
        (2, 7, 6, 3), (2, 6, 5, 2), (2, 7, 6, 2), (2, 3, 3, 2), (2, 6, 5, 32),
        (3, 5, 7, 1), (16, 63, 16, 1)])             # one channel
    def test_global_pooling_is_the_mean(self, shape, dtype):
        x = np.random.default_rng(shape[1]).normal(size=shape).astype(dtype)
        arch = Architecture((GlobalAvgPool(), Dense()), in_channels=shape[3])
        m = init_model(arch, 2, seed=0, dtype=dtype)
        # an input [B, C, H, W] arrives at the pool as [B, H, W, C]; the
        # dense layer's cache slot holds the pooled features
        cache = []
        forward(m, x.transpose(0, 3, 1, 2), cache)
        assert_same_bytes(cache[1], x.mean(axis=(1, 2)))


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
        with pytest.raises(SonarprepError, match="target rows must sum to 1"):
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
        with pytest.raises(SonarprepError, match="no gradient for parameter 'w'"):
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
        with pytest.raises(SonarprepError, match=r"expected kernels shaped \[out, 3, k, k\]"):
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


def raw_checkpoint(header: bytes, payload: bytes = b"", length: int | None = None) -> bytes:
    """An SPNN2 file built by hand: magic, header length, header, payload."""
    length = len(header) if length is None else length
    return b"SPNN2" + length.to_bytes(4, "little") + header + payload


def load_or_refuse(path):
    """Load a checkpoint, or take a ``SonarprepError`` that names the file as
    its refusal."""
    try:
        return load_checkpoint(path)
    except SonarprepError as exc:
        assert str(exc).startswith(f"{path}: "), exc
        return None


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**40) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=8)
SIZES = st.one_of(st.integers(-1, 3), st.just(1.5), st.just(True), JSON_VALUES)
TABLES = st.lists(st.one_of(st.tuples(st.sampled_from(["w", "b"]),
                                      st.lists(SIZES, max_size=3)).map(list), JSON_VALUES),
                  max_size=3)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        path = tmp_path / "m.spnn"
        save_checkpoint(path, m.params)
        header, tensors = load_checkpoint(path)
        assert set(tensors) == set(m.params)
        for k in tensors:
            np.testing.assert_array_equal(tensors[k], m.params[k])

    def test_header_round_trip(self, tmp_path):
        """The caller's header comes back as it was written; the tensor
        table is read and not returned."""
        path = tmp_path / "m.spnn"
        header = {"classes": ["alpha", "bravo"], "front_end": {"data.rate": 8000}}
        save_checkpoint(path, {"w": np.ones((2, 3))}, header)
        data = path.read_bytes()
        text = json.dumps({**header, "tensors": [["w", [2, 3]]]}, sort_keys=True).encode()
        assert data == raw_checkpoint(text, np.ones(6, "<f4").tobytes())
        loaded, tensors = load_checkpoint(path)
        assert loaded == header and list(tensors) == ["w"]
        save_checkpoint(path, {"w": np.ones((2, 3))})
        assert load_checkpoint(path)[0] == {}

    def test_apply_restores_forward_pass(self, tmp_path):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=3)
        x = np.random.default_rng(0).normal(size=(2, 1, 10, 8)).astype(np.float32)
        want = forward(m, x)
        path = tmp_path / "m.spnn"
        save_checkpoint(path, m.params)
        fresh = init_model(DEFAULT_ARCHITECTURE, 4, seed=99)
        header, tensors = load_checkpoint(path)
        fresh = apply_checkpoint(fresh, tensors)
        np.testing.assert_allclose(forward(fresh, x), want, rtol=0, atol=1e-6)

    def test_three_channel_first_conv_aggregated_on_load(self, tmp_path):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        donor = {k: v.copy() for k, v in m.params.items()}
        rng = np.random.default_rng(5)
        donor["conv0.weight"] = rng.normal(size=(16, 3, 3, 3)).astype(np.float32)
        path = tmp_path / "m.spnn"
        save_checkpoint(path, donor)
        header, tensors = load_checkpoint(path)
        loaded = apply_checkpoint(init_model(DEFAULT_ARCHITECTURE, 4, seed=1), tensors)
        np.testing.assert_allclose(
            loaded.params["conv0.weight"],
            donor["conv0.weight"].sum(axis=1, keepdims=True), rtol=1e-6)

    def test_failed_write_leaves_no_checkpoint(self, tmp_path):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        tensors = dict(m.params)
        tensors["zz"] = np.array(["x", "y"])  # no float32 values, after the others
        path = tmp_path / "m.spnn"
        with pytest.raises(ValueError):
            save_checkpoint(path, tensors)
        assert not path.exists()
        save_checkpoint(path, m.params)
        before = path.read_bytes()
        with pytest.raises(ValueError):  # a failed rewrite keeps the earlier file
            save_checkpoint(path, tensors)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.spnn"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.spnn"
        path.write_bytes(b"JUNK!" + b"\x00" * 32)
        with pytest.raises(SonarprepError, match="m.spnn: bad magic: not an SPNN2 checkpoint"):
            load_checkpoint(path)

    def test_earlier_release_checkpoint_must_be_trained_again(self, tmp_path):
        path = tmp_path / "m.spnn"
        path.write_bytes(b"SPNN1" + struct.pack("<II1sI1I", 1, 1, b"w", 1, 1) + bytes(4))
        with pytest.raises(SonarprepError, match="SPNN1 .* trained again"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        path = tmp_path / "m.spnn"
        save_checkpoint(path, m.params)
        path.write_bytes(path.read_bytes() + b"JUNK")
        with pytest.raises(SonarprepError, match="4 trailing bytes"):
            load_checkpoint(path)

    def test_non_utf8_tensor_name_rejected(self, tmp_path):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        path = tmp_path / "m.spnn"
        save_checkpoint(path, m.params)
        data = bytearray(path.read_bytes())
        data[data.index(b"conv0.weight")] = 0xFF  # the first name's first byte
        path.write_bytes(bytes(data))
        with pytest.raises(SonarprepError, match="not UTF-8"):
            load_checkpoint(path)

    def test_duplicate_tensor_name_rejected(self, tmp_path):
        """Two table entries with one name would leave the first tensor unread."""
        path = tmp_path / "m.spnn"
        path.write_bytes(raw_checkpoint(b'{"tensors": [["w", [1]], ["w", [1]]]}',
                                        np.array([1, 2], "<f4").tobytes()))
        with pytest.raises(SonarprepError, match="tensor 'w' appears twice"):
            load_checkpoint(path)

    @pytest.mark.parametrize("blob,problem", [
        (raw_checkpoint(b"[]"), "numpy can hold: TypeError"),
        (raw_checkpoint(b'"tensors"'), "numpy can hold: AttributeError"),
        (raw_checkpoint(b'{"classes": ["a", "b"]}'), "numpy can hold: KeyError('tensors')"),
        (raw_checkpoint(b'{"tensors": {"w": [1]}}', bytes(4)), "not enough values to unpack"),
        (raw_checkpoint(b'{"tensors": [["w"]]}'), "not enough values to unpack"),
        (raw_checkpoint(b'{"tensors": [[1, [1]]]}', bytes(4)), "entry [1, [1]] is not [name"),
        (raw_checkpoint(b'{"tensors": [["w", 1]]}', bytes(4)), "entry ['w', 1] is not [name"),
        (raw_checkpoint(b'{"tensors": [["w", [-1]]]}'), "entry ['w', [-1]] is not [name"),
        (raw_checkpoint(b'{"tensors": [["w", [1.5]]]}', bytes(6)),
         "entry ['w', [1.5]] is not [name"),
        (raw_checkpoint(b'{"tensors": [["w", [true]]]}', bytes(4)),
         "entry ['w', [True]] is not [name"),
        (raw_checkpoint(b'{"tensors": [["w", [1]]]}', bytes(4), length=99),
         "header runs past the end"),
        (raw_checkpoint(b'{"tensors": [["w", [0, 1180591620717411303424]]]}'),
         "numpy can hold: ValueError"),
        (raw_checkpoint(b'{"tensors": [["w", [' + b", ".join([b"1"] * 65) + b"]]]}", bytes(4)),
         "numpy can hold: ValueError"),
        (raw_checkpoint(b"[" * 100_000), "numpy can hold: RecursionError"),
        (raw_checkpoint(b'{"tensors": [["\xff", [1]]]}', bytes(4)),
         "numpy can hold: UnicodeDecodeError"),
        (b"SPNN2", "header runs past the end"), (b"SPNN2\x01\x00", "header runs past the end"),
    ], ids=["list", "string", "no-tensors", "table-object", "entry-without-shape",
            "name-not-string", "shape-not-list", "size-negative", "size-float",
            "size-bool", "length-past-end", "size-beyond-numpy", "rank-65",
            "deep-nesting", "name-not-utf8", "no-length", "short-length"])
    def test_malformed_header_rejected(self, tmp_path, blob, problem):
        path = tmp_path / "m.spnn"
        path.write_bytes(blob)
        match = f"{re.escape(str(path))}: .*{re.escape(problem)}"
        with pytest.raises(SonarprepError, match=match):
            load_checkpoint(path)

    def test_fuzzed_checkpoints_load_or_raise_one_error(self, tmp_path):
        """Flipped and cut bytes of a valid file, and headers built by hand
        (not an object, no table, sizes of -1, 1.5 or true, a length past
        the end), load or raise one ``SonarprepError`` that names the file."""
        path = tmp_path / "m.spnn"
        save_checkpoint(path, {"w": np.ones((2, 3)), "b": np.zeros(4)}, {"classes": ["a", "b"]})
        valid = path.read_bytes()

        @settings(max_examples=300, deadline=None)
        @given(flips=st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)),
                              max_size=3),
               cut=st.integers(0, len(valid)))
        def flipped(flips, cut):
            data = bytearray(valid)
            for index, value in flips:
                data[index] = value
            path.write_bytes(bytes(data[:cut]))
            load_or_refuse(path)

        @settings(max_examples=300, deadline=None)
        @given(header=st.one_of(JSON_VALUES, st.fixed_dictionaries({"tensors": TABLES})),
               payload=st.binary(max_size=40), shift=st.integers(-3, 3))
        def built(header, payload, shift):
            text = json.dumps(header).encode()
            path.write_bytes(raw_checkpoint(text, payload, max(0, len(text) + shift)))
            load_or_refuse(path)

        flipped()
        built()

    def test_missing_tensor_rejected(self, tmp_path):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        partial = dict(list(m.params.items())[:-1])
        path = tmp_path / "m.spnn"
        save_checkpoint(path, partial)
        header, tensors = load_checkpoint(path)
        with pytest.raises(SonarprepError, match="checkpoint is missing tensor 'dense6.bias'"):
            apply_checkpoint(init_model(DEFAULT_ARCHITECTURE, 4, seed=0), tensors)

    def test_shape_conflict_rejected(self, tmp_path):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        bad = {k: v.copy() for k, v in m.params.items()}
        bad["dense6.weight"] = np.zeros((32, 7), dtype=np.float32)
        path = tmp_path / "m.spnn"
        save_checkpoint(path, bad)
        header, tensors = load_checkpoint(path)
        with pytest.raises(SonarprepError, match=r"tensor 'dense6.weight' has shape \(32, 7\)"):
            apply_checkpoint(init_model(DEFAULT_ARCHITECTURE, 4, seed=0), tensors)
