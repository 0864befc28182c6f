"""Unit tests for the benchmark's span recorder and derived metrics.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import threading
import types

import pytest

from layers import forward_flops
from tracer import Tracer, percentile, useful_ratio


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_only_children_on_the_same_thread():
    clock = ManualClock()
    tracer = Tracer(clock)

    def worker():
        with tracer.span("work"):
            clock.now += 4.0

    with tracer.span("stage"):
        clock.now += 1.0
        with tracer.span("child"):
            clock.now += 2.0
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        clock.now += 1.0

    stats = tracer.summary()
    assert stats["stage"].total_s == 8.0
    assert stats["stage"].self_s == 6.0  # the worker's 4 s is not its child
    assert stats["child"].self_s == 2.0
    assert stats["work"].self_s == 4.0
    assert tracer.worker_busy_s("stage", threading.get_ident()) == 4.0


def test_worker_busy_counts_only_root_spans_inside_the_window():
    clock = ManualClock()
    tracer = Tracer(clock)

    def worker():
        with tracer.span("outer"):
            clock.now += 1.0
            with tracer.span("inner"):  # nested: not double-counted
                clock.now += 1.0

    with tracer.span("stage"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
    thread = threading.Thread(target=worker)  # outside the stage window
    thread.start()
    thread.join(timeout=10)
    assert tracer.worker_busy_s("stage", threading.get_ident()) == 2.0


def test_install_wraps_every_reference_and_uninstall_restores():
    home = types.ModuleType("home")
    exec("def f(x):\n    return x + 1\n", home.__dict__)
    user = types.ModuleType("user")
    user.f = home.f
    exec("def g(x):\n    return f(x) * 2\n", user.__dict__)
    original = home.f

    tracer = Tracer()
    tracer.install([home, user],
                   {original: ("home.f", lambda args, kwargs, result: {"n": args[0]})})
    assert user.g(1) == 4 and home.f(2) == 3
    stats = tracer.summary()
    assert stats["home.f"].calls == 2
    assert stats["home.f"].attrs["n"] == 3
    tracer.uninstall()
    assert home.f is original and user.f is original


def test_span_closes_when_the_wrapped_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap(boom, "boom")
    with pytest.raises(KeyError):
        wrapped()
    with tracer.span("after"):
        pass
    stats = tracer.summary()
    assert stats["boom"].calls == 1
    assert [s.depth for s in tracer.spans] == [0, 0]


def test_durations_can_leave_out_calls_inside_another_span():
    clock = ManualClock()
    tracer = Tracer(clock)
    with tracer.span("forward"):      # a batched call
        clock.now += 5.0
    for _ in range(3):                # one-sample calls inside Grad-CAM
        with tracer.span("grad_cam"):
            with tracer.span("forward"):
                clock.now += 1.0
    assert sorted(tracer.durations("forward")) == [1.0, 1.0, 1.0, 5.0]
    assert tracer.durations("forward", outside="grad_cam") == [5.0]
    assert tracer.durations("backward", outside="grad_cam") == []
    assert [s.parent for s in tracer.spans if s.name == "forward"] == \
        [None, "grad_cam", "grad_cam", "grad_cam"]


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 100) == 10
    assert percentile(list(range(1, 101)), 90) == 90
    assert percentile([3.5], 90) == 3.5
    assert percentile([], 50) == 0.0
    assert percentile([0.2, 0.1, 0.4, 0.3], 50) == 0.2  # a measured value
    with pytest.raises(ValueError):
        percentile(values, 0)


def test_useful_ratio_counts_repeated_conversions():
    assert useful_ratio([]) == 1.0
    # a sweep resamples every (recording, data rate) once per model rate
    keys = [(rec, 22050, data_rate)
            for _model_rate in (8000, 16000)
            for data_rate in (4000, 8000)
            for rec in ("a", "b", "c")]
    assert useful_ratio(keys) == 0.5
    assert useful_ratio(sorted(set(keys))) == 1.0


def test_forward_flops_counts_convolutions_and_dense_layers():
    from sonarprep.nn import DEFAULT_ARCHITECTURE
    conv0 = 2 * 126 * 32 * 16 * 1 * 9
    conv3 = 2 * 63 * 16 * 32 * 16 * 9   # after 2x2 pooling
    dense = 2 * 32 * 4
    assert forward_flops(DEFAULT_ARCHITECTURE, 4, (1, 1, 126, 32)) == conv0 + conv3 + dense
    assert forward_flops(DEFAULT_ARCHITECTURE, 4, (16, 1, 126, 32)) == \
        16 * (conv0 + conv3 + dense)
