"""Which package functions are spanned, what each call records, and the
per-layer metrics derived from the spans.

Layers are the package modules: cli, wavio, dsp, datasplit, augment, nn,
trainer, evaluation. CLI stages are spanned by the benchmark around each
command (``cli.<stage>``); everything else is spanned by wrapping the
module-level function at every place it is referenced.
"""

from __future__ import annotations

import importlib
import os

from tracer import Tracer, percentile, useful_ratio

MODULES = ("cli", "wavio", "dsp", "datasplit", "augment", "nn", "trainer",
           "evaluation")

SPANNED = {
    "wavio": ("parse_wav",),
    "dsp": ("resample", "segment", "features_for_segment", "mel_filterbank",
            "write_feature_archive", "read_feature_archive"),
    "datasplit": ("compute_norm_stats", "normalize", "stratified_split"),
    "augment": ("spec_augment", "mixup"),
    "nn": ("forward", "backward", "adam_step", "grad_cam"),
    "trainer": ("train", "validation_pass", "run_seeds", "build_feature_sets",
                "sweep"),
    "evaluation": ("predict", "evaluate", "aggregate_cams"),
}

STAGES = ("ingest", "split", "featurize", "train", "eval", "gradcam", "sweep")

# metrics that belong to one workload's stages; reported as 0 elsewhere
WORKLOAD_METRICS = (
    ("train_samples_per_s", "1/s"), ("final_val_loss", "nats"),
    ("audio_s_per_s", "s/s"), ("eval_samples_per_s", "1/s"),
    ("cam_samples_per_s", "1/s"),
)


def forward_flops(arch, n_classes: int, shape) -> int:
    """Multiply-add FLOPs (2 per MAC) of one forward pass of ``arch`` on an
    input of ``shape`` = (batch, channels, height, width).

    Counts convolutions and dense layers; ReLU and pooling are not counted.
    """
    from sonarprep.nn import Conv, Dense, GlobalAvgPool, MaxPool
    batch, channels, height, width = shape
    flops = 0
    for layer in arch.layers:
        if isinstance(layer, Conv):
            height = height + 2 * layer.pad - layer.kernel + 1
            width = width + 2 * layer.pad - layer.kernel + 1
            flops += (2 * batch * height * width * layer.out_channels
                      * channels * layer.kernel ** 2)
            channels = layer.out_channels
        elif isinstance(layer, MaxPool):
            height, width = height // layer.size, width // layer.size
        elif isinstance(layer, GlobalAvgPool):
            height = width = 1
        elif isinstance(layer, Dense):
            out = layer.out_features or n_classes
            flops += 2 * batch * channels * height * width * out
            channels, height, width = out, 1, 1
    return flops


class Probes:
    """Per-call attributes for the spanned functions.

    Backward FLOPs are twice the forward FLOPs of the model's latest
    forward input: the package computes both the weight and the input
    gradient of every convolution and dense layer.
    """

    def __init__(self):
        self._last_forward_flops: dict[int, int] = {}

    def parse_wav(self, args, kwargs, result):
        return {"mb": len(args[0]) / 1e6}

    def resample(self, args, kwargs, result):
        w = args[0]
        target = int(args[1] if len(args) > 1 else kwargs["target_rate"])
        if target == w.rate:
            return {"converted": 0}
        return {"converted": 1, "audio_s": w.samples.size / w.rate,
                "key": (w.source_id, w.rate, target)}

    def write_feature_archive(self, args, kwargs, result):
        return {"mb": os.path.getsize(args[0]) / 1e6}

    def forward(self, args, kwargs, result):
        model, batch = args[0], args[1]
        flops = forward_flops(model.arch, model.n_classes, batch.shape)
        self._last_forward_flops[id(model)] = flops
        return {"gflop": flops / 1e9}

    def backward(self, args, kwargs, result):
        return {"gflop": 2 * self._last_forward_flops.get(id(args[0]), 0) / 1e9}


def install(tracer: Tracer, package) -> None:
    """Span every function in SPANNED wherever the package references it."""
    probes = Probes()
    targets = {}
    for module_name, names in SPANNED.items():
        module = importlib.import_module(f"{package.__name__}.{module_name}")
        for name in names:
            targets[getattr(module, name)] = (f"{module_name}.{name}",
                                              getattr(probes, name, None))
    modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                           for m in MODULES]
    tracer.install(modules, targets)


def layer_metrics(tracer: Tracer, main_thread: int,
                  jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, each with its unit."""
    stats = tracer.summary()
    out: dict[str, tuple[float, str]] = {}

    def calls(name):
        return stats[name].calls if name in stats else 0

    def secs(name):
        return stats[name].total_s if name in stats else 0.0

    def self_secs(name):
        return stats[name].self_s if name in stats else 0.0

    def ms_pct(name, q, outside=None):
        return percentile(tracer.durations(name, outside), q) * 1e3

    def attr(name, key):
        return stats[name].attrs.get(key, 0.0) if name in stats else 0.0

    for stage in STAGES:
        out[f"cli.{stage}.s"] = (secs(f"cli.{stage}"), "s")
    featurize_s = secs("cli.featurize")
    busy = tracer.worker_busy_s("cli.featurize", main_thread)
    out["cli.featurize.worker_busy_frac"] = (
        busy / (jobs * featurize_s) if featurize_s else 0.0, "ratio")

    out["wavio.parse_wav.calls"] = (calls("wavio.parse_wav"), "count")
    out["wavio.parse_wav.s"] = (secs("wavio.parse_wav"), "s")
    out["wavio.parse_wav.mb"] = (attr("wavio.parse_wav", "mb"), "MB")

    out["dsp.resample.calls"] = (calls("dsp.resample"), "count")
    out["dsp.resample.s"] = (secs("dsp.resample"), "s")
    audio_s = attr("dsp.resample", "audio_s")
    out["dsp.resample.ms_per_audio_s"] = (
        secs("dsp.resample") * 1e3 / audio_s if audio_s else 0.0, "ms/s")
    out["dsp.resample.useful_ratio"] = (
        useful_ratio(tracer.attr_values("dsp.resample", "key")), "ratio")
    out["dsp.features_for_segment.calls"] = (
        calls("dsp.features_for_segment"), "count")
    out["dsp.features_for_segment.s"] = (secs("dsp.features_for_segment"), "s")
    out["dsp.features_for_segment.ms_p50"] = (
        ms_pct("dsp.features_for_segment", 50), "ms")
    out["dsp.mel_filterbank.calls"] = (calls("dsp.mel_filterbank"), "count")
    out["dsp.write_feature_archive.s"] = (secs("dsp.write_feature_archive"), "s")
    out["dsp.read_feature_archive.s"] = (secs("dsp.read_feature_archive"), "s")
    out["dsp.write_feature_archive.mb"] = (
        attr("dsp.write_feature_archive", "mb"), "MB")

    for name in ("compute_norm_stats", "normalize", "stratified_split"):
        out[f"datasplit.{name}.s"] = (secs(f"datasplit.{name}"), "s")

    out["augment.spec_augment.calls"] = (calls("augment.spec_augment"), "count")
    out["augment.spec_augment.s"] = (secs("augment.spec_augment"), "s")
    out["augment.mixup.s"] = (secs("augment.mixup"), "s")

    # calls and seconds count every call; the percentiles leave out the
    # one-sample calls made inside nn.grad_cam, so they describe the batched
    # training and predict calls however Grad-CAM is batched
    for name in ("forward", "backward"):
        out[f"nn.{name}.calls"] = (calls(f"nn.{name}"), "count")
        out[f"nn.{name}.s"] = (secs(f"nn.{name}"), "s")
        out[f"nn.{name}.ms_p50"] = (ms_pct(f"nn.{name}", 50, "nn.grad_cam"), "ms")
        out[f"nn.{name}.ms_p90"] = (ms_pct(f"nn.{name}", 90, "nn.grad_cam"), "ms")
    out["nn.adam_step.s"] = (secs("nn.adam_step"), "s")
    gflop = attr("nn.forward", "gflop") + attr("nn.backward", "gflop")
    nn_s = secs("nn.forward") + secs("nn.backward")
    out["nn.gflop"] = (gflop, "GFLOP")
    out["nn.gflop_per_s"] = (gflop / nn_s if nn_s else 0.0, "GFLOP/s")
    out["nn.grad_cam.calls"] = (calls("nn.grad_cam"), "count")
    out["nn.grad_cam.s"] = (secs("nn.grad_cam"), "s")
    out["nn.grad_cam.ms_p50"] = (ms_pct("nn.grad_cam", 50), "ms")

    out["evaluation.aggregate_cams.s"] = (secs("evaluation.aggregate_cams"), "s")
    out["evaluation.aggregate_cams.self_s"] = (
        self_secs("evaluation.aggregate_cams"), "s")
    out["evaluation.predict.s"] = (secs("evaluation.predict"), "s")
    out["evaluation.evaluate.s"] = (secs("evaluation.evaluate"), "s")

    out["trainer.train.s"] = (secs("trainer.train"), "s")
    out["trainer.train.self_s"] = (self_secs("trainer.train"), "s")
    out["trainer.validation_pass.s"] = (secs("trainer.validation_pass"), "s")
    out["trainer.run_seeds.s"] = (secs("trainer.run_seeds"), "s")
    out["trainer.build_feature_sets.calls"] = (
        calls("trainer.build_feature_sets"), "count")
    out["trainer.build_feature_sets.s"] = (secs("trainer.build_feature_sets"), "s")
    return out


def largest_span(tracer: Tracer) -> str:
    """Name of the span with the most self time, CLI stages aside."""
    stats = tracer.summary()
    named = [(s.self_s, name) for name, s in stats.items()
             if not name.startswith("cli.")]
    return max(named)[1] if named else ""
