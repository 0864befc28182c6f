"""Test-set metrics, multi-run aggregation, and report rendering.

Confusion matrices put the true class on rows and the predicted class
on columns. Multi-run summaries report mean accuracy with the sample
standard deviation, formatted as percentages to one decimal place.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import SonarprepError
from .dsp import write_feature_archive
from .files import write_json
from .nn import ModelState, grad_cam, infer


class EmptyTestSetError(SonarprepError):
    """Evaluation needs at least one sample."""


@dataclass
class Metrics:
    accuracy: float
    per_class_recall: np.ndarray
    confusion: np.ndarray  # [C x C] counts, rows = truth, cols = prediction


@dataclass
class RunAggregate:
    mean_accuracy: float
    std_accuracy: float
    mean_confusion: np.ndarray


def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("label arrays must have matching length")
    if y_true.size and (y_true.min() < 0 or y_true.max() >= n_classes or
                        y_pred.min() < 0 or y_pred.max() >= n_classes):
        raise ValueError("labels out of range")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def metrics_from_predictions(y_true, y_pred, n_classes: int) -> Metrics:
    cm = confusion_matrix(y_true, y_pred, n_classes)
    total = cm.sum()
    accuracy = float(np.trace(cm) / total) if total else 0.0
    support = cm.sum(axis=1)
    recall = np.divide(np.diag(cm), support, where=support > 0,
                       out=np.zeros(n_classes, dtype=np.float64))
    return Metrics(accuracy=accuracy, per_class_recall=recall, confusion=cm)


def predict(model: ModelState, features: np.ndarray) -> np.ndarray:
    """Argmax class per sample; ties resolve to the lowest class index."""
    return np.argmax(infer(model, features), axis=1)


def evaluate(model: ModelState, features: np.ndarray, labels: np.ndarray) -> Metrics:
    """Accuracy, per-class recall, and the confusion matrix on a test set."""
    labels = np.asarray(labels)
    if features.shape[0] == 0 or labels.size == 0:
        raise EmptyTestSetError("test set is empty")
    return metrics_from_predictions(labels, predict(model, features), model.n_classes)


def aggregate_runs(all_metrics: list[Metrics]) -> RunAggregate:
    """Mean and sample std of accuracy plus the count-averaged confusion."""
    if not all_metrics:
        raise ValueError("need at least one run to aggregate")
    accs = np.array([m.accuracy for m in all_metrics], dtype=np.float64)
    std = float(accs.std(ddof=1)) if accs.size > 1 else 0.0
    mean_conf = np.mean([m.confusion for m in all_metrics], axis=0)
    return RunAggregate(mean_accuracy=float(accs.mean()), std_accuracy=std,
                        mean_confusion=mean_conf)


def aggregate_cams(model: ModelState, features: np.ndarray,
                   labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean activation map per (true class, correct/misclassified) bucket.

    Maps are computed against each sample's predicted class, so the
    misclassified buckets show what the model actually looked at. Returns
    ``maps`` [classes x 2 x h x w] (float64 means) and ``counts``
    [classes x 2]; index 0 is correct, 1 misclassified, and an empty
    bucket's map is zeros.
    """
    labels = np.asarray(labels)
    if features.shape[0] == 0:
        raise EmptyTestSetError("no samples to aggregate maps over")
    if labels.min() < 0 or labels.max() >= model.n_classes:
        raise ValueError("labels out of range")
    maps = counts = None
    for x, label in zip(features, labels):
        cam, predicted = grad_cam(model, x[None, None, :, :])
        if maps is None:
            maps = np.zeros((model.n_classes, 2) + cam.shape)
            counts = np.zeros((model.n_classes, 2), dtype=np.int64)
        bucket = (label, int(predicted != label))
        maps[bucket] += cam
        counts[bucket] += 1
    filled = counts[:, :, None, None]
    np.divide(maps, filled, out=maps, where=filled > 0)
    return maps, counts


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def format_mean_std(mean: float, std: float) -> str:
    """Render a fraction as 'NN.N ± N.N' in percent."""
    return f"{mean * 100:.1f} ± {std * 100:.1f}"


def render_sweep_table(cells: list[dict]) -> str:
    """CSV with one row per data rate and one column per model rate, from
    the cell records of ``sweep_raw.json``."""
    by_rates = {(cell["data_rate"], cell["model_rate"]): cell for cell in cells}
    data_rates = sorted({rd for rd, _ in by_rates})
    model_rates = sorted({rm for _, rm in by_rates})
    lines = ["data_rate_hz," + ",".join(str(rm) for rm in model_rates)]
    for rd in data_rates:
        row = [str(rd)]
        for rm in model_rates:
            cell = by_rates.get((rd, rm))
            row.append(format_mean_std(cell["mean_accuracy"], cell["std_accuracy"])
                       if cell is not None else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def render_confusion_csv(confusion: np.ndarray, classes) -> str:
    """Counts (or count-averages) with labeled rows and columns."""
    return _confusion_table(classes, [[_format_count(v) for v in row] for row in confusion])


def _confusion_table(classes, cells) -> str:
    """CSV text: a header of the class names, then one row of cells per true class."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["true\\pred", *classes])
    writer.writerows([label, *row] for label, row in zip(classes, cells))
    return out.getvalue()


def _format_count(v) -> str:
    as_float = float(v)
    return str(int(as_float)) if as_float.is_integer() else f"{as_float:.2f}"


def render_confusion_rownorm_csv(confusion: np.ndarray, classes) -> str:
    """Row-normalized view: each row sums to one (recall on the diagonal)."""
    conf = np.asarray(confusion, dtype=np.float64)
    row_sums = conf.sum(axis=1, keepdims=True)
    normed = np.divide(conf, row_sums, where=row_sums > 0,
                       out=np.zeros_like(conf))
    return _confusion_table(classes, [[f"{v:.4f}" for v in row] for row in normed])


def write_cam_report(out_dir, maps: np.ndarray, counts: np.ndarray, classes) -> None:
    """Write the mean maps of :func:`aggregate_cams` in the feature-archive
    layout plus a JSON sidecar. Item ``2c + k`` is class ``c``'s correct
    (``k = 0``) or misclassified (``k = 1``) map."""
    n_classes, _, height, width = maps.shape
    sidecar = [{
        "item": item,
        "class_index": item // 2,
        "class_label": classes[item // 2],
        "correct": item % 2 == 0,
        "count": int(count),
    } for item, count in enumerate(counts.ravel())]
    write_feature_archive(out_dir / "cams.sprf", maps.reshape(-1, height, width),
                          np.repeat(np.arange(n_classes), 2))
    write_json(out_dir / "cams.json", {"map_shape": [height, width], "buckets": sidecar})
