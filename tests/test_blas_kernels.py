"""Which artifacts keep their bytes across OpenBLAS kernels.

The network's float32 matrix products sum in an order that depends on the
CPU kernel OpenBLAS picks, so a checkpoint differs between kernels. This
test runs one small ingest -> split -> featurize -> train pipeline in two
child processes, each with ``OPENBLAS_CORETYPE`` set in its own
environment, and pins the artifacts that must not depend on the kernel.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import sonarprep
from synthdata import make_corpus

# Both kernels run on any x86-64 CPU with AVX, and they sum float32
# products in different orders: a checkpoint trained under each differs.
KERNELS = ("Nehalem", "Sandybridge")

CONFIG = """\
data.rate = 8k
data.segment_seconds = 5.0
feature.model_rate = 8k
feature.win_length = 256
feature.hop_length = 80
feature.n_mels = 24
feature.f_min = 50
feature.f_max = 3500
train.batch_size = 8
train.max_epochs = 2
train.patience = 2
train.seeds = 0
split.ratios = 0.5,0.25,0.25
split.seed = 7
"""

# Runs the pipeline into argv[2] from the corpus and config in argv[1],
# then prints the OpenBLAS kernel it ran on (empty if it cannot be read).
CHILD = """\
import ctypes, sys
from sonarprep.cli import main
root, out = sys.argv[1:3]
for args in (
        ["ingest", "--corpus-root", root + "/corpus", "--out", out + "/manifest.csv"],
        ["split", "--config", root + "/run.cfg", "--manifest", out + "/manifest.csv",
         "--out", out + "/split.csv"],
        ["featurize", "--config", root + "/run.cfg", "--manifest", out + "/manifest.csv",
         "--split-file", out + "/split.csv", "--corpus-root", root + "/corpus",
         "--out", out + "/feats"],
        ["train", "--config", root + "/run.cfg", "--features", out + "/feats",
         "--out", out + "/runs"]):
    main(args, standalone_mode=False)
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
core = b""
for lib in libs:
    fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
    if fn is not None:
        fn.argtypes, fn.restype = [], ctypes.c_char_p
        core = fn()
print("core=" + core.decode())
"""

# Pinned, and why each cannot depend on the kernel:
PINNED = (
    "manifest.csv",           # WAV headers only
    "split.csv",              # a seeded shuffle of recording IDs
    "feats/train.sprf",       # the log-mel runs through a float64 product:
    "feats/val.sprf",         #   measured equal across kernels, not proven
    "feats/test.sprf",
    "feats/norm_stats.json",  # min and max of the float64 features
    "feats/classes.json",
    "feats/run.json",         # the config hash, seeds and versions
    "runs/run.json",          # the same for train: it names no checkpoint
)
# Pinned up to the first tensor value: the magic, the header length and the
# JSON header, which holds the tensor table and the classes.json record.
PINNED_HEADERS = ("runs/model_seed0.spnn",)
# Not pinned: the tensor values of runs/model_seed0.spnn (float32 products,
# another order per kernel), runs/history_seed0.csv (losses of those
# weights), and runs/summary.json and runs/confusion_mean.csv (accuracies
# and counts of those weights, which move when a segment sits on a decision
# boundary).


def header_bytes(data: bytes) -> bytes:
    """A checkpoint's bytes before its first tensor value."""
    return data[:9 + int.from_bytes(data[5:9], "little")]


def digests(out: Path) -> dict[str, str]:
    found = {name: (out / name).read_bytes() for name in PINNED}
    found.update({f"{name} header": header_bytes((out / name).read_bytes())
                  for name in PINNED_HEADERS})
    return {name: hashlib.sha256(data).hexdigest() for name, data in found.items()}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not Path("/proc/self/maps").exists(),
                    reason="OpenBLAS x86-64 kernel names, read through /proc")
def test_kernel_independent_artifacts_keep_their_bytes(tmp_path):
    make_corpus(tmp_path / "corpus", recordings_per_class=4, seconds=15.0,
                rate=8000, seed=1,
                classes={"alpha": (300.0, 1200.0), "bravo": (700.0, 2500.0)})
    (tmp_path / "run.cfg").write_text(CONFIG)
    src = str(Path(sonarprep.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    results = {}
    for kernel in KERNELS:
        out = tmp_path / kernel
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path), str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        core = proc.stdout.splitlines()[-1].removeprefix("core=")
        if core != kernel:
            pytest.skip(f"OpenBLAS ran {core or 'an unnamed kernel'}, not {kernel}")
        results[kernel] = digests(out)
    first, second = (results[k] for k in KERNELS)
    assert first == second
