"""sonarprep benchmark: one workload, measured for a fixed time.

Run from the root of a source checkout; the package is imported from its
``src`` directory:

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 20 --trace 0

Each pass runs the workload's CLI stages in sequence, in this process,
and checks their outputs. ``--trace 0`` reports the end-to-end metrics
(median seconds per pass, median set-up seconds, peak RSS); ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
from the traced ones. The last line of standard output is one JSON
object; the line before it is a JSON record of the machine, the fixed
counts and the artifact hashes.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

# One BLAS thread. With OpenBLAS's default of one per core, the second
# thread doubled CPU time without shortening training, and oversubscribed
# the cores under `featurize --jobs 2` (0.88 s -> 0.55 s per featurize on
# 2 cores). Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

from layers import WORKLOAD_METRICS, install, largest_span, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Facts, artifact_hashes  # noqa: E402

# set-up is timed in rounds, one before the passes and one after each, so
# that setup_s samples the whole run as wall_s does; a round repeats the
# set-up until SETUP_ROUND_S have passed (at least once, at most
# SETUP_ROUND_MAX times) and setup_s is the median over all rounds
SETUP_ROUND_S, SETUP_ROUND_MAX = 0.25, 100
MIN_PASSES = 3      # per kind of pass (untraced, traced)
WORK_DIR = ".perfbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package(root: Path):
    """Import sonarprep from ``root/src``, never from an installed copy."""
    src = root / "src"
    if not (src / "sonarprep" / "__init__.py").is_file():
        raise SystemExit(f"error: no sonarprep sources under {src}; "
                         "run from the root of a checkout")
    sys.path.insert(0, str(src))
    import sonarprep
    if Path(sonarprep.__file__).resolve().parent != (src / "sonarprep").resolve():
        raise SystemExit(f"error: imported sonarprep from {sonarprep.__file__}")
    return sonarprep


def make_cli_runner(cli_main):
    import click

    def run_cli(args) -> tuple[bool, str]:
        """Invoke one CLI command in-process; returns (succeeded, output)."""
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                cli_main.main(args=[str(a) for a in args], prog_name="sonarprep",
                              standalone_mode=False)
        except click.ClickException as exc:
            return False, buf.getvalue() + "Error: " + exc.format_message()
        except Exception:  # a traceback is a failed operation, not a crash
            return False, buf.getvalue() + traceback.format_exc()
        return True, buf.getvalue()

    return run_cli


def blas_threads() -> int:
    """OpenBLAS thread count, read from the library numpy loaded (-1 if unknown)."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def machine() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads()}


def run_pass(workload, setup_root: Path, out: Path, run_cli, tracer=None):
    """One closed-loop pass over the workload's stages.

    Returns (stage seconds, attempted, failed, problems, facts, hashes).
    Each stage invocation is one operation. Only the invocations are
    timed, not the checks.
    """
    facts = Facts(counts=dict(workload.setup_counts))
    stage_s, problems = {}, []
    attempted = failed = 0
    for stage in workload.stages(setup_root, out, facts):
        attempted += 1
        start = time.perf_counter()
        if tracer is None:
            ok, output = run_cli(stage.args)
        else:
            with tracer.span(f"cli.{stage.name}"):
                ok, output = run_cli(stage.args)
        stage_s[stage.name] = time.perf_counter() - start
        if not ok:
            found = [f"{stage.name} failed: {output.strip().splitlines()[-1:]}"]
        else:
            try:
                found = stage.check()
            except (OSError, ValueError, KeyError) as exc:
                found = [f"{stage.name} output unreadable: {exc!r}"]
        if found:
            failed += 1
            problems += found
    hashes = artifact_hashes(out)
    shutil.rmtree(out, ignore_errors=True)
    return stage_s, attempted, failed, problems, facts, hashes


def setup_round(workload, root: Path, run_cli, times: list) -> float:
    """Set up under ``root`` for one round, appending each set-up's
    seconds to ``times``; leaves the last set-up in place and returns the
    round's seconds."""
    round_start, spent = time.perf_counter(), 0.0
    for _ in range(SETUP_ROUND_MAX):
        shutil.rmtree(root, ignore_errors=True)
        start = time.perf_counter()
        workload.setup(root, run_cli)
        times.append(time.perf_counter() - start)
        spent += times[-1]
        if spent >= SETUP_ROUND_S:
            break
    return time.perf_counter() - round_start


def measure(workload, seed: int, seconds: float, trace: bool, root: Path):
    sonarprep = import_package(root)
    from sonarprep.cli import main as cli_main
    run_cli = make_cli_runner(cli_main)
    work = root / WORK_DIR / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload.write_inputs(work / "inputs", seed)  # untimed: not the package's work
        setup_s, setup_root = [], work / "setup"
        setup_round(workload, setup_root, run_cli, setup_s)

        # an untimed warm-up pass fills caches and gives the reference hashes
        _, attempted, failed, problems, facts, reference = run_pass(
            workload, setup_root, work / "warmup", run_cli)
        tracers = []
        walls = {False: [], True: []}
        stage_runs = {False: [], True: []}
        deadline = time.perf_counter() + seconds
        n = 0
        while (n < MIN_PASSES * (1 + trace) or time.perf_counter() < deadline):
            tracer = None
            if trace and n % 2 == 1:
                tracer = Tracer()
                tracers.append(tracer)
                install(tracer, sonarprep)
            try:
                stage_s, att, fail, probs, facts, hashes = run_pass(
                    workload, setup_root, work / f"pass{n}", run_cli, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            att += 1  # the pass's artifacts must match the warm-up's
            if hashes != reference:
                fail += 1
                probs.append(f"pass {n} artifacts differ from the warm-up's: " + ", ".join(
                    k for k in sorted(set(hashes) | set(reference))
                    if hashes.get(k) != reference.get(k)))
            attempted += att
            failed += fail
            problems += probs
            walls[tracer is not None].append(sum(stage_s.values()))
            stage_runs[tracer is not None].append(stage_s)
            n += 1
            # the passes keep their own set-up; the round's time is not theirs
            deadline += setup_round(workload, work / "setup-again", run_cli, setup_s)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_DIR).rmdir()

    stage_median = {name: statistics.median(run[name] for run in stage_runs[False])
                    for name in stage_runs[False][0]}
    extra = workload.workload_metrics(stage_median, facts)
    record = {
        "workload": workload.name, "seed": seed, "machine": machine(),
        "pass_walls": {"untraced": walls[False], "traced": walls[True]},
        "setup_s": setup_s, "stage_s_median": stage_median,
        "counts": facts.counts, "hashes": reference,
        **extra,
    }
    wall_s = statistics.median(walls[False])
    if not trace:
        metrics = {"wall_s": (wall_s, "s"),
                   "setup_s": (statistics.median(setup_s), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        per_pass = [layer_metrics(t, threading.get_ident(), workload.jobs)
                    for t in tracers]
        metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
                   for name, (_, unit) in per_pass[0].items()}
        for name, unit in WORKLOAD_METRICS:
            metrics[name] = (extra.get(name, 0.0), unit)
        metrics["trace.overhead_frac"] = (
            statistics.median(walls[True]) / wall_s - 1.0, "ratio")
        silent = sorted({name for t in tracers for name in workload.expected_spans
                         if name not in t.summary()})
        attempted += 1  # every span the workload should fire did
        if silent:
            failed += 1
            problems.append(f"spans that never fired: {', '.join(silent)}")
        adam_steps = tracers[0].summary().get("nn.adam_step")
        record["counts"].update({
            "resample_calls": metrics["dsp.resample.calls"][0],
            "grad_cam_calls": metrics["nn.grad_cam.calls"][0],
            "train_steps": adam_steps.calls if adam_steps else 0,
            "nn_gflop": metrics["nn.gflop"][0],
        })
        record["largest_span"] = largest_span(tracers[0])
    record["error_rate"] = failed / attempted
    record["problems"] = problems[:20]
    return metrics, attempted, failed, record


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind so the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.environ.pop("SONARPREP_SEED", None)  # inputs come from --seed alone
    workload = WORKLOADS[args.workload]()
    metrics, attempted, failed, record = measure(
        workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    correct = failed == 0
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
