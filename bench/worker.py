"""One benchmark process: set up a workload, then run its timed phase.

Started by run.py in a fresh interpreter, so module caches start empty
as they do for every CLI call or session.  It prints one JSON object on
its last line of standard output:

- ``setup_s`` and ``setup_wall_s``: reference and wall seconds (see
  refclock.py) from ``--started``, the time.monotonic() at which run.py
  started this process, to the end of set-up;
- with ``--setup-only`` nothing else;
- otherwise the answers' reference and wall times, every op with its
  latencies and check, the generated inputs, the peak resident memory,
  the machine speed, the machine facts and, with ``--trace 1``, the
  per-layer metrics.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --tmpdir DIR --started T [--setup-only] [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

from refclock import ReferenceClock
from tracing import Recorder, install, summarize
from workloads import WORKLOADS, Ops

ROOT = Path(__file__).resolve().parent.parent


def blas_threads():
    """Thread count of the BLAS that numpy loaded, or None if unknown."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts():
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_threads": blas_threads(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="JSONL path for the traced spans")
    args = parser.parse_args(argv)

    clock = ReferenceClock()
    clock.sample()
    recorder = Recorder() if args.trace else None
    ops = Ops(clock, tracer=recorder)
    workload = WORKLOADS[args.workload](args.seed, ops, args.tmpdir)
    if recorder is not None:
        install(recorder)
    import brightghz

    source = Path(brightghz.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: imported brightghz from {source}, not from this checkout", file=sys.stderr)
        return 2
    workload.setup()
    setup_end = time.monotonic()
    clock.sample()
    setup = {
        "setup_s": clock.seconds(args.started, setup_end),
        "setup_wall_s": clock.wall(args.started, setup_end),
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    answers = []
    for _ in range(workload.answers(args.seconds)):
        start = time.monotonic()
        workload.answer()
        answers.append((start, time.monotonic()))
    clock.sample()
    timed_start, timed_end = answers[0][0], answers[-1][1]

    result = {
        **setup,
        "answers": [clock.seconds(a, b) for a, b in answers],
        "answers_wall": [clock.wall(a, b) for a, b in answers],
        "ops": [
            {**asdict(op), "seconds": clock.seconds(op.start, op.end), "wall": op.end - op.start}
            for op in ops.done
        ],
        "inputs": workload.inputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine_speed": clock.speed(),
        "machine": machine_facts(),
    }
    if recorder is not None:
        metrics = summarize(recorder, clock, timed_start, timed_end)
        metrics["cli.csv_bytes"] = (getattr(workload, "csv_bytes", 0), "bytes")
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in recorder.dump():
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
