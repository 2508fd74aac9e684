"""brightghz benchmark: end-to-end metrics per workload, per-layer when traced.

Run from the repository root:

    python3 bench/run.py --workload bell_scan --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py):

- bell_scan: cold Mermin grid over [0.05, 0.85] and the bisected Bell
  threshold; cold-resummation-bound.
- loss_scan: eta threshold, both witnesses and the tensor on warm states;
  Stokes and loss kernels with no resummation in the timed phase.
- stats_cli: table1 and pk_curve n = 1, 2, 3 through the CLI into CSV;
  photon statistics and the CSV path, with no Stokes work.

Every time is given in reference seconds (refclock.py): wall time
rescaled by the speed at which the process ran a fixed piece of
reference work, timed between ops.  The host drifts in speed by up to
1.6 times over minutes; the rescaling takes that drift out, while a
change to the library's own code moves the figures in full.  Wall
seconds and the machine speed are printed and recorded next to them.

With ``--trace 0`` the run starts the workload in fresh interpreters:
SETUP_REPEATS - 1 that only set up, then one that sets up and runs the
timed phase.  It reports

- setup_s: median over those processes of the time from starting the
  interpreter to the end of set-up (import plus the cache warm-up, and
  for loss_scan the states);
- solve_s: median time of one whole answer in the timed phase,
  which repeats the answer about ``--seconds`` worth of times (a count
  fixed per workload, so every run does the same work);
- op_p50_s and op_tail_s: median op latency, and the latency at the
  highest percentile with at least ten samples beyond it (never below
  the median; the percentile and sample count are printed);
- peak_rss_mb: peak resident memory of the timed process.

With ``--trace 1`` it runs the workload once untraced and once with every
public entry point wrapped (tracing.py), and reports the per-layer
metrics of the traced run, the tracing overhead (traced solve_s over
untraced), failed_ratio over both runs, and the untraced run's solve
time in wall seconds and machine speed.

Every op is checked with the acceptance tolerances; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The full record, with machine facts, generated
inputs and every op, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 3
DEADLINE_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Layer-share expectations of the current design, reported next to the
# per-layer metrics; a planned optimisation may change them on purpose.
DESIGN_CHECKS = {
    "bell_scan": ("pade.resum carries most of solve_s", lambda m: m["share.pade"] > 0.5),
    "loss_scan": ("no resummation in the timed phase", lambda m: m["pade.resum.calls"] == 0),
    "stats_cli": ("no Stokes work", lambda m: m["stokes.stokes_expectation.calls"] == 0),
}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in BLAS_ENV:
        env.setdefault(name, "1")
    return env


def spawn(args, deadline: float) -> dict:
    """Run worker.py to completion and return its result."""
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--started", repr(started)]
    timeout = deadline - started
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker timed out after {timeout:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def tail_latency(latencies) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Nearest rank: the sample with exactly ten larger-ranked samples, never
    below the median; returns (latency, percentile).
    """
    ranked = sorted(latencies)
    n = len(ranked)
    index = n - 11
    if index < n // 2:
        return statistics.median(ranked), 50.0
    return ranked[index], 100.0 * (index + 1) / n


def end_to_end(setups, result) -> dict:
    latencies = [op["seconds"] for op in result["ops"]]
    tail, pct = tail_latency(latencies)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "solve_s": (statistics.median(result["answers"]), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    print(
        f"ops: {len(latencies)} in {len(result['answers'])} answers;"
        f" op_tail_s is p{pct:.1f} ({len(latencies)} samples);"
        f" set-up samples {[round(s['setup_s'], 3) for s in setups]}"
    )
    print(
        f"wall seconds (machine speed {result['machine_speed']:.3f} of nominal):"
        f" setup {statistics.median(s['setup_wall_s'] for s in setups):.4g},"
        f" solve {statistics.median(result['answers_wall']):.4g},"
        f" op p50 {statistics.median(op['wall'] for op in result['ops']):.4g}"
    )
    return metrics


def print_ops(result) -> None:
    by_name: dict[str, list[float]] = {}
    for op in result["ops"]:
        by_name.setdefault(op["name"], []).append(op["seconds"])
    for name, values in sorted(by_name.items()):
        print(
            f"  op {name}: n={len(values)}"
            f" median={statistics.median(values):.4f} s max={max(values):.4f} s"
        )
    for op in result["ops"]:
        if not op["ok"]:
            print(f"  FAILED {op['name']} {op['args']}: {op['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="brightghz benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "brightghz" / "__init__.py").is_file():
        print(f"error: no brightghz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tmpdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--tmpdir", str(tmpdir),
    ]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload} (seed {args.seed}): {workload.why}")
    try:
        if args.trace == 0:
            setups = [
                spawn([*common, "--trace", "0", "--setup-only"], deadline)
                for _ in range(SETUP_REPEATS - 1)
            ]
            result = spawn([*common, "--trace", "0"], deadline)
            setups.append(result)
            runs = [result]
            metrics = end_to_end(setups, result)
        else:
            plain = spawn([*common, "--trace", "0"], deadline)
            spans = out_dir / f"{stem}.spans.jsonl"
            result = spawn([*common, "--trace", "1", "--spans", str(spans)], deadline)
            runs = [plain, result]
            metrics = {k: (v["value"], v["unit"]) for k, v in result["per_layer"].items()}
            # both runs drew the same inputs and did the same answers
            overhead = sum(result["answers"]) / sum(plain["answers"])
            metrics["trace_overhead"] = (overhead, "ratio")
            metrics["solve_wall_s"] = (statistics.median(plain["answers_wall"]), "s")
            metrics["machine_speed"] = (plain["machine_speed"], "ratio")
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmpdir.parent.rmdir()

    attempted = sum(len(r["ops"]) for r in runs)
    failed = sum(not op["ok"] for r in runs for op in r["ops"])
    design = None
    if args.trace:
        metrics["failed_ratio"] = (failed / attempted if attempted else 1.0, "ratio")
        label, holds = DESIGN_CHECKS[args.workload]
        design = bool(holds({k: v for k, (v, _) in metrics.items()}))
        print(f"design check ({label}): {'holds' if design else 'DOES NOT HOLD'}")
        shares = {k: round(v, 4) for k, (v, _) in metrics.items() if k.startswith("share.")}
        print(f"self-time shares of the timed phase: {shares}")
    print(f"machine: {json.dumps(result['machine'])}")
    print(f"inputs: {json.dumps(result['inputs'])}")
    print_ops(result)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")

    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "design_check": design,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "runs": runs,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    correct = attempted > 0 and failed == 0 and all(
        math.isfinite(v) for v, _ in metrics.values()
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
