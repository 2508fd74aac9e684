"""The three benchmark workloads: inputs from a seed, set-up, ops and checks.

Every workload drives the library through its public names only, looked
up on the module at call time so that a traced run sees the wrapped
functions.  Gains are drawn from the workload seed and stratified by cost
band, so another seed keeps the mix of cheap and expensive gains.

A workload repeats one whole answer (a scan, a round of kernels, a batch
of CLI calls) a fixed number of times, sized from ``--seconds`` and the
answer's typical time.  So a run does the same work however fast the
machine happens to be, and the op percentiles always rank the same ops.
Each answer uses gains it drew itself.  An op is one timed public call;
its result is checked with the acceptance tolerances, and a miss marks
the op failed.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
import time
from dataclasses import dataclass, field

from refclock import ReferenceClock

AGREEMENT_TOL = 1e-8
ORACLE_TOL = 1e-6
GAMMA_THRESHOLD = (0.77, 0.02)
ETA_THRESHOLD = (0.79, 0.01)


@dataclass
class Op:
    name: str
    args: dict
    start: float = 0.0
    end: float = 0.0
    ok: bool = True
    detail: str = ""


@dataclass
class Ops:
    """Times and checks each op; the tracer's `op` names the op running.

    Before each op the reference clock may take a sample, so samples fall
    between ops and never inside one.
    """

    clock: ReferenceClock
    tracer: object | None = None
    done: list[Op] = field(default_factory=list)

    def run(self, name, args, call, check=None):
        op = Op(name, args)
        self.clock.maybe_sample()
        if self.tracer is not None:
            self.tracer.op = len(self.done)
        self.done.append(op)
        op.start = time.monotonic()
        try:
            result = call()
        except Exception as err:  # noqa: BLE001 - a raising op is a counted failure
            op.ok, op.detail = False, f"raised {type(err).__name__}: {err}"
            return None
        finally:
            op.end = time.monotonic()
            if self.tracer is not None:
                self.tracer.op = None
        if check is not None:
            problem = check(result)
            if problem:
                op.ok, op.detail = False, problem
        return result

    def fail(self, op: Op, problem: str) -> None:
        op.ok = False
        op.detail = f"{op.detail}; {problem}" if op.detail else problem


def _lib():
    import brightghz.cli
    import brightghz.nonclassicality
    import brightghz.oracles
    import brightghz.series_core
    import brightghz.state
    import brightghz.stokes

    return brightghz


def warm_caches(lib, beams, selectors=()) -> None:
    """Fill the gain-independent caches: the P table and Stokes shell blocks.

    One c_series call at the deepest tuple number fills the P table for
    every shallower one.  The shell blocks are filled by evaluating each
    selector on a synthetic state that spans every photon shell the auto
    cutoff can reach.
    """
    cap = lib.state.CUTOFF_CAP
    length = 2 * lib.state.DEFAULT_POLICY.pade_order + 1
    for n in beams:
        lib.series_core.c_series(cap, n, length)
    if selectors:
        side = cap + 1
        amp = complex(1.0 / side)
        state = lib.state.BGHZState(
            gamma=0.0,
            cutoff=cap,
            amps={(q, m): amp for q in range(side) for m in range(side)},
            norm_residual=0.0,
        )
        for sel in selectors:
            lib.stokes.stokes_expectation(state, (sel, sel, sel))


class Workload:
    name = ""
    why = ""
    # typical seconds per answer at the seed commit (2-core Xeon, Python 3.11)
    ANSWER_S = 1.0

    def __init__(self, seed: int, ops: Ops, tmpdir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops = ops
        self.tmpdir = tmpdir
        self.inputs: list[dict] = []
        self.lib = None

    def setup(self) -> None:
        self.lib = _lib()
        self.ops.clock.sample()

    def answers(self, seconds: float) -> int:
        """Answers in one timed phase: about `seconds` of work at typical speed."""
        return max(1, round(seconds / self.ANSWER_S))

    def answer(self) -> None:
        raise NotImplementedError


class BellScan(Workload):
    """Cold Mermin grid over [0.05, 0.85], then bisect the bracketing pair.

    The grid is uniform with spacing 0.09 and a seeded offset, so every
    0.09-wide gain band holds exactly one point, the last point always
    lies past the crossing near 0.77, and the bracket width, hence the
    number of bisection steps to 1e-3, is the same for every seed.  The
    offset keeps the third point below 0.28: from there to about 0.33 a
    cold evaluation grows from 0.1 s to 1 s, and a point in that range
    would make the answer's cost depend on the seed.
    """

    name = "bell_scan"
    why = (
        "cold-resummation-bound: every op is a Mermin evaluation at a new gain,"
        " where DiagonalResummer.resum takes most of the time"
    )
    ANSWER_S = 14.0
    SELECTORS = ("S1p", "S2p", "S1")
    SPACING = 0.09
    POINTS = 9

    def setup(self) -> None:
        super().setup()
        warm_caches(self.lib, (3,), self.SELECTORS)

    def answer(self) -> None:
        nc = self.lib.nonclassicality
        ops = self.ops
        offset = self.rng.uniform(0.01, 0.04)
        grid = [0.05 + offset + self.SPACING * i for i in range(self.POINTS)]
        seen: dict[float, Op] = {}

        def check(e):
            if not e.agreement <= AGREEMENT_TOL:
                return f"agreement {e.agreement:.3g} > {AGREEMENT_TOL}"
            return ""

        def mermin(g):
            e = ops.run("evaluate_mermin", {"gamma": g}, lambda: nc.evaluate_mermin(g), check)
            seen[g] = ops.done[-1]
            return e

        values = {g: mermin(g) for g in grid}
        bisection: list[Op] = []

        def fn(g):
            if g in seen:
                return nc.mermin_lhs(g)
            e = mermin(g)
            bisection.append(seen[g])
            return e.lhs if e is not None else math.nan

        bracket = next(
            (
                (a, b)
                for a, b in zip(grid, grid[1:])
                if values[a] is not None
                and values[b] is not None
                and values[a].lhs > 2.0 >= values[b].lhs
            ),
            None,
        )
        crossing = None
        if bracket is None:
            for g in grid:
                ops.fail(seen[g], "grid does not bracket the Mermin crossing")
        else:
            crossing = nc.find_crossing(fn, 2.0, bracket[0], bracket[1], tol=1e-3)
            centre, width = GAMMA_THRESHOLD
            if not abs(crossing - centre) <= width:
                for op in bisection or [seen[bracket[1]]]:
                    ops.fail(op, f"crossing {crossing:.5f} outside {centre} +- {width}")
        self.inputs.append({"grid": grid, "bracket": bracket, "crossing": crossing})


class LossScan(Workload):
    """Warm-state kernels: loss threshold, both witnesses and the tensor."""

    name = "loss_scan"
    why = (
        "states built in set-up, so the timed phase exercises the stokes and"
        " nonclassicality kernels on warm gains, one of them at the cutoff cap"
    )
    ANSWER_S = 1.4
    SELECTORS = ("S1p", "S2p", "S1", "S2", "S3", "S0", "Pi")
    # One gain per band.  The first keeps the loss threshold near its 0.79
    # limit; in the second the auto cutoff reaches CUTOFF_CAP (59-60); the
    # bands are narrow so the cutoff, and with it the kernel cost, hardly
    # moves with the seed.
    BANDS = ((0.05, 0.10), (0.34, 0.36), (0.55, 0.60))

    def setup(self) -> None:
        super().setup()
        warm_caches(self.lib, (3,), self.SELECTORS)
        self.ops.clock.sample()
        self.gains = [self.rng.uniform(lo, hi) for lo, hi in self.BANDS]
        self.states = {g: self.lib.state.build_bghz(g) for g in self.gains}
        self.inputs.append(
            {"gains": self.gains, "cutoffs": [self.states[g].cutoff for g in self.gains]}
        )

    def answer(self) -> None:
        nc, stokes = self.lib.nonclassicality, self.lib.stokes
        ops = self.ops

        def agreement(e):
            if not e.agreement <= AGREEMENT_TOL:
                return f"agreement {e.agreement:.3g} > {AGREEMENT_TOL}"
            return ""

        def cross_check(t):
            if not t.cross_check <= AGREEMENT_TOL:
                return f"cross_check {t.cross_check:.3g} > {AGREEMENT_TOL}"
            return ""

        def finite(v):
            return "" if math.isfinite(v) else f"non-finite value {v}"

        etas = []
        for g in self.gains:
            state = self.states[g]
            eta = ops.run("eta_threshold", {"gamma": g}, lambda: nc.eta_threshold(g), finite)
            etas.append((eta, ops.done[-1]))
            for projected in (False, True):
                ops.run(
                    "witness_w1",
                    {"gamma": g, "projected": projected},
                    lambda: nc.witness_w1(g, projected, state=state),
                    finite,
                )
            for projected in (False, True):
                ops.run(
                    "evaluate_w2",
                    {"gamma": g, "projected": projected},
                    lambda: nc.evaluate_w2(g, projected, state=state),
                    agreement,
                )
            ops.run("tensor_t", {"gamma": g}, lambda: stokes.tensor_t(g, state=state), cross_check)

        first, first_op = etas[0]
        centre, width = ETA_THRESHOLD
        if first is not None and not abs(first - centre) <= width:
            ops.fail(first_op, f"eta threshold {first:.5f} outside {centre} +- {width}")
        for (prev, _), (eta, op) in zip(etas, etas[1:]):
            if prev is not None and eta is not None and eta < prev:
                ops.fail(op, f"eta threshold {eta:.5f} below {prev:.5f} at a lower gain")


class StatsCli(Workload):
    """table1 and pk_curve (n = 1, 2, 3) through the CLI, into CSV files."""

    name = "stats_cli"
    why = (
        "photon statistics through the CLI: convergent n=1,2 series next to the"
        " divergent n=3 one, the CSV path, and no Stokes work"
    )
    ANSWER_S = 2.8
    TABLE_BAND = (0.70, 0.85)
    GRID_LOW = (0.05, 0.10)
    GRID_HIGH = (0.80, 0.85)
    # Gains per pk_curve call.  The n = 2 call is the median op of an
    # answer (cheaper: table1 repeat, n = 1; dearer: cold table1, n = 3),
    # so it gets enough gains to last about half a second.
    STEPS = {1: 7, 2: 7, 3: 2}

    def __init__(self, seed, ops, tmpdir):
        super().__init__(seed, ops, tmpdir)
        self.csv_bytes = 0
        self.calls = 0

    def setup(self) -> None:
        super().setup()
        warm_caches(self.lib, (1, 2, 3))

    def _cli(self, argv):
        self.calls += 1
        path = os.path.join(self.tmpdir, f"out{self.calls}.csv")
        code = self.lib.cli.main([*argv, "--out", path])
        with open(path, "rb") as fh:
            payload = fh.read()
        os.remove(path)
        self.csv_bytes += len(payload)
        return code, payload

    def _rows(self, payload: bytes) -> list[dict]:
        text = payload.decode()
        body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
        return list(csv.DictReader(io.StringIO(body)))

    def _oracle_miss(self, cells) -> str:
        """Compare (gamma, n, k, p) cells of a CSV with the closed forms."""
        oracles = self.lib.oracles
        limits = {1: oracles.coherent_pk, 2: oracles.squeezed_pk}
        worst = max(
            (abs(float(p) - limits[n](gamma, k)) for gamma, n, k, p in cells), default=0.0
        )
        if not worst <= ORACLE_TOL:
            return f"closed-form mismatch {worst:.3g} > {ORACLE_TOL}"
        return ""

    def answer(self) -> None:
        ops = self.ops
        g = self.rng.uniform(*self.TABLE_BAND)
        lo = self.rng.uniform(*self.GRID_LOW)
        hi = self.rng.uniform(*self.GRID_HIGH)
        table1 = ["--cmd", "table1", "--gamma-min", repr(g)]

        def table_check(result):
            code, payload = result
            if code != 0:
                return f"exit code {code}"
            return self._oracle_miss(
                (g, n, int(row["k"]), row[f"p_n{n}"])
                for row in self._rows(payload)
                for n in (1, 2)
            )

        first = ops.run("cli.table1", {"gamma": g}, lambda: self._cli(table1), table_check)
        again = ops.run(
            "cli.table1", {"gamma": g, "repeat": True}, lambda: self._cli(table1), table_check
        )
        if first is not None and again is not None and first[1] != again[1]:
            ops.fail(ops.done[-1], "repeated table1 CSV differs from the first")

        for n, steps in self.STEPS.items():
            argv = [
                "--cmd", "pk_curve", "--n", str(n),
                "--gamma-min", repr(lo), "--gamma-max", repr(hi),
                "--steps", str(steps),
            ]

            def curve_check(result, n=n, steps=steps):
                code, payload = result
                if code != 0:
                    return f"exit code {code}"
                rows = self._rows(payload)
                if len(rows) != steps:
                    return f"{len(rows)} rows, expected {steps}"
                if n == 3:
                    bad = [r["gamma"] for r in rows if r["diverged"] != "false"]
                    return f"rows not settled at gamma {bad}" if bad else ""
                return self._oracle_miss(
                    (float(row["gamma"]), n, k, row[f"p{k}"]) for row in rows for k in range(11)
                )

            ops.run(
                f"cli.pk_curve.n{n}",
                {"n": n, "gamma_min": lo, "gamma_max": hi, "steps": steps},
                lambda: self._cli(argv),
                curve_check,
            )
        self.inputs.append({"table1_gamma": g, "pk_grid": [lo, hi], "steps": self.STEPS})


WORKLOADS = {w.name: w for w in (BellScan, LossScan, StatsCli)}
