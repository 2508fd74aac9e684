"""Batch front end emitting the library's tables and curves as CSV.

Every command writes one CSV document: a comment line recording the full
numeric policy, a header row, data rows, and for threshold commands a
trailing comment with the detected crossing.  Output is deterministic:
the same configuration produces byte-identical bytes, so downstream
plotting and regression diffs can rely on it.

The gain-grid commands (mermin, eta, w1, w2) are formatters over the
library sweeps of `nonclassicality`, which evaluate the grid, mark failed
points and solve for thresholds; a failed point prints as a row of nan.  The
numeric knobs travel as one `NumericPolicy`, validated where it is built.

Exit codes: 0 clean, 2 when divergence or validity warnings were raised
along the way or some points failed (rows are still emitted), 1 when
nothing could be computed or a threshold search failed.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from dataclasses import dataclass

from brightghz.nonclassicality import (
    SweepResult,
    eta_threshold_sweep,
    mermin_sweep,
    witness_sweep,
)
from brightghz.state import (
    DEFAULT_POLICY,
    BrightStateSpec,
    NumericPolicy,
    ResummationError,
    photon_distribution,
)

EXIT_OK = 0
EXIT_HARD = 1
EXIT_WARNINGS = 2

TABLE_MAX_K = 10


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved CLI invocation."""

    command: str
    gamma_min: float
    gamma_max: float
    steps: int
    n: int
    policy: NumericPolicy
    eta_min: float
    eta_max: float
    projected: bool
    out: str | None

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.steps > 1 and not self.gamma_min < self.gamma_max:
            raise ValueError("gamma grid needs gamma-min < gamma-max")
        if not (0 <= self.gamma_min < math.inf and 0 <= self.gamma_max < math.inf):
            raise ValueError("gains must be finite and >= 0")
        if not 0.0 <= self.eta_min < self.eta_max <= 1.0:
            raise ValueError("eta window must satisfy 0 <= min < max <= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def grid(self) -> list[float]:
        if self.steps == 1:
            return [self.gamma_min]
        # the last point is gamma_max itself, which the interior formula can
        # miss by an ulp
        span = self.gamma_max - self.gamma_min
        return [
            self.gamma_min + span * i / (self.steps - 1) for i in range(self.steps - 1)
        ] + [self.gamma_max]


def _fmt(value: float) -> str:
    return f"{value:.17g}"


class _Emitter:
    """Collects CSV lines so a run is written (and hashed) atomically.

    The package's one CSV writer: the library hands out values, not files.
    """

    def __init__(self, config: RunConfig):
        self.lines: list[str] = []
        policy = config.policy
        self.comment(
            "policy: "
            f"pade_order={policy.pade_order} tol={_fmt(policy.tol)} "
            f"bits={policy.bits} cutoff={'auto' if policy.cutoff is None else policy.cutoff} "
            f"n={config.n} projected={str(config.projected).lower()}"
        )

    def comment(self, text: str) -> None:
        self.lines.append(f"# {text}")

    def row(self, cells) -> None:
        self.lines.append(",".join(str(c) for c in cells))

    def write(self, out: str | None) -> None:
        payload = "\n".join(self.lines) + "\n"
        if out is None or out == "-":
            sys.stdout.write(payload)
        else:
            with open(out, "w", newline="") as fh:
                fh.write(payload)


def _probability_cells(dist) -> list[str]:
    """p(0..TABLE_MAX_K) of a distribution, 0 past its cutoff."""
    return [
        _fmt(dist.probs[k] if k < len(dist.probs) else 0.0) for k in range(TABLE_MAX_K + 1)
    ]


def _echo(config: RunConfig, text: str) -> None:
    # threshold lines live in the CSV; echo them to the terminal only when
    # the CSV itself went to a file, so piped output stays parseable
    if config.out not in (None, "-"):
        print(text)


def cmd_table1(config: RunConfig) -> int:
    """Emission probabilities p(0..10) at one gain for one, two, three beams."""
    gamma = config.gamma_min
    emitter = _Emitter(config)
    emitter.comment(f"emission probabilities at gamma={_fmt(gamma)}")
    distributions = []
    warned = False
    for n in (1, 2, 3):
        spec = BrightStateSpec(n=n, gamma=gamma, policy=config.policy)
        warned |= spec.validity_warning
        dist = photon_distribution(spec)
        warned |= dist.diverged
        distributions.append(dist)
    emitter.row(["k", "p_n1", "p_n2", "p_n3"])
    for k, cells in enumerate(zip(*map(_probability_cells, distributions))):
        emitter.row([k, *cells])
    emitter.write(config.out)
    return EXIT_WARNINGS if warned else EXIT_OK


def cmd_pk_curve(config: RunConfig) -> int:
    """p(0..10) and the tail estimate against the gain, for n beams."""
    emitter = _Emitter(config)
    emitter.row(
        ["gamma", *(f"p{k}" for k in range(TABLE_MAX_K + 1)), "tail", "diverged"]
    )
    warned = False
    failures = 0
    for gamma in config.grid():
        spec = BrightStateSpec(n=config.n, gamma=gamma, policy=config.policy)
        warned |= spec.validity_warning
        try:
            dist = photon_distribution(spec)
        except ResummationError:
            failures += 1
            emitter.row(
                [_fmt(gamma), *(["nan"] * (TABLE_MAX_K + 1)), "nan", "error"]
            )
            continue
        warned |= dist.diverged
        cells = [*_probability_cells(dist), _fmt(dist.tail_bound), str(dist.diverged).lower()]
        emitter.row([_fmt(gamma), *cells])
    emitter.write(config.out)
    if failures == config.steps:
        return EXIT_HARD
    return EXIT_WARNINGS if warned or failures else EXIT_OK


def _format_sweep(config: RunConfig, sweep, columns, cells, summary=None) -> int:
    """Print a library sweep over the config's grid as CSV rows.

    sweep maps the grid to a SweepResult; cells formats the columns of one
    point that did not fail; summary, when given, turns the result into
    the trailing comment unless every point failed.  Warnings raised while
    the grid is evaluated turn into exit code 2.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = sweep(config.grid())
    failed = [bool(d.get("failed")) for d in result.diagnostics]
    line = None if all(failed) or summary is None else summary(result)
    emitter = _Emitter(config)
    emitter.row(["gamma", *columns])
    for gamma, value, diag, bad in zip(result.axis, result.values, result.diagnostics, failed):
        emitter.row([_fmt(gamma), *(["nan"] * len(columns) if bad else cells(value, diag))])
    if line:
        emitter.comment(line)
    emitter.write(config.out)
    if line:
        _echo(config, line)
    if all(failed):
        return EXIT_HARD
    return EXIT_WARNINGS if caught or any(failed) else EXIT_OK


def cmd_mermin(config: RunConfig) -> int:
    """Mermin-like LHS against the gain, with the violation threshold."""

    def summary(result: SweepResult) -> str:
        if result.threshold is None:
            return "threshold gamma = none (no crossing on this grid)"
        return f"threshold gamma = {_fmt(result.threshold)}"

    return _format_sweep(
        config,
        lambda grid: mermin_sweep(grid, config.policy),
        ["lhs", "agreement"],
        lambda value, diag: [_fmt(value), _fmt(diag["agreement"])],
        summary,
    )


def cmd_eta(config: RunConfig) -> int:
    """Critical detector efficiency against the gain, inside the eta window."""

    def shown(value, diag) -> bool:
        # violated, with the efficiency inside the window; failed points
        # carry no verdict
        return diag.get("violated", False) and config.eta_min <= value <= config.eta_max

    def summary(result: SweepResult) -> str:
        for gamma, value, diag in zip(result.axis, result.values, result.diagnostics):
            if shown(value, diag):
                return f"eta threshold at gamma = {_fmt(gamma)}: {_fmt(value)}"
        return "eta threshold = none (no violated point on this grid)"

    return _format_sweep(
        config,
        lambda grid: eta_threshold_sweep(grid, config.policy),
        ["eta_tr", "violated"],
        lambda value, diag: [_fmt(value), "true"] if shown(value, diag) else ["nan", "false"],
        summary,
    )


def cmd_w1(config: RunConfig) -> int:
    """First witness against the gain, optionally vacuum-projected."""
    return _format_sweep(
        config,
        lambda grid: witness_sweep(1, grid, config.projected, config.policy),
        ["w1"],
        lambda value, diag: [_fmt(value)],
    )


def cmd_w2(config: RunConfig) -> int:
    """Second witness against the gain, optionally vacuum-projected."""
    return _format_sweep(
        config,
        lambda grid: witness_sweep(2, grid, config.projected, config.policy),
        ["w2", "agreement"],
        lambda value, diag: [_fmt(value), _fmt(diag["agreement"])],
    )


_COMMANDS = {
    "table1": cmd_table1,
    "pk_curve": cmd_pk_curve,
    "mermin": cmd_mermin,
    "eta": cmd_eta,
    "w1": cmd_w1,
    "w2": cmd_w2,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brightghz",
        description=(
            "Photon statistics and non-classicality curves of bright "
            "three-beam GHZ states, as deterministic CSV."
        ),
    )
    parser.add_argument("--cmd", required=True, choices=sorted(_COMMANDS))
    parser.add_argument(
        "--gamma-min",
        type=float,
        default=None,
        help="grid start (default 0.05); for table1, the single gain (default 0.8)",
    )
    parser.add_argument("--gamma-max", type=float, default=0.85, help="grid end (default %(default)s)")
    parser.add_argument("--steps", type=int, default=17, help="grid points (default %(default)s)")
    parser.add_argument("--n", type=int, default=3, help="beam count for pk_curve")
    parser.add_argument(
        "--cutoff",
        type=int,
        default=None,
        help="pin the photon cutoff instead of growing it adaptively",
    )
    parser.add_argument("--pade-order", type=int, default=DEFAULT_POLICY.pade_order)
    parser.add_argument("--tol", type=float, default=DEFAULT_POLICY.tol)
    parser.add_argument(
        "--bits", type=int, default=DEFAULT_POLICY.bits, help="working precision in bits"
    )
    parser.add_argument("--eta-min", type=float, default=0.0)
    parser.add_argument("--eta-max", type=float, default=1.0)
    parser.add_argument("--projected", action="store_true",
                        help="remove the joint vacuum before the witnesses")
    parser.add_argument("--out", default=None, help="CSV path; default stdout")
    return parser


# One parser per process: parsing reads it and changes nothing in it.
_parser = functools.cache(build_parser)


def parse_config(argv=None) -> RunConfig:
    args = _parser().parse_args(argv)
    if args.cmd == "table1":
        gamma_min = 0.8 if args.gamma_min is None else args.gamma_min
        gamma_max, steps = gamma_min, 1
    else:
        gamma_min = 0.05 if args.gamma_min is None else args.gamma_min
        gamma_max, steps = args.gamma_max, args.steps
    return RunConfig(
        command=args.cmd,
        gamma_min=gamma_min,
        gamma_max=gamma_max,
        steps=steps,
        n=args.n,
        policy=NumericPolicy(
            pade_order=args.pade_order, tol=args.tol, bits=args.bits, cutoff=args.cutoff
        ),
        eta_min=args.eta_min,
        eta_max=args.eta_max,
        projected=args.projected,
        out=args.out,
    )


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_HARD
    try:
        return _COMMANDS[config.command](config)
    except Exception as err:  # noqa: BLE001 - the contract is an exit code
        print(f"error: {err}", file=sys.stderr)
        return EXIT_HARD


if __name__ == "__main__":
    sys.exit(main())
