"""Batch front end emitting the library's tables and curves as CSV.

Every command writes one CSV document: a comment line recording the full
numeric policy, a header row, data rows, and for threshold commands a
trailing comment with the detected crossing.  Output is deterministic:
the same configuration produces byte-identical bytes.

Each command returns its Rows; the gain-grid commands (mermin, eta, w1,
w2) format the library sweeps of `nonclassicality`, where a failed point
prints as a row of nan.  main runs the command, threshold search included,
while recording warnings, then writes the document once and decides the
exit code once: 1 when every gain row failed (the CSV is still written) or
the run raised ("error:" on stderr, no CSV); else 2 when a warning was
raised or a row diverged or failed; else 0.  Each distinct warning message
and row reason goes to stderr once, as a "warning:" line, so only a clean
run prints nothing there.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from brightghz.nonclassicality import (
    SweepResult,
    eta_threshold_sweep,
    mermin_sweep,
    witness_sweep,
)
from brightghz.series_core import _MAX_BEAMS, _count
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
        _count("steps", self.steps, 1)
        if self.steps > 1 and not self.gamma_min < self.gamma_max:
            raise ValueError("gamma grid needs gamma-min < gamma-max")
        if not 0.0 <= self.eta_min < self.eta_max <= 1.0:
            raise ValueError("eta window must satisfy 0 <= min < max <= 1")
        _count("n", self.n, 1, _MAX_BEAMS)

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


def _row(cells) -> str:
    return ",".join(map(str, cells))


class Rows(NamedTuple):
    """What a command produces for main to write and judge.

    lines are the CSV lines after the policy comment; failed holds one flag
    per gain row (none for table1, which has no gain rows); reasons says why
    each diverged or failed row is one; trailer is the closing comment, if
    any, without its "# ".
    """

    lines: list[str]
    failed: list[bool]
    reasons: list[str]
    trailer: str | None = None


def _probability_cells(dist) -> list[str]:
    """p(0..TABLE_MAX_K) of a distribution, 0 past its cutoff."""
    return [
        _fmt(dist.probs[k] if k < len(dist.probs) else 0.0) for k in range(TABLE_MAX_K + 1)
    ]


def cmd_table1(config: RunConfig) -> Rows:
    """Emission probabilities p(0..10) at one gain for one, two, three beams."""
    gamma = config.gamma_min
    distributions = [
        photon_distribution(BrightStateSpec(n=n, gamma=gamma, policy=config.policy))
        for n in (1, 2, 3)
    ]
    lines = [f"# emission probabilities at gamma={_fmt(gamma)}", "k,p_n1,p_n2,p_n3"]
    for k, cells in enumerate(zip(*map(_probability_cells, distributions))):
        lines.append(_row([k, *cells]))
    reasons = [
        f"gamma={_fmt(gamma)}: n={d.n} photon statistics diverged"
        for d in distributions
        if d.diverged
    ]
    return Rows(lines, [], reasons)


def cmd_pk_curve(config: RunConfig) -> Rows:
    """p(0..10) and the tail estimate against the gain, for n beams."""
    lines = [_row(["gamma", *(f"p{k}" for k in range(TABLE_MAX_K + 1)), "tail", "diverged"])]
    failed, reasons = [], []
    for gamma in config.grid():
        spec = BrightStateSpec(n=config.n, gamma=gamma, policy=config.policy)
        try:
            dist = photon_distribution(spec)
        except ResummationError as err:
            failed.append(True)
            reasons.append(f"gamma={_fmt(gamma)}: {err}")
            lines.append(_row([_fmt(gamma), *(["nan"] * (TABLE_MAX_K + 1)), "nan", "error"]))
            continue
        failed.append(False)
        if dist.diverged:
            reasons.append(f"gamma={_fmt(gamma)}: photon statistics diverged")
        cells = [*_probability_cells(dist), _fmt(dist.tail_bound), str(dist.diverged).lower()]
        lines.append(_row([_fmt(gamma), *cells]))
    return Rows(lines, failed, reasons)


def _format_sweep(result: SweepResult, columns, cells, summary=None) -> Rows:
    """A library sweep as CSV rows.

    cells formats the columns of one point that did not fail; a failed point
    prints as nan.  summary, when given, turns the result into the trailing
    comment unless every point failed.
    """
    failed = [bool(d.get("failed")) for d in result.diagnostics]
    lines = [_row(["gamma", *columns])]
    reasons = []
    for gamma, value, diag, bad in zip(result.axis, result.values, result.diagnostics, failed):
        lines.append(_row([_fmt(gamma), *(["nan"] * len(columns) if bad else cells(value, diag))]))
        if bad:
            reasons.append(f"gamma={_fmt(gamma)}: {diag['error']}")
    trailer = None if all(failed) or summary is None else summary(result)
    return Rows(lines, failed, reasons, trailer)


def cmd_mermin(config: RunConfig) -> Rows:
    """Mermin-like LHS against the gain, with the violation threshold."""

    def summary(result: SweepResult) -> str:
        if result.threshold is None:
            return "threshold gamma = none (no crossing on this grid)"
        return f"threshold gamma = {_fmt(result.threshold)}"

    return _format_sweep(
        mermin_sweep(config.grid(), config.policy),
        ["lhs", "agreement"],
        lambda value, diag: [_fmt(value), _fmt(diag["agreement"])],
        summary,
    )


def cmd_eta(config: RunConfig) -> Rows:
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
        eta_threshold_sweep(config.grid(), config.policy),
        ["eta_tr", "violated"],
        lambda value, diag: [_fmt(value), "true"] if shown(value, diag) else ["nan", "false"],
        summary,
    )


def cmd_w1(config: RunConfig) -> Rows:
    """First witness against the gain, optionally vacuum-projected."""
    return _format_sweep(
        witness_sweep(1, config.grid(), config.projected, config.policy),
        ["w1"],
        lambda value, diag: [_fmt(value)],
    )


def cmd_w2(config: RunConfig) -> Rows:
    """Second witness against the gain, optionally vacuum-projected."""
    return _format_sweep(
        witness_sweep(2, config.grid(), config.projected, config.policy),
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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # raised, so main reports it as any error
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _write(config: RunConfig, rows: Rows) -> None:
    """The package's one CSV writer: the library hands out values, not files.

    The document is written in one piece.  The trailer is echoed to the
    terminal only when the CSV itself went to a file, so piped output stays
    parseable.
    """
    policy = config.policy
    lines = [
        "# policy: "
        f"pade_order={policy.pade_order} tol={_fmt(policy.tol)} "
        f"bits={policy.bits} cutoff={'auto' if policy.cutoff is None else policy.cutoff} "
        f"n={config.n} projected={str(config.projected).lower()}",
        *rows.lines,
    ]
    if rows.trailer:
        lines.append(f"# {rows.trailer}")
    payload = "\n".join(lines) + "\n"
    if config.out in (None, "-"):
        sys.stdout.write(payload)
        return
    with open(config.out, "w", newline="") as fh:
        fh.write(payload)
    if rows.trailer:
        print(rows.trailer)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = _COMMANDS[config.command](config)
        _write(config, rows)
    except Exception as err:  # noqa: BLE001 - the contract is an exit code
        print(f"error: {err}", file=sys.stderr)
        return EXIT_HARD
    # the warnings in the order raised, then the rows' reasons in row order
    reasons = dict.fromkeys([*(str(w.message) for w in caught), *rows.reasons])
    for reason in reasons:
        print(f"warning: {reason}", file=sys.stderr)
    if rows.failed and all(rows.failed):
        return EXIT_HARD
    return EXIT_WARNINGS if reasons else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
