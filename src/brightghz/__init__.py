"""Bright multiphoton GHZ states of a three-beam parametric source.

Resummed photon statistics, polarization Stokes correlations, a
Mermin-type Bell test with and without detector loss, and two
entanglement witnesses, all driven by the same divergent emission
series tamed with diagonal Pade approximants.
"""

from brightghz.series_core import (
    FormalSeries,
    c_series,
)
from brightghz.pade import (
    DiagonalResummer,
    PoleProximityError,
    ResummationResult,
    diagonal_resum,
)
from brightghz.state import (
    CUTOFF_CAP,
    DEFAULT_POLICY,
    BGHZState,
    BrightStateSpec,
    NumericPolicy,
    ResummationError,
    TripleDistribution,
    build_bghz,
    photon_distribution,
    project_out_vacuum,
    resummed_coefficient,
)
from brightghz.stokes import (
    CorrelationTensor,
    stokes_expectation,
    tensor_t,
)
from brightghz.nonclassicality import (
    MerminEvaluation,
    SweepResult,
    WitnessEvaluation,
    eta_threshold,
    eta_threshold_sweep,
    evaluate_mermin,
    evaluate_w2,
    find_crossing,
    gamma_threshold,
    lossy_mermin_lhs,
    mermin_lhs,
    mermin_sweep,
    per_party_loss_factor,
    witness_sweep,
    witness_w1,
    witness_w2,
)

__all__ = [
    "FormalSeries",
    "c_series",
    "DiagonalResummer",
    "PoleProximityError",
    "ResummationResult",
    "diagonal_resum",
    "CUTOFF_CAP",
    "DEFAULT_POLICY",
    "BGHZState",
    "BrightStateSpec",
    "NumericPolicy",
    "ResummationError",
    "TripleDistribution",
    "build_bghz",
    "photon_distribution",
    "project_out_vacuum",
    "resummed_coefficient",
    "CorrelationTensor",
    "stokes_expectation",
    "tensor_t",
    "MerminEvaluation",
    "SweepResult",
    "WitnessEvaluation",
    "eta_threshold",
    "eta_threshold_sweep",
    "evaluate_mermin",
    "evaluate_w2",
    "find_crossing",
    "gamma_threshold",
    "lossy_mermin_lhs",
    "mermin_lhs",
    "mermin_sweep",
    "per_party_loss_factor",
    "witness_sweep",
    "witness_w1",
    "witness_w2",
]

__version__ = "0.1.0"
