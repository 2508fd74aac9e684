"""Bright multiphoton GHZ states of a three-beam parametric source.

Resummed photon statistics, polarization Stokes correlations, a
Mermin-type Bell test with and without detector loss, and two
entanglement witnesses, all driven by the same divergent emission
series tamed with diagonal Pade approximants.

The public names are the layers' own __all__, republished here in
layer order.
"""

from brightghz import series_core, pade, state, stokes, nonclassicality
from brightghz.series_core import *  # noqa: F403
from brightghz.pade import *  # noqa: F403
from brightghz.state import *  # noqa: F403
from brightghz.stokes import *  # noqa: F403
from brightghz.nonclassicality import *  # noqa: F403

__all__ = [
    *series_core.__all__,
    *pade.__all__,
    *state.__all__,
    *stokes.__all__,
    *nonclassicality.__all__,
]

__version__ = "0.1.0"
