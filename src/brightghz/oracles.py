"""Closed-form photon statistics of the one- and two-beam sources.

One beam emits a coherent state (Poissonian statistics) and two beams emit
two-mode squeezed vacuum (geometric statistics): textbook results that let
the resummed photon distributions be checked against formulas the
resummation never touches.  The tests and the benchmark's correctness
check read them; nothing is exported through the package namespace, and no
production module imports this one.  The other test references (the
explicit weight sum, exact Pade construction, the epsilon recursion, the
binomial shell rotation and the dense matrix evaluator) live with the
tests, in ``tests/references.py``.
"""

from __future__ import annotations

import math

from brightghz.series_core import _count


def coherent_pk(gamma: float, k: int) -> float:
    """Poisson weight exp(-G^2) G^(2k) / k! of a coherent state with mean G^2."""
    k = _count("k", k, 0)
    lam = gamma * gamma
    return math.exp(-lam) * lam**k / math.factorial(k)


def squeezed_pk(gamma: float, k: int) -> float:
    """Geometric weight (1 - tanh^2 G) tanh^(2k) G of two-mode squeezed vacuum."""
    k = _count("k", k, 0)
    t = math.tanh(gamma) ** 2
    return (1.0 - t) * t**k
