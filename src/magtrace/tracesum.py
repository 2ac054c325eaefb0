"""Spectral-side evaluation: Y_N(phi) = sum_j mult_j phi(lam_{N,j} - E N).

Sums run over a certified eigenvalue window (see ``spectra``) and are
accumulated with Shewchuk exact summation (``math.fsum``), which returns
the correctly rounded value of the underlying real sum.  The result is
therefore reproducible bit-for-bit regardless of summation order, which
is stronger than the compensated-accumulation requirement it discharges.
A window of a few rungs is summed on Python floats and a larger one on numpy
arrays (``floats``), so a gaussian sum imports no numpy.
"""

from __future__ import annotations

from .errors import record
from .floats import each, fsum, fsum_complex
from .geometry import EnergyLevel
# the module-level name enumerate_window is also read by perfbench/test_checks.py
from .spectra import enumerate_window
from .testfn import TestFunction


@record
class TraceValue:
    """One evaluated trace sum with its certified truncation bound.

    ``abs_sum`` is sum mult*|phi|, the conditioning scale of the value; it
    feeds the noise-floor logic of the residual diagnostics.
    """

    N: int
    value: complex
    tail_bound: float
    abs_sum: float


def y_n(model, N: int, level: EnergyLevel, f: TestFunction,
        tail_tol: float = 1e-14) -> TraceValue:
    """Evaluate Y_N(phi) over the certified window around E*N."""
    window = enumerate_window(model, N, level, f, tail_tol)
    phi = f.phi
    weighted = each(lambda mult, x: mult * phi(x), window.mult, window.x)
    # a real value's .imag is 0.0, as is the fsum of an empty window
    return TraceValue(N=int(N), value=fsum_complex(weighted), tail_bound=window.tail_bound,
                      abs_sum=fsum(each(abs, weighted)))

