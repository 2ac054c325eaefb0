"""Spectral-side evaluation: Y_N(phi) = sum_j mult_j phi(lam_{N,j} - E N).

Sums run over a certified eigenvalue window (see ``spectra``) and are
accumulated with Shewchuk exact summation (``math.fsum``), which returns
the correctly rounded value of the underlying real sum.  The result is
therefore reproducible bit-for-bit regardless of summation order, which
is stronger than the compensated-accumulation requirement it discharges.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .spectra import EnergyLevel, Window, enumerate_window
from .testfn import TestFunction
from .errors import ValidationError


@dataclasses.dataclass(frozen=True)
class TraceValue:
    """One evaluated trace sum with its certified truncation bound.

    ``abs_sum`` is sum mult*|phi|, the conditioning scale of the value; it
    feeds the noise-floor logic of the residual diagnostics.
    """

    N: int
    value: complex
    tail_bound: float
    abs_sum: float


def _window_sum(window: Window, f: TestFunction) -> tuple:
    vals = f.phi(window.x)
    weighted = window.mult * np.asarray(vals)
    abs_sum = math.fsum(np.abs(weighted)) if weighted.size else 0.0
    if f.complex_valued:
        value = complex(math.fsum(weighted.real), math.fsum(weighted.imag))
    else:
        # real evaluators keep the imaginary part identically zero
        value = complex(math.fsum(np.asarray(weighted, dtype=float)), 0.0)
    return value, abs_sum


def y_n(model, N: int, level: EnergyLevel, f: TestFunction,
        tail_tol: float = 1e-14) -> TraceValue:
    """Evaluate Y_N(phi) over the certified window around E*N."""
    window = enumerate_window(model, N, level, f, tail_tol)
    value, abs_sum = _window_sum(window, f)
    return TraceValue(N=int(N), value=value, tail_bound=window.tail_bound,
                      abs_sum=abs_sum)


def y_sequence(model, level: EnergyLevel, f: TestFunction, N_list,
               tail_tol: float = 1e-14) -> list:
    """Elementwise ``y_n`` over an ascending list of positive integers.

    Results equal independent ``y_n`` calls bitwise; the sequence order is
    part of the output contract.
    """
    N_list = list(N_list)
    if not N_list:
        raise ValidationError("N_list must be nonempty")
    if any(not (isinstance(n, (int, np.integer)) and n >= 1) for n in N_list):
        raise ValidationError("N_list entries must be positive integers")
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValidationError("N_list must be strictly ascending")
    return [y_n(model, int(N), level, f, tail_tol) for N in N_list]
