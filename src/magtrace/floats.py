"""Short blocks on Python floats, long ones on numpy arrays.

A gaussian's spectral window spans 4 to 35 rungs and its k-sums 13 to 40
periods (s = 1, tail_tol 1e-14, on the three ladders).  A command that
builds no array never imports numpy, which is most of the time a cold
gaussian command takes.  Warm, a rung of ``tracesum.y_n`` costs about
1 us one at a time and 0.1 us in one array call, whose fixed cost is some
10 us more (torus, N = 1e4), so past about ten rungs a float window is the
slower one warm; a k-sum's periods cost less one at a time.  So each
formula over rungs, periods or flow states is written once, on a Python
float or an array alike, and takes its functions from ``xp`` per call or,
as a window's rungs do, once per block.  ``block`` picks the container by
its length alone, and ``each`` runs a formula over either.
"""

from __future__ import annotations

import math
import operator

# The most numbers a block holds as a list; a longer one is a numpy array.
# Those gaussian blocks fit, and a bump's windows, of 700 to 1200 rungs,
# stay arrays.
FLOAT_BLOCK = 100

_REAL, _IMAG = operator.attrgetter("real"), operator.attrgetter("imag")


def xp(x):
    """Where formulas take sqrt, exp, sin and cos from: ``math`` for a Python
    float, numpy, imported here on first need, for anything else."""
    if type(x) is float:
        return math
    import numpy
    return numpy


def as_floats(x):
    """(x, xp(x)): a Python float as it is; anything else as a float array."""
    if type(x) is float:
        return x, math
    import numpy
    return numpy.asarray(x, dtype=float), numpy


def cis(t):
    """exp(i t) for a Python float or a real array."""
    m = xp(t)
    return m.cos(t) + 1j * m.sin(t)


def block(lo: int, hi: int, signs=(1,)):
    """The integers s*i for i = lo..hi and each s in signs, in that order: a
    list of at most FLOAT_BLOCK of them, or else a numpy array."""
    if (hi - lo + 1) * len(signs) <= FLOAT_BLOCK:
        if signs == (1,):
            return list(range(lo, hi + 1))
        return [s * i for i in range(lo, hi + 1) for s in signs]
    import numpy as np
    i = np.arange(lo, hi + 1)
    return i if signs == (1,) else np.outer(i, signs).ravel()


def each(fn, *columns, width=0):
    """fn over columns of one length: in one call on numpy arrays, or once
    per element on lists, where a fn that returns ``width`` values gives a
    tuple of ``width`` lists."""
    if type(columns[0]) is not list:
        return fn(*columns)
    values = list(map(fn, *columns))
    if width:
        return tuple(map(list, zip(*values))) if values else ([],) * width
    return values


def fsum(values) -> float:
    """Correctly rounded sum of a list or an array of reals; an array's as
    Python floats, which fsum reads faster than numpy scalars."""
    return math.fsum(values if type(values) is list else values.tolist())


def fsum_complex(values) -> complex:
    """Correctly rounded sum of a list or an array of real or complex values."""
    if type(values) is list:
        return complex(math.fsum(map(_REAL, values)), math.fsum(map(_IMAG, values)))
    return complex(fsum(values.real), fsum(values.imag))
