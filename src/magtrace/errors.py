"""Exception hierarchy and input checks shared across the package.

Each error family carries a distinct process exit code so the CLI can
signal validation problems, energy-range violations, resonances and
integrator failures separately.
"""

import math
import sys


class MagtraceError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(MagtraceError):
    """Bad parameters or configuration, rejected before any computation."""

    exit_code = 2


def refuse_past_double_range(what: str, derived) -> None:
    """Refuse parameters whose derived values, ``derived()``, overflow, divide
    by zero or are not finite, before anything is built on them."""
    try:
        if all(map(math.isfinite, derived())):
            return
    except (OverflowError, ZeroDivisionError):
        pass
    raise ValidationError(f"{what} leave the double range")


def number(value, name, *, integer=False, positive=False, signed=False, cap=None):
    """A config number: finite, >= 0 (> 0 if positive, any sign if signed),
    integral if asked, at most cap in magnitude.  Bools and strings are not
    numbers; an integral float is read as an int, which has no size limit."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if not (integer and isinstance(value, int)) and not (
            -sys.float_info.max <= value <= sys.float_info.max):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if integer and isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if not signed and (value < 0 or (positive and value == 0)):
        raise ValidationError(
            f"{name} must be {'positive' if positive else 'nonnegative'}, got {value!r}")
    if cap is not None and abs(value) > cap:
        raise ValidationError(f"{name} must be at most {cap:,}"
                              f"{' in magnitude' if signed else ''}, got {value!r}")
    return int(value) if integer else float(value)


def read_kind(spec, what: str, kinds: dict):
    """The object a ``{"kind": ..., <params>}`` config spec describes, from a
    table kind -> (factory, param -> type); the factory judges each number."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ValidationError(f"config needs a {what} object with a known 'kind', got {kind!r}")
    factory, params = kinds[kind]
    if set(spec) != {"kind", *params}:
        raise ValidationError(f"{what} {kind!r} takes exactly keys "
                              f"{sorted({'kind', *params})}, got {sorted(spec)}")
    return factory(**{key: number(spec[key], key, integer=(typ is int), signed=True)
                      for key, typ in params.items()})


class MixedSupportError(ValidationError):
    """A spectral window contains both the zero period and a nonzero one.

    The two asymptotic regimes are disjoint; callers must isolate one.
    """


class ChartError(ValidationError):
    """Phase-space state lies outside its coordinate chart's validity."""


class ManeLevelError(MagtraceError):
    """Requested energy at or above the Mane level of the hyperbolic flow."""

    exit_code = 3

    def __init__(self, E, boundary):
        super().__init__(
            f"energy E={E:.12g} is at or above the Mane level "
            f"sqrt(1/R^2+1)={boundary:.12g}; the prediction can't be "
            "extended analytically at this level and above it"
        )
        self.E = E
        self.boundary = boundary


class ResonanceError(MagtraceError):
    """Orbit data too close to a resonance for the requested formula."""

    exit_code = 4


class DegenerateOrbitError(ResonanceError):
    """det(I - P) below the resonance margin: nondegeneracy fails."""


class IntegratorError(MagtraceError):
    """ODE integration failed or conservation drift exceeded its budget."""

    exit_code = 5
