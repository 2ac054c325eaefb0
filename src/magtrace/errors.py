"""Exception hierarchy, input checks and the record decorator shared across
the package.

Each error family carries a distinct process exit code so the CLI can
signal validation problems, energy-range violations, resonances and
integrator failures separately.
"""

import math
import operator
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


def check_tensor_power(N) -> None:
    """Refuse a tensor power N that is not an integer of at least 1."""
    # an int or a numpy integer, both of which have __index__; not a bool
    if not (hasattr(N, "__index__") and not isinstance(N, bool) and N >= 1):
        raise ValidationError(f"N must be a positive integer, got {N}")


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


class FrozenRecordError(AttributeError):
    """An assignment to, or a deletion from, a ``record`` instance."""


def record(cls):
    """Make cls an immutable record, as ``dataclasses.dataclass(frozen=True)``
    does, from closures instead of generated source.  The fields are cls's own
    annotations that are not ``ClassVar`` (objects or strings), taken by
    position or keyword; a class attribute of a field's name is its default;
    ``__post_init__`` runs after them if the class has one.  ``__eq__`` (same
    class only), ``__hash__`` and ``__repr__`` go by the tuple of field values."""
    names = tuple(name for name, ann in vars(cls).get("__annotations__", {}).items()
                  if str(ann).partition("[")[0].removeprefix("typing.") != "ClassVar")
    fields, post_init = frozenset(names), getattr(cls, "__post_init__", None)
    setter = object.__setattr__  # sets a field past the refusing __setattr__
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    values = (operator.attrgetter(*names) if len(names) > 1
              else lambda self: tuple(getattr(self, name) for name in names))

    def __init__(self, *args, **kwargs):
        given = kwargs
        if args:
            given = dict(zip(names, args), **kwargs)
            if len(given) < len(args) + len(kwargs):
                raise TypeError(f"{cls.__name__}() got too many or repeated arguments")
        if given.keys() != fields:  # defaults to fill in, or a bad argument
            given = {**defaults, **given}
            if given.keys() != fields:
                raise TypeError(f"{cls.__name__}() takes {names}, got {tuple(given)}")
        # field by field, as a dataclass does: self.__dict__.update would give
        # each instance a dict of its own, and slower method lookups
        for name in names:
            setter(self, name, given[name])
        if post_init is not None:
            post_init(self)

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return (values(self) == values(other) if other.__class__ is self.__class__
                else NotImplemented)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{type(self).__qualname__}({pairs})"

    for method in (__init__, __setattr__, __delattr__, __eq__, __hash__, __repr__):
        setattr(cls, method.__name__, method)
    return cls
