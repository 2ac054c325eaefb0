"""Record semantics: every ``errors.record`` class behaves as the frozen
dataclass it replaces, without generating source.

Each record is checked against a ``dataclasses.dataclass(frozen=True)`` twin
built here from the record's own annotations and class attributes, so the
twin reads the fields, defaults and ``ClassVar`` entries the dataclass way.
"""

import builtins
import dataclasses
import typing

import pytest

from magtrace import asymptotics, bump, dynamics, geometry, katok, spectra, testfn, tracesum
from magtrace.errors import FrozenRecordError, ValidationError, record

RECORDS = {
    geometry: ("EnergyLevel", "PhaseState", "OrbitInvariants", "ClosedOrbitSet", "Torus",
               "Sphere", "Hyperbolic"),
    katok: ("KatokMonodromy", "Katok"),
    spectra: ("Window",),
    tracesum: ("TraceValue",),
    asymptotics: ("KSumControl", "CoefficientPrediction", "ResidualReport"),
    dynamics: ("FlowSegment", "FlowResult", "MCVolume"),
    testfn: ("GaussianEnvelope",),
    bump: ("PowerEnvelope",),
}
CLASSES = [getattr(module, name) for module, names in RECORDS.items() for name in names]


def _is_record(cls):
    return getattr(vars(cls).get("__init__"), "__module__", None) == "magtrace.errors"


def _twin(cls):
    """A frozen dataclass with cls's own annotations, annotated class
    attributes, module and qualified name, but none of its methods."""
    own = vars(cls)["__annotations__"]
    body = {name: vars(cls)[name] for name in own if name in vars(cls)}
    twin = type(cls.__name__, (), {**body, "__annotations__": dict(own),
                                   "__module__": cls.__module__,
                                   "__qualname__": cls.__qualname__})
    return dataclasses.dataclass(frozen=True)(twin)


def _fields(cls):
    return [f.name for f in dataclasses.fields(_twin(cls))]


# field values __post_init__ accepts; salt makes a second, unequal instance
_CHOSEN = {"R": lambda salt: 1.0 + salt, "genus": lambda salt: 2 + salt,
           "eps": lambda salt: 0.25 + salt / 8, "k_max": lambda salt: 3 + salt}


def _values(cls, salt=0):
    return {name: (_CHOSEN[name](salt) if name in _CHOSEN
                   else [i, salt] if vars(cls)["__annotations__"][name] == "list"
                   else i + 0.25 + salt)
            for i, name in enumerate(_fields(cls))}


def _hash(x):
    try:
        return hash(x)
    except TypeError as exc:  # a list field: both kinds refuse alike
        return str(exc)


def test_the_table_names_every_record_class():
    found = {obj.__name__ for module in RECORDS for obj in vars(module).values()
             if isinstance(obj, type) and obj.__module__ == module.__name__
             and _is_record(obj)}
    assert found == {cls.__name__ for cls in CLASSES} and len(found) == 19
    assert not _is_record(testfn.TestFunction)  # a real dataclass, for dataclasses.replace


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    rec = cls(**_values(cls))
    for name in [*_fields(cls), "not_a_field"]:
        with pytest.raises(FrozenRecordError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert vars(rec) == _values(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_eq_hash_repr_match_a_frozen_dataclass_twin(cls):
    twin = _twin(cls)
    a, b, other = cls(**_values(cls)), cls(**_values(cls)), cls(**_values(cls, salt=1))
    ta, tb, tother = twin(**_values(cls)), twin(**_values(cls)), twin(**_values(cls, salt=1))
    assert repr(a) == repr(ta) and repr(other) == repr(tother)
    assert (_hash(a), _hash(other)) == (_hash(ta), _hash(tother))
    assert (a == b, a == other, a != b, a != other) == (ta == tb, ta == tother,
                                                        ta != tb, ta != tother)
    assert a != ta and ta != a  # another class is never equal
    # positional arguments fill the fields in order, as in the twin
    assert cls(*_values(cls).values()) == a and repr(twin(*_values(cls).values())) == repr(a)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_bad_arguments_raise_type_error_as_in_the_twin(cls):
    values = _values(cls)
    names = list(values)
    calls = [((), {**values, "not_a_field": 1.0}),
             ((*values.values(), 1.0), {})]
    if names:
        calls += [((values[names[0]],), values),  # given by position and keyword
                  ((), {n: v for n, v in values.items() if n != names[0]})]  # missing
    for args, kwargs in calls:
        with pytest.raises(TypeError):
            _twin(cls)(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_defaults_and_class_vars_as_in_the_twin():
    assert _fields(geometry.Torus) == [] and _fields(geometry.Sphere) == ["R"]
    assert geometry.ClosedOrbitSet(orbits=()).note is None
    assert asymptotics.KSumControl(4).resonance_margin == 1e-6
    assert dynamics.MCVolume(1.0, 0.1, 1.0, 0.0) == dynamics.MCVolume(1.0, 0.1, 1.0, 0.0, None)


@pytest.mark.parametrize("make", [
    lambda: geometry.Sphere(R=0.0),
    lambda: geometry.Sphere(-1.0),
    lambda: geometry.Hyperbolic(R=1.0, genus=1),
    lambda: katok.Katok(eps=0.0),
    lambda: katok.Katok(1.0),
    lambda: asymptotics.KSumControl(k_max=-1),
    lambda: asymptotics.KSumControl(k_max=asymptotics.MAX_K_MAX + 1),
], ids=["sphere-R0", "sphere-R-1", "genus-1", "katok-eps0", "katok-eps1",
        "k_max-neg", "k_max-cap"])
def test_post_init_refusals_still_raise_validation_error(make):
    with pytest.raises(ValidationError):
        make()


def test_record_builds_and_runs_without_exec_eval_or_compile(monkeypatch):
    class Point:
        x: float
        y: "float"
        label: str = "p"
        dims: typing.ClassVar[int] = 2
        tag: "ClassVar[str]" = "plain"
        other: "typing.ClassVar[str]" = "dotted"

        def __post_init__(self):
            if self.x < 0:
                raise ValueError("x < 0")

    calls = []

    def spy(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    with monkeypatch.context() as patch:
        for name in ("exec", "eval", "compile"):
            patch.setattr(builtins, name, spy(name, getattr(builtins, name)))
        Point = record(Point)
        p = Point(1.0, y=2.0)
        seen = (repr(p), p == Point(1.0, 2.0, "p"), p != Point(1.0, 2.0, "q"), hash(p))
        with pytest.raises(ValueError):
            Point(-1.0, 0.0)
    assert calls == []
    assert seen == ("test_record_builds_and_runs_without_exec_eval_or_compile.<locals>"
                    ".Point(x=1.0, y=2.0, label='p')", True, True, hash((1.0, 2.0, "p")))
    assert Point.dims == 2 and vars(p) == {"x": 1.0, "y": 2.0, "label": "p"}
