"""Semantics of the package's record classes.

Every record binds its fields by position or by keyword, refuses a
missing, unknown or surplus field with TypeError, compares and hashes by
its field tuple, prints as ``Name(field=value, ...)``, and is frozen.
"""

import ast
import copy
import inspect
import pickle
from fractions import Fraction

import pytest

import abbvloc
from abbvloc import cli, core, engine, homogeneous, polytope, sampling, secondary, toric
from abbvloc.core import PiScalar
from abbvloc.engine import OrbitDatum, OrbitSystem, weighted_sphere_system
from abbvloc.homogeneous import RootData, stiefel_so5_so3
from abbvloc.polytope import HPolytope, MsyCheck, msy_check
from abbvloc.sampling import SampleOutcome
from abbvloc.secondary import WeightedSphereFoliation
from abbvloc.toric import GoodCone, ToricOrbit, simplex_cone


def _fields(record, names):
    return {name: getattr(record, name) for name in names}


def _cases():
    """(class, field values in field order) for each of the 10 records."""
    sphere = weighted_sphere_system([1, 2])
    cone = simplex_cone(2)
    section = cone.section
    root_data = stiefel_so5_so3()
    return [
        (PiScalar, {"coeff": Fraction(3, 2), "pi_power": 2}),
        (OrbitDatum, _fields(sphere.orbits[0], ("length", "integer_rows"))),
        (OrbitSystem, _fields(sphere, ("dim_t", "b", "codim_half", "orbits"))),
        (GoodCone, _fields(cone, ("dim", "normals", "reeb", "lattice_basis",
                                  "pi_scale_exponent"))),
        (ToricOrbit, _fields(section.orbits[0], ("integer_vertex", "facet_indices", "abs_delta",
                                                 "rows", "t"))),
        (HPolytope, _fields(section, ("normals", "reeb", "orbits"))),
        (MsyCheck, {"lhs": PiScalar(2, 2), "rhs": PiScalar(2, 2), "equal": True,
                    "section_volume": Fraction(1)}),
        (RootData, _fields(root_data, ("dim_t", "roots_quotient", "weyl_reps", "b",
                                       "projection"))),
        (WeightedSphereFoliation, {"m": 2, "w": (Fraction(1), Fraction(2), Fraction(3))}),
        (SampleOutcome, {"value": PiScalar(1, 1), "samples_used": ((1, 2),),
                         "rejected_poles": 3}),
    ]


CASES = _cases()
IDS = [cls.__name__ for cls, _ in CASES]
@pytest.mark.parametrize("cls,values", CASES, ids=IDS)
def test_position_and_keyword_construction_agree(cls, values):
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert _fields(by_position, values) == _fields(by_keyword, values)


@pytest.mark.parametrize("cls,values", CASES, ids=IDS)
def test_missing_unknown_and_surplus_fields_raise_type_error(cls, values):
    first = next(iter(values))
    with pytest.raises(TypeError):
        cls(**{k: v for k, v in values.items() if k != first})
    with pytest.raises(TypeError):
        cls(**values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values.values(), 1)


@pytest.mark.parametrize("cls,values", CASES, ids=IDS)
def test_frozen_records_refuse_assignment_and_deletion(cls, values):
    record = cls(**values)
    first = next(iter(values))
    before = getattr(record, first)
    with pytest.raises(AttributeError):
        setattr(record, first, before)
    with pytest.raises(AttributeError):
        setattr(record, "no_such_field", 1)
    with pytest.raises(AttributeError):
        delattr(record, first)
    assert getattr(record, first) == before


@pytest.mark.parametrize("cls,values", CASES, ids=IDS)
def test_equality_and_hash_agree(cls, values):
    a, b = cls(**values), cls(*values.values())
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a.__eq__(object()) is NotImplemented
    assert a != object()


@pytest.mark.parametrize("cls,values", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, values):
    record = cls(**values)
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record


def test_unequal_records_compare_unequal():
    assert PiScalar(1, 1) != PiScalar(1, 2)
    assert PiScalar(0, 3) == PiScalar(0)  # zero is canonicalized to pi power 0
    # a defaulted field compares as if given
    assert PiScalar(3) == PiScalar(3, 0) != PiScalar(3, 1)
    cone = simplex_cone(2)
    assert GoodCone(2, cone.normals, cone.reeb) == GoodCone(2, cone.normals, cone.reeb, None, 1)
    assert GoodCone(2, cone.normals, cone.reeb) != GoodCone(2, cone.normals, cone.reeb,
                                                             pi_scale_exponent=0)


def test_repr_strings():
    cone = simplex_cone(2)
    assert repr(cone) == (
        "GoodCone(dim=2, normals=((Fraction(-1, 1), Fraction(0, 1)), "
        "(Fraction(0, 1), Fraction(-1, 1))), reeb=(Fraction(1, 1), Fraction(1, 1)), "
        "lattice_basis=None, pi_scale_exponent=1)"
    )
    assert repr(weighted_sphere_system([1, 2]).orbits[0]) == (
        "OrbitDatum(length=PiScalar(2 * pi^1), integer_rows=((1, ((0, 1),), 2), "
        "(1, ((0, 2), (1, -1)), 2)))"
    )
    assert repr(msy_check(cone)) == (
        "MsyCheck(lhs=PiScalar(2 * pi^2), rhs=PiScalar(2 * pi^2), equal=True, "
        "section_volume=Fraction(1, 1))"
    )



@pytest.mark.parametrize("module", [abbvloc, cli, core, engine, homogeneous, polytope,
                                    sampling, secondary, toric],
                         ids=lambda module: module.__name__)
def test_records_are_written_only_by_their_own_construction(module):
    """Every ``object.__setattr__`` in the package writes into ``self``
    from ``Record.__init__`` or a ``__post_init__``, and no code reads or
    writes an instance's ``__dict__`` by key."""
    tree = ast.parse(inspect.getsource(module))
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and ast.unparse(node.func) == "object.__setattr__"):
                assert function.name in ("__init__", "__post_init__"), ast.unparse(node)
                assert ast.unparse(node.args[0]) == "self", ast.unparse(node)
            if isinstance(node, ast.Subscript):
                assert not ast.unparse(node.value).endswith("__dict__"), ast.unparse(node)
