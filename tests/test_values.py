"""The value-class contract: every record class in tracegeo compares equal
only to an instance of its own class with the same compared fields, hashes
as the tuple of those fields, refuses assignment when frozen, and prints as
Name(field=value, ...) in field order."""

import math
from fractions import Fraction

import pytest

from tracegeo import (AsymptoticExpansion, BudgetParams, DiscriminantValue,
                      ExponentReport, GLType, GroupSpec, LevelData,
                      LeviDatum, OrbitLabel, ParabolicSubset,
                      PrimeFixedResult, QuadraticSurd, RationalMatrix,
                      RelativeDatum, RootSystem, SimpleType, TailFunction,
                      build_root_system)
from tracegeo.reproduce import CheckResult

A2 = SimpleType("A", 2)
A1 = build_root_system(["A1"])
A1_REPR = ("RootSystem(factors=(SimpleType(series='A', rank=1),), "
           "torus_rank=0)")
F = Fraction

# class -> (field values in constructor order, fields left out of eq and
# hash, a replacement value for each field that can change alone, the
# repr).  Each replacement changes equality exactly when its field is
# compared.
CASES = {
    RationalMatrix: (
        dict(n=1, entries=((F(1, 2),),)),
        (), dict(entries=((F(1, 3),),)),
        "RationalMatrix(n=1, entries=((Fraction(1, 2),),))"),
    DiscriminantValue: (
        dict(value=F(-6), abs_inf=F(6), p_valuations={2: 1},
             centralizer_dim=2),
        ("p_valuations",), dict(value=F(6), abs_inf=F(1, 6),
                                p_valuations={3: 1}, centralizer_dim=0),
        "DiscriminantValue(value=Fraction(-6, 1), abs_inf=Fraction(6, 1), "
        "p_valuations={2: 1}, centralizer_dim=2)"),
    SimpleType: (
        dict(series="B", rank=3),
        (), dict(series="C", rank=4),
        "SimpleType(series='B', rank=3)"),
    RootSystem: (
        dict(factors=A1.factors, torus_rank=0),
        (), dict(factors=(SimpleType("B", 1),), torus_rank=1),
        A1_REPR),
    AsymptoticExpansion: (
        dict(terms=((F(-1), 2.0), (F(0), 1.0)), valid_to=1.0,
             remainder_order=F(1)),
        (), dict(terms=((F(0), 1.0),), valid_to=0.5,
                 remainder_order=F(2)),
        "AsymptoticExpansion(terms=((Fraction(-1, 1), 2.0), "
        "(Fraction(0, 1), 1.0)), valid_to=1.0, "
        "remainder_order=Fraction(1, 1))"),
    TailFunction: (
        dict(evaluator=math.exp, decay=(1.0, 2.0)),
        (), dict(evaluator=math.cos, decay=(1.0, 3.0)),
        "TailFunction(evaluator=<built-in function exp>, decay=(1.0, 2.0))"),
    RelativeDatum: (
        dict(roots=((1, 0),), contributions=(3,)),
        (), dict(roots=((0, 1),), contributions=(4,)),
        "RelativeDatum(roots=((1, 0),), contributions=(3,))"),
    GroupSpec: (
        dict(absolute=A1, restriction_degree=2, relative=None),
        (), dict(absolute=build_root_system(["A1"], 1), restriction_degree=3,
                 relative=RelativeDatum(((1,),), (1,))),
        f"GroupSpec(absolute={A1_REPR}, restriction_degree=2, "
        "relative=None)"),
    LevelData: (
        dict(N=12, factorization={2: 2, 3: 1}, S_N=(2, 3)),
        (), dict(N=6, factorization={2: 1, 3: 1}, S_N=(2,)),
        "LevelData(N=12, factorization={2: 2, 3: 1}, S_N=(2, 3))"),
    PrimeFixedResult: (
        dict(ok=False, reference=(2,), union=(2, 3), offenders=((6, (3,)),)),
        (), dict(ok=True, reference=(3,), union=(2,), offenders=()),
        "PrimeFixedResult(ok=False, reference=(2,), union=(2, 3), "
        "offenders=((6, (3,)),))"),
    ParabolicSubset: (
        dict(system=A1, mask=2),
        (), dict(system=build_root_system(["A1"], 1), mask=3),
        f"ParabolicSubset(system={A1_REPR}, mask=2)"),
    LeviDatum: (
        dict(system=A1, mask=0),
        (), dict(system=build_root_system(["A1"], 1), mask=3),
        f"LeviDatum(system={A1_REPR}, mask=0)"),
    CheckResult: (
        dict(name="n", detail="d", expected="1", actual="1", ok=True,
             seconds=0.5),
        (), dict(name="m", detail="e", expected="2", actual="2", ok=False,
                 seconds=1.5),
        "CheckResult(name='n', detail='d', expected='1', actual='1', "
        "ok=True, seconds=0.5)"),
    QuadraticSurd: (
        dict(a=F(1, 2), b=F(-3), d=2),
        (), dict(a=F(1), b=F(3), d=3),
        "QuadraticSurd(a=Fraction(1, 2), b=Fraction(-3, 1), d=2)"),
    BudgetParams: (
        dict(k=1, lam=F(5, 2), epsilon=F(1, 10), C2=1, C4=1, Cn=1,
             c_prime=0, beta=F(1, 2), b_conj=1, m_nonarch=0),
        (), dict(k=2, lam=F(7, 2), epsilon=F(1, 5), C2=2, C4=2, Cn=2,
                 c_prime=1, beta=F(1, 3), b_conj=0, m_nonarch=2),
        "BudgetParams(k=1, lam=Fraction(5, 2), epsilon=Fraction(1, 10), "
        "C2=1, C4=1, Cn=1, c_prime=0, beta=Fraction(1, 2), b_conj=1, "
        "m_nonarch=0)"),
    ExponentReport: (
        dict(e_spec=F(-9, 8), e1=F(-1), e2=-1.25, all_ok=True),
        (), dict(e_spec=F(0), e1=F(1), e2=0.5, all_ok=False),
        "ExponentReport(e_spec=Fraction(-9, 8), e1=Fraction(-1, 1), "
        "e2=-1.25, all_ok=True)"),
    GLType: (
        dict(n=3),
        (), dict(n=4),
        "GLType(n=3)"),
    OrbitLabel: (
        dict(attached_type=A2, partition=(2, 1)),
        (), dict(attached_type=GLType(3), partition=(3,)),
        "OrbitLabel(attached_type=SimpleType(series='A', rank=2), "
        "partition=(2, 1))"),
}

# The classes whose own __hash__ replaces the hash of the compared fields.
HASH_KEYS = {
    QuadraticSurd: lambda x: x._key(),
}

MUTABLE = {CheckResult}


def _hash_or_type_error(key):
    try:
        return hash(key)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_equality_follows_the_compared_fields(cls):
    values, uncompared, other, _ = CASES[cls]
    x = cls(**values)
    assert cls(*values.values()) == x
    assert not x != cls(**values)
    for name, new in other.items():
        changed = cls(**{**values, name: new})
        assert (changed == x) is (name in uncompared), name
    assert x.__eq__(tuple(values.values())) is NotImplemented
    assert all(x != y for y in (None, 0, "", object()))


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_hash_is_the_hash_of_the_compared_fields(cls):
    values, uncompared, _, _ = CASES[cls]
    x = cls(**values)
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(x)
        return
    key = HASH_KEYS.get(cls, lambda y: tuple(
        getattr(y, name) for name in values if name not in uncompared))(x)
    assert _hash_or_type_error(x) == _hash_or_type_error(key)


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_frozen_instances_refuse_assignment(cls):
    values, _, other, _ = CASES[cls]
    x = cls(**values)
    name, new = next(iter(other.items()))
    if cls in MUTABLE:
        setattr(x, name, new)
        assert getattr(x, name) == new
        return
    with pytest.raises(AttributeError):
        setattr(x, name, new)
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert getattr(x, name) == values[name]


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_repr_names_every_field_in_order(cls):
    values, _, _, text = CASES[cls]
    assert repr(cls(**values)) == text


def test_defaults_and_cached_properties():
    assert DiscriminantValue(F(1), F(1), {}).centralizer_dim == 0
    assert GroupSpec(A1) == GroupSpec(A1, 1, None)
    assert OrbitLabel(A2, (3,)).very_even is False
    params = BudgetParams(1, 1, F(1, 2), 1, 1, 1, 0, 1)
    assert (params.b_conj, params.m_nonarch) == (0, 0)
    # cached_property stores into the instance __dict__ of a frozen value
    assert ParabolicSubset(A1, 2).members == frozenset({1})
    assert LeviDatum(A1, 3).levi_roots == frozenset({0, 1})
    assert (LeviDatum(A1, 3).a_M_dim, LeviDatum(A1, 0).a_M_dim) == (0, 1)
    assert A1.root_index == {(-1, 1): 0, (1, -1): 1}
