"""The contract of the package's immutable value classes.

Formula nodes, ``Affine``, ``MaxMin``, ``SimplexResult`` and the coherence
certificates are plain classes on ``kernel.Record``: fields named by
``__match_args__``, no assignment or deletion after construction, and
``==``, ``hash()`` and ``repr()`` over the fields in order.
"""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rieszmv import (
    Affine,
    Book,
    Delta,
    DutchBook,
    Formula,
    Iff,
    Implies,
    Join,
    MaxMin,
    Meet,
    Nabla,
    Neg,
    Odot,
    Ominus,
    Oplus,
    RConst,
    StateWitness,
    Var,
    parse,
)
from rieszmv.kernel import Record
from rieszmv.lp import INFEASIBLE, OPTIMAL, SimplexResult

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"

FIELDS = {
    Var: ("index",),
    Neg: ("child",),
    Implies: ("left", "right"),
    Nabla: ("r", "child"),
    Delta: ("r", "child"),
    RConst: ("r",),
    Oplus: ("left", "right"),
    Odot: ("left", "right"),
    Join: ("left", "right"),
    Meet: ("left", "right"),
    Iff: ("left", "right"),
    Ominus: ("left", "right"),
    Affine: ("n", "coeffs"),
    MaxMin: ("n", "den", "rows"),
    SimplexResult: ("status", "x", "objective", "farkas", "pivots"),
    Book: ("events",),
    StateWitness: ("support",),
    DutchBook: ("stakes", "margin"),
}


def _values():
    """One instance of every value class."""
    a = Affine(1, (F(1, 2), -1))
    nodes = [Var(1), Neg(Var(2)), Nabla(F(1, 2), Var(1)), Delta(F(1, 3), Var(2)), RConst(F(2, 3))]
    nodes += [kind(Var(1), Neg(Var(2))) for kind in (Implies, Oplus, Odot, Join, Meet, Iff, Ominus)]
    return nodes + [
        a,
        MaxMin(1, ((a,), (Affine(1, (0, 1)),))),
        SimplexResult(OPTIMAL, x=(F(1, 2), 0), objective=F(-3, 4), pivots=3),
        Book(((parse("v1 (+) v2"), F(1, 2)), (parse("!v1"), "3/10"))),
        StateWitness((((F(1, 2), 1), F(1, 3)), ((0, 0), F(2, 3)))),
        DutchBook((F(1), -1, F(-1, 2)), F(1, 10)),
    ]


def test_every_class_names_its_fields_in_match_args():
    values = _values()
    assert {type(v) for v in values} == set(FIELDS)
    for v in values:
        assert type(v).__match_args__ == FIELDS[type(v)]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_fields_can_be_neither_assigned_nor_deleted(value):
    before = repr(value)
    for name in type(value).__match_args__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_pickle_and_deepcopy_round_trips_compare_equal(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


def test_equality_and_hash_read_the_fields():
    for v in _values():
        if not isinstance(v, (Formula, SimplexResult)):  # each has its own rule, below
            assert hash(v) == hash(tuple(getattr(v, name) for name in FIELDS[type(v)]))
    assert Affine(1, (0, 1)) == Affine(1, (F(0), F(1))) != Affine(1, (1, 0))
    assert Affine(1, (0, 1)) != (1, (F(0), F(1)))
    witness = StateWitness((((1,), 1),))

    class Left(Record):
        __match_args__ = ("value",)

        def __init__(self, value):
            self.__dict__["value"] = value

    class Right(Record):
        __match_args__ = ("value",)
        __init__ = Left.__init__

    assert Left(witness) == Left(StateWitness((((F(1),), F(1)),)))
    assert Left(witness) != Right(witness) and Right(witness) != Left(witness)  # same fields, other class
    # pivots is no part of equality
    found = SimplexResult(OPTIMAL, x=(F(1),), objective=F(0), pivots=3)
    assert found == SimplexResult(OPTIMAL, x=(1,), objective=0, pivots=7)
    assert hash(found) == hash(SimplexResult(OPTIMAL, x=(1,), objective=0))
    assert hash(found) == hash((OPTIMAL, (1,), 0, None))
    assert found != SimplexResult(INFEASIBLE, farkas=(F(1),))
    # formulas compare by structure; Odot and Oplus over the same operands hash alike
    assert Odot(Var(1), Var(2)) != Oplus(Var(1), Var(2))
    assert hash(Odot(Var(1), Var(2))) == hash(Oplus(Var(1), Var(2)))
    assert Nabla(F(1, 2), Var(1)) != Delta(F(1, 2), Var(1))
    assert parse("N[0.5] v1 -> v2") == Implies(Nabla(F(1, 2), Var(1)), Var(2))
    assert Var(1) != 1 and RConst(F(1, 2)) != F(1, 2)


def test_keyword_construction():
    v = Var(index=1)
    assert v == Var(1) and Neg(child=v) == Neg(v)
    assert Implies(left=v, right=v) == Implies(v, v) and Oplus(left=v, right=v) == Oplus(v, v)
    assert Nabla(r=F(1, 2), child=v) == Nabla(F(1, 2), v) and RConst(r=F(1, 3)) == RConst(F(1, 3))
    assert Affine(n=1, coeffs=(0, 1)) == Affine(1, (0, 1))
    result = SimplexResult(OPTIMAL, x=(F(1),), pivots=3)
    assert (result.status, result.x, result.objective, result.farkas, result.pivots) == (OPTIMAL, (1,), None, None, 3)
    assert SimplexResult(status=INFEASIBLE, farkas=(1,)).farkas == (1,)
    book = Book(events=((v, F(1, 2)),))
    assert book == Book(((v, F(1, 2)),))
    assert StateWitness(support=(((1,), 1),)) == StateWitness((((F(1),), F(1)),))
    assert DutchBook(stakes=(1,), margin=F(1, 5)) == DutchBook((F(1),), F(1, 5))


def test_repr_is_unchanged():
    # the texts the frozen dataclasses printed
    reprs = [repr(v) for v in _values() if not isinstance(v, Formula)]
    assert reprs == [
        "Affine(n=1, coeffs=(Fraction(1, 2), Fraction(-1, 1)))",
        "MaxMin(n=1, den=2, rows=(((0, 2),), ((1, -2),)))",
        "SimplexResult(status='optimal', x=(Fraction(1, 2), 0), objective=Fraction(-3, 4), farkas=None, pivots=3)",
        "Book(events=((Oplus(left=Var(index=1), right=Var(index=2)), UnitRational(1, 2)), "
        "(Neg(child=Var(index=1)), UnitRational(3, 10))))",
        "StateWitness(support=(((Fraction(1, 2), Fraction(1, 1)), Fraction(1, 3)), "
        "((Fraction(0, 1), Fraction(0, 1)), Fraction(2, 3))))",
        "DutchBook(stakes=(Fraction(1, 1), Fraction(-1, 1), Fraction(-1, 2)), margin=Fraction(1, 10))",
    ]
    assert repr(SimplexResult(INFEASIBLE, farkas=(F(1),))) == (
        "SimplexResult(status='infeasible', x=None, objective=None, farkas=(Fraction(1, 1),), pivots=0)"
    )
    assert repr(parse("N[1/2] v1 -> C[1/3]")) == (
        "Implies(left=Nabla(r=UnitRational(1, 2), child=Var(index=1)), right=RConst(r=UnitRational(1, 3)))"
    )


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import rieszmv.cli; "
        "print(rieszmv.cli.__file__); print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    path, loaded = done.stdout.splitlines()
    assert Path(path).resolve().is_relative_to(SRC) and loaded == "[]", done.stdout


def test_star_import_binds_no_module():
    namespace = {}
    exec("from rieszmv import *", namespace)
    del namespace["__builtins__"]
    modules = [name for name, value in namespace.items() if type(value) is type(sys)]
    assert modules == [] and "parse" in namespace and "check_coherent" in namespace
