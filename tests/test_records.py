"""The record types of the library: each pickles to an equal value of
its own type and prints as the dataclass it replaced did; the two
hashed value types are never equal to a plain tuple; and the records
that were frozen refuse an assignment to a field."""

import pickle
from fractions import Fraction as F

import pytest

from newton_cocenter.affine_weyl import AffineRoot, parse_element
from newton_cocenter.hecke_cocenter import RigidRow
from newton_cocenter.levi_alcove import PositivityCertificate
from newton_cocenter.newton import NewtonIndex
from newton_cocenter.reduction import ReductionPath, ReductionStep, StandardTriple
from newton_cocenter.root_datum import coweight
from newton_cocenter.verify import CheckResult, SuiteReport

from conftest import group

_S1 = "AffineWeylElement(translation=(0,), finite=((-1,),))"
_S0 = "AffineWeylElement(translation=(1,), finite=((-1,),))"
_NU = "NewtonIndex(omega=(0,), nu_bar=Coweight(2, (1,)))"
_CHECK = ("CheckResult(property_id='length-matches-bfs', instances=5, failures=1, "
          "first_counterexample='s1', detail='strict=2')")


def _records():
    """(record, its repr), one or more per record type."""
    a1 = group("A1")
    s0, s1 = parse_element(a1, "S0"), parse_element(a1, "S1")
    nu = NewtonIndex((0,), coweight([F(1, 2)]))
    step = ReductionStep(0, "conj-down", s1)
    step_repr = f"ReductionStep(label=0, kind='conj-down', result={_S1})"
    check = CheckResult("length-matches-bfs", 5, 1, "s1", "strict=2")
    return [
        (AffineRoot((2,), -1), "AffineRoot(vector_part=(2,), level=-1)"),
        (nu, _NU),
        (step, step_repr),
        (ReductionPath(s0, (step,), s1),
         f"ReductionPath(start={_S0}, steps=({step_repr},), end={_S1})"),
        (StandardTriple(s1, (0,), a1.identity),
         f"StandardTriple(x={_S1}, k_labels=(0,), "
         "u=AffineWeylElement(translation=(0,), finite=((1,),)))"),
        (RigidRow(nu, "T", 1, True),
         f"RigidRow(nu={_NU}, levi_label='T', class_count=1, covered=True)"),
        (PositivityCertificate(s0, coweight([F(1, 3)]), 2, 18, 4, 2, 3, 1),
         f"PositivityCertificate(w={_S0}, v=Coweight(3, (1,)), exponent=2, bound=18, "
         "n0=4, n1=2, denominator_scale=3, min_shift_at_exponent=1)"),
        (check, _CHECK),
        (SuiteReport("length", "A1", {"max_length": 3}, [check], 0.25),
         f"SuiteReport(suite='length', group='A1', params={{'max_length': 3}}, "
         f"checks=[{_CHECK}], wall_time=0.25)"),
        (SuiteReport("length", "A1", {}),
         "SuiteReport(suite='length', group='A1', params={}, checks=[], wall_time=0.0)"),
    ]


def test_every_record_type_is_covered():
    assert {type(r).__name__ for r, _ in _records()} == {
        "AffineRoot", "NewtonIndex", "ReductionStep", "ReductionPath",
        "StandardTriple", "RigidRow", "PositivityCertificate", "CheckResult",
        "SuiteReport"}


@pytest.mark.parametrize("index", range(10))
def test_pickle_round_trip_gives_an_equal_record_of_the_same_type(index):
    record, _ = _records()[index]
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


@pytest.mark.parametrize("index", range(10))
def test_repr_is_the_dataclass_repr(index):
    record, expected = _records()[index]
    assert repr(record) == expected


def test_records_compare_by_their_fields():
    assert AffineRoot((1,), 0) == AffineRoot((1,), 0) != AffineRoot((1,), 1)
    assert hash(NewtonIndex((0,), coweight([F(1)]))) == hash(NewtonIndex((0,), coweight([F(1)])))
    assert CheckResult("p", 1, 0) == CheckResult("p", 1, 0, None, "")
    assert CheckResult("p", 1, 0) != CheckResult("p", 1, 1)
    # as for a dataclass, a record of another class is never equal
    assert AffineRoot((0,), (1,)) != NewtonIndex((0,), (1,))


@pytest.mark.parametrize("record, fields", [
    (AffineRoot((1, -1), 0), ((1, -1), 0)),
    (NewtonIndex((0,), coweight([F(1, 2)])), ((0,), coweight([F(1, 2)]))),
])
def test_value_types_are_not_plain_tuples(record, fields):
    assert record != fields and fields != record
    assert not isinstance(record, tuple)


# the first and last field of each record that was a frozen dataclass
_FROZEN_FIELDS = [("vector_part", "level"), ("omega", "nu_bar"), ("label", "result"),
                  ("start", "end"), ("x", "u"), ("nu", "covered"),
                  ("w", "min_shift_at_exponent")]


@pytest.mark.parametrize("index", range(7))
def test_formerly_frozen_records_refuse_assignment(index):
    record, _ = _records()[index]
    for name in _FROZEN_FIELDS[index]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_reports_take_their_results_after_construction():
    report = SuiteReport("length", "A1", {})
    report.wall_time = 1.5
    report.check("p", [("x", True)], str).detail = "d"
    assert (report.wall_time, report.checks) == (1.5, [CheckResult("p", 1, 0, None, "d")])
