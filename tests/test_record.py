"""The records against the frozen dataclasses they replace: every Record
class beside its dataclass twin (helpers.dataclass_twin), on the records
that the library's own analyses return (helpers.seeded_records)."""
import dataclasses
from itertools import product

import pytest

import divlat.classify as classify_mod
from divlat._record import Record
from divlat.divisibility import DetNotPower, Exhausted, NegativeDetEvenPower
from divlat.exactalg import IntMatrix
from divlat.fitting import fitting_decompose
from divlat.numberring import OKModule, QuadraticOrder

from helpers import dataclass_twin, record_classes, seeded_records


def _records_with_twins(seed, per_class=6):
    """(record, its twin with the same field values) for up to per_class
    distinct records of each class."""
    twins = {cls.__name__: dataclass_twin(cls) for cls in record_classes()}
    for name, records in seeded_records(seed).items():
        distinct = []
        for record in records:
            if all(record is not other and repr(record) != repr(other) for other in distinct):
                distinct.append(record)
        for record in distinct[:per_class]:
            yield record, twins[name](*(getattr(record, field) for field in record._fields))


@pytest.mark.parametrize("seed", [1, 2])
def test_every_class_is_seeded(seed):
    assert sorted(seeded_records(seed)) == sorted(cls.__name__ for cls in record_classes())


@pytest.mark.parametrize("seed", [1, 2])
def test_repr_hash_and_field_order_match_the_twin(seed):
    for record, twin in _records_with_twins(seed):
        assert record._fields == tuple(field.name for field in dataclasses.fields(twin))
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin)


@pytest.mark.parametrize("seed", [1, 2])
def test_equality_matches_the_twin(seed):
    pairs = list(_records_with_twins(seed))
    for (a, twin_a), (b, twin_b) in product(pairs, repeat=2):
        assert (a == b) is (twin_a == twin_b)
        assert (a != b) is (twin_a != twin_b)
    for record, _ in pairs:  # rebuilt by keyword from its fields, a record is equal to itself
        copy = type(record)(**{field: getattr(record, field) for field in record._fields})
        assert copy == record and hash(copy) == hash(record) and copy is not record


def test_defaults_and_keywords_construct_as_before():
    twin = dataclass_twin(Exhausted)
    for args, kwargs in [((1,), {}), ((1, False), {}), ((), {"bound": 1}), ((1,), {"complete": False}),
                         ((), {"bound": 1, "complete": False})]:
        assert repr(Exhausted(*args, **kwargs)) == repr(twin(*args, **kwargs))
    assert Exhausted(1) == Exhausted(bound=1, complete=True) != Exhausted(bound=1, complete=False)
    for args, kwargs in [((), {}), ((1, True, 2), {}), ((1,), {"bound": 1}), ((1,), {"other": 2})]:
        with pytest.raises(TypeError):
            twin(*args, **kwargs)
        with pytest.raises(TypeError):
            Exhausted(*args, **kwargs)


def test_equality_needs_the_exact_class():
    assert DetNotPower(2, 5) != NegativeDetEvenPower(2, 5)
    assert not DetNotPower(2, 5) == NegativeDetEvenPower(2, 5)
    assert DetNotPower(2, 5) != (2, 5) and DetNotPower(2, 5) == DetNotPower(2, 5)
    twin, negative_twin = dataclass_twin(DetNotPower), dataclass_twin(NegativeDetEvenPower)
    assert twin(2, 5) != negative_twin(2, 5)


@pytest.mark.parametrize("seed", [1])
def test_assignment_and_deletion_raise(seed):
    for record, _ in _records_with_twins(seed, per_class=1):
        for field in record._fields + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)


def test_post_init_checks_still_raise():
    with pytest.raises(TypeError, match="non-integer entry True"):
        IntMatrix(1, 2, (1, True))
    with pytest.raises(ValueError, match="squarefree"):
        QuadraticOrder(4)
    order = QuadraticOrder(-1)
    with pytest.raises(ValueError, match="minimal polynomial of omega"):
        OKModule(order, 2, IntMatrix.identity(2))
    assert OKModule(order, 2, order.omega_companion()) == OKModule.regular(order, 1)


def test_fitting_split_restriction_caches(monkeypatch):
    calls = []
    restrict = classify_mod.restrict_to_lattice
    monkeypatch.setattr(classify_mod, "restrict_to_lattice", lambda T, L: calls.append(T) or restrict(T, L))
    split = fitting_decompose(IntMatrix.from_rows([[2, 1, 0], [1, 1, 0], [0, 0, 0]]))
    first = split.restriction
    assert split.restriction is first and len(calls) == 1
    assert first == IntMatrix.from_rows([[2, 1], [1, 1]])
    assert "operator" not in repr(split)


def test_a_required_field_after_a_default_is_refused():
    with pytest.raises(TypeError):
        dataclasses.make_dataclass("Twin", [("a", int, dataclasses.field(default=0)), ("b", int)], frozen=True)
    with pytest.raises(TypeError, match="without a default follows"):
        type("Bad", (Record,), {"__annotations__": {"a": "int", "b": "int"}, "a": 0})
