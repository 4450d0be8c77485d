"""The package's records: the frozen ones are namedtuple subclasses and the
verify tallies are __slots__ classes, with the text, equality and hashing
they had as dataclasses."""

import pytest

from censym.bijection import PhiBlock, PhiTrace, phi_trace
from censym.oracle import ClassSpec
from censym.paths import LatticePath, PathClassification, classify
from censym.perms import parse_permutation
from censym.tables import DescentTable, descent_tables
from censym.verify import Check, SuiteReport

MEMBER = parse_permutation("3 4 1 2")

# each record's repr, as the dataclass versions printed it
RECORDS = [
    (
        ClassSpec(8, centrosymmetric=True, avoid=(1, 2, 3)),
        "ClassSpec(length=8, centrosymmetric=True, avoid=(1, 2, 3), subclass=None)",
    ),
    (
        PhiBlock(3, (4,), False, "UUD", 1),
        "PhiBlock(minimum=3, word=(4,), tiny=False, emitted='UUD', deleted=1)",
    ),
    (
        phi_trace(MEMBER),
        "PhiTrace(blocks=(PhiBlock(minimum=3, word=(4,), tiny=False, "
        "emitted='UUDD', deleted=0),), predicted_heights=((1, 0),))",
    ),
    (
        classify(LatticePath("UDUU")),
        "PathClassification(is_dyck_path=False, is_elevated=False, "
        "split=(LatticePath('UD'), LatticePath('UU')))",
    ),
    (
        descent_tables("recurrence", ("k",), 2)["k"],
        "DescentTable(family='k', rows=((1,), (0, 1), (0, 1, 0, 1)))",
    ),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_frozen_record_text_equality_and_hash(record, text):
    assert repr(record) == text
    twin = type(record)(*record)
    assert twin == record and hash(twin) == hash(record)
    assert twin == type(record)(**record._asdict())
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_frozen_records_keep_their_fields_and_defaults():
    assert ClassSpec(4) == ClassSpec(length=4, centrosymmetric=False, avoid=None, subclass=None)
    fields = {
        ClassSpec: ("length", "centrosymmetric", "avoid", "subclass"),
        PhiBlock: ("minimum", "word", "tiny", "emitted", "deleted"),
        PhiTrace: ("blocks", "predicted_heights"),
        PathClassification: ("is_dyck_path", "is_elevated", "split"),
        DescentTable: ("family", "rows"),
    }
    for record, names in fields.items():
        assert record._fields == names


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"length": -1}, "length must be nonnegative"),
        (
            {"length": 4, "centrosymmetric": False, "avoid": [1, 2, 3]},
            "avoid must be a tuple of values or None",
        ),
        (
            {"length": 4, "centrosymmetric": True, "avoid": (1, 2, 3), "subclass": "x"},
            "unknown subclass 'x'",
        ),
        (
            {"length": 5, "centrosymmetric": True, "avoid": (1, 2, 3), "subclass": "k"},
            "subclasses are defined for even centrosymmetric 123-avoiders",
        ),
    ],
)
def test_class_spec_refusals(kwargs, message):
    # by keyword, then the same fields by position
    with pytest.raises(ValueError) as caught:
        ClassSpec(**kwargs)
    assert str(caught.value) == message
    with pytest.raises(ValueError) as caught:
        ClassSpec(*kwargs.values())
    assert str(caught.value) == message


def test_verify_tallies_keep_their_signature():
    first, second = SuiteReport("x", 1), SuiteReport("x", 1)
    first.checks.append(Check("c", True))
    first.notes.append("n")
    assert second.checks == [] and second.notes == []
    check = Check("c", False, detail="boom")
    assert (check.name, check.passed, check.count, check.detail) == ("c", False, 0, "boom")
    report = SuiteReport(suite="y", max_n=2, checks=[check], notes=["n"])
    assert (report.suite, report.max_n, report.checks, report.notes) == ("y", 2, [check], ["n"])
    assert not report.ok
    with pytest.raises(AttributeError):
        check.extra = None
