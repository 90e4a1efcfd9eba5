"""The per-step records are immutable values, and only ``contact.py``
builds a ``ContactInfo``."""
import ast
from pathlib import Path

import pytest

import contactsim
from contactsim.contact import ContactInfo
from contactsim.penalty import BodyWrench, ContactKinematics
from contactsim.simulate import ContactEvent, PairDiagnostic

INFO = ContactInfo(True, -0.1, 0.1, (1.0, 0.0), (0.9, 0.0), (1.0, 0.5),
                   (-0.2, 0.25), (1.0, 0.0), (0.0, 1.0), saturated=True)

RECORDS = [
    INFO,
    PairDiagnostic((0, 1), INFO, 2.0, -0.5),
    ContactEvent(0.25, (0, 1), -0.1, 0.1, 2.0, -0.5, False),
    BodyWrench((1.0, -2.0), 0.5),
    ContactKinematics(-1.0, 0.25),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_immutable_and_equal_by_value(record):
    name = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    copy = type(record)(*record)
    assert copy == record and copy is not record
    assert hash(copy) == hash(record)
    assert record._replace(**{name: "other"}) != record


def test_only_contact_module_builds_contact_info():
    calls = []
    for path in sorted(Path(contactsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and "ContactInfo" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None))]
    assert calls and all(call.startswith("contact.py:") for call in calls), calls
