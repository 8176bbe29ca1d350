"""The record contract: every wire or replicated record is a slots dataclass.

Protocol messages, replicated payloads, client ops and the session and
stat records are ``@dataclass(slots=True)`` classes. The golden digests
depend on three properties the generated methods provide: equality is
field-tuple equality between instances of the same class, the hash is
``hash(field tuple)`` (which fixes set and dict iteration orders), and the
repr is ``Name(field=value, ...)`` (trace details and invariant digests
embed it). These tests pin all three for every record class, so a record
written by hand again, or with different flags, shows up here. Frozen
records must also refuse every write with ``FrozenInstanceError``.
"""

import dataclasses
import importlib
from pathlib import Path

import pytest

from repro.net.topology import NodeAddress
from repro.wankeeper.messages import SiteReplicate, TokenGrant, WanTxn
from repro.zk.ops import SetDataOp, Txn

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Record modules, each with the classes in it that are not records.
RECORD_MODULES = {
    "repro.zab.messages": (),
    "repro.zab.log": ("TxnLog",),
    "repro.wankeeper.messages": (),
    "repro.wankeeper.fractional": ("LeaseEntry",),
    "repro.wpaxos.messages": (),
    "repro.bookkeeper.messages": (),
    "repro.zk.records": ("WatchType", "Znode"),
    "repro.zk.ops": (),
    "repro.zk.protocol": (),
    "repro.zk.sessions": ("SessionTracker",),
}


def _record_classes():
    classes = []
    for module_name, exempt in RECORD_MODULES.items():
        module = importlib.import_module(module_name)
        for name, obj in vars(module).items():
            if (
                isinstance(obj, type)
                and obj.__module__ == module_name
                and name not in exempt
            ):
                classes.append(obj)
    return classes


RECORDS = _record_classes()

# Field values that satisfy the ops' ``__post_init__`` validation; every
# other field gets a string derived from its name, so two classes with
# the same field names get equal values.
_SPECIAL_VALUES = {"path": "/a", "ops": (SetDataOp("/b"),)}


def _sample(cls):
    values = {
        f.name: _SPECIAL_VALUES.get(f.name, f"{f.name}-value")
        for f in dataclasses.fields(cls)
    }
    return cls(**values), values


def test_every_record_module_has_records():
    modules = {cls.__module__ for cls in RECORDS}
    assert modules == set(RECORD_MODULES)
    assert len(RECORDS) >= 80


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_contract(cls):
    assert dataclasses.is_dataclass(cls), f"{cls.__name__} is not a dataclass"
    assert "__slots__" in vars(cls), f"{cls.__name__} has no __slots__"
    record, values = _sample(cls)
    assert not hasattr(record, "__dict__")

    # Field-tuple equality, and only within one class.
    twin, _ = _sample(cls)
    assert record == twin
    assert record.__eq__(values) is NotImplemented

    expected_repr = (
        f"{cls.__name__}("
        + ", ".join(f"{name}={value!r}" for name, value in values.items())
        + ")"
    )
    assert repr(record) == expected_repr

    if cls.__hash__ is None:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(tuple(values.values()))

    # A frozen record refuses every write with FrozenInstanceError, for a
    # field and for a mistyped name alike.
    if cls.__dataclass_params__.frozen:
        field = next(iter(values))
        for name in (field, "not_a_field"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        assert record == twin


def _same_shape_pairs():
    by_fields = {}
    for cls in filter(dataclasses.is_dataclass, RECORDS):
        key = tuple(f.name for f in dataclasses.fields(cls))
        by_fields.setdefault(key, []).append(cls)
    pairs = []
    for group in by_fields.values():
        for other in group[1:]:
            pairs.append((group[0], other))
    return pairs


SAME_SHAPE = _same_shape_pairs()


def test_same_shape_pairs_exist():
    names = {(a.__name__, b.__name__) for a, b in SAME_SHAPE}
    assert ("Ack", "Commit") in names
    assert ("Diff", "Snap") in names


@pytest.mark.parametrize(
    "first,second",
    SAME_SHAPE,
    ids=[f"{a.__name__}-{b.__name__}" for a, b in SAME_SHAPE],
)
def test_records_of_different_classes_never_compare_equal(first, second):
    a, values_a = _sample(first)
    b, values_b = _sample(second)
    assert values_a == values_b
    assert a != b
    assert b != a


def test_mutability_follows_each_records_role():
    from repro.zk.protocol import OpRequest
    from repro.zk.records import WatchEvent, WatchType
    from repro.zk.sessions import Session

    # OpRequest shells are recycled by the fleet driver; sessions track
    # liveness in place.
    request = OpRequest("s#1", 1, None)
    request.cxid = 2
    session = Session("s#1", None, 100.0, 0.0)
    session.expired = True

    txn = Txn("s#1", 1, None, SetDataOp("/a"))
    event = WatchEvent(WatchType.NODE_CREATED, "/a")
    with pytest.raises(AttributeError):
        txn.cxid = 2
    with pytest.raises(AttributeError):
        event.path = "/b"


def test_site_replicate_of_a_real_txn_is_hashable():
    """``SiteReplicate`` and ``WanTxn`` hash over the wrapped ``Txn``."""
    addr = NodeAddress("virginia", "wk1")
    txn = Txn("virginia/wk1#1", 7, addr, SetDataOp("/k", b"v"), "virginia", 3)
    wan_txn = WanTxn(txn, "virginia", "l2", (TokenGrant("/k", "virginia"),))
    message = SiteReplicate("virginia", addr, 3, wan_txn)
    assert hash(message) == hash(("virginia", addr, 3, wan_txn))
    assert hash(wan_txn) == hash(
        (txn, "virginia", "l2", (TokenGrant("/k", "virginia"),))
    )
    assert {message, SiteReplicate("virginia", addr, 3, wan_txn)} == {message}
    assert hash(txn.replace_op(SetDataOp("/k", b"v"))) == hash(txn)


def test_no_hand_written_record_boilerplate_under_src():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "_astuple" in path.read_text()
    ]
    assert offenders == []
    for module_name in RECORD_MODULES:
        path = SRC.joinpath(*module_name.split(".")[1:]).with_suffix(".py")
        text = path.read_text()
        assert "def __eq__" not in text, path
        assert "def __hash__" not in text, path
