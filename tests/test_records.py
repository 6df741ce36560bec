"""The result records, plain ``__slots__`` classes on ``rings.Record``.

Each is built positionally and by keyword, the ways the package and
its tests build it, and optional fields take their defaults, a fresh
list or dict per instance.
"""

import pytest

from ytwo import cli
from ytwo.cli import RunReport
from ytwo.clifford import CenterReport, PowerSeq
from ytwo.quadspace import HyperbolicDecomposition
from ytwo.rings import L_ONE, T_INV
from ytwo.spectool import GroupReport
from ytwo.spinor import WBasis

# each record class with one value per field, in constructor order
RECORDS = [
    (RunReport, ("verify powers", {"kmax": 3}, [("k", True, None, None, None)], 12, True)),
    (PowerSeq, (2, T_INV, L_ONE)),
    (CenterReport, (5, False, "u", 1)),
    (HyperbolicDecomposition, ([("e", "f")], ["r"], [L_ONE], [(L_ONE, T_INV, T_INV)])),
    (
        GroupReport,
        (3, 5, {"n": 5}, None, 4080, 4080, 4080, "ran", 1000, None, 5, 5, 0, None,
         {"b1": 0}, (4,)),
    ),
    (WBasis, (3, ("w",), ((),))),
]

NAMES = [cls.__name__ for cls, _ in RECORDS]

# the optional fields and their defaults
DEFAULTS = {
    RunReport: {"checks": [], "elapsed_ms": 0, "cap_hit": False},
    HyperbolicDecomposition: {"states": []},
    GroupReport: {
        "specialization_error": None,
        "expected_order": None,
        "order_phi": None,
        "order_eta": None,
        "enumeration": "skip",
        "cap": 2_000_000,
        "budget_stop": None,
        "a_order_phi": None,
        "a_order_eta": None,
        "radical_rank": None,
        "q_radical": None,
        "dickson_values": {},
        "aug_degrees": (),
    },
}


def required(cls, values) -> dict:
    """The fields of ``values`` that have no default, by name."""
    return {
        name: value
        for name, value in zip(cls.__slots__, values)
        if name not in DEFAULTS.get(cls, {})
    }


def shared_fields(cls, values) -> list:
    """Defaulted fields whose list, dict or set two instances built from
    the same required values share."""
    a, b = cls(**required(cls, values)), cls(**required(cls, values))
    return [
        name
        for name in DEFAULTS.get(cls, {})
        if isinstance(getattr(a, name), (list, dict, set))
        and getattr(a, name) is getattr(b, name)
    ]


@pytest.mark.parametrize("cls, values", RECORDS, ids=NAMES)
def test_positional_and_keyword(cls, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls.__slots__, values)))
    mixed = cls(values[0], **dict(zip(cls.__slots__[1:], values[1:])))
    for rec in (by_position, by_keyword, mixed):
        for name, value in zip(cls.__slots__, values):
            assert getattr(rec, name) is value
    with pytest.raises(AttributeError):
        by_position.unknown = 1  # no instance dict: only the fields exist


@pytest.mark.parametrize("cls, values", RECORDS, ids=NAMES)
def test_defaults(cls, values):
    rec = cls(**required(cls, values))
    for name, default in DEFAULTS.get(cls, {}).items():
        assert getattr(rec, name) == default
    assert shared_fields(cls, values) == []


def test_some_defaults_given():
    # as the package and test_cli build them: a few optional fields by keyword
    report = RunReport(command="specialize", params={}, elapsed_ms=12)
    assert (report.checks, report.elapsed_ms, report.cap_hit) == ([], 12, False)
    row = GroupReport(m=3, n=5, map_desc={}, cap=1000, specialization_error="x")
    assert (row.cap, row.specialization_error, row.enumeration) == (1000, "x", "skip")


def test_planted_shared_default_is_found(monkeypatch):
    values = dict(RECORDS)[RunReport]
    monkeypatch.setattr(cli.RunReport, "_defaults", {**DEFAULTS[RunReport], "checks": []})
    assert shared_fields(RunReport, values) == ["checks"]


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (("c", {}, [], 0, False, "extra"), {}),  # too many fields
        (("c",), {}),  # params missing
        (("c", {}), {"command": "d"}),  # command twice
        (("c", {}), {"unknown": 1}),
    ],
)
def test_bad_construction(args, kwargs):
    with pytest.raises(TypeError):
        RunReport(*args, **kwargs)
