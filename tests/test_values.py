"""The frozen value classes: equality, hashing, repr, immutability, pickling."""

from __future__ import annotations

import pickle

import pytest

from stampcover import (
    Basis,
    BasisReport,
    CoverProfile,
    ExtremalResult,
    Generation,
    MinStampTable,
    ScanFailure,
    ScanSpec,
    ScanSummary,
    analyze,
    cover_profile,
    find_generation,
    min_stamp_table,
    search_extremal,
)
from support import record_calls, traced_peak

# (value, an equal value built another way, a different value, the repr
# of the first: the frozen dataclasses' format over the fields)
CASES = {
    Basis: (
        lambda: Basis((1, 3)),
        lambda: Basis([1, 3]),
        lambda: Basis((1, 2)),
        "Basis(elements=(1, 3))",
    ),
    Generation: (
        lambda: find_generation(Basis((1, 3)), 5, 3),
        lambda: Generation([2, 1], 5, 3),
        lambda: Generation((5, 0), 5, 5),
        "Generation(coefficients=(2, 1), value=5, weight=3)",
    ),
    MinStampTable: (
        lambda: min_stamp_table(Basis((1, 3)), 4),
        lambda: MinStampTable(Basis((1, 3)), 4, (0, 1, 2, 1, 2)),
        lambda: min_stamp_table(Basis((1, 3)), 3),
        "MinStampTable(basis=Basis(elements=(1, 3)), bound=4, "
        "min_stamps=(0, 1, 2, 1, 2))",
    ),
    CoverProfile: (
        lambda: cover_profile(Basis((1, 3, 4)), 3),
        lambda: CoverProfile(Basis((1, 3, 4)), 3, [1]),
        lambda: cover_profile(Basis((1, 3, 4)), 2),
        "CoverProfile(basis=Basis(elements=(1, 3, 4)), h_max=3, covers=(1,))",
    ),
    BasisReport: (
        lambda: analyze(Basis((1, 2))),
        lambda: BasisReport(
            basis=Basis((1, 2)), symmetric=True, h0=2, h1=2, h1_cap=2,
            theorem_bound=2, conjecture_holds=True, counterexample=False,
        ),
        lambda: analyze(Basis((1, 2)), cap=3),
        "BasisReport(basis=Basis(elements=(1, 2)), symmetric=True, h0=2, h1=2, "
        "h1_cap=2, theorem_bound=2, conjecture_holds=True, counterexample=False)",
    ),
    ScanSpec: (
        lambda: ScanSpec(3, 8),
        lambda: ScanSpec(k=3, ak_max=8, mode="symmetric"),
        lambda: ScanSpec(3, 8, mode="all"),
        "ScanSpec(k=3, ak_max=8, mode='symmetric')",
    ),
    ScanFailure: (
        lambda: ScanFailure(Basis((1,)), "ValueError: cap"),
        lambda: ScanFailure(basis=Basis((1,)), error="ValueError: cap"),
        lambda: ScanFailure(Basis((1,)), "ValueError: other"),
        "ScanFailure(basis=Basis(elements=(1,)), error='ValueError: cap')",
    ),
    ScanSummary: (
        lambda: ScanSummary(3, 1),
        lambda: ScanSummary(scanned=3, counterexamples=1),
        lambda: ScanSummary(3, 0),
        "ScanSummary(scanned=3, counterexamples=1)",
    ),
    ExtremalResult: (
        lambda: search_extremal(2, 2),
        lambda: ExtremalResult(2, 2, 3, 4, (Basis((1, 2)), Basis((1, 3)))),
        lambda: search_extremal(2, 2, 4),
        "ExtremalResult(h=2, k=2, ak_ceiling=3, n_star=4, "
        "witnesses=(Basis(elements=(1, 2)), Basis(elements=(1, 3))))",
    ),
}

each_class = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def _case(cls):
    make, make_equal, make_other, text = CASES[cls]
    return make(), make_equal(), make_other(), text


@each_class
def test_equality_and_hashing(cls):
    value, equal, other, _ = _case(cls)
    assert type(value) is type(equal) is type(other) is cls
    assert value == equal and not value != equal
    assert value != other and not value == other
    # the hash of the field tuple, as the frozen dataclasses had it
    assert hash(value) == hash(equal) == hash(value._values())
    assert equal in {value} and other not in {value}
    assert len({value, equal, other}) == 2
    # only an instance of the same class can be equal, not a subclass's
    twin = object.__new__(type("Twin", (cls,), {}))
    twin.__dict__.update(value.__dict__)
    assert twin._values() == value._values()
    assert value != twin and twin != value
    assert value != value._values() and value != object()


@each_class
def test_repr_is_the_dataclass_repr(cls):
    value, equal, _, text = _case(cls)
    assert repr(value) == repr(equal) == text


@each_class
def test_fields_cannot_be_assigned_or_deleted(cls):
    value, _, _, text = _case(cls)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


@each_class
def test_pickle_round_trips(cls):
    value, _, other, text = _case(cls)
    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is cls
    assert restored == value and restored != other
    assert hash(restored) == hash(value)
    assert repr(restored) == text


@pytest.mark.parametrize(
    "cls", [cls for cls in CASES if cls is not Basis], ids=lambda cls: cls.__name__
)
def test_shared_constructor_takes_fields_by_position_then_name(cls):
    value = CASES[cls][0]()
    args, kwargs = value._values(), value._asdict()
    tail = dict(list(kwargs.items())[1:])
    assert cls(*args) == cls(**kwargs) == cls(args[0], **tail) == value
    refused = [
        ((), tail),  # the first field missing
        (args + (args[0],), {}),  # one argument too many
        (args, {cls._fields[0]: args[0]}),  # the first field twice
        (args, {"extra": 1}),  # a name that is not a field
    ]
    if "__init__" not in vars(cls):  # no defaults: the last field missing
        refused.append((args[:-1], {}))
    for bad_args, bad_kwargs in refused:
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


def test_shared_constructor_names_what_it_takes():
    with pytest.raises(TypeError) as excinfo:
        ScanSummary(3, scanned=3)
    assert str(excinfo.value) == (
        "ScanSummary() takes scanned, counterexamples, "
        "first by position and then by name"
    )


def test_profile_identity_costs_no_rows():
    profile = cover_profile(Basis((1, 2)), 2_000_000)
    twin = CoverProfile(Basis((1, 2)), 2_000_000, ())
    with traced_peak() as probe:
        assert profile == twin and hash(profile) == hash(twin)
        assert profile != cover_profile(Basis((1, 2)), 1_999_999)
    assert probe.peak < 1 << 20
    assert profile.saturated_at == 1 and profile.cover(2_000_000) == 4_000_000


def test_profile_refuses_more_covers_than_budgets():
    with pytest.raises(ValueError):
        CoverProfile(Basis((1, 3)), 1, (1, 4))


def test_unpickled_basis_is_not_validated_again(monkeypatch):
    builds = record_calls(monkeypatch, Basis, "_validate", lambda self: self.elements)
    data = pickle.dumps([Basis((1, 3, 4)), ScanFailure(Basis((1, 2)), "x")])
    assert builds == [(1, 3, 4), (1, 2)]
    restored = pickle.loads(data)
    assert builds == [(1, 3, 4), (1, 2)]
    assert restored == [Basis((1, 3, 4)), ScanFailure(Basis((1, 2)), "x")]


def test_unpickled_profile_keeps_its_saturation():
    profile = pickle.loads(pickle.dumps(cover_profile(Basis((1, 3, 4)), 5)))
    assert profile.saturated_at == 2 and profile.h_max == 5
    assert [profile.cover(h) for h in range(1, 6)] == [1, 8, 12, 16, 20]


def test_scan_spec_defaults_and_refusals():
    spec = ScanSpec(4, 10)
    assert (spec.k, spec.ak_max, spec.mode) == (4, 10, "symmetric")
    for args, kwargs, message in [
        ((0, 10), {}, "k must be at least 1, got 0"),
        ((4, 3), {}, "ak_max 3 cannot fit 4 increasing elements"),
        ((4, 10), {"mode": "odd"}, "mode must be 'symmetric' or 'all', got 'odd'"),
    ]:
        with pytest.raises(ValueError) as excinfo:
            ScanSpec(*args, **kwargs)
        assert str(excinfo.value) == message


def test_asdict_lists_the_fields_in_order():
    assert ScanSummary(7, 2)._asdict() == {"scanned": 7, "counterexamples": 2}
    assert list(ScanSpec(3, 8)._asdict()) == ["k", "ak_max", "mode"]
