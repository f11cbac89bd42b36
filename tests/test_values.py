"""kdq's value types behave as the frozen dataclasses they replaced.

Every validated value (``StateVector``, ``DensityOperator``,
``LinearOperator``, ``OrthonormalBasis``, ``KDDistribution``,
``AuditReport``, ``WignerTable``, ``PointerConfig``, ``PointerReadout``)
must survive pickle, ``copy.copy`` and ``copy.deepcopy`` with its fields,
private ones included; take weak references; refuse assignment and
deletion; print the dataclass ``repr``; compare by identity (or, for the
three records, by fields, with a matching hash); and accept its fields by
position or by keyword.  A restored value keeps its arrays read-only.
"""

import copy
import pickle
import weakref

import numpy as np
import pytest

from kdq import (
    AuditReport,
    DensityOperator,
    KDDistribution,
    LinearOperator,
    Ordering,
    OrthonormalBasis,
    PointerConfig,
    PointerReadout,
    StateVector,
    WignerTable,
    computational_basis,
    discrete_wigner,
    fourier_basis,
    kd_inverse,
    kd_marginal_a,
    kd_transform,
    maximally_mixed,
    random_density,
)


def _rho():
    rho = random_density(3, 2, seed=5)
    kd_transform(rho, computational_basis(3), fourier_basis(3))  # fills the kept products
    return rho


def _dist():
    return kd_transform(random_density(3, 3, seed=6), computational_basis(3), fourier_basis(3), Ordering.BA)


# name -> (build, public fields in order, private fields)
CASES = {
    "StateVector": (lambda: StateVector(np.array([0.6, 0.8j])), ("amplitudes",), ()),
    "DensityOperator": (_rho, ("matrix",), ("_kd",)),
    "LinearOperator": (lambda: LinearOperator([[1, 2j], [0, 1]]), ("matrix",), ()),
    "OrthonormalBasis": (lambda: fourier_basis(3), ("matrix", "label"), ()),
    "KDDistribution": (_dist, ("basis_a", "basis_b", "ordering", "table"), ("_sums", "_imag", "_cross")),
    "AuditReport": (lambda: AuditReport("C2", False, 0.25, "cell (a=0, b=1)", 0, 7),
                    ("condition", "passed", "worst_violation", "witness", "samples_used", "seed"), ()),
    "WignerTable": (lambda: discrete_wigner(maximally_mixed(3)), ("table",), ()),
    "PointerConfig": (lambda: PointerConfig(256, 16.0, 1.5, -0.05), ("grid_points", "grid_extent", "sigma", "coupling"),
                      ()),
    "PointerReadout": (lambda: PointerReadout(0.1, -0.2, 0.5, 0.1), ("mean_x", "mean_p", "postselect_prob", "coupling"),
                       ()),
}
RECORDS = {"AuditReport", "PointerConfig", "PointerReadout"}
NAMES = list(CASES)


def _same(x, y) -> bool:
    """Equal values: arrays by dtype, shape and bytes, tuples item by item, kdq values field by field."""
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    if isinstance(x, tuple):
        return type(y) is tuple and len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
    for name, (_, public, private) in CASES.items():
        if type(x).__name__ == name:
            return type(y) is type(x) and all(_same(getattr(x, f), getattr(y, f)) for f in public + private)
    return x == y


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_round_trips_keep_every_field(name, how):
    build, public, private = CASES[name]
    x = build()
    y = {"pickle": lambda v: pickle.loads(pickle.dumps(v)), "copy": copy.copy, "deepcopy": copy.deepcopy}[how](x)
    assert y is not x and type(y) is type(x)
    assert _same(x, y)
    if how == "copy":  # shallow: the very same field objects
        assert all(getattr(y, f) is getattr(x, f) for f in public + private)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("how", ["pickle", "deepcopy"])
def test_restored_arrays_stay_read_only(name, how):
    build, public, private = CASES[name]
    y = {"pickle": lambda v: pickle.loads(pickle.dumps(v)), "deepcopy": copy.deepcopy}[how](build())
    for f in public + private:
        assert not any(arr.flags.writeable for arr in _arrays(getattr(y, f))), f


def test_a_restored_table_and_state_work_as_the_originals():
    dist = _dist()
    back = pickle.loads(pickle.dumps(dist))
    assert _same(kd_marginal_a(back), kd_marginal_a(dist))
    assert _same(kd_inverse(back).matrix, kd_inverse(dist).matrix)
    rho = copy.deepcopy(_rho())
    basis_a, basis_b = rho._kd[:2]
    assert _same(kd_transform(rho, basis_a, basis_b).table, kd_transform(_rho(), basis_a, basis_b).table)


@pytest.mark.parametrize("name", NAMES)
def test_weak_references(name):
    x = CASES[name][0]()
    ref = weakref.ref(x)
    assert ref() is x


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    build, public, private = CASES[name]
    x = build()
    for f in public + private + ("no_such_field",):
        with pytest.raises(AttributeError):
            setattr(x, f, None)
    for f in public + private:
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert _same(x, x) and all(hasattr(x, f) for f in public + private)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_repr(name):
    build, public, _ = CASES[name]
    x = build()
    assert repr(x) == f"{name}(" + ", ".join(f"{f}={getattr(x, f)!r}" for f in public) + ")"


def test_repr_text():
    assert repr(PointerConfig()) == "PointerConfig(grid_points=512, grid_extent=20.0, sigma=1.0, coupling=0.1)"
    assert repr(AuditReport("C1", True, 0.0, "", 0, 0)) == (
        "AuditReport(condition='C1', passed=True, worst_violation=0.0, witness='', samples_used=0, seed=0)"
    )
    assert repr(OrthonormalBasis(np.eye(1), label="one")) == (
        "OrthonormalBasis(matrix=array([[1.+0.j]]), label='one')"
    )


@pytest.mark.parametrize("name", sorted(set(NAMES) - RECORDS))
def test_validated_values_compare_by_identity(name):
    x = CASES[name][0]()
    twin = copy.copy(x)
    assert x == x and not x != x
    assert x != twin and not x == twin
    assert hash(x) == object.__hash__(x) and hash(twin) != hash(x)
    assert len({x, twin}) == 2


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_compare_and_hash_by_fields(name):
    build, public, _ = CASES[name]
    x, twin = build(), build()
    assert x is not twin and x == twin and not x != twin
    assert hash(x) == hash(twin) == hash(tuple(getattr(x, f) for f in public))
    assert len({x, twin}) == 1
    assert x != tuple(getattr(x, f) for f in public)
    other = type(x)(*(getattr(x, f) for f in public[:-1]), 0.125)  # the last field differs
    assert x != other and not x == other


def test_records_of_different_classes_differ():
    assert PointerReadout(0.1, -0.2, 0.5, 0.1) != PointerConfig(16, 10.0, 1.0, 0.1)
    assert AuditReport("C1", True, 0.0, "", 0, 0) != object()


# name -> (positional arguments, the same by keyword)
ARGS = {
    "StateVector": (([1, 0], 1e-9), {"amplitudes": [1, 0], "tol": 1e-9}),
    "DensityOperator": ((np.eye(2) / 2, 1e-9), {"matrix": np.eye(2) / 2, "tol": 1e-9}),
    "LinearOperator": (([[0, 1], [1, 0]],), {"matrix": [[0, 1], [1, 0]]}),
    "OrthonormalBasis": ((np.eye(2), "e", 1e-9), {"matrix": np.eye(2), "label": "e", "tol": 1e-9}),
    "AuditReport": (("Span", True, 1e-12, "", 3, 4),
                    {"condition": "Span", "passed": True, "worst_violation": 1e-12, "witness": "", "samples_used": 3,
                     "seed": 4}),
    "WignerTable": ((np.full((3, 3), 1 / 9), 1e-9), {"table": np.full((3, 3), 1 / 9), "tol": 1e-9}),
    "PointerConfig": ((64, 10.0, 1.0, 0.2), {"grid_points": 64, "grid_extent": 10.0, "sigma": 1.0, "coupling": 0.2}),
    "PointerReadout": ((0.0, 0.0, 1.0, 0.1), {"mean_x": 0.0, "mean_p": 0.0, "postselect_prob": 1.0, "coupling": 0.1}),
}


@pytest.mark.parametrize("name", sorted(ARGS))
def test_positional_and_keyword_construction_agree(name):
    cls = {c.__name__: c for c in (StateVector, DensityOperator, LinearOperator, OrthonormalBasis, AuditReport,
                                   WignerTable, PointerConfig, PointerReadout)}[name]
    args, kwargs = ARGS[name]
    _, public, _ = CASES[name]
    x, y = cls(*args), cls(**kwargs)
    assert all(_same(getattr(x, f), getattr(y, f)) for f in public)


def test_kd_distribution_positional_and_keyword_construction_agree():
    a, b = computational_basis(2), fourier_basis(2)
    table = np.full((2, 2), 0.25)
    x = KDDistribution(a, b, Ordering.AB, table, 1e-9)
    y = KDDistribution(basis_a=a, basis_b=b, ordering=Ordering.AB, table=table, tol=1e-9)
    assert all(_same(getattr(x, f), getattr(y, f)) for f in CASES["KDDistribution"][1])


def test_defaults_and_missing_arguments():
    assert PointerConfig() == PointerConfig(512, 20.0, 1.0, 0.1)
    assert OrthonormalBasis(np.eye(2)).label == ""
    with pytest.raises(TypeError):
        AuditReport("C1", True, 0.0, "", 0)
    with pytest.raises(TypeError):
        StateVector()


def test_keyword_class_patterns_match():
    match PointerConfig(coupling=0.3):
        case PointerConfig(coupling=g, grid_points=512):
            assert g == 0.3
        case _:
            pytest.fail("keyword pattern did not match")
