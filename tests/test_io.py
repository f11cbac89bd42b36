"""Serialization tests: schema validation and bit-exact round trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdq import (
    DensityOperator,
    DimMismatchError,
    Ordering,
    StateVector,
    ValidationError,
    computational_basis,
    fourier_basis,
    kd_transform,
    make_pure_density,
    random_basis,
    random_density,
    random_state,
)
from kdq import io as kio
from kdq.audit import AuditReport
from kdq.pointer import SweepPoint


def test_pure_state_round_trip_bit_exact():
    psi = random_state(5, seed=3)
    doc = json.loads(json.dumps(kio.state_to_dict(psi)))
    back = kio.state_from_dict(doc)
    assert isinstance(back, StateVector)
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_mixed_state_round_trip_bit_exact():
    rho = random_density(4, 2, seed=9)
    doc = json.loads(json.dumps(kio.state_to_dict(rho)))
    back = kio.state_from_dict(doc)
    assert isinstance(back, DensityOperator)
    assert np.array_equal(back.matrix, rho.matrix)


def test_state_schema_field_required():
    psi = random_state(2, seed=1)
    doc = kio.state_to_dict(psi)
    del doc["schema"]
    with pytest.raises(ValidationError):
        kio.state_from_dict(doc)


def test_state_bad_kind_rejected():
    doc = {"schema": "kdq/1", "dim": 2, "kind": "other", "data": []}
    with pytest.raises(ValidationError):
        kio.state_from_dict(doc)


def test_state_dim_mismatch_rejected():
    doc = {"schema": "kdq/1", "dim": 3, "kind": "pure", "data": [[1.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(ValidationError):
        kio.state_from_dict(doc)


def test_boolean_dim_rejected():
    # bool is an int in Python, so "dim": true would otherwise load as dim 1
    state = {"schema": "kdq/1", "dim": 1, "kind": "pure", "data": [[1.0, 0.0]]}
    assert kio.state_from_dict(state).dim == 1
    docs = {
        kio.state_from_dict: {**state, "dim": True},
        kio.basis_from_dict: {"schema": "kdq/1", "dim": True, "label": "x", "unitary": [[[1.0, 0.0]]]},
        kio.kd_from_dict: {"schema": "kdq/1", "dim": True, "ordering": "AB"},
    }
    for load, doc in docs.items():
        with pytest.raises(ValidationError, match="dim must be a positive integer, got True"):
            load(doc)


def test_state_invalid_payload_rejected():
    doc = {"schema": "kdq/1", "dim": 2, "kind": "pure", "data": [[1.0, 0.0], "x"]}
    with pytest.raises(ValidationError):
        kio.state_from_dict(doc)


_RAGGED = [[[0.5, 0.0], [0.0, 0.0]], [[0.5, 0.0]]]


def test_ragged_state_data_rejected():
    doc = {"schema": "kdq/1", "dim": 2, "kind": "mixed", "data": _RAGGED}
    with pytest.raises(ValidationError, match="state file data: expected nested lists of \\[re, im\\] pairs"):
        kio.state_from_dict(doc)


def test_ragged_basis_unitary_rejected():
    doc = {"schema": "kdq/1", "dim": 2, "label": "x", "unitary": _RAGGED}
    with pytest.raises(ValidationError, match="basis file unitary: expected nested lists of \\[re, im\\] pairs"):
        kio.basis_from_dict(doc)


def test_ragged_joint_table_rejected():
    dist = kd_transform(random_density(2, 2, seed=3), computational_basis(2), fourier_basis(2))
    doc = kio.kd_to_dict(dist)
    doc["table"][1] = doc["table"][1][:1]
    with pytest.raises(ValidationError, match="joint table: expected nested lists of \\[re, im\\] pairs"):
        kio.kd_from_dict(doc)


@pytest.mark.parametrize(
    "pair, message",
    [
        (["1", 0], "non-numeric entry"),
        ([0.5, "0"], "non-numeric entry"),
        ([False, 0], "non-numeric entry"),
        ([1.0, True], "non-numeric entry"),
        ([None, 0], "non-numeric entry"),
        ([10**400, 0], "entry out of range"),
    ],
    ids=["str-re", "str-im", "bool-re", "bool-im", "null", "huge-int"],
)
def test_pairs_take_json_numbers_only(pair, message):
    doc = {"schema": "kdq/1", "dim": 2, "kind": "pure", "data": [pair, [0.0, 0.0]]}
    with pytest.raises(ValidationError, match=f"state file data: {message}"):
        kio.state_from_dict(doc)


def test_pairs_take_ints_and_floats():
    doc = {"schema": "kdq/1", "dim": 2, "kind": "pure", "data": [[1, 0], [0.0, -0.0]]}
    assert np.array_equal(kio.state_from_dict(doc).amplitudes, [1, 0])


def _pairwise_reference(obj, ndim: int, what: str) -> np.ndarray:
    """The pair-by-pair decoder the numpy fast path sits in front of, as a test oracle."""
    bad_shape = f"{what}: expected {'a list' if ndim == 1 else 'nested lists'} of [re, im] pairs"
    rows = [obj] if ndim == 1 else obj
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in rows):
        raise ValidationError(bad_shape)
    values = [[kio._from_pair(x, what) for x in row] for row in rows]
    if len({len(row) for row in values}) > 1:
        raise ValidationError(bad_shape)
    arr = np.array(values, dtype=np.complex128)
    return arr[0] if ndim == 1 else arr


def _decoded(decode, obj, ndim):
    try:
        arr = decode(obj, ndim, "data")
    except Exception as exc:  # any error at all must be the reference's
        return type(exc), str(exc)
    return arr.dtype, arr.shape, arr.tobytes()


_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**1024 - 2**970, 2**1024 - 2**971, -(2**1023), 10**400, -0.0, 5e-324]),
)
_ODD = st.sampled_from([True, False, None, "1", 1j, [1.0], (1.0, 2.0), [1.0, 2.0, 3.0], [], {}, [1, True], [1.5, "2"]])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 2),
    st.integers(0, 4),
    st.integers(0, 4),
    st.lists(st.lists(_NUMBERS, min_size=2, max_size=2), min_size=16, max_size=16),
    st.one_of(st.none(), _ODD),
    st.booleans(),
)
def test_pair_decoding_matches_the_pairwise_reader(ndim, n, m, pool, odd, ragged):
    # lists of [re, im] numbers take one numpy call, anything else the
    # pairwise reader: results agree bit for bit and errors word for word
    rows = [[pool[(i * m + j) % 16] for j in range(m)] for i in range(n)]
    if odd is not None and rows and rows[0]:
        rows[0][-1] = odd
    if ragged and rows:
        rows[-1] = rows[-1][:-1]
    obj = rows[0] if ndim == 1 and rows else rows
    assert _decoded(kio._complex_array, obj, ndim) == _decoded(_pairwise_reference, obj, ndim)


def test_numeric_pairs_decode_bit_for_bit():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((64, 64)) * 10.0 ** rng.integers(-300, 300, (64, 64))
    data = np.stack([z, z[::-1]], -1).tolist()
    data[3][5] = [2**60 + 1, -(2**1023)]
    data[7][1] = [float("nan"), float("-inf")]
    for obj, ndim in ((data, 2), (data[0], 1)):
        assert _decoded(kio._complex_array, obj, ndim) == _decoded(_pairwise_reference, obj, ndim)


def test_basis_round_trip_bit_exact():
    basis = random_basis(4, seed=11)
    doc = json.loads(json.dumps(kio.basis_to_dict(basis)))
    back = kio.basis_from_dict(doc)
    assert np.array_equal(back.matrix, basis.matrix)


def test_named_basis_resolution():
    assert kio.resolve_basis("computational", 3).label == "computational"
    assert kio.resolve_basis("fourier", 3).label == "fourier"
    assert kio.resolve_basis("hadamard2", 2).label == "hadamard2"
    with pytest.raises(DimMismatchError):
        kio.resolve_basis("hadamard2", 3)
    with pytest.raises(ValidationError):
        kio.resolve_basis("nonsense", 3)


def test_basis_file_resolution(tmp_path):
    basis = random_basis(3, seed=2)
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(kio.basis_to_dict(basis)))
    back = kio.resolve_basis(f"@{path}", 3)
    assert np.array_equal(back.matrix, basis.matrix)
    with pytest.raises(DimMismatchError):
        kio.resolve_basis(f"@{path}", 4)  # wrong dimension


def test_kd_document_round_trip_bit_exact(tmp_path):
    rho = random_density(3, 3, seed=21)
    dist = kd_transform(rho, computational_basis(3), fourier_basis(3), Ordering.BA)
    path = tmp_path / "kd.json"
    path.write_text(json.dumps(kio.kd_to_dict(dist)))
    back = kio.load_kd(path)
    assert back.ordering is Ordering.BA
    assert np.array_equal(back.table, dist.table)
    assert np.array_equal(back.basis_a.matrix, dist.basis_a.matrix)


def test_kd_document_rejects_corrupt_table():
    rho = make_pure_density(random_state(2, seed=5))
    dist = kd_transform(rho, computational_basis(2), fourier_basis(2))
    doc = kio.kd_to_dict(dist)
    doc["table"][0][0] = [5.0, 0.0]  # breaks the unit-total invariant
    with pytest.raises(ValidationError):
        kio.kd_from_dict(doc)


def test_read_json_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        kio.read_json(path, "state file")


def test_kd_csv_layout():
    rho = make_pure_density(random_state(2, seed=6))
    dist = kd_transform(rho, computational_basis(2), fourier_basis(2))
    lines = kio.kd_to_csv(dist).strip().splitlines()
    assert lines[0] == "a,b,re,im,marginal_a,marginal_b"
    assert len(lines) == 5
    a, b, re, im, ma, mb = lines[1].split(",")
    assert (int(a), int(b)) == (0, 0)
    assert float(re) == dist.table[0, 0].real  # repr round trip is exact
    assert float(im) == dist.table[0, 0].imag


def test_sweep_csv_format():
    points = [SweepPoint(0.1, 0.5 + 0.49j, 0.5 + 0.5j, 0.01, 0.5)]
    lines = kio.sweep_to_csv(points).strip().splitlines()
    assert lines[0] == "g,re_est,im_est,re_exact,im_exact,abs_err,postselect_prob"
    row = lines[1].split(",")
    assert float(row[0]) == 0.1
    assert float(row[2]) == 0.49
    assert kio.sweep_to_csv([]).strip().splitlines() == [lines[0]]


def test_wigner_serialization():
    from kdq import discrete_wigner, maximally_mixed

    table = discrete_wigner(maximally_mixed(3))
    doc = kio.wigner_to_dict(table, violations=[(1, 0, 0.2)])
    assert doc["dim"] == 3
    assert doc["violations"] == [{"q": 1, "p": 0, "value": 0.2}]
    csv_text = kio.wigner_to_csv(table)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "q,p0,p1,p2"
    assert len(lines) == 4


def test_finite_json_spells_out_non_finite_floats():
    doc = {"x": [1.5, float("nan"), (float("inf"), -math.inf)], "n": 3, "s": "inf"}
    assert kio.finite_json(doc) == {"x": [1.5, "NaN", ["Infinity", "-Infinity"]], "n": 3, "s": "inf"}
    report = AuditReport("C3", False, math.inf, "w", 1, 0)
    assert kio.report_to_json(report) == (
        '{"condition": "C3", "passed": false, "worst_violation": "Infinity", "witness": "w", '
        '"samples_used": 1, "seed": 0}'
    )


def _writer_csv(header, rows, keys=0):
    """Reference: ``csv.writer`` over ``rows``, the first ``keys`` cells as written, the rest as float reprs."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([*row[:keys], *(repr(float(x)) for x in row[keys:])] for row in rows)
    return buf.getvalue()


@pytest.mark.parametrize("dim", [2, 7, 32])
def test_kd_csv_is_the_csv_writer_text(dim):
    from kdq import kd_marginal_a, kd_marginal_b

    dist = kd_transform(random_density(dim, min(dim, 2), seed=dim), random_basis(dim, seed=1), fourier_basis(dim))
    marg_a, marg_b = kd_marginal_a(dist), kd_marginal_b(dist)
    expected = _writer_csv(
        ["a", "b", "re", "im", "marginal_a", "marginal_b"],
        ([a, b, z.real, z.imag, marg_a[a], marg_b[b]] for (a, b), z in np.ndenumerate(dist.table)),
        keys=2,
    )
    assert kio.kd_to_csv(dist) == expected


@pytest.mark.parametrize("dim", [3, 5, 31])
def test_wigner_csv_is_the_csv_writer_text(dim):
    from kdq import condition3_violation_report, discrete_wigner, double_slit_state

    rho = make_pure_density(double_slit_state(dim, 0, dim - 1))
    table, violations = discrete_wigner(rho), condition3_violation_report(rho)
    assert violations  # the dark midpoint carries weight
    expected = _writer_csv(["q", *(f"p{p}" for p in range(dim))], [[q, *row] for q, row in enumerate(table.table)], 1)
    assert kio.wigner_to_csv(table) == expected
    assert kio.wigner_to_csv(table, violations) == expected + _writer_csv(["q", "p", "value"], violations, 2)
    assert kio.wigner_to_csv(table, []) == expected + "q,p,value\n"


def test_sweep_csv_is_the_csv_writer_text():
    points = [
        SweepPoint(0.1, 0.5 + 0.49j, 0.5 + 0.5j, 0.01, 0.5),
        SweepPoint(np.float64(-0.2), complex(-0.0, 1e-300), np.complex128(1 / 3 - 2j), np.float64(np.nan), 1.0),
    ]
    rows = ([g, est.real, est.imag, exact.real, exact.imag, err, prob] for g, est, exact, err, prob in points)
    assert kio.sweep_to_csv(points) == _writer_csv(kio.SWEEP_COLUMNS, rows)
    assert kio.sweep_to_csv([]) == _writer_csv(kio.SWEEP_COLUMNS, [])
