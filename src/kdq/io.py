"""File formats: versioned JSON schemas and CSV table exports.

Complex numbers are serialized as [re, im] pairs of decimal floats using
Python's shortest round-trip representation, so re-parsing a serialized
artifact reproduces the values bit-exactly.  Every structured document
carries a top-level ``"schema": "kdq/1"`` field.  Output is strict JSON
(RFC 8259): a non-finite float, which it cannot express as a number, is
written as one of the strings "NaN", "Infinity" and "-Infinity".
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimMismatchError, ValidationError
from .hilbert import (
    DensityOperator,
    OrthonormalBasis,
    StateVector,
    _require_budget,
    computational_basis,
    fourier_basis,
)
from .kd import KDDistribution, Ordering, kd_marginal_a, kd_marginal_b

if TYPE_CHECKING:  # annotations only: importing these modules is left to their callers
    from .audit import AuditReport
    from .pointer import SweepPoint
    from .wigner import WignerTable

SCHEMA = "kdq/1"

NAMED_BASES = ("computational", "fourier", "hadamard2")


def _pairs(arr: np.ndarray) -> list:
    """``arr`` as nested lists of [re, im] pairs of Python floats."""
    return np.stack([arr.real, arr.imag], -1).tolist()


def finite_json(obj):
    """``obj`` with every non-finite float, at any depth of dicts, lists and tuples, as its string."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if obj != obj else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, dict):
        return {key: finite_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [finite_json(value) for value in obj]
    return obj


def _csv(header: list[str], lines) -> str:
    """CSV text: ``header``, then ``lines``, each its fields already joined by commas.

    Every field is an int, the shortest repr of a float or a fixed column name,
    so none needs quoting and this is the text ``csv.writer`` would write.
    """
    return "\n".join(chain([",".join(header)], lines, [""]))


def _from_pair(obj, what: str) -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise ValidationError(f"{what}: expected a [re, im] pair, got {obj!r}")
    # JSON numbers only: float() would also take "1" and false
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj):
        raise ValidationError(f"{what}: non-numeric entry in {obj!r}")
    try:
        return complex(*obj)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValidationError(f"{what}: entry out of range in {obj!r}") from exc


def _complex_array(obj, ndim: int, what: str) -> np.ndarray:
    """A vector (``ndim`` 1) or rectangular matrix (``ndim`` 2) of [re, im] pairs."""
    bad_shape = f"{what}: expected {'a list' if ndim == 1 else 'nested lists'} of [re, im] pairs"
    rows = [obj] if ndim == 1 else obj
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in rows):
        raise ValidationError(bad_shape)
    # 2-lists of int and float: one numpy call, bit for bit complex(re, im); else pair by pair
    pairs = list(chain.from_iterable(rows))
    two_lists = {*map(type, pairs)} == {list} and {*map(len, pairs)} == {2}
    if two_lists and {*map(type, chain(*pairs))} <= {int, float}:
        with suppress(ValueError, OverflowError):  # ragged rows, an integer beyond the float range
            arr = np.array(rows, dtype=np.float64).view(np.complex128)[..., 0]
            return arr[0] if ndim == 1 else arr
    values = [[_from_pair(x, what) for x in row] for row in rows]
    if len({len(row) for row in values}) > 1:  # ragged
        raise ValidationError(bad_shape)
    arr = np.array(values, dtype=np.complex128)
    return arr[0] if ndim == 1 else arr


def _check_schema(doc, what: str) -> None:
    if not isinstance(doc, dict):
        raise ValidationError(f"{what}: expected a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ValidationError(
            f"{what}: missing or unsupported schema field (expected {SCHEMA!r})",
            schema=doc.get("schema"),
        )


def _check_dim(doc: dict, what: str) -> int:
    dim = doc.get("dim")
    # bool is a subclass of int: "dim": true must not load as dim 1
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValidationError(f"{what}: bad dim {dim!r}")
    return dim


def read_json(path: str | Path, what: str) -> dict:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"{what}: cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    # UnicodeDecodeError and JSONDecodeError are ValueErrors, as is an integer
    # literal past the interpreter's digit limit; deep nesting exhausts the stack
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{what}: invalid JSON in {path}: {exc}") from exc
    _check_schema(doc, what)
    return doc


# ---------------------------------------------------------------------------
# states


def state_to_dict(state: StateVector | DensityOperator) -> dict:
    pure = isinstance(state, StateVector)
    return {
        "schema": SCHEMA,
        "dim": state.dim,
        "kind": "pure" if pure else "mixed",
        "data": _pairs(state.amplitudes if pure else state.matrix),
    }


def state_from_dict(doc: dict, tol: float | None = None) -> StateVector | DensityOperator:
    _check_schema(doc, "state file")
    kind = doc.get("kind")
    dim = _check_dim(doc, "state file")
    if kind == "pure":
        amps = _complex_array(doc.get("data"), 1, "state file data")
        if amps.shape != (dim,):
            raise ValidationError(f"state file: data length {amps.shape} does not match dim {dim}")
        return StateVector(amps, tol=tol)
    if kind == "mixed":
        mat = _complex_array(doc.get("data"), 2, "state file data")
        if mat.shape != (dim, dim):
            raise ValidationError(f"state file: data shape {mat.shape} does not match dim {dim}")
        return DensityOperator(mat, tol=tol)
    raise ValidationError(f"state file: kind must be 'pure' or 'mixed', got {kind!r}")


def load_state(path: str | Path, tol: float | None = None) -> StateVector | DensityOperator:
    return state_from_dict(read_json(path, "state file"), tol=tol)


# ---------------------------------------------------------------------------
# bases


def basis_to_dict(basis: OrthonormalBasis) -> dict:
    # rows of "unitary" are the basis vectors
    return {
        "schema": SCHEMA,
        "dim": basis.dim,
        "label": basis.label,
        "unitary": _pairs(basis.matrix.T),
    }


def basis_from_dict(doc: dict, tol: float | None = None) -> OrthonormalBasis:
    _check_schema(doc, "basis file")
    dim = _check_dim(doc, "basis file")
    rows = _complex_array(doc.get("unitary"), 2, "basis file unitary")
    if rows.shape != (dim, dim):
        raise ValidationError(f"basis file: unitary shape {rows.shape} does not match dim {dim}")
    return OrthonormalBasis(rows.T, label=str(doc.get("label", "explicit")), tol=tol)


def resolve_basis(spec: str, dim: int, tol: float | None = None) -> OrthonormalBasis:
    """Resolve a CLI basis spec: a named basis or ``@file.json``."""
    if spec.startswith("@"):
        basis = basis_from_dict(read_json(spec[1:], "basis file"), tol=tol)
        if basis.dim != dim:
            raise DimMismatchError(
                f"basis file {spec[1:]} has dim {basis.dim}, expected {dim}",
                dims=(basis.dim, dim),
            )
        return basis
    _require_budget(16 * dim * dim, f"basis {spec!r} at dim {dim}")
    if spec == "computational":
        return computational_basis(dim)
    if spec == "fourier":
        return fourier_basis(dim)
    if spec == "hadamard2":
        if dim != 2:
            raise DimMismatchError(f"hadamard2 basis requires dim 2, got {dim}", dims=(2, dim))
        mat = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
        return OrthonormalBasis(mat, label="hadamard2")
    raise ValidationError(
        f"unknown basis spec {spec!r}: use one of {NAMED_BASES} or @file.json"
    )


# ---------------------------------------------------------------------------
# joint tables


def kd_to_dict(dist: KDDistribution, tol: float | None = None) -> dict:
    return {
        "schema": SCHEMA,
        "dim": dist.dim,
        "ordering": dist.ordering.value,
        "basis_a": basis_to_dict(dist.basis_a),
        "basis_b": basis_to_dict(dist.basis_b),
        "table": _pairs(dist.table),
        "marginal_a": [float(x) for x in kd_marginal_a(dist, tol=tol)],
        "marginal_b": [float(x) for x in kd_marginal_b(dist, tol=tol)],
    }


def kd_from_dict(doc: dict, tol: float | None = None) -> KDDistribution:
    _check_schema(doc, "joint table file")
    dim = _check_dim(doc, "joint table file")
    try:
        ordering = Ordering(doc.get("ordering"))
    except ValueError as exc:
        raise ValidationError(
            f"joint table file: ordering must be 'AB' or 'BA', got {doc.get('ordering')!r}"
        ) from exc
    basis_a = basis_from_dict(doc.get("basis_a"), tol=tol)
    basis_b = basis_from_dict(doc.get("basis_b"), tol=tol)
    table = _complex_array(doc.get("table"), 2, "joint table")
    if table.shape != (dim, dim):
        raise ValidationError(f"joint table file: table shape {table.shape} vs dim {dim}")
    return KDDistribution(basis_a, basis_b, ordering, table, tol=tol)


def load_kd(path: str | Path, tol: float | None = None) -> KDDistribution:
    return kd_from_dict(read_json(path, "joint table file"), tol=tol)


def kd_to_csv(dist: KDDistribution, tol: float | None = None) -> str:
    """Long-format table: one row per cell, with both marginals repeated."""
    marg_a = map(repr, kd_marginal_a(dist, tol=tol).tolist())
    marg_b = [*map(repr, kd_marginal_b(dist, tol=tol).tolist())]
    lines = (
        f"{a},{b},{x!r},{y!r},{ma},{mb}"
        for a, (ma, xs, ys) in enumerate(zip(marg_a, dist.table.real.tolist(), dist.table.imag.tolist()))
        for b, (x, y, mb) in enumerate(zip(xs, ys, marg_b))
    )
    return _csv(["a", "b", "re", "im", "marginal_a", "marginal_b"], lines)


# ---------------------------------------------------------------------------
# phase-space tables and sweeps


def wigner_to_dict(table: WignerTable, violations: list[tuple[int, int, float]] | None = None) -> dict:
    doc = {
        "schema": SCHEMA,
        "dim": table.dim,
        "table": table.table.tolist(),
    }
    if violations is not None:
        doc["violations"] = [
            {"q": int(q), "p": int(p), "value": float(w)} for q, p, w in violations
        ]
    return doc


def wigner_to_csv(table: WignerTable, violations: list[tuple[int, int, float]] | None = None) -> str:
    """Rows are positions q, columns momenta p; then a q,p,value section if ``violations`` is given."""
    header = ["q"] + [f"p{p}" for p in range(table.dim)]
    text = _csv(header, (",".join([str(q), *map(repr, row)]) for q, row in enumerate(table.table.tolist())))
    if violations is not None:
        text += _csv(["q", "p", "value"], (f"{q},{p},{float(w)!r}" for q, p, w in violations))
    return text


SWEEP_COLUMNS = ["g", "re_est", "im_est", "re_exact", "im_exact", "abs_err", "postselect_prob"]


def sweep_to_csv(points: list[SweepPoint]) -> str:
    rows = ((g, est.real, est.imag, exact.real, exact.imag, err, prob) for g, est, exact, err, prob in points)
    return _csv(SWEEP_COLUMNS, (",".join(map(repr, map(float, row))) for row in rows))


def report_to_json(report: AuditReport) -> str:
    return json.dumps(finite_json(report.to_json_dict()), allow_nan=False)
