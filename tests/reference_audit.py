"""Cell-by-cell reference for the audit checks, kept as a test oracle.

These are the per-cell loops the vectorized code in ``kdq.audit`` and
``kdq.wigner.wigner_as_rep`` replaced: one operator per cell for the
family builders, one lstsq per span cell, one pair of d x d matmuls per
compression, one full contraction per eigenstate table, and kdq's one
complement sampler, which draws one state at a time.  They are slow on
purpose and only run at small d.

Each check returns the report the loop computes and, when ``cells`` is a
dict, records there every candidate violation under its witness key
(``witness_key`` strips the printed values).  A vectorized check sums in a
different order, so where several cells tie for the worst violation up to
rounding it may name another of them; ``cells`` lets a test confirm that
the cell it names is one of the tied ones.
"""

from __future__ import annotations

import re

import numpy as np

from kdq import TOL, AuditReport, BadSampleCountError, Ordering, QuasiProbRep, SpanResidual, kd_operator
from kdq.audit import _zero_sum_sign_pattern
from kdq.wigner import phase_point_operator

_PRINTED_VALUE = re.compile(r"[-+]?\d\.\d{3}e[-+]\d+")


def witness_key(witness: str) -> str:
    """The witness text without its printed values: the cell it names."""
    return _PRINTED_VALUE.sub("#", witness)


def _record(cells: dict | None, value: float, text: str) -> None:
    if cells is not None:
        cells[witness_key(text)] = float(value)


def kd_operators(basis_a, basis_b, ordering=Ordering.AB) -> np.ndarray:
    """The family kd_rep builds, one kd_operator per cell."""
    d = basis_a.dim
    ops = np.empty((d, d, d, d), dtype=np.complex128)
    for a in range(d):
        va = basis_a.vector(a)
        for b in range(d):
            ops[a, b] = kd_operator(va, basis_b.vector(b), ordering).matrix
    return ops


def mixed_operators(basis_a, basis_b, weight_ab: float) -> np.ndarray:
    ab = kd_operators(basis_a, basis_b, Ordering.AB)
    ba = kd_operators(basis_a, basis_b, Ordering.BA)
    return weight_ab * ab + (1.0 - weight_ab) * ba


def violator_operators(basis_a, basis_b, epsilon: float) -> np.ndarray:
    a0, a1 = basis_a.matrix[:, 0], basis_a.matrix[:, 1]
    noise = np.outer(a0, a1.conj()) + np.outer(a1, a0.conj())
    signs = _zero_sum_sign_pattern(basis_a.dim)
    base = kd_operators(basis_a, basis_b, Ordering.AB)
    return base + epsilon * signs[:, :, None, None] * noise[None, None, :, :]


def wigner_operators(dim: int) -> np.ndarray:
    ops = np.empty((dim, dim, dim, dim), dtype=np.complex128)
    for q in range(dim):
        for p in range(dim):
            ops[q, p] = phase_point_operator(dim, q, p)
    return ops


def _evaluate_raw(ops: np.ndarray, rho_mat: np.ndarray) -> np.ndarray:
    return np.einsum("abij,ji->ab", ops, rho_mat)


def check_condition1(rep: QuasiProbRep, tol: float = TOL, cells=None) -> AuditReport:
    d = rep.dim
    worst = 0.0
    witness = "all operator sums match the basis projectors"
    _record(cells, 0.0, witness)
    for a in range(d):
        dev = float(np.linalg.norm(rep.operators[a].sum(axis=0) - rep.basis_a.projector(a)))
        text = f"row a={a}: ||sum_b Pi(a,b) - P_a||_F = {dev:.3e}"
        _record(cells, dev, text)
        if dev > worst:
            worst, witness = dev, text
    for b in range(d):
        dev = float(np.linalg.norm(rep.operators[:, b].sum(axis=0) - rep.basis_b.projector(b)))
        text = f"column b={b}: ||sum_a Pi(a,b) - P_b||_F = {dev:.3e}"
        _record(cells, dev, text)
        if dev > worst:
            worst, witness = dev, text
    return AuditReport("C1", worst <= tol, worst, witness, samples_used=0, seed=0)


def check_condition2(rep: QuasiProbRep, tol: float = TOL, cells=None) -> AuditReport:
    d = rep.dim
    cross = rep.basis_b.matrix.conj().T @ rep.basis_a.matrix  # cross[b, a] = <b|a>
    born = np.abs(cross.T) ** 2  # born[a, b] = |<a|b>|^2
    worst = 0.0
    witness = "all eigenstate tables have the required delta structure"
    _record(cells, 0.0, witness)

    def _scan(table: np.ndarray, expected: np.ndarray, mask_allowed: np.ndarray, tag: str):
        nonlocal worst, witness
        forbidden = np.abs(np.where(mask_allowed, 0.0, table))
        allowed_dev = np.abs(np.where(mask_allowed, table - expected, 0.0))
        for a in range(d):
            for b in range(d):
                _record(cells, forbidden[a, b], f"{tag}: forbidden cell (a={a}, b={b}) has |{table[a, b]:.3e}|")
                _record(cells, allowed_dev[a, b], f"{tag}: allowed cell (a={a}, b={b}) deviates by {allowed_dev[a, b]:.3e}")
        idx = np.unravel_index(int(np.argmax(forbidden)), forbidden.shape)
        if forbidden[idx] > worst:
            worst = float(forbidden[idx])
            witness = f"{tag}: forbidden cell (a={idx[0]}, b={idx[1]}) has |{table[idx]:.3e}|"
        idx = np.unravel_index(int(np.argmax(allowed_dev)), allowed_dev.shape)
        if allowed_dev[idx] > worst:
            worst = float(allowed_dev[idx])
            witness = f"{tag}: allowed cell (a={idx[0]}, b={idx[1]}) deviates by {allowed_dev[idx]:.3e}"

    rows = np.arange(d)[:, None]
    cols = np.arange(d)[None, :]
    for k in range(d):
        table = _evaluate_raw(rep.operators, rep.basis_a.projector(k))
        _scan(table, born, rows == k, f"eigenstate |A_{k}>")
    for k in range(d):
        table = _evaluate_raw(rep.operators, rep.basis_b.projector(k))
        _scan(table, born, cols == k, f"eigenstate |B_{k}>")
    return AuditReport("C2", worst <= tol, worst, witness, samples_used=0, seed=0)


def complement_samples(rng: np.random.Generator, v: np.ndarray, samples: int) -> np.ndarray:
    """One state at a time: project a complex Gaussian off ``v`` twice, reject near-zero, normalize."""
    d = v.size
    out = np.empty((samples, d), dtype=np.complex128)
    n = 0
    while n < samples:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        z = z - v * np.vdot(v, z)
        z = z - v * np.vdot(v, z)
        nrm = np.linalg.norm(z)
        if nrm > 1e-8:
            out[n] = z / nrm
            n += 1
    return out


def compression_norms(rep: QuasiProbRep) -> np.ndarray:
    """c3[side, a, b] = ||Q Pi(a,b) Q||_F with Q = 1 - P_a (side 0) or Q = 1 - P_b (side 1), cell by cell."""
    d = rep.dim
    eye = np.eye(d)
    c3 = np.empty((2, d, d))
    for a in range(d):
        q = eye - rep.basis_a.projector(a)
        for b in range(d):
            c3[0, a, b] = np.linalg.norm(q @ rep.operators[a, b] @ q)
    for b in range(d):
        q = eye - rep.basis_b.projector(b)
        for a in range(d):
            c3[1, a, b] = np.linalg.norm(q @ rep.operators[a, b] @ q)
    return c3


def check_condition3(
    rep: QuasiProbRep,
    samples: int = 100,
    seed: int = 0,
    tol: float = TOL,
    cells=None,
) -> AuditReport:
    if samples < 1:
        raise BadSampleCountError(f"samples must be >= 1, got {samples}")
    d = rep.dim
    c3 = compression_norms(rep)
    worst = 0.0
    witness = "all compressions vanish"
    _record(cells, 0.0, witness)

    def _bump(value: float, text: str):
        nonlocal worst, witness
        _record(cells, value, text)
        if value > worst:
            worst, witness = value, text

    for a in range(d):
        for b in range(d):
            dev = float(c3[0, a, b])
            _bump(dev, f"compression ||Q_a Pi Q_a||_F = {dev:.3e} at (a={a}, b={b})")
    for b in range(d):
        for a in range(d):
            dev = float(c3[1, a, b])
            _bump(dev, f"compression ||Q_b Pi Q_b||_F = {dev:.3e} at (a={a}, b={b})")
    return AuditReport("C3", worst <= tol, worst, witness, samples_used=0, seed=0)


def span_residual(rep: QuasiProbRep, tol_overlap: float = 1e-8) -> SpanResidual:
    d = rep.dim
    cross = rep.basis_b.matrix.conj().T @ rep.basis_a.matrix
    residuals = np.zeros((d, d))
    degenerate = np.zeros((d, d), dtype=bool)
    for a in range(d):
        pa = rep.basis_a.projector(a)
        for b in range(d):
            pb = rep.basis_b.projector(b)
            basis_mats = np.stack([(pb @ pa).ravel(), (pa @ pb).ravel()], axis=1)
            x = rep.operators[a, b].ravel()
            coef, *_ = np.linalg.lstsq(basis_mats, x, rcond=None)
            residuals[a, b] = float(np.linalg.norm(x - basis_mats @ coef))
            degenerate[a, b] = abs(cross[b, a]) <= tol_overlap
    return SpanResidual(residuals, degenerate)


def check_span(rep: QuasiProbRep, tol: float = TOL, cells=None) -> AuditReport:
    res = span_residual(rep)
    masked = np.where(res.degenerate, 0.0, res.residuals)
    a, b = np.unravel_index(int(np.argmax(masked)), masked.shape)
    worst = float(masked[a, b])
    n_degen = int(res.degenerate.sum())
    suffix = f" ({n_degen} degenerate cells excluded)" if n_degen else ""
    clean = "every cell lies in the two-ordering span" + suffix
    _record(cells, 0.0, clean)
    for i in range(rep.dim):
        for j in range(rep.dim):
            _record(cells, masked[i, j], f"cell (a={i}, b={j}): residual {masked[i, j]:.3e}{suffix}")
    witness = f"cell (a={a}, b={b}): residual {worst:.3e}" + suffix if worst > 0 else clean
    return AuditReport("Span", worst <= tol, worst, witness, samples_used=0, seed=0)
