"""The Wigner family as a slice source, against its dense oracle.

``wigner_as_rep`` never stores the (d, d, d, d) family: each row A(q, .)
or column A(., p) is made on request, one nonzero per operator row, and
the checks run on that compact form.  The cell-by-cell reference in
reference_audit.py reads the dense ``operators`` and must agree.
"""

import json
import tracemalloc

import numpy as np
import pytest

import kdq.audit
import reference_audit as ref
from kdq import (
    QuasiProbRep,
    check_condition1,
    check_condition2,
    check_condition3,
    check_span,
    evaluate,
    random_basis,
    random_density,
    random_state,
    span_residual,
    wigner_as_rep,
)
from kdq.audit import _OnePerRow, _compression_norms, _expectations, _slice, _slice_sum, _traces
from kdq.wigner import phase_point_operator
from test_audit_factored import _kdq_child
from test_audit_reference import _assert_checks_match


@pytest.mark.parametrize("dim", [3, 5, 9, 31])
def test_slice_source_checks_match_reference(dim):
    rep = wigner_as_rep(dim)
    _assert_checks_match(rep, seed=dim)


@pytest.mark.parametrize("dim", [1, 3, 5, 9])
def test_operators_are_the_phase_point_operators(dim):
    rep = wigner_as_rep(dim)
    ops = rep.operators
    assert ops.flags.c_contiguous and not ops.flags.writeable
    for q in range(dim):
        for p in range(dim):
            np.testing.assert_allclose(ops[q, p], phase_point_operator(dim, q, p), rtol=0, atol=2e-15)


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_phase_point_operator_matches_its_defining_sum(dim):
    # A(q, p) = (1/d) sum_x exp(4 pi i p x / d) |q - x><q + x|, one x at a time
    for q in range(dim):
        for p in range(dim):
            mat = np.zeros((dim, dim), dtype=np.complex128)
            for x in range(dim):
                mat[(q - x) % dim, (q + x) % dim] = np.exp(4j * np.pi * p * x / dim) / dim
            np.testing.assert_allclose(phase_point_operator(dim, q, p), mat, rtol=0, atol=2e-15)


def _random_one_per_row_rep(d, seed):
    """A family with one random nonzero per operator row, placed by a only.

    Like the Wigner family, its rows share their column pattern and its
    columns do not; unlike it, every cell differs, so a kernel that mixes
    up cells changes the numbers.
    """
    rng = np.random.default_rng(seed)
    cols = rng.integers(0, d, (d, d))  # cols[a, i]
    vals = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))  # vals[a, b, i]

    def slices(side, k):
        return _OnePerRow(cols[k][None], vals[k]) if side == 0 else _OnePerRow(cols, vals[:, k])

    a, b = random_basis(d, seed=seed), random_basis(d, seed=seed + 1)
    return QuasiProbRep(a, b, label="random", _slices=slices)


@pytest.mark.parametrize("block_cells", [1, 2, 64])
def test_one_per_row_kernels_match_the_dense_slices(monkeypatch, block_cells):
    d = 5
    monkeypatch.setattr(kdq.audit, "_BLOCK_BYTES", 16 * d * d * block_cells)
    rep = _random_one_per_row_rep(d, seed=3)
    dense = QuasiProbRep(rep.basis_a, rep.basis_b, rep.operators)
    m = np.stack([random_state(d, seed=s).amplitudes for s in range(7)])
    rho = random_density(d, d, seed=2).matrix

    def close(new, old):
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-12)

    for side, basis in ((0, rep.basis_a), (1, rep.basis_b)):
        for k in range(d):
            x, y = _slice(rep, side, k), _slice(dense, side, k)
            close(_expectations(x, m), _expectations(y, m))
            close(_compression_norms(x, basis.matrix[:, k]), _compression_norms(y, basis.matrix[:, k]))
            close(_slice_sum(x), _slice_sum(y))
            close(_traces(x, rho), _traces(y, rho))
    close(span_residual(rep).residuals, span_residual(dense).residuals)
    for check in (check_condition1, check_condition2, check_condition3, check_span):
        new, old = check(rep), check(dense)
        assert new.passed == old.passed
        assert new.worst_violation == pytest.approx(old.worst_violation, rel=1e-12)
        assert ref.witness_key(new.witness) == ref.witness_key(old.witness)


def test_checks_and_evaluate_never_build_the_family():
    rep = wigner_as_rep(7)
    rho = random_density(7, 7, seed=4)
    table = evaluate(rep, rho)
    check_condition1(rep), check_condition2(rep), check_condition3(rep, samples=8), check_span(rep)
    assert rep._ops is None
    dense = QuasiProbRep(rep.basis_a, rep.basis_b, rep.operators)
    np.testing.assert_allclose(table, evaluate(dense, rho), rtol=0, atol=1e-15)


def test_all_checks_at_d61_stay_far_below_the_family():
    d = 61  # the family would be 16 d^4 = 222 MB
    rep = wigner_as_rep(d)
    tracemalloc.start()
    try:
        reports = [check_condition1(rep), check_condition2(rep), check_condition3(rep), check_span(rep)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.passed for r in reports] == [True, True, False, False]
    assert peak < 16 * d**4 / 4, peak


def test_cli_audits_wigner_past_the_old_family_limit():
    # the dense family at d=93 would be 1.2 GB, over the 1 GiB per-array limit
    code, out, err = _kdq_child("audit", "--rep", "wigner", "--dim", "93", "--all")
    assert code == 1, err
    verdicts = {doc["condition"]: doc["passed"] for doc in map(json.loads, out.splitlines())}
    assert verdicts == {"C1": True, "C2": True, "C3": False, "Span": False}
