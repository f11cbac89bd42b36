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
    computational_basis,
    discrete_wigner,
    evaluate,
    make_pure_density,
    random_basis,
    random_density,
    span_residual,
    wigner_as_rep,
)
from kdq.audit import _OnePerRow, _compression_norms, _marginal_dev, _traces
from kdq.wigner import momentum_basis, phase_point_operator
from test_audit_factored import _kdq_child
from test_audit_reference import _assert_checks_match, _assert_same_report
from test_condition3_bound import rounding_bound


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


def _random_slice(d, rng, k, framed=False):
    """A random one-per-row slice of d cells with pivot k, its dense cells F Y_c F^dag, and F|k>.

    Its cells share their columns, a random permutation that fixes k, the
    shape of a phase-point slice: row k's nonzero sits on the diagonal and
    is column k's only one, while other rows may hold diagonal entries too;
    every cell differs, so a kernel that mixes up cells changes the numbers.
    Framed, F is a random unitary, which the slice itself does not carry;
    else it is the identity.
    """
    cols = np.insert(rng.permutation(np.delete(np.arange(d), k)), k, k)
    vals = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))  # vals[c, i]
    f = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0] if framed else np.eye(d)
    y = np.zeros((d, d, d), dtype=complex)
    y[:, np.arange(d), cols] = vals
    return _OnePerRow(cols, vals, k), f @ y @ f.conj().T, f[:, k]


@pytest.mark.parametrize("block_cells", [1, 2, 64])
def test_one_per_row_kernels_match_the_dense_slices(monkeypatch, block_cells):
    # the dense kernels take their cells a block at a time, whatever the block size
    d = 5
    monkeypatch.setattr(kdq.audit, "_BLOCK_BYTES", 16 * d * d * block_cells)
    rng = np.random.default_rng(3)
    rho = random_density(d, d, seed=2).matrix

    def close(new, old):
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-12)

    for framed in (False, True):
        for k in range(d):
            x, y, v = _random_slice(d, rng, k, framed)
            # the compression and marginal norms are unitarily invariant, so they need no frame
            close(_compression_norms(x, v), _compression_norms(y, v))
            close(_marginal_dev(x, v), _marginal_dev(y, v))
            if not framed:  # only a column comes in a frame, and _traces walks rows
                close(_traces(x, rho), _traces(y, rho))


@pytest.mark.parametrize("dim", [3, 5, 31])
def test_one_per_row_slice_sum_matches_scatter_add_bit_for_bit(dim):
    # C1 sums a row with one reduction of its vals over cells; np.add.at adds the
    # cells in order, and a row's deviation from |q><q| must keep that sum's bits
    rep = wigner_as_rep(dim)
    for k in range(dim):
        x, v = rep._slices(0, k), rep.basis_a.matrix[:, k]
        dev = np.zeros((dim, dim), dtype=complex)
        np.add.at(dev, (np.arange(dim), np.broadcast_to(x.cols, x.vals.shape)), x.vals)
        dev = (dev - np.einsum("i,j->ij", v, v.conj())).ravel()
        assert _marginal_dev(x, v) == np.sqrt(np.vecdot(dev, dev).real), k


def _is_phase_point_shape(x: _OnePerRow) -> bool:
    """Whether x.cols is a permutation whose one fixed point is x.pivot."""
    d = len(x.cols)
    return np.array_equal(np.sort(x.cols), np.arange(d)) and np.flatnonzero(x.cols == np.arange(d)).tolist() == [x.pivot]


@pytest.mark.parametrize("dim", [1, 3, 5, 31])
def test_every_wigner_slice_has_the_phase_point_shape(dim):
    # the pivot kernels read row and column k of a cell as its diagonal entry alone
    rep = wigner_as_rep(dim)
    for side in (0, 1):
        for k in range(dim):
            x = rep._slices(side, k)
            assert x.pivot == k and _is_phase_point_shape(x), (side, k)
    if dim > 1:  # a slice whose row k leaves the diagonal breaks the shape
        x = rep._slices(0, 0)
        assert not _is_phase_point_shape(x._replace(cols=np.roll(x.cols, 1)))


def test_wigner_audits_past_a_dense_row():
    # a dense row of the family would be 16 d^3 = 1.09 GB at d=409, over the 1 GiB limit
    assert check_condition1(wigner_as_rep(409)).passed


def test_checks_and_evaluate_never_build_the_family():
    rep = wigner_as_rep(7)
    rho = random_density(7, 7, seed=4)
    table = evaluate(rep, rho)
    check_condition1(rep), check_condition2(rep), check_condition3(rep), check_span(rep)
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


@pytest.mark.parametrize("dim", [3, 5, 7, 31])
def test_phase_point_operators_are_fourier_covariant(dim):
    # M^dag A(q, p) M = A(p, -q) for the momentum basis M: the identity that
    # maps a momentum column of the family onto a position row
    m = momentum_basis(dim).matrix
    for q in range(dim):
        for p in range(dim):
            moved = m.conj().T @ phase_point_operator(dim, q, p) @ m
            np.testing.assert_allclose(moved, phase_point_operator(dim, p, -q % dim), rtol=0, atol=1e-14)


@pytest.mark.parametrize("dim", [3, 5, 9, 31])
def test_phase_point_kernels_match_the_dense_slices(dim):
    rep = wigner_as_rep(dim)
    dense = QuasiProbRep(rep.basis_a, rep.basis_b, rep.operators)
    rng = np.random.default_rng(dim)

    def close(new, old):
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-12)

    for side, basis in ((0, rep.basis_a), (1, rep.basis_b)):
        for k in range(dim):
            x, y = rep._slices(side, k), dense._slices(side, k)
            v = basis.matrix[:, k]
            norms = _compression_norms(x, v)
            close(norms, _compression_norms(y, v))
            # a momentum column's compression, taken in its own frame, still bounds the
            # states sampled from the complement of |p> in the position frame
            m = ref.complement_samples(rng, v, 6)
            vals = np.abs(np.einsum("si,cij,sj->sc", m.conj(), y, m))
            assert (vals <= norms + rounding_bound(dim, np.linalg.norm(y, axis=(1, 2)), np.abs(m @ v.conj()))).all()
    close(span_residual(rep).residuals, span_residual(dense).residuals)
    for check in (check_condition3, check_span):
        new, old = check(rep), check(dense)
        cells = {}
        if check is check_condition3:
            ref.check_condition3(rep, samples=100, seed=0, cells=cells)
        else:
            ref.check_span(rep, cells=cells)
        _assert_same_report(new, old, cells)


@pytest.mark.parametrize("basis_b", ["random", "computational"])
def test_pivot_kernels_match_the_dense_kernels_on_any_one_per_row_row(basis_b):
    # random pivoted rows over the position basis; identical bases make the
    # off-diagonal cells degenerate
    d = 6
    rng = np.random.default_rng(5)
    rows = [_random_slice(d, rng, k)[0] for k in range(d)]
    b = random_basis(d, seed=6) if basis_b == "random" else computational_basis(d)
    rep = QuasiProbRep(computational_basis(d), b, label="pivoted", _slices=lambda side, k: rows[k])
    dense = QuasiProbRep(rep.basis_a, rep.basis_b, rep.operators)
    for k in range(d):
        v = rep.basis_a.matrix[:, k]
        np.testing.assert_allclose(
            _compression_norms(rep._slices(0, k), v), _compression_norms(dense._slices(0, k), v), rtol=0, atol=1e-12
        )
    new, old = span_residual(rep), span_residual(dense)
    np.testing.assert_array_equal(new.degenerate, old.degenerate)
    np.testing.assert_allclose(new.residuals, old.residuals, rtol=0, atol=1e-12)
    rho = random_density(d, d, seed=7)
    np.testing.assert_allclose(evaluate(rep, rho), evaluate(dense, rho), rtol=0, atol=1e-12)
    # no C2 here: this rep hands out its rows as its columns too, so a column is not in
    # the frame of basis B, which C2 reads one-per-row slices in


@pytest.mark.parametrize("dim", [3, 31])
def test_eigenstate_tables_are_the_slices_diagonals(dim):
    # in a slice's frame its side's basis is the standard basis, so C2 reads the table of
    # |A_j> or |B_j> off the slices' diagonals: exactly 1/d on its own row or column and
    # exactly 0 elsewhere, the discrete Wigner function of |q><q| or |p><p|
    rep = wigner_as_rep(dim)
    for side, basis in ((0, rep.basis_a), (1, rep.basis_b)):
        tables = np.concatenate([t.copy() for _, t in kdq.audit._eigen_bands(rep, side, basis.matrix)])
        exact = np.zeros((dim, dim, dim))  # over (slice, cell, state)
        exact[np.arange(dim), :, np.arange(dim)] = 1.0 / dim
        assert np.array_equal(tables, exact)
        for j in range(dim):
            w = discrete_wigner(make_pure_density(basis.vector(j))).table
            np.testing.assert_allclose(tables[..., j], w if side == 0 else w.T, rtol=0, atol=1e-15)


@pytest.mark.parametrize("dim", [9, 31])
def test_one_per_row_kernels_give_the_same_bits_in_any_block(monkeypatch, dim):
    # neither the span nor the compression walks a one-per-row slice in blocks of
    # cells: each takes its rows whole, so the block size changes no bit
    rep = wigner_as_rep(dim)

    def run():
        norms = [_compression_norms(rep._slices(side, k), None) for side in (0, 1) for k in range(dim)]
        return np.array(norms), span_residual(rep).residuals

    whole = run()
    for cells in (1, 2, 3, 5):
        monkeypatch.setattr(kdq.audit, "_BLOCK_BYTES", 16 * dim * cells)
        for new, old in zip(run(), whole):
            assert np.array_equal(new, old), cells


def _count_fast_paths(monkeypatch):
    calls = {"_off_pivot_sq": 0, "_pivot_span_row": 0}
    for name in calls:
        def counted(*args, _f=getattr(kdq.audit, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(kdq.audit, name, counted)
    return calls


def test_fast_paths_fire_on_the_phase_point_slices_only(monkeypatch):
    calls = _count_fast_paths(monkeypatch)
    d = 5
    check_condition3(wigner_as_rep(d)), check_span(wigner_as_rep(d))
    # compressions on both sides, then the span's off-pivot squares per row; no column needs its frame
    assert calls == {"_off_pivot_sq": 3 * d, "_pivot_span_row": d}
