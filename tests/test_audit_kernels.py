"""The factored audit kernels against the cell-by-cell oracle, their tiling and their memory.

A term rep's C1, C3 compression and span kernels take a tile of cells at a
time, and condition 2 takes the eigenstate tables on a band of slices at a
time (the Wigner family's off the slices' diagonals).  The reports must match
``reference_audit.py`` under its tie rule, must not depend on the size of
the tiles or blocks, and condition 2 must hold O(d^2) memory.
"""

import json
import tracemalloc

import numpy as np
import pytest

import kdq.audit
import reference_audit as ref
from kdq import (
    Ordering,
    QuasiProbRep,
    check_condition1,
    check_condition2,
    check_condition3,
    check_span,
    computational_basis,
    fourier_basis,
    kd_rep,
    make_condition2_violator,
    mixed_rep,
    random_basis,
    span_residual,
    wigner_as_rep,
)
from test_audit_factored import _kdq_child

DIMS = (2, 3, 5, 8, 31)
SAMPLES = 16
EPS = np.finfo(float).eps


def _general_rep(d):
    """A term rep whose slices exercise the fallbacks.

    Each side has a term with per-cell factors on both sides of its slices
    (so a row or column sum is not one rank-1 term), there is a ket that
    varies with both a and b, and one term has constant factors.
    """
    rng = np.random.default_rng(d)

    def z(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    terms = [
        (z(d, d), z(d, 1, d), z(d, 1, d)),  # ket and bra vary with b: per cell along every row
        (z(d, d), z(d, d, 1), z(d, d, 1)),  # ... with a: per cell along every column
        (z(d, d), z(d, d, d), z(d, 1, 1)),
        (z(1, d), z(d, 1, 1), z(d, 1, 1)),
    ]
    return QuasiProbRep(random_basis(d, seed=10 + d), random_basis(d, seed=20 + d), label="general", terms=terms)


def _reps(d):
    a, b = random_basis(d, seed=d), random_basis(d, seed=100 + d)
    yield kd_rep(a, b)
    yield kd_rep(a, b, Ordering.BA)
    for weight in (0.0, 0.3, 1.0, 1.7):
        yield mixed_rep(a, b, weight)
    yield make_condition2_violator(a, b, 1e-3)
    yield _general_rep(d)


def _assert_matches(new, oracle, rep):
    old = oracle(rep, cells=None)
    # the general rep's values are O(d), so its rounding is relative
    tol = 1e-12 * max(1.0, abs(old.worst_violation))
    assert new.passed == old.passed, (rep.label, new, old)
    assert abs(new.worst_violation - old.worst_violation) <= tol, (rep.label, new, old)
    assert (new.condition, new.samples_used, new.seed) == (old.condition, old.samples_used, old.seed)
    key = ref.witness_key(new.witness)
    if key != ref.witness_key(old.witness):
        # another order of summation may break a rounding-level tie the other
        # way: the cell named must carry the oracle's worst violation
        cells = {}
        oracle(rep, cells=cells)
        assert cells.get(key, -np.inf) >= old.worst_violation - tol, (rep.label, new.witness, old.witness)


@pytest.mark.parametrize("dim", DIMS)
def test_term_kernels_match_the_cell_by_cell_oracle(dim):
    for i, rep in enumerate(_reps(dim)):
        seed = 7 * dim + i
        for new, oracle in (
            (check_condition1(rep), ref.check_condition1),
            (check_condition2(rep), ref.check_condition2),
            (
                check_condition3(rep),
                lambda r, cells: ref.check_condition3(r, samples=SAMPLES, seed=seed, cells=cells),
            ),
            (check_span(rep), ref.check_span),
        ):
            _assert_matches(new, oracle, rep)
        new_res, old_res = span_residual(rep), ref.span_residual(rep)
        np.testing.assert_array_equal(new_res.degenerate, old_res.degenerate)
        np.testing.assert_allclose(new_res.residuals, old_res.residuals, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dim", [5, 31])
def test_reports_do_not_depend_on_the_tile_or_block_size(monkeypatch, dim):
    reps = [*_reps(dim), wigner_as_rep(dim)]

    def run():
        out = []
        for rep in reps:
            out += [check_condition1(rep), check_condition2(rep), check_condition3(rep)]
            out += [check_span(rep), span_residual(rep).residuals.tobytes()]
        return out

    default = run()
    # tiles of four cells, so a row of five splits into runs of 4 + 1 cells and the
    # one-cell tile's per-cell factors have the shape of shared ones; one eigenstate
    # table per block
    monkeypatch.setattr(kdq.audit, "_BLOCK_BYTES", 16 * dim * 4)
    monkeypatch.setattr(kdq.audit, "_TILE_CELLS", 4)
    assert run() == default


@pytest.mark.parametrize("dim", [5, 17])
def test_dense_span_residuals_do_not_depend_on_how_a_row_is_split(monkeypatch, dim):
    # a dense cell's residual is the same bits alone in its block, one of two or three, or in the whole row
    a, b = random_basis(dim, seed=dim), random_basis(dim, seed=dim + 1)
    rep = QuasiProbRep(a, b, mixed_rep(a, b, 0.3).operators)

    def split(size):
        def blocks(x):
            for start in range(0, len(x), size):
                yield slice(start, start + size), x[start:start + size]
        return blocks

    residuals = []
    for size in (1, 2, 3, dim):
        monkeypatch.setattr(kdq.audit, "_blocks", split(size))
        residuals.append(span_residual(rep).residuals.tobytes())
    assert residuals == [residuals[0]] * 4


@pytest.mark.parametrize("dim", [64, 128])
def test_condition2_holds_order_d2_memory(dim):
    # the eigenstate tables of all 2d states would take 32 d^3 bytes (8.4 MB
    # at d=64, 67 MB at d=128).  The check holds the 2d states and, for a
    # term rep, <v|f> for each of its factors f (32 d^2 bytes each, 160 d^2
    # for mixed), plus one block of tables and their temporaries: at d >= 64
    # one state's, about ten d x d arrays
    a, b = computational_basis(dim), fourier_basis(dim)
    for rep in (mixed_rep(a, b, 0.3), make_condition2_violator(a, b, 1e-3), wigner_as_rep(dim - 1)):
        tracemalloc.start()
        try:
            report = check_condition2(rep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed == (rep.label != "violator:0.001")
        assert peak < 320 * dim * dim + 8 * kdq.audit._BLOCK_BYTES, (rep.label, peak)


def test_cli_checks_condition2_past_the_old_table_limit():
    # the eigenstate tables at d=330 would have taken 1.15 GB, over the 1 GiB
    # per-array limit, and the audit was refused
    code, out, err = _kdq_child("audit", "--rep", "kd", "--dim", "330", "--c2")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["condition"] == "C2" and doc["passed"]


def test_lowrank_norms_with_dependent_bras_match_the_dense_norm():
    # bra 2 repeats bra 0 exactly and leaves Gram-Schmidt a rounding-level
    # remainder; bra 3 repeats it again, and its remainder lies in the span
    # of that one, so it must be dropped, or its direction would be noise
    # that steals weight from the last bra; terms 0 and 2 nearly cancel
    d, rng = 4, np.random.default_rng(11)

    def z(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a = np.linalg.qr(z(d, d))[0].T[:, None, None, :]  # four orthonormal bras, (1, 1, d) each
    bras = [a[0], a[1], a[0], a[0], z(1, 3, d)]
    kets = [z(1, 3, d) for _ in bras]
    coef = [z(1, 3) for _ in bras]
    coef[2] = -coef[0] * (1 - 1e-9)
    kets[2] = kets[0]
    dense = sum(c[..., None, None] * k[..., :, None] * b[..., None, :].conj() for c, k, b in zip(coef, kets, bras))
    expected = np.linalg.norm(dense, axis=(-2, -1))
    np.testing.assert_allclose(kdq.audit._lowrank_norms(coef, kets, bras), expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("seed", range(16))
def test_lowrank_norms_do_not_depend_on_the_order_or_side_of_the_terms(seed):
    # ||X|| = ||X^dag|| and a sum does not depend on the order of its terms, so the
    # kernel, which reads the terms in the order given, must give every cell the same
    # norm, within 16 eps ||X|| (under 7 eps over 2,000 seeds), when they are permuted,
    # or when kets and bras trade places and the coefficients are conjugated.  The
    # factors are a random mix of every shape a tile hands the kernel, shared by a row's
    # cells, by a column's, by all cells, or per cell, and the repeated orthonormal bras
    # and near-cancelling pair of the dependent-bras test above are put in among them
    rows, cells, d, rng = 3, 4, 5, np.random.default_rng(seed)

    def z(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def factor():
        return z(*[(rows, 1, d), (1, cells, d), (1, 1, d), (rows, cells, d)][rng.integers(4)])

    n = int(rng.integers(2, 6))
    kets, bras, coef = [factor() for _ in range(n)], [factor() for _ in range(n)], [z(rows, cells) for _ in range(n)]
    a = np.linalg.qr(z(d, d))[0].T[:, None, None, :]
    dep_kets, dep_coef = [factor() for _ in range(4)], [z(rows, cells) for _ in range(4)]
    dep_kets[2], dep_coef[2] = dep_kets[0], -dep_coef[0] * (1 - 1e-9)
    at = int(rng.integers(n + 1))
    kets[at:at], bras[at:at], coef[at:at] = dep_kets, [a[0], a[1], a[0], a[0]], dep_coef
    dense = sum(c[..., None, None] * k[..., :, None] * b[..., None, :].conj() for c, k, b in zip(coef, kets, bras))
    norms = np.linalg.norm(dense, axis=(-2, -1))
    bound = 16 * EPS * norms

    base = kdq.audit._lowrank_norms(coef, kets, bras)
    assert (np.abs(base - norms) <= bound).all()
    for _ in range(4):
        p = rng.permutation(len(coef))
        permuted = kdq.audit._lowrank_norms([coef[t] for t in p], [kets[t] for t in p], [bras[t] for t in p])
        assert (np.abs(permuted - base) <= bound).all(), p
    swapped = kdq.audit._lowrank_norms([np.conj(c) for c in coef], bras, kets)
    assert (np.abs(swapped - base) <= bound).all()


def _unfolded(rep):
    """``rep`` with no term read as U or V: every check runs its kernels on all its terms."""
    out = QuasiProbRep(rep.basis_a, rep.basis_b, label=rep.label, terms=rep.terms)
    out._uv, out._rest = [np.zeros((rep.dim, rep.dim))] * 2, list(range(len(rep.terms)))
    return out


def _count_tiled(monkeypatch):
    calls = []
    tiled = kdq.audit._tiled
    monkeypatch.setattr(kdq.audit, "_tiled", lambda *args: calls.append(1) or tiled(*args))
    return calls


@pytest.mark.parametrize("dim", [2, 5, 31])
def test_kd_type_families_read_their_u_and_v_terms_in_closed_form(monkeypatch, dim):
    # every cell of kd, kd-ba and mixed is xu |b><a| + xv |a><b|: both compressions
    # and the span residual are exactly 0, no tile is walked, and no eigenstate
    # table has a forbidden entry, so C2's worst is an allowed cell's rounding
    calls = _count_tiled(monkeypatch)
    a, b = random_basis(dim, seed=dim), random_basis(dim, seed=100 + dim)
    for rep in (kd_rep(a, b), kd_rep(a, b, Ordering.BA), mixed_rep(a, b, 0.3), mixed_rep(a, b, 1.7)):
        c2, c3, span = check_condition2(rep), check_condition3(rep), check_span(rep)
        assert (c2.passed, c3.passed, span.passed) == (True, True, True)
        assert (c3.worst_violation, c3.witness) == (0.0, "all compressions vanish")
        assert (span.worst_violation, span.witness) == (0.0, "every cell lies in the two-ordering span")
        assert not span_residual(rep).residuals.any()
        assert "forbidden" not in c2.witness and c2.worst_violation < 1e-15, c2
        assert [list(kdq.audit._eigen_bands(rep, side, m)) for side, m in ((0, a.matrix), (1, b.matrix))] == [[], []]
    assert calls == []


def test_terms_that_are_not_u_or_v_keep_the_generic_path(monkeypatch):
    # the general rep's terms, and a kd term whose bra is a copy of basis A one ulp
    # off in one entry: correct, only slower.  C3 walks both sides, the span one
    calls = _count_tiled(monkeypatch)
    a, b = random_basis(5, seed=5), random_basis(5, seed=105)
    ov, ket, bra = kd_rep(a, b).terms[0]
    bra = bra.copy()
    bra[0, 0] = np.nextafter(bra[0, 0].real, 2.0) + 1j * bra[0, 0].imag
    for rep in (_general_rep(5), QuasiProbRep(a, b, terms=[(ov, ket, bra)])):
        calls.clear()
        c3, span = check_condition3(rep), check_span(rep)
        assert len(calls) == 3, rep.label
        assert rep.label == "general" or (c3.passed and span.passed and 0 < c3.worst_violation < 1e-15)


@pytest.mark.parametrize("dim", DIMS)
def test_reading_u_and_v_in_closed_form_moves_values_only_by_rounding(dim):
    # the same reps with every term in the kernels, none read as U or V: verdicts
    # agree, and every value within rounding of it (5.3 eps at most over d = 2..64)
    for rep in _reps(dim):
        generic = _unfolded(rep)
        for check in (check_condition1, check_condition2, check_condition3, check_span):
            new, old = check(rep), check(generic)
            assert new.passed == old.passed, (rep.label, new, old)
            assert abs(new.worst_violation - old.worst_violation) <= 16 * EPS * max(1.0, old.worst_violation), (
                rep.label, new, old)
        np.testing.assert_allclose(span_residual(rep).residuals, span_residual(generic).residuals, rtol=0,
                                   atol=16 * EPS * max(1.0, span_residual(generic).residuals.max()))
