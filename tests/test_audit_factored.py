"""Term reps against their own dense expansion.

kd_rep, mixed_rep and make_condition2_violator keep each cell as a short
sum of rank-1 terms, and the checks run on those terms.  Wrapping the same
family's expanded ``operators`` in a plain QuasiProbRep runs the dense form
of every check, so the two must agree: same verdict, worst violation and
span residuals within 1e-12, and the same witness cell up to rounding ties.
"""

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import kdq.audit
import reference_audit as ref
from kdq import (
    Ordering,
    QuasiProbRep,
    ValidationError,
    check_condition1,
    check_condition2,
    check_condition3,
    check_span,
    computational_basis,
    evaluate,
    fourier_basis,
    kd_rep,
    make_condition2_violator,
    mixed_rep,
    random_basis,
    random_density,
    span_residual,
)
from kdq.audit import MAX_ARRAY_BYTES, _family
from kdq.cli import main
from test_audit_reference import _sharing_basis

DIMS = (2, 3, 4, 5, 8)
SAMPLES = 16


def _basis_pair(dim, pair):
    a = random_basis(dim, seed=400 + dim)
    if pair == "random":
        return a, random_basis(dim, seed=500 + dim)
    if pair == "identical":
        return a, a
    if pair == "computational-fourier":
        return computational_basis(dim), fourier_basis(dim)
    return a, _sharing_basis(a, seed=600 + dim)


def _term_reps(a, b):
    yield kd_rep(a, b)
    yield kd_rep(a, b, Ordering.BA)
    yield mixed_rep(a, b, 0.3)
    yield mixed_rep(a, b, 1.7)
    yield make_condition2_violator(a, b, 1e-3)


def _checks(seed):
    """Each check with its cell-by-cell reference, which records every cell's value."""
    return (
        (check_condition1, ref.check_condition1),
        (check_condition2, ref.check_condition2),
        (check_condition3, lambda r, cells: ref.check_condition3(r, samples=SAMPLES, seed=seed, cells=cells)),
        (check_span, ref.check_span),
    )


@pytest.mark.parametrize("pair", ["random", "identical", "computational-fourier", "shared"])
@pytest.mark.parametrize("dim", DIMS)
def test_term_checks_match_dense_checks(dim, pair):
    a, b = _basis_pair(dim, pair)
    rho = random_density(dim, dim, seed=dim)
    for i, rep in enumerate(_term_reps(a, b)):
        dense = QuasiProbRep(a, b, rep.operators)
        for check, oracle in _checks(seed=7 * dim + i):
            new, old = check(rep), check(dense)
            assert new.passed == old.passed, (rep.label, new, old)
            assert abs(new.worst_violation - old.worst_violation) <= 1e-12, (rep.label, new, old)
            key = ref.witness_key(new.witness)
            if key != ref.witness_key(old.witness):
                # a rounding-level tie may be broken the other way: the named
                # cell must carry the dense worst violation
                cells = {}
                oracle(dense, cells=cells)
                assert cells.get(key, -1.0) >= old.worst_violation - 1e-12, (new.witness, old.witness)
        new_res, old_res = span_residual(rep), span_residual(dense)
        np.testing.assert_array_equal(new_res.degenerate, old_res.degenerate)
        np.testing.assert_allclose(new_res.residuals, old_res.residuals, rtol=0, atol=1e-12)
        np.testing.assert_allclose(evaluate(rep, rho), evaluate(dense, rho), rtol=0, atol=1e-12)


def test_failing_term_rep_names_the_dense_witness():
    # strict violations with a unique worst cell: 0.01 P_3 added to cell
    # (1, 2) and 0.005 P_3 to cell (1, 3), as one more rank-1 term
    a, b = _basis_pair(4, "random")
    bump = np.zeros((4, 4))
    bump[1, 2], bump[1, 3] = 0.01, 0.005
    a3 = a.matrix[:, 3, None, None]
    rep = QuasiProbRep(a, b, terms=[*kd_rep(a, b).terms, (bump, a3, a3)])
    dense = QuasiProbRep(a, b, rep.operators)
    for check, _ in _checks(seed=5):
        new, old = check(rep), check(dense)
        assert not new.passed
        assert ref.witness_key(new.witness) == ref.witness_key(old.witness)


def test_general_term_rep_matches_dense():
    # complex coefficients and factors that vary with a, with b, or with
    # neither, so that every kernel sees shared and per-cell factors
    d, rng = 5, np.random.default_rng(9)

    def z(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a, b = _basis_pair(d, "random")
    rho = random_density(d, d, seed=3)
    for terms in (
        [(z(d, d), z(d, 1, 1), z(d, d, 1)), (z(d, d), z(d, 1, d), z(d, 1, 1)), (z(d, 1), z(d, d, 1), z(d, 1, d))],
        # every ket shared by all cells of a slice, the bras not
        [(z(d, d), z(d, 1, 1), z(d, d, 1)), (z(d, d), z(d, 1, 1), z(d, 1, d))],
    ):
        rep = QuasiProbRep(a, b, terms=terms)
        dense = QuasiProbRep(a, b, rep.operators)
        for check, _ in _checks(seed=2):
            new, old = check(rep), check(dense)
            assert new.passed == old.passed
            assert new.worst_violation == pytest.approx(old.worst_violation, rel=1e-12)
            assert ref.witness_key(new.witness) == ref.witness_key(old.witness)
        np.testing.assert_allclose(span_residual(rep).residuals, span_residual(dense).residuals, rtol=1e-12)
        np.testing.assert_allclose(evaluate(rep, rho), evaluate(dense, rho), rtol=0, atol=1e-12)


def test_lazy_operators_are_the_family_bit_for_bit():
    a, b = _basis_pair(4, "random")
    for rep in _term_reps(a, b):
        ops = rep.operators
        assert np.array_equal(ops, _family(rep.terms))
        assert ops.flags.c_contiguous and not ops.flags.writeable
        assert rep.operators is ops  # built once


def test_checks_never_expand_a_term_rep(monkeypatch):
    def refuse(terms):
        raise AssertionError("a check expanded the dense family")

    a, b = _basis_pair(5, "random")
    reps = list(_term_reps(a, b))
    monkeypatch.setattr(kdq.audit, "_family", refuse)
    rho = random_density(5, 5, seed=1)
    for rep in reps:
        check_condition1(rep), check_condition2(rep), check_condition3(rep), check_span(rep)
        evaluate(rep, rho)


def test_filled_dense_cache_does_not_change_the_path():
    a, b = _basis_pair(4, "random")
    fresh, filled = mixed_rep(a, b, 0.3), mixed_rep(a, b, 0.3)
    filled.operators
    for check in (check_condition1, check_condition2, check_condition3, check_span):
        assert check(fresh) == check(filled)


def test_non_finite_terms_rejected():
    a, b = _basis_pair(3, "random")
    for weight in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="^mixture weight must be a finite number"):
            mixed_rep(a, b, weight)


def test_audit_all_at_d48_stays_far_below_the_dense_family(capsys):
    d = 48
    tracemalloc.start()
    try:
        code = main(["audit", "--rep", "mixed:0.3", "--dim", str(d), "--all", "--samples", "20"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 16 * d**4 / 4, peak


def test_condition1_holds_one_row_sum_at_a_time():
    # stacking the d row sums, the d projectors and their difference would
    # take 16 d^3 bytes each (4.2 MB here)
    d = 64
    rep = kd_rep(computational_basis(d), fourier_basis(d))
    tracemalloc.start()
    try:
        report = check_condition1(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 16 * d**3, peak


def test_condition3_rejects_dim_1():
    one = computational_basis(1)
    for rep in (kd_rep(one, one), QuasiProbRep(one, one, np.ones((1, 1, 1, 1)))):
        with pytest.raises(ValidationError, match="dim >= 2"):
            check_condition3(rep)


def test_densifying_over_the_budget_is_refused():
    d = 100  # 16 * d**4 = 1.6 GB
    assert 16 * d**4 > MAX_ARRAY_BYTES
    rep = kd_rep(computational_basis(d), fourier_basis(d))
    with pytest.raises(ValidationError, match="limit per array") as info:
        rep.operators
    assert info.value.context["bytes"] == 16 * d**4
    assert check_condition1(rep).passed  # the checks themselves need no dense family


def _kdq_child(*argv):
    """``python -m kdq`` in a child that cannot map more than 4 GiB and must finish in 60 s.

    A refusal that went missing then fails the test instead of exhausting
    memory or hanging it.
    """
    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "kdq", *argv], capture_output=True, text=True, timeout=60, preexec_fn=limit
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["--rep", "wigner", "--dim", "8193", "--c1"],
        ["--rep", "kd", "--dim", "20000", "--c1"],
        ["--rep", "kd", "--dim", "1", "--c3", "--basis-b", "computational"],
    ],
    ids=["wigner-d8193", "kd-d20000", "c3-dim-1"],
)
def test_cli_refuses_oversized_or_empty_audits(argv):
    code, out, err = _kdq_child("audit", *argv)
    assert code == 2, err
    assert out == ""
    doc = json.loads(err)
    assert set(doc) == {"code", "message", "context"}
    assert doc["code"] == "validation"


def test_cli_accepts_a_sample_count_that_allocates_nothing():
    # C3 samples no states, so a billion of them costs nothing under the 4 GiB limit
    code, out, err = _kdq_child("audit", "--rep", "kd", "--dim", "4", "--samples", "1000000000", "--c3")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["condition"], doc["passed"], doc["samples_used"], doc["seed"]) == ("C3", True, 0, 0)
    assert doc["witness"] == "all compressions vanish" or doc["witness"].startswith("compression ")
