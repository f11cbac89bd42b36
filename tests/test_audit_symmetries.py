"""The audit keeps its verdicts under a joint unitary of the two bases.

For bases U a and U b, every shipped family's cell operators become
U Pi(a, b) U^dag: the overlaps <b|a> are unchanged and the factors rotate.
The checks read only what that leaves fixed (operator sums against the
projectors, eigenstate tables, compressions and span residuals, all
Frobenius norms or traces), so each verdict is the same and each worst
value moves by rounding alone.  The rotation is applied in floating point,
so it moves the bases by d eps or so too.

The span residual rounds with the conditioning of the span: ||W||^2 =
1 - |<b|a>|^4 divides it, so a pair with |<b|a>| = 0.99995 moved it by 242
eps.  Its moves are counted times 1 - max |<b|a>|^4.  Largest moves over
12,000 draws (d = 2..8, random bases and U; half at the parent, half here),
in units of eps = 2.2e-16: C1 6.1, C2 4.5, C3 2.9, span 5.7.  Each must
stay within 16.  kd, kd-ba and mixed:0.3 pass every check; the violator
passes C1 and fails the other three.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kdq import (
    Ordering,
    OrthonormalBasis,
    check_condition1,
    check_condition2,
    check_condition3,
    check_span,
    kd_rep,
    make_condition2_violator,
    mixed_rep,
    random_basis,
)
from kdq import io as kdq_io
from kdq.cli import main

EPS = np.finfo(float).eps
BOUND = 16 * EPS
REPS = {
    "kd": (lambda a, b: kd_rep(a, b), [True] * 4),
    "kd-ba": (lambda a, b: kd_rep(a, b, Ordering.BA), [True] * 4),
    "mixed:0.3": (lambda a, b: mixed_rep(a, b, 0.3), [True] * 4),
    "violator:1e-3": (lambda a, b: make_condition2_violator(a, b, 1e-3), [True, False, False, False]),
}


def _reports(rep):
    return [check_condition1(rep), check_condition2(rep), check_condition3(rep), check_span(rep)]


def _bases(d, seed):
    """Random bases a and b, and the same two after one random joint unitary."""
    a, b = random_basis(d, seed=seed), random_basis(d, seed=seed + 1)
    u = random_basis(d, seed=seed + 2).matrix
    return a, b, OrthonormalBasis(u @ a.matrix), OrthonormalBasis(u @ b.matrix)


def _assert_same_audit(before, after, verdicts, a, b):
    assert [r.passed for r in before] == [r.passed for r in after] == verdicts, (before, after)
    conditioning = 1 - np.abs(a.matrix.conj().T @ b.matrix).max() ** 4
    for old, new in zip(before, after):
        bound = BOUND / conditioning if old.condition == "Span" else BOUND
        assert abs(new.worst_violation - old.worst_violation) <= bound, (old, new)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 2**31))
def test_a_joint_unitary_keeps_every_verdict(d, seed):
    a, b, ua, ub = _bases(d, seed)
    for build, verdicts in REPS.values():
        _assert_same_audit(_reports(build(a, b)), _reports(build(ua, ub)), verdicts, a, b)


def test_rotated_bases_through_files_audit_alike(tmp_path):
    # the rotated pair read back from @file bases: the CLI reports what the library does
    d = 5
    a, b, ua, ub = _bases(d, seed=41)
    files = []
    for name, basis in (("a", ua), ("b", ub)):
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps(kdq_io.basis_to_dict(basis)))
    for spec, (build, verdicts) in REPS.items():
        argv = ["audit", "--rep", spec, "--dim", str(d), "--basis-a", f"@{files[0]}", "--basis-b", f"@{files[1]}", "--all"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(argv)
        assert code == (0 if all(verdicts) else 1)
        rotated = _reports(build(ua, ub))
        assert [json.loads(line) for line in out.getvalue().splitlines()] == [r.to_json_dict() for r in rotated]
        _assert_same_audit(_reports(build(a, b)), rotated, verdicts, a, b)
