"""C3's compression bounds every sampled complement state.

For a unit m with Q m = m, <m|Pi|m> = <m|Q Pi Q|m>, so
|<m|Pi|m>| <= ||Q Pi Q||_2 <= ||Q Pi Q||_F: a state drawn from the
complement can beat its cell's compression norm by rounding only, which is
why ``check_condition3`` reports the compression alone.  The reference's
complement sampler serves here as an oracle for that bound.
"""

import numpy as np
import pytest

import reference_audit as ref
from kdq import (
    Ordering,
    QuasiProbRep,
    check_condition3,
    computational_basis,
    fourier_basis,
    kd_rep,
    make_condition2_violator,
    mixed_rep,
    random_basis,
    wigner_as_rep,
)

SAMPLES = 64
EPS = np.finfo(float).eps


def rounding_bound(d: int, fro: np.ndarray, lean: np.ndarray) -> np.ndarray:
    """What a sampled |<m|X|m>| may add over ||Q X Q||_F, per sample and cell: (2 l + l^2 + 4 d eps) ||X||_F.

    Write m = m' + delta |v> with Q m' = m' and l = |delta| = |<v|m>|: the
    sampler projects off |v> twice in floating point, so l is rounding-level,
    about eps (once would leave up to eps ||z|| / ||Q z|| for its Gaussian
    draw z).  Then
    |<m|X|m>| <= ||Q X Q||_F + (2 l + l^2) ||X||_F.  Evaluating <m|X|m> sums
    d^2 products whose magnitudes add up to |m|^T |X| |m| <= ||X||_F, about
    2 d eps ||X||_F of rounding, and the compression norm has as much again.
    """
    return (2 * lean[:, None] + lean[:, None] ** 2 + 4 * d * EPS) * fro


BUILDERS = {
    "kd": lambda a, b: kd_rep(a, b),
    "kd-ba": lambda a, b: kd_rep(a, b, Ordering.BA),
    "mixed:0.3": lambda a, b: mixed_rep(a, b, 0.3),
    "violator:1e-3": lambda a, b: make_condition2_violator(a, b, 1e-3),
}
CASES = [(family, dim, pair) for family in BUILDERS for dim in (2, 3, 5, 8) for pair in ("fourier", "random")]
CASES += [("wigner", dim, "momentum") for dim in (3, 5)]


def _rep(family: str, dim: int, pair: str) -> QuasiProbRep:
    if family == "wigner":
        return wigner_as_rep(dim)
    if pair == "fourier":
        return BUILDERS[family](computational_basis(dim), fourier_basis(dim))
    return BUILDERS[family](random_basis(dim, seed=dim), random_basis(dim, seed=50 + dim))


@pytest.mark.parametrize("family, dim, pair", CASES, ids=[f"{f}-d{d}-{p}" for f, d, p in CASES])
def test_no_sampled_state_beats_its_cells_compression(family, dim, pair):
    rep = _rep(family, dim, pair)
    report = check_condition3(rep)
    dense = QuasiProbRep(rep.basis_a, rep.basis_b, rep.operators)
    rng = np.random.default_rng(1000 * dim + CASES.index((family, dim, pair)))
    eye = np.eye(dim)
    for axis, basis in ((0, rep.basis_a), (1, rep.basis_b)):
        for k in range(dim):
            v = basis.matrix[:, k]
            cells = dense._slices(axis, k)  # (d, d, d): the cells of row or column k
            q = eye - np.outer(v, v.conj())
            norms = np.array([np.linalg.norm(q @ x @ q) for x in cells])  # cell by cell, as the reference does
            m = ref.complement_samples(rng, v, SAMPLES)
            bound = rounding_bound(dim, np.linalg.norm(cells, axis=(1, 2)), np.abs(m @ v.conj()))
            vals = np.abs(np.einsum("si,cij,sj->sc", m.conj(), cells, m))
            assert (vals <= norms + bound).all(), (axis, k, (vals - norms - bound).max())
            # the report's worst value is a compression, so it bounds every sample too
            assert (vals <= report.worst_violation + bound).all(), (axis, k)
            if dim == 2:  # a one-dimensional complement: every sample attains its compression
                assert (vals >= norms - bound).all(), (axis, k)
    assert report.passed == (family in ("kd", "kd-ba", "mixed:0.3"))
    assert (report.samples_used, report.seed) == (0, 0)
    assert report.witness == "all compressions vanish" or report.witness.startswith("compression ")
    assert report.worst_violation == pytest.approx(ref.check_condition3(rep).worst_violation, rel=0, abs=1e-12)


@pytest.mark.parametrize("family, dim, pair", CASES, ids=[f"{f}-d{d}-{p}" for f, d, p in CASES])
def test_each_sample_is_orthogonal_to_its_vector_within_two_eps(family, dim, pair):
    """Projected off v twice, a sample keeps |<v|m>| <= 2 eps; once left up to 42 eps over these cases."""
    rep = _rep(family, dim, pair)
    rng = np.random.default_rng(1000 * dim + CASES.index((family, dim, pair)))
    for basis in (rep.basis_a, rep.basis_b):
        for v in basis.matrix.T:
            m = ref.complement_samples(rng, v, SAMPLES)
            assert np.abs(m @ v.conj()).max() <= 2 * EPS
