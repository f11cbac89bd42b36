"""The kd path keeps the symmetries of the joint table <b|a><a|rho|b>.

Four maps of the inputs, each with an exact image of every output:

- rephasing: a basis vector times a phase leaves every output unchanged,
  as the phase enters once in <b|a> and once, conjugated, in <a|rho|b>;
- joint unitary covariance: bases U a and U b with state U rho U^dag and
  operator U M U^dag give the same table, marginals, weak values and P(m),
  and the inverse U rho U^dag;
- relabelling: permuting a basis permutes the table's rows or columns and
  the marginal, and leaves the inverse and P(m) unchanged;
- ordering: BA is the complex conjugate of AB, and so are the weak value
  <a|M^dag|b>/<a|b> and the decomposition of P(m) with the bases swapped.

Every output may move by 16 d eps (eps = 2.2e-16) times its own scale:
1 for tables and marginals, 1 / min |<b|a>| for the inverse, the divisor
of its cells, (1 + |w|) |M|_2 / |<b|a>| for a weak value w, and |M|_F for
P(m).  The maps are applied in floating point, so they move the inputs
too, by d eps or so.  Largest moves over 800 draws at each d in
{2, 3, 5, 16, 64} (random bases, a state of random rank, a Gaussian M),
in units of eps:

| map           | table | marginals | inverse | weak value | P(m) |
|---------------|-------|-----------|---------|------------|------|
| rephasing     | 2.2   | 2.5       | 3.6     | 9,441      | 10   |
| joint unitary | 10    | 12        | 8.0     | 26,942     | 35   |
| relabelling   | 0.77  | 1.0       | 1.0     | 0          | 6.1  |
| ordering      | 1.6   | 2.0       | 4.1     | 512        | 8.7  |

Relabelling is exact at most d, but not at all: the BLAS blocks a
permuted matrix differently.  The largest move relative to its bound was
0.34 of it (P(m) under a joint unitary).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kdq import (
    DensityOperator,
    LinearOperator,
    Ordering,
    OrthonormalBasis,
    StateVector,
    conditional_weak_value,
    kd_inverse,
    kd_marginal_a,
    kd_marginal_b,
    kd_transform,
    random_basis,
    random_density,
    total_probability,
)

EPS = np.finfo(float).eps
DIMS = [2, 3, 5, 16, 64]


class Case:
    """One draw: bases a and b, a state, an operator and one (a, b) index pair for the weak value."""

    def __init__(self, d: int, seed: int):
        rng = np.random.default_rng(seed)
        self.d = d
        self.am = random_basis(d, seed=seed).matrix
        self.bm = random_basis(d, seed=seed + 1).matrix
        self.rho = random_density(d, int(rng.integers(1, d + 1)), seed=seed + 2).matrix
        self.m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        self.i, self.j = (int(k) for k in rng.integers(d, size=2))
        self.rng = rng

    def outputs(self, am, bm, rho, m, ordering=Ordering.AB, ij=None) -> dict:
        """Every kd output for these inputs, in fresh objects; the weak value is taken at ``ij``."""
        i, j = ij or (self.i, self.j)
        a, b = OrthonormalBasis(am), OrthonormalBasis(bm)
        state = DensityOperator(rho)
        dist = kd_transform(state, a, b, ordering)
        return {
            "table": dist.table,
            "pa": kd_marginal_a(dist),
            "pb": kd_marginal_b(dist),
            "inverse": kd_inverse(dist).matrix,
            "weak": conditional_weak_value(LinearOperator(m), StateVector(am[:, i]), StateVector(bm[:, j])),
            "prob": total_probability(LinearOperator(m), DensityOperator(rho), a, b),
        }

    def bounds(self) -> dict:
        """What each output may move by under a map, from the module docstring."""
        cross = abs(self.bm.conj().T @ self.am)
        weak = abs(conditional_weak_value(
            LinearOperator(self.m), StateVector(self.am[:, self.i]), StateVector(self.bm[:, self.j])
        ))
        unit = 16 * self.d * EPS
        return {
            "table": unit, "pa": unit, "pb": unit,
            "inverse": unit / cross.min(),
            "weak": unit * (1 + weak) * np.linalg.norm(self.m, 2) / cross[self.j, self.i],
            "prob": unit * np.linalg.norm(self.m),
        }


def _dev(x, y) -> float:
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))


def rephasing(c: Case) -> dict:
    ph_a = np.exp(2j * np.pi * c.rng.random(c.d))
    ph_b = np.exp(2j * np.pi * c.rng.random(c.d))
    base = c.outputs(c.am, c.bm, c.rho, c.m)
    moved = c.outputs(c.am * ph_a, c.bm * ph_b, c.rho, c.m)
    return {k: _dev(moved[k], base[k]) for k in base}


def joint_unitary(c: Case) -> dict:
    u = random_basis(c.d, seed=int(c.rng.integers(2**32))).matrix
    base = c.outputs(c.am, c.bm, c.rho, c.m)
    moved = c.outputs(u @ c.am, u @ c.bm, u @ c.rho @ u.conj().T, u @ c.m @ u.conj().T)
    base["inverse"] = u @ base["inverse"] @ u.conj().T
    return {k: _dev(moved[k], base[k]) for k in base}


def relabelling(c: Case) -> dict:
    p, q = c.rng.permutation(c.d), c.rng.permutation(c.d)
    base = c.outputs(c.am, c.bm, c.rho, c.m)
    # the weak value's pair follows its vectors to their new labels
    moved = c.outputs(c.am[:, p], c.bm[:, q], c.rho, c.m, ij=(np.argsort(p)[c.i], np.argsort(q)[c.j]))
    base.update(table=base["table"][p][:, q], pa=base["pa"][p], pb=base["pb"][q])
    return {k: _dev(moved[k], base[k]) for k in base}


def ordering(c: Case) -> dict:
    ab = c.outputs(c.am, c.bm, c.rho, c.m)
    ba = c.outputs(c.am, c.bm, c.rho, c.m, Ordering.BA)
    m_adj = LinearOperator(c.m.conj().T)
    a, b = OrthonormalBasis(c.am), OrthonormalBasis(c.bm)
    swapped = {
        "weak": conditional_weak_value(m_adj, StateVector(c.bm[:, c.j]), StateVector(c.am[:, c.i])),
        "prob": total_probability(m_adj, DensityOperator(c.rho), b, a),
    }
    devs = {k: _dev(ba[k], np.conj(ab[k]) if k == "table" else ab[k]) for k in ("table", "pa", "pb", "inverse")}
    return devs | {k: _dev(swapped[k], np.conj(ab[k])) for k in swapped}


MAPS = {"rephasing": rephasing, "joint_unitary": joint_unitary, "relabelling": relabelling, "ordering": ordering}


def _check(name: str, d: int, seed: int) -> None:
    c = Case(d, seed)
    bounds = c.bounds()
    devs = MAPS[name](c)
    over = {k: (v, bounds[k]) for k, v in devs.items() if not v <= bounds[k]}
    assert not over, (name, d, seed, over)


CASES = dict(
    d=st.sampled_from(DIMS),
    seed=st.integers(0, 2**32 - 2),
)


@settings(max_examples=100, deadline=None)
@given(**CASES)
def test_rephasing_a_basis_vector_changes_no_output(d, seed):
    _check("rephasing", d, seed)


@settings(max_examples=100, deadline=None)
@given(**CASES)
def test_a_joint_unitary_changes_no_output_and_moves_the_inverse_with_it(d, seed):
    _check("joint_unitary", d, seed)


@settings(max_examples=100, deadline=None)
@given(**CASES)
def test_relabelling_a_basis_permutes_the_table_and_its_marginal(d, seed):
    _check("relabelling", d, seed)


@settings(max_examples=100, deadline=None)
@given(**CASES)
def test_the_ba_ordering_is_the_conjugate_of_ab(d, seed):
    _check("ordering", d, seed)
