"""KL penalty objective over nonnegative linear systems."""

import numpy as np
import pytest

from pinkhorn import (
    ConstraintSystem,
    Hyperplane,
    OTProblem,
    as_constraint_system,
    eval_f,
    eval_fi,
    grad_fi,
)
from pinkhorn.cli import main


def small_system():
    # <x0 + x1> = 2 and <2 x1 + x2> = 3 over d = 3
    rows = [
        Hyperplane(indices=[0, 1], values=[1.0, 1.0], b=2.0),
        Hyperplane(indices=[1, 2], values=[2.0, 1.0], b=3.0),
    ]
    return ConstraintSystem.from_rows(rows, dimension=3)


class TestConstraintSystem:
    def test_defaults_and_counts(self):
        sys_ = small_system()
        assert sys_.n_constraints == 2
        assert sys_.n_blocks == 2
        assert sys_.blocks == [[0], [1]]
        np.testing.assert_array_equal(sys_.b, [2.0, 3.0])

    def test_dots_matches_dense_product(self):
        rng = np.random.default_rng(20)
        A = rng.uniform(0.0, 2.0, (5, 9))
        A[rng.random((5, 9)) < 0.5] = 0.0
        A[:, 0] = 1.0  # keep every row nonempty
        b = rng.uniform(0.5, 2.0, 5)
        sys_ = ConstraintSystem.from_dense(A, b)
        for _ in range(20):
            x = rng.uniform(0.1, 3.0, 9)
            np.testing.assert_allclose(sys_.dots(x), A @ x, rtol=1e-13)

    def test_from_triplets(self):
        trips = [(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]
        sys_ = ConstraintSystem.from_triplets(trips, b=[1.0, 2.0])
        assert sys_.dimension == 3
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(sys_.dots(x), [7.0, 6.0])
        with pytest.raises(ValueError):
            ConstraintSystem.from_triplets([(5, 0, 1.0)], b=[1.0])

    def test_explicit_blocks_validated(self):
        rows = [
            Hyperplane(indices=[0], values=[1.0], b=1.0),
            Hyperplane(indices=[1], values=[1.0], b=1.0),
            Hyperplane(indices=[0, 2], values=[1.0, 1.0], b=1.0),
        ]
        sys_ = ConstraintSystem.from_rows(rows, dimension=3, blocks=[[0, 1], [2]])
        assert sys_.n_blocks == 2
        # rows 0 and 2 share coordinate 0, so they cannot share a block
        with pytest.raises(ValueError):
            ConstraintSystem.from_rows(rows, dimension=3, blocks=[[0, 2], [1]])
        # partition must cover every row exactly once
        with pytest.raises(ValueError):
            ConstraintSystem.from_rows(rows, dimension=3, blocks=[[0, 1]])
        with pytest.raises(ValueError):
            ConstraintSystem.from_rows(rows, dimension=3, blocks=[[0, 1], [1, 2]])

    @pytest.mark.parametrize("entry", [0.7, 1.0, np.float64(1.0), "1", None])
    def test_block_entries_must_be_integers(self, entry):
        # a float is not truncated to a row index
        rows = [Hyperplane(indices=[j], values=[1.0], b=1.0) for j in range(3)]
        with pytest.raises(ValueError, match="integer row indices"):
            ConstraintSystem.from_rows(rows, dimension=3, blocks=[[0, entry], [2]])
        sys_ = ConstraintSystem.from_rows(rows, dimension=3, blocks=[np.array([0, 1]), [np.int32(2)]])
        assert sys_.blocks == [[0, 1], [2]]
        assert all(type(i) is int for block in sys_.blocks for i in block)

    def test_construction_errors(self):
        row = Hyperplane(indices=[0, 4], values=[1.0, 1.0], b=1.0)
        with pytest.raises(ValueError):
            ConstraintSystem.from_rows([], dimension=3)
        with pytest.raises(TypeError):
            ConstraintSystem.from_rows([(0, 1.0)], dimension=3)
        with pytest.raises(ValueError):
            ConstraintSystem.from_rows([row], dimension=4)  # index 4 needs dimension 5
        with pytest.raises(ValueError):
            ConstraintSystem.from_rows([row], dimension=0)


_A = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 1.0]])
_B = [1.0, 2.0]


def _with(i, j, value):
    A = _A.copy()
    A[i, j] = value
    return A


def _dense(A, b=_B):
    return lambda: ConstraintSystem.from_dense(A, b)


def _triplets(A, b=_B):
    # every entry, explicit zeros included
    trips = [(i, j, A[i, j]) for i in range(A.shape[0]) for j in range(A.shape[1])]
    return lambda: ConstraintSystem.from_triplets(trips, b, dimension=A.shape[1])


_VALUE, _TARGET, _EMPTY = "row values must be", "target b must be", "at least one positive entry"
_INVALID = {
    "negative value": (_with(0, 1, -1.0), _B, _VALUE),
    "nan value": (_with(0, 1, np.nan), _B, _VALUE),
    "inf value": (_with(1, 2, np.inf), _B, _VALUE),
    "row empty once zeros drop": (np.array([[0.0, 0.0, 0.0], [0.0, 3.0, 1.0]]), _B, _EMPTY),
    "zero b": (_A, [1.0, 0.0], _TARGET),
    "negative b": (_A, [-1.0, 2.0], _TARGET),
    "nan b": (_A, [np.nan, 2.0], _TARGET),
    "inf b": (_A, [1.0, np.inf], _TARGET),
}
_INVALID_BUILDS = {
    f"{kind} {name}": (build(A, b), match)
    for name, (A, b, match) in _INVALID.items()
    for kind, build in (("dense", _dense), ("triplets", _triplets))
}
_INVALID_BUILDS["triplets duplicate pair"] = (
    lambda: ConstraintSystem.from_triplets([(0, 0, 1.0), (0, 0, 2.0), (1, 1, 1.0)], _B, dimension=3),
    "must be distinct",
)
_INVALID_BUILDS["triplets column >= dimension"] = (
    lambda: ConstraintSystem.from_triplets([(0, 0, 1.0), (1, 3, 1.0)], _B, dimension=3),
    "references index 3 >= dimension 3",
)


def _ot_system():
    rng = np.random.default_rng(23)
    p, q = rng.uniform(0.5, 1.5, 4), rng.uniform(0.5, 1.5, 7)
    return as_constraint_system(OTProblem(cost=rng.random((4, 7)), gamma=0.5, p=p / p.sum(), q=q / q.sum()))


# rows 0 and 1 of a 0/1 system cover 3 of its 5 coordinates; listed as
# [[2], [1, 0]] the rows are stored out of the caller's order
UNIT_PARTIAL = np.array([[1.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 1.0, 1.0]])


def _per_entry_step(system, x, s, block, eta):
    """x_j * exp((a_ij * eta) * r_i) on each row i of the block, r_i = log b_i - log s_i; x elsewhere."""
    z = x.copy()
    for i in system.blocks[block]:
        row = system.rows[i]
        r = np.log(row.b) - np.log(s[i])
        z[row.indices] = x[row.indices] * np.exp((row.values * eta) * r)
    return z


class TestBlockUpdate:
    """block_update and dots equal the per-entry formulas bit for bit, on every path."""

    @pytest.mark.parametrize(
        "build, covers",
        [
            # the marginal system: rows, then columns, each block covering x
            pytest.param(_ot_system, [True, True], id="ot"),
            pytest.param(
                lambda: ConstraintSystem.from_dense(UNIT_PARTIAL, [2.0, 1.0, 3.0], blocks=[[0, 1], [2]]),
                [False, False],
                id="partial",
            ),
            pytest.param(
                lambda: ConstraintSystem.from_dense(UNIT_PARTIAL, [2.0, 1.0, 3.0], blocks=[[2], [1, 0]]),
                [False, False],
                id="partial_reordered",
            ),
            # general coefficients keep one exp per entry, here on a covering block
            pytest.param(
                lambda: ConstraintSystem.from_dense([[2.0, 0.5, 0.0], [0.0, 0.0, 3.0]], [1.0, 2.0], [[0, 1]]),
                [True],
                id="general_covering",
            ),
        ],
    )
    @pytest.mark.parametrize("eta", [0.5, 1.0, 1.5])
    def test_matches_per_entry_formula(self, build, covers, eta):
        system = build()
        assert system._covers == covers
        rng = np.random.default_rng(24)
        for _ in range(5):
            x = rng.uniform(0.1, 3.0, system.dimension)
            s = system.dots(x)
            # each row's products, summed in the order reduceat sums a segment
            per_row = [np.add.reduceat(x[row.indices] * row.values, [0])[0] for row in system.rows]
            assert np.array_equal(s, per_row)
            for block in range(system.n_blocks):
                out = np.full_like(x, np.nan)
                system.block_update(x, s, block, eta, out, system._workspace())
                assert np.array_equal(out, _per_entry_step(system, x, s, block, eta))


class TestConstruction:
    @pytest.mark.parametrize("build, match", list(_INVALID_BUILDS.values()), ids=list(_INVALID_BUILDS))
    def test_rejects_invalid_input(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    @pytest.mark.parametrize("build", [_dense(_A), _triplets(_A)], ids=["dense", "triplets"])
    def test_explicit_zeros_are_dropped(self, build):
        system = build()
        np.testing.assert_array_equal(system.rows[0].indices, [0, 2])
        np.testing.assert_array_equal(system.rows[0].values, [1.0, 2.0])
        np.testing.assert_array_equal(system.rows[1].indices, [1, 2])
        np.testing.assert_array_equal(system.dots(np.array([1.0, 2.0, 3.0])), [7.0, 9.0])

    def test_only_rows_builds_hyperplanes(self, monkeypatch):
        made = []
        init = Hyperplane.__init__

        def counting_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Hyperplane, "__init__", counting_init)
        prob = OTProblem(cost=np.arange(12.0).reshape(3, 4), gamma=1.0, p=[0.5, 0.25, 0.25], q=[0.25] * 4)
        systems = [
            as_constraint_system(prob),
            ConstraintSystem.from_dense(_A, _B),
            ConstraintSystem.from_triplets([(0, 0, 1.0), (1, 1, 2.0)], _B),
        ]
        assert made == []
        for system in systems:
            rows = system.rows
            assert len(made) == system.n_constraints
            assert system.rows is rows
            assert len(made) == system.n_constraints
            made.clear()

    def test_every_door_runs_the_constructor_once(self, monkeypatch, tmp_path):
        built = []
        init = ConstraintSystem.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ConstraintSystem, "__init__", counting_init)
        A = np.array([[1.0, 0.0, 2.0, 0.0], [0.0, 3.0, 1.0, 0.0], [0.0, 0.0, 0.0, 4.0]])
        b, blocks = [1.0, 2.0, 3.0], [[2, 0], [1]]  # block 0 is not in row order
        row, col = np.nonzero(A)
        (tmp_path / "A.csv").write_text("1,0,2,0\n0,3,1,0\n0,0,0,4\n")
        (tmp_path / "b.csv").write_text("1\n2\n3\n")
        prob = OTProblem(cost=np.arange(6.0).reshape(2, 3), gamma=1.0, p=[0.5, 0.5], q=[0.25, 0.25, 0.5])
        doors = {
            "constructor": lambda: ConstraintSystem(row, col, A[row, col], b, 4, blocks),
            "from_rows": lambda: ConstraintSystem.from_rows(
                [Hyperplane(indices=np.flatnonzero(a), values=a[a > 0], b=t) for a, t in zip(A, b)], 4, blocks
            ),
            "from_dense": lambda: ConstraintSystem.from_dense(A, b, blocks),
            "from_triplets": lambda: ConstraintSystem.from_triplets(list(zip(row, col, A[row, col])), b, 4, blocks),
            "as_constraint_system": lambda: as_constraint_system(prob),
            "pinkhorn system": lambda: main(
                ["system", "--matrix", str(tmp_path / "A.csv"), "--b", str(tmp_path / "b.csv"), "--blocks", str(blocks)]
            ),
        }
        for name, door in doors.items():
            built.clear()
            door()
            assert len(built) == 1, name
            system = built[0]
            again = ConstraintSystem.from_rows(system.rows, system.dimension, system.blocks)
            assert len(built) == 2
            for attr in ("_indices", "_data", "_indptr", "b"):
                np.testing.assert_array_equal(getattr(again, attr), getattr(system, attr), err_msg=name)
            assert again.blocks == system.blocks


class TestObjective:
    def test_eval_fi_known_value(self):
        # s = 4 against b = 2: 4 log 2 - 4 + 2
        sys_ = small_system()
        x = np.array([1.0, 3.0, 1.0])
        assert eval_fi(sys_, 0, x) == pytest.approx(0.7725887222397811, rel=1e-12)

    def test_grad_fi_known_value(self):
        # grad is a_j log(s / b) on the support, zero elsewhere
        sys_ = small_system()
        x = np.array([1.0, 3.0, 1.0])
        g = grad_fi(sys_, 0, x)
        np.testing.assert_allclose(
            g, [0.6931471805599453, 0.6931471805599453, 0.0], rtol=1e-12
        )
        g1 = grad_fi(sys_, 1, x)
        assert g1[0] == 0.0
        np.testing.assert_allclose(
            g1[1:], [2.0 * np.log(7.0 / 3.0), np.log(7.0 / 3.0)], rtol=1e-12
        )

    def test_grad_vanishes_at_feasible_point(self):
        sys_ = small_system()
        x = np.array([1.5, 0.5, 2.0])  # satisfies both rows exactly
        for i in range(sys_.n_constraints):
            assert eval_fi(sys_, i, x) == pytest.approx(0.0, abs=1e-15)
            np.testing.assert_allclose(grad_fi(sys_, i, x), 0.0, atol=1e-15)

    def test_eval_f_aggregates(self):
        rng = np.random.default_rng(21)
        sys_ = small_system()
        for _ in range(20):
            x = rng.uniform(0.2, 3.0, 3)
            res = eval_f(sys_, x)
            per = np.array([eval_fi(sys_, i, x) for i in range(2)])
            np.testing.assert_allclose(res.per_constraint_kl, per, rtol=1e-12)
            assert res.objective == pytest.approx(per.sum(), rel=1e-12)
            s = sys_.dots(x)
            assert res.l1_violation == pytest.approx(np.abs(s - sys_.b).sum(), rel=1e-12)
            assert res.objective >= 0.0

    @pytest.mark.parametrize("length", [2, 5])
    def test_x_of_the_wrong_length_is_rejected(self, length):
        # read by its prefix, a longer x would give dots [2, 2]
        sys_ = ConstraintSystem.from_dense([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], [1.0, 1.0])
        x = np.ones(length)
        for evaluate in (sys_.dots, lambda x: eval_f(sys_, x), lambda x: eval_fi(sys_, 0, x), lambda x: grad_fi(sys_, 1, x)):
            with pytest.raises(ValueError, match=r"x has shape"):
                evaluate(x)
        np.testing.assert_array_equal(sys_.dots(np.ones(3)), [2.0, 2.0])

    def test_objective_zero_iff_feasible(self):
        sys_ = small_system()
        feasible = np.array([1.5, 0.5, 2.0])
        assert eval_f(sys_, feasible).objective == 0.0
        assert eval_f(sys_, feasible).l1_violation == pytest.approx(0.0, abs=1e-15)
        assert eval_f(sys_, feasible + 0.1).objective > 0.0


class TestSmoothness:
    def test_block_smooth_constants(self):
        # default blocks are singletons, so each block constant is its row's
        rows = [
            Hyperplane(indices=[0, 1], values=[1.0, 1.0], b=1.0),
            Hyperplane(indices=[0, 2], values=[0.5, 3.0], b=1.0),
        ]
        sys_ = ConstraintSystem.from_rows(rows, dimension=3)
        assert sys_.block_smooth_constant(0) == 1.0
        assert sys_.block_smooth_constant(1) == 3.0
        assert sys_.smooth_constant() == 4.0

    def test_smoothness_inequality_holds_empirically(self):
        # D_{f_i}(x, y) <= L_i * KL(x, y) must hold for sampled pairs
        rng = np.random.default_rng(22)
        rows = [
            Hyperplane(indices=[0, 1, 2], values=[1.0, 1.0, 1.0], b=2.0),
            Hyperplane(indices=[1, 3], values=[2.5, 0.3], b=1.0),
        ]
        sys_ = ConstraintSystem.from_rows(rows, dimension=4)
        from pinkhorn import kl_div

        for i in range(2):
            li = sys_.block_smooth_constant(i)
            for _ in range(200):
                x = rng.uniform(0.1, 4.0, 4)
                y = rng.uniform(0.1, 4.0, 4)
                bregman_f = (
                    eval_fi(sys_, i, x)
                    - eval_fi(sys_, i, y)
                    - float(grad_fi(sys_, i, y) @ (x - y))
                )
                assert bregman_f <= li * kl_div(x, y) + 1e-10
