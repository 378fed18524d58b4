"""Transform-level algebra: mutations, matrices, crossover, selection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import revde_recursion
from revde.transforms import (
    MatrixKind,
    Population,
    apply_triplet_transform,
    binomial_crossover,
    build_matrix,
    de_mutation,
    determinant,
    eigen_report,
    invert_triplet_transform,
    repair_bounds,
    select_survivors,
)

# 64 values spanning (0, 2] at spacing 1/32
F_GRID = np.arange(1, 65) / 32.0
# common hand-picked scale factors, including two off the 1/32 lattice
SPOT_FS = (0.125, 0.25, 0.375, 0.5, 0.6, 0.625, 0.675, 0.75)


class FixedUniforms:
    """Stands in for a Generator whose next uniform draws are known."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, shape):
        assert shape == self.u.shape
        return self.u


class TestDeMutation:
    def test_f_zero_returns_base(self):
        out = de_mutation([1.0, 1.0], [2.0, 0.0], [0.0, 2.0], 0.0)
        assert np.array_equal(out, [1.0, 1.0])

    def test_half_scaling(self):
        # hand-computed: [1,1] + 0.5*([2,0]-[0,2]) = [2,0]
        out = de_mutation([1.0, 1.0], [2.0, 0.0], [0.0, 2.0], 0.5)
        assert np.array_equal(out, [2.0, 0.0])

    def test_identical_pair_is_noop(self):
        x = np.array([3.0, -1.0, 7.0])
        out = de_mutation(np.zeros(3), x, x, 1.7)
        assert np.array_equal(out, np.zeros(3))

    def test_inputs_not_modified(self):
        base = np.array([1.0, 2.0])
        a, b = np.array([5.0, 5.0]), np.array([1.0, 0.0])
        de_mutation(base, a, b, 0.9)
        assert np.array_equal(base, [1.0, 2.0])
        assert np.array_equal(a, [5.0, 5.0])
        # large enough for numpy to reuse a temporary's buffer: the
        # caller's arrays must still come back untouched
        big = np.random.default_rng(0).normal(size=(3, 200, 100))
        saved = big.copy()
        de_mutation(big[0], big[1], big[2], 0.9)
        a, b = big[1].copy(), big[2].copy()
        de_mutation(big[0], a, b, 0.9)
        assert np.array_equal(big, saved)
        assert np.array_equal(a, saved[1]) and np.array_equal(b, saved[2])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            de_mutation([1.0, 2.0], [1.0], [0.0, 0.0], 0.5)


class TestDex3Mutation:
    """DEx3 is one de_mutation call: a (1, D) base against (3, D) pairs."""

    def test_f_zero_three_copies(self):
        outs = de_mutation([[9.0]], [[1.0], [2.0], [3.0]], [[0.0]] * 3, 0.0)
        assert outs.shape == (3, 1)
        assert np.array_equal(outs, [[9.0]] * 3)

    def test_unit_scaling_maps_pairs(self):
        outs = de_mutation([[0.0]], [[1.0], [2.0], [3.0]], [[0.0]] * 3, 1.0)
        assert np.array_equal(outs, [[1.0], [2.0], [3.0]])

    def test_identical_pairs_identical_outputs(self):
        y1, y2, y3 = de_mutation([[0.0, 0.0]], [[1.0, 2.0]] * 3, [[0.5, 0.5]] * 3, 0.8)
        assert np.array_equal(y1, y2)
        assert np.array_equal(y2, y3)


class TestBuildMatrix:
    def test_ade_entries_at_half(self):
        m = build_matrix(MatrixKind.ADE_M, 0.5)
        want = np.array([[1, 0.5, -0.5], [-0.5, 1, 0.5], [0.5, -0.5, 1]])
        assert np.array_equal(m, want)

    def test_revde_entries_at_half(self):
        # row 3 from the cubic expansion: [F+F^2, -F+F^2+F^3, 1-2F^2-F^3]
        # at F=0.5 that is [0.75, -0.125, 0.375]; cross-checked against the
        # literal substitution recursion on basis vectors
        m = build_matrix(MatrixKind.REVDE_R, 0.5)
        want = np.array(
            [[1.0, 0.5, -0.5], [-0.5, 0.75, 0.75], [0.75, -0.125, 0.375]]
        )
        assert np.array_equal(m, want)

    def test_f_zero_identity(self):
        for kind in MatrixKind:
            assert np.array_equal(build_matrix(kind, 0.0), np.eye(3))

    def test_ade_minus_identity_antisymmetric(self):
        for f in F_GRID:
            a = build_matrix(MatrixKind.ADE_M, f) - np.eye(3)
            assert np.array_equal(a, -a.T)

    def test_entries_read_only(self):
        m = build_matrix(MatrixKind.ADE_M, 0.25)
        assert m.shape == (3, 3) and m.dtype == np.float64
        with pytest.raises(ValueError):
            m[0, 0] = 5.0

    def test_negative_f_rejected(self):
        with pytest.raises(ValueError):
            build_matrix(MatrixKind.REVDE_R, -0.1)


class TestTripletTransform:
    def test_identity_passthrough(self):
        m = build_matrix(MatrixKind.ADE_M, 0.0)
        x = np.array([[1.0], [2.0], [3.0]])
        assert np.array_equal(apply_triplet_transform(m, x), x)

    def test_ade_first_row_is_de_mutation(self):
        rng = np.random.default_rng(11)
        for f in (0.25, 0.5, 0.9):
            m = build_matrix(MatrixKind.ADE_M, f)
            x1, x2, x3 = x = rng.normal(size=(3, 6))
            y1 = apply_triplet_transform(m, x)[0]
            assert np.allclose(y1, de_mutation(x1, x2, x3, f), atol=1e-12, rtol=0)

    def test_ade_rows_match_componentwise_equations(self):
        # y1 = x1 + F(x2-x3); y2 = x2 + F(x3-x1); y3 = x3 + F(x1-x2)
        rng = np.random.default_rng(7)
        f = 0.675
        m = build_matrix(MatrixKind.ADE_M, f)
        x1, x2, x3 = x = rng.normal(size=(3, 10))
        y1, y2, y3 = apply_triplet_transform(m, x)
        assert np.allclose(y1, x1 + f * (x2 - x3), atol=1e-12, rtol=0)
        assert np.allclose(y2, x2 + f * (x3 - x1), atol=1e-12, rtol=0)
        assert np.allclose(y3, x3 + f * (x1 - x2), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("dim", [1, 10, 100])
    def test_revde_matches_recursion_oracle(self, dim):
        rng = np.random.default_rng(dim)
        for f in (0.125, 0.5, 0.75, 2.0):
            m = build_matrix(MatrixKind.REVDE_R, f)
            x = rng.normal(scale=5.0, size=(333, 3, dim))   # 333 stacked triplets
            got = apply_triplet_transform(m, x)
            want = np.stack(revde_recursion(x[:, 0], x[:, 1], x[:, 2], f), axis=1)
            assert got.shape == x.shape
            assert np.max(np.abs(got - want)) < 1e-12

    def test_rejects_unstacked_input(self):
        m = build_matrix(MatrixKind.ADE_M, 0.5)
        with pytest.raises(ValueError):
            apply_triplet_transform(m, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            invert_triplet_transform(m, np.zeros(3))


class TestReversibility:
    @pytest.mark.parametrize("kind", list(MatrixKind))
    def test_round_trip_across_grid(self, kind):
        rng = np.random.default_rng(3)
        for f in (*F_GRID, *SPOT_FS):
            m = build_matrix(kind, f)
            x = rng.normal(scale=10.0, size=(3, 8))
            back = invert_triplet_transform(m, apply_triplet_transform(m, x))
            for orig, rec in zip(x, back):
                rel = np.max(np.abs(rec - orig)) / max(1.0, np.max(np.abs(orig)))
                assert rel < 1e-9


class TestMatrixProperties:
    """The paper's identities on the array build_matrix returns, at random F and D."""

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(list(MatrixKind)),
           f=st.floats(0.0, 4.0, exclude_min=True, allow_subnormal=False),
           dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_determinants_and_round_trip(self, kind, f, dim, seed):
        m = build_matrix(kind, f)
        assert isinstance(m, np.ndarray) and m.shape == (3, 3) and not m.flags.writeable
        # cofactor terms are products of three entries: rounding scales with max|m|^3
        scale = np.abs(m).max() ** 3
        want = 1.0 + 3.0 * f * f if kind is MatrixKind.ADE_M else 1.0
        assert abs(determinant(m) - want) <= 1e-14 * scale

        x = np.random.default_rng(seed).normal(scale=10.0, size=(5, 3, dim))
        back = invert_triplet_transform(m, apply_triplet_transform(m, x))
        assert back.shape == x.shape
        assert np.max(np.abs(back - x)) <= 1e-14 * scale * max(1.0, np.max(np.abs(x)))


class TestCrossover:
    def test_all_ones_takes_trial(self):
        v = binomial_crossover([1.0, 2.0], [9.0, 9.0], 0.5, FixedUniforms([0.1, 0.4]))
        assert np.array_equal(v, [1.0, 2.0])

    def test_all_zeros_takes_parent(self):
        v = binomial_crossover([1.0, 2.0], [9.0, 9.0], 0.5, FixedUniforms([0.5, 0.9]))
        assert np.array_equal(v, [9.0, 9.0])

    def test_elementwise_selection(self):
        v = binomial_crossover([1.0, 2.0, 3.0], [9.0, 9.0, 9.0], 0.5,
                               FixedUniforms([0.1, 0.7, 0.3]))
        assert np.array_equal(v, [1.0, 9.0, 3.0])

    def test_idempotent_on_equal_vectors(self):
        x = np.array([4.0, -2.0, 0.5])
        assert np.array_equal(binomial_crossover(x, x, 0.5, np.random.default_rng(3)), x)

    def test_mask_sampler_rate_and_determinism(self):
        rng = np.random.default_rng(0)
        out = binomial_crossover(np.ones(100_000), np.zeros(100_000), 0.9, rng)
        assert abs(out.mean() - 0.9) < 0.01
        # the bits are exactly one rng.random(trials.shape) draw
        mask = np.random.default_rng(0).random(100_000) < 0.9
        assert np.array_equal(out, mask)

    def test_mask_rate_validation(self):
        rng = np.random.default_rng(0)
        for bad in (0.0, -0.1, 1.2):
            with pytest.raises(ValueError):
                binomial_crossover(np.ones(4), np.zeros(4), bad, rng)
        # rate 1.0 is legal and takes every coordinate from the trial
        assert binomial_crossover(np.ones(16), np.zeros(16), 1.0, rng).all()

    def test_parents_broadcast_over_trials(self):
        # one base per slot shared by its three trials, as DEx3 builds them
        trials = np.arange(12.0).reshape(2, 3, 2)
        parents = np.array([[[-1.0, -1.0]], [[-2.0, -2.0]]])
        u = np.tile([0.1, 0.9], (2, 3, 1))
        out = binomial_crossover(trials, parents, 0.5, FixedUniforms(u))
        assert np.array_equal(out[..., 0], trials[..., 0])
        assert np.array_equal(out[..., 1], [[-1.0] * 3, [-2.0] * 3])
        with pytest.raises(ValueError):
            binomial_crossover(np.zeros((1, 2)), np.zeros((3, 2)), 0.5, np.random.default_rng(0))


class TestRepairBounds:
    def test_clipping(self):
        out = repair_bounds([6.0, -6.0], np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
        assert np.array_equal(out, [5.0, -5.0])

    def test_in_bounds_unchanged(self):
        x = np.array([0.5, -4.9])
        out = repair_bounds(x, np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
        assert np.array_equal(out, x)

    def test_boundary_is_legal(self):
        out = repair_bounds([-5.0, 5.0], np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
        assert np.array_equal(out, [-5.0, 5.0])

    def test_idempotent(self):
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        x = np.array([-3.0, 0.2, 9.0])
        once = repair_bounds(x, lo, hi)
        assert np.array_equal(repair_bounds(once, lo, hi), once)

    def test_batch_rows(self):
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        out = repair_bounds(np.array([[2.0, -1.0], [0.5, 0.5]]), lo, hi)
        assert np.array_equal(out, [[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError):
            repair_bounds(np.zeros((2, 3)), lo, hi)


class TestSelection:
    def _pop(self, members, values, generation=0):
        return Population(
            members=np.asarray(members, dtype=float),
            values=np.asarray(values, dtype=float),
            generation=generation,
        )

    def test_elitism_when_offspring_worse(self):
        old = self._pop(np.arange(8).reshape(4, 2), [1.0, 2.0, 3.0, 4.0])
        offspring = np.arange(8).reshape(4, 2) + 100.0
        out = select_survivors(old, offspring, np.array([10.0, 11.0, 12.0, 13.0]))
        assert np.array_equal(out.members, old.members)
        assert np.array_equal(out.values, old.values)
        assert out.generation == 1

    def test_mixed_pool_keeps_lowest(self):
        old = self._pop([[0.0], [1.0], [2.0], [3.0]], [3.0, 2.0, 5.0, 6.0])
        offspring = np.array([[10.0], [11.0], [12.0], [13.0]])
        out = select_survivors(old, offspring, np.array([1.0, 4.0, 9.0, 9.5]))
        assert sorted(out.values.tolist()) == [1.0, 2.0, 3.0, 4.0]

    def test_all_ties_keep_old_members(self):
        old = self._pop([[0.0], [1.0], [2.0], [3.0]], [7.0] * 4)
        offspring = np.array([[50.0], [51.0], [52.0], [53.0]])
        out = select_survivors(old, offspring, np.array([7.0] * 4))
        assert np.array_equal(out.members, old.members)

    def test_unevaluated_population_rejected(self):
        # a population always has values, so selection never meets one without
        with pytest.raises(ValueError, match="values must have shape"):
            Population(members=np.zeros((4, 1)), values=None)

    def test_nan_offspring_rejected(self):
        old = self._pop(np.zeros((4, 1)), [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            select_survivors(old, np.zeros((4, 1)), np.array([1.0, np.nan, 2.0, 3.0]))

    def test_best_never_lost(self):
        rng = np.random.default_rng(21)
        old = self._pop(rng.normal(size=(6, 3)), rng.uniform(1, 9, 6))
        offspring = rng.normal(size=(18, 3))
        off_values = rng.uniform(1, 9, 18)
        out = select_survivors(old, offspring, off_values)
        assert out.values.min() == min(old.values.min(), off_values.min())
        assert out.size == 6


# objective values for selection pools: failed repressilator solves score
# +inf, so infinities and exact ties are the common case, not the edge case
POOL_VALUE = st.one_of(st.sampled_from([np.inf, np.inf, -np.inf, 0.0, 1.0]),
                       st.floats(allow_nan=False))


@st.composite
def selection_pools(draw):
    """(parent values, offspring values) for one selection."""
    parents = draw(st.lists(POOL_VALUE, min_size=4, max_size=12))
    offspring = draw(st.lists(POOL_VALUE, min_size=1, max_size=3 * len(parents)))
    return np.array(parents), np.array(offspring)


class TestSelectionProperties:
    @staticmethod
    def _select(parent_values, offspring_values):
        """Select from a pool whose one-column members are their pool positions."""
        size = parent_values.size
        old = Population(members=np.arange(size, dtype=float)[:, None],
                         values=parent_values, generation=3)
        offspring = np.arange(size, size + offspring_values.size, dtype=float)[:, None]
        return select_survivors(old, offspring, offspring_values)

    @settings(max_examples=300, deadline=None)
    @given(selection_pools())
    def test_matches_sort_on_value_origin_index(self, pool):
        parent_values, offspring_values = pool
        out = self._select(parent_values, offspring_values)
        size = parent_values.size
        values = np.concatenate([parent_values, offspring_values])
        ranked = sorted(range(values.size), key=lambda p: (
            values[p], p >= size, p if p < size else p - size))
        chosen = sorted(ranked[:size])

        positions = out.members[:, 0].astype(int).tolist()
        assert positions == chosen                       # stable pool order
        assert np.array_equal(out.values, values[chosen])
        assert out.generation == 4
        assert out.values.min() == values.min()          # the best is never lost
        # ties keep parents: no parent is dropped for an offspring of equal value
        dropped = [p for p in range(size) if p not in positions]
        worst_offspring = max((values[p] for p in positions if p >= size), default=None)
        if worst_offspring is not None:
            assert all(values[p] > worst_offspring for p in dropped)

    @settings(max_examples=300, deadline=None)
    @given(selection_pools(), st.integers(1, 5), st.booleans(), st.data())
    def test_gather_matches_pool_indexing(self, pool, dim, all_worse, data):
        parent_values, offspring_values = pool
        size = parent_values.size
        if all_worse:   # no offspring beats a parent; ties keep the parent
            offspring_values = np.maximum(offspring_values, parent_values.max())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        old = Population(members=rng.normal(size=(size, dim)), values=parent_values,
                         generation=5)
        offspring = rng.normal(size=(offspring_values.size, dim))
        out = select_survivors(old, offspring, offspring_values)

        values = np.concatenate([parent_values, offspring_values])
        chosen = sorted(sorted(range(values.size), key=lambda p: (values[p], p >= size))[:size])
        pool_members = np.concatenate([old.members, offspring])
        assert out.members.tobytes() == pool_members[chosen].tobytes()
        assert out.values.tobytes() == values[chosen].tobytes()
        assert out.generation == 6
        if all_worse:
            assert out.members.tobytes() == old.members.tobytes()
            assert out.values.tobytes() == old.values.tobytes()
        for source in (old.members, offspring, old.values, offspring_values):
            assert not np.shares_memory(out.members, source)
            assert not np.shares_memory(out.values, source)

    @settings(max_examples=100, deadline=None)
    @given(selection_pools(), st.data())
    def test_nan_anywhere_rejected(self, pool, data):
        parent_values, offspring_values = pool
        values = np.concatenate([parent_values, offspring_values])
        values[data.draw(st.integers(0, values.size - 1))] = np.nan
        size = parent_values.size
        with pytest.raises(ValueError, match="NaN"):
            self._select(values[:size], values[size:])


class TestDeterminant:
    def test_ade_formula_across_grid(self):
        for f in F_GRID:
            m = build_matrix(MatrixKind.ADE_M, f)
            assert abs(determinant(m) - (1.0 + 3.0 * f * f)) < 1e-12

    def test_ade_at_half_is_1_75(self):
        assert determinant(build_matrix(MatrixKind.ADE_M, 0.5)) == pytest.approx(1.75, abs=1e-12)

    def test_revde_always_one(self):
        for f in F_GRID:
            assert abs(determinant(build_matrix(MatrixKind.REVDE_R, f)) - 1.0) < 1e-12

    def test_identity_at_f_zero(self):
        for kind in MatrixKind:
            assert determinant(build_matrix(kind, 0.0)) == 1.0


class TestEigenReport:
    def test_ade_at_half(self):
        # antisymmetric part has eigenvalues 0, +-i*sqrt(3)*F, shifted by I
        rep = eigen_report(build_matrix(MatrixKind.ADE_M, 0.5))
        root = np.sqrt(3.0) / 2.0
        got = sorted(rep, key=lambda z: z.imag)
        assert abs(got[0] - (1 - 1j * root)) < 1e-9
        assert abs(got[1] - 1.0) < 1e-9
        assert abs(got[2] - (1 + 1j * root)) < 1e-9

    def test_identity_triple_one(self):
        for kind in MatrixKind:
            rep = eigen_report(build_matrix(kind, 0.0))
            assert all(abs(z - 1.0) < 1e-12 for z in rep)

    @pytest.mark.parametrize("kind", list(MatrixKind))
    def test_product_equals_determinant(self, kind):
        for f in F_GRID:
            m = build_matrix(kind, f)
            rep = eigen_report(m)
            prod = rep[0] * rep[1] * rep[2]
            assert abs(prod - determinant(m)) < 1e-9

    def test_ade_real_parts_at_least_one(self):
        for f in F_GRID:
            rep = eigen_report(build_matrix(MatrixKind.ADE_M, f))
            assert min(z.real for z in rep) >= 1.0 - 1e-9

    def test_moduli_product_matches_abs_det(self):
        for kind in MatrixKind:
            for f in (0.125, 0.675, 1.5):
                m = build_matrix(kind, f)
                rep = eigen_report(m)
                assert np.prod([abs(z) for z in rep]) == pytest.approx(abs(determinant(m)),
                                                                      abs=1e-9)

    def test_report_fields_consistent(self):
        # a triple of complex numbers, sorted by descending real part, then
        # modulus, then imaginary part: R at 0.6 has a pair of equal moduli
        rep = eigen_report(build_matrix(MatrixKind.REVDE_R, 0.6))
        assert isinstance(rep, tuple) and len(rep) == 3
        assert all(isinstance(z, complex) for z in rep)
        keys = [(-z.real, -abs(z), -z.imag) for z in rep]
        assert keys == sorted(keys)
        assert rep[1] == pytest.approx(rep[2].conjugate())


class TestPopulation:
    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            Population(members=np.zeros((3, 2)), values=np.zeros(3))

    def test_value_shape_checked(self):
        with pytest.raises(ValueError):
            Population(members=np.zeros((4, 2)), values=np.zeros(5))

    def test_best_index_needs_values(self):
        with pytest.raises(TypeError, match="values"):
            Population(members=np.zeros((4, 2)))

    def test_best_index_first_minimum(self):
        pop = Population(members=np.zeros((4, 1)), values=np.array([2.0, 1.0, 1.0, 5.0]))
        assert pop.best_index() == 1
