"""Tests for the saturation chase and the cost model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase.homomorphism import is_satisfied
from repro.chase.kernel import ConstraintKernel
from repro.chase.saturation import CostThresholdPruner, SaturationEngine
from repro.constraints import default_constraints
from repro.constraints.core import egd, tgd
from repro.cost.mnc_estimator import MNCEstimator
from repro.cost.model import annotate_expression, annotate_instance_classes, expression_cost
from repro.cost.naive_estimator import NaiveMetadataEstimator
from repro.data.matrix import MatrixMeta
from repro.lang import colsums, inv, matrix, rowsums, sum_all, transpose
from repro.lang import matrix_expr as mx
from repro.vrem.atoms import Atom, Const, Var
from repro.vrem.encoder import encode_expression
from repro.vrem.instance import VremInstance


class TestHomomorphism:
    def test_simple_match(self, small_catalog, find_matches):
        instance, _ = encode_expression(transpose(matrix("M") @ matrix("N")), catalog=small_catalog)
        pattern = [Atom("multi_m", (Var("a"), Var("b"), Var("r")))]
        assert len(find_matches(pattern, instance)) == 1

    def test_join_across_atoms(self, small_catalog, find_matches):
        instance, _ = encode_expression(transpose(matrix("M") @ matrix("N")), catalog=small_catalog)
        pattern = [
            Atom("multi_m", (Var("a"), Var("b"), Var("r"))),
            Atom("tr", (Var("r"), Var("t"))),
        ]
        assert len(find_matches(pattern, instance)) == 1
        bad_pattern = [
            Atom("multi_m", (Var("a"), Var("b"), Var("r"))),
            Atom("tr", (Var("a"), Var("t"))),
        ]
        assert not find_matches(bad_pattern, instance)

    def test_constant_filtering(self, small_catalog, find_matches):
        instance, _ = encode_expression(matrix("M") @ matrix("N"), catalog=small_catalog)
        pattern = [Atom("name", (Var("m"), Const("M")))]
        assert len(find_matches(pattern, instance)) == 1
        pattern = [Atom("name", (Var("m"), Const("Other")))]
        assert not find_matches(pattern, instance)

    def test_size_atoms_match_metadata(self, small_catalog, find_matches):
        instance, _ = encode_expression(inv(matrix("C")), catalog=small_catalog)
        square = [Atom("name", (Var("m"), Var("n"))), Atom("size", (Var("m"), Var("k"), Var("k")))]
        assert find_matches(square, instance)
        rectangular = [
            Atom("name", (Var("m"), Const("C"))),
            Atom("size", (Var("m"), Const(3), Var("z"))),
        ]
        assert not find_matches(rectangular, instance)

    def test_square_size_atom_rejects_rectangles(self, small_catalog, find_matches):
        instance, _ = encode_expression(matrix("M") @ matrix("C"), catalog=small_catalog)
        square = [Atom("name", (Var("m"), Var("n"))), Atom("size", (Var("m"), Var("k"), Var("k")))]
        names = {match[Var("n")].value for match in find_matches(square, instance)}
        assert names == {"C"}  # M is 40 x 6

    def test_is_satisfied_with_partial_binding(self, small_catalog):
        instance, root = encode_expression(transpose(matrix("M")), catalog=small_catalog)
        m_class = instance.class_of_name("M")
        pattern = [Atom("tr", (Var("x"), Var("y")))]
        assert is_satisfied(pattern, instance, {Var("x"): m_class})
        assert not is_satisfied(pattern, instance, {Var("x"): root})
        # The compiled test of the same question: premise slots bound, the
        # existential y determined by the keyed probe.
        kernel = ConstraintKernel(tgd("t", "name(x, n) -> tr(x, y)"))
        assert kernel.keyed
        for match in kernel.full_matches(instance):
            slots = kernel.slots_for(instance, match)
            assert (not kernel.missing(instance, slots)) == (slots[0] == m_class)
            assert slots[2] == (root if slots[0] == m_class else None)


class TestSaturation:
    def test_commutativity_generates_swapped_atom(self, small_catalog):
        instance, _ = encode_expression(matrix("A") + matrix("B"), catalog=small_catalog)
        engine = SaturationEngine([tgd("add-commutes", "add_m(M, N, R) -> add_m(N, M, R)")])
        stats = engine.saturate(instance)
        assert stats.reached_fixpoint
        assert sum(1 for _ in instance.atoms("add_m")) == 2

    def test_egd_merges_involution(self, small_catalog):
        expr = transpose(transpose(matrix("A")))
        instance, root = encode_expression(expr, catalog=small_catalog)
        engine = SaturationEngine([egd("tr-involution", "tr(M, R1) & tr(R1, R2) -> R2 = M")])
        engine.saturate(instance)
        assert instance.same_class(root, instance.class_of_name("A"))

    def test_standard_chase_terminates(self, small_catalog):
        instance, _ = encode_expression(transpose(matrix("M") @ matrix("N")), catalog=small_catalog)
        engine = SaturationEngine(default_constraints(), max_rounds=6)
        stats = engine.saturate(instance)
        assert stats.reached_fixpoint
        assert stats.atom_count < 200

    def test_budget_stops_runaway(self, small_catalog):
        instance, _ = encode_expression((matrix("C") @ matrix("D")) @ matrix("C"), catalog=small_catalog)
        engine = SaturationEngine(
            default_constraints(include_decompositions=True), max_rounds=10, max_atoms=300, max_classes=200
        )
        stats = engine.saturate(instance)
        assert instance.num_atoms() <= 450  # bounded shortly after the budget check

    def test_cost_pruner_blocks_large_intermediates(self, small_catalog):
        # (M N) M with a tiny threshold: the chase may not materialise the
        # association that creates the big (M N)-shaped intermediate again.
        expr = matrix("M") @ (matrix("N") @ matrix("M"))
        instance, _ = encode_expression(expr, catalog=small_catalog)
        pruner = CostThresholdPruner(threshold=10.0)
        engine = SaturationEngine(default_constraints(), max_rounds=4)
        engine.saturate(instance, pruner)
        assert pruner.pruned_applications > 0
        # What was pruned is never built (paper Example 7.2).
        unpruned, _ = encode_expression(expr, catalog=small_catalog)
        engine.saturate(unpruned)
        assert instance.num_atoms() < unpruned.num_atoms()

    def test_det_identity_sets_scalar(self, small_catalog):
        expr = mx.Det(mx.Identity(5))
        instance, root = encode_expression(expr, catalog=small_catalog)
        engine = SaturationEngine(default_constraints())
        engine.saturate(instance)
        values = {atom.args[1].value for atom in instance.atoms_with("scalar_const", 0, root)}
        assert values == {1.0}


class TestCostModel:
    def test_example_7_1_chain_costs(self):
        # Paper Example 7.1: (M N) M is much more expensive than M (N M).
        shapes = {"M": (50, 3), "N": (3, 50)}
        from repro.data.catalog import Catalog

        catalog = Catalog()
        catalog.register_metadata(MatrixMeta("M", 50, 3, 150))
        catalog.register_metadata(MatrixMeta("N", 3, 50, 150))
        estimator = NaiveMetadataEstimator()
        left = expression_cost((matrix("M") @ matrix("N")) @ matrix("M"), catalog, estimator)
        right = expression_cost(matrix("M") @ (matrix("N") @ matrix("M")), catalog, estimator)
        assert left == pytest.approx(50 * 50)
        assert right == pytest.approx(3 * 3)

    def test_leaves_and_root_are_free(self, small_catalog):
        estimator = NaiveMetadataEstimator()
        assert expression_cost(matrix("M"), small_catalog, estimator) == 0.0
        assert expression_cost(matrix("M") @ matrix("N"), small_catalog, estimator) == 0.0

    def test_sparse_nnz_drives_cost(self, small_catalog):
        estimator = NaiveMetadataEstimator()
        info = annotate_expression(transpose(matrix("Sp")), small_catalog, estimator)
        meta = small_catalog.meta("Sp")
        assert info[transpose(matrix("Sp"))].nnz == pytest.approx(meta.nnz)

    def test_mnc_product_estimate_tighter_than_naive(self, small_catalog):
        sparse_product = matrix("Sp") @ transpose(matrix("Sp"))
        naive = annotate_expression(sparse_product, small_catalog, NaiveMetadataEstimator())
        mnc = annotate_expression(sparse_product, small_catalog, MNCEstimator())
        assert mnc[sparse_product].nnz <= naive[sparse_product].nnz + 1e-9

    def test_annotate_instance_classes_seeds_and_propagates(self, small_catalog):
        expr = colsums(matrix("M") @ matrix("N"))
        instance, root = encode_expression(expr, catalog=small_catalog)
        infos = annotate_instance_classes(instance, small_catalog, NaiveMetadataEstimator())
        assert infos[instance.find(root)].shape == (1, 40)
        m_class = instance.class_of_name("M")
        assert infos[m_class].nnz == pytest.approx(small_catalog.meta("M").nnz)

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=2, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_monotonicity_property(self, rows, cols):
        """γ never assigns a lower cost to an expression than to its subexpressions."""
        from repro.data.catalog import Catalog

        catalog = Catalog()
        catalog.register_metadata(MatrixMeta("A", rows, cols, rows * cols))
        catalog.register_metadata(MatrixMeta("B", cols, rows, rows * cols))
        estimator = NaiveMetadataEstimator()
        inner = matrix("A") @ matrix("B")
        outer = transpose(inner @ matrix("A"))
        assert expression_cost(outer, catalog, estimator) >= expression_cost(inner, catalog, estimator)

    def test_estimators_expose_names(self):
        assert NaiveMetadataEstimator().name == "naive"
        assert MNCEstimator().name == "mnc"

    def test_mnc_rev_reverses_rows_and_keeps_columns(self):
        from repro.cost.model import NnzInfo

        info = NnzInfo(shape=(4, 3), nnz=3.0, row_counts=np.array([3.0, 0.0, 0.0, 0.0]),
                       col_counts=np.array([1.0, 1.0, 1.0]))
        out = MNCEstimator().propagate("rev", (4, 3), [info])
        assert out.nnz == 3.0
        assert out.row_counts.tolist() == [0.0, 0.0, 0.0, 3.0]
        assert out.col_counts.tolist() == [1.0, 1.0, 1.0]

    def test_mnc_histograms_from_values(self, small_catalog):
        estimator = MNCEstimator()
        info = estimator.leaf_info(small_catalog.meta("Sp"), small_catalog.matrix("Sp"))
        assert info.row_counts is not None and info.col_counts is not None
        assert info.nnz == pytest.approx(small_catalog.meta("Sp").nnz)
