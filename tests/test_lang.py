"""Tests for the expression language: AST, shapes, visitors, builders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ShapeError, TypeMismatchError, UnknownMatrixError
from repro.lang import matrix_expr as mx
from repro.lang import (
    matrix, scalar, identity, zeros, transpose, inv, det, trace, sum_all,
    rowsums, colsums, hadamard, scalar_mul, mat_pow, cholesky, direct_sum,
    table, select, project, join, to_matrix,
)
from repro.lang.relational_expr import Predicate
from repro.lang.shapes import shape_of, is_scalar_shape, check_expr
from repro.lang.visitor import (
    collect_refs, count_nodes, expression_depth, transform_bottom_up, walk,
)


class TestExprBasics:
    def test_matrix_ref_requires_name(self):
        with pytest.raises(TypeMismatchError):
            mx.MatrixRef("")

    def test_structural_equality(self):
        assert matrix("M") @ matrix("N") == matrix("M") @ matrix("N")
        assert matrix("M") @ matrix("N") != matrix("N") @ matrix("M")

    def test_hashable_and_usable_in_sets(self):
        exprs = {matrix("M"), matrix("M"), matrix("N")}
        assert len(exprs) == 2

    def test_operator_overloading_matmul(self):
        expr = matrix("M") @ matrix("N")
        assert isinstance(expr, mx.MatMul)
        assert expr.left == matrix("M")

    def test_operator_overloading_add_sub(self):
        assert isinstance(matrix("A") + matrix("B"), mx.Add)
        assert isinstance(matrix("A") - matrix("B"), mx.Sub)

    def test_star_is_hadamard_for_matrices(self):
        assert isinstance(matrix("A") * matrix("B"), mx.Hadamard)

    def test_star_with_scalar_is_scalar_mul(self):
        expr = scalar(2.0) * matrix("A")
        assert isinstance(expr, mx.ScalarMul)
        expr2 = 3 * matrix("A")
        assert isinstance(expr2, mx.ScalarMul)
        assert expr2.scalar == mx.ScalarConst(3.0)

    def test_transpose_property(self):
        assert matrix("M").T == transpose(matrix("M"))

    def test_negation_is_scalar_mul_by_minus_one(self):
        expr = -matrix("M")
        assert isinstance(expr, mx.ScalarMul)
        assert expr.scalar == mx.ScalarConst(-1.0)

    def test_scalar_const_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            mx.ScalarConst(True)

    def test_matpow_requires_nonnegative_int(self):
        with pytest.raises(TypeMismatchError):
            mx.MatPow(matrix("M"), -1)

    def test_children_are_validated(self):
        with pytest.raises(TypeMismatchError):
            mx.MatMul(matrix("M"), "not an expr")

    def test_to_string_round_trips_key_operators(self):
        expr = colsums(matrix("M") @ matrix("N"))
        text = expr.to_string()
        assert "colSums" in text and "%*%" in text

    def test_leaves_iteration(self):
        expr = (matrix("A") + matrix("B")) @ matrix("v1")
        names = {leaf.name for leaf in expr.leaves() if isinstance(leaf, mx.MatrixRef)}
        assert names == {"A", "B", "v1"}

    def test_identity_and_zero_payloads(self):
        assert identity(4).n == 4
        assert zeros(2, 3).rows == 2 and zeros(2, 3).cols == 3
        with pytest.raises(TypeMismatchError):
            identity(0)

    def test_fingerprints_are_pinned(self):
        # Digests key persistent plan caches: a refactor may not move them.
        expr = transpose(matrix("C")) + (matrix("A") @ mat_pow(matrix("B"), 2))
        assert expr.to_string() == "(t(C) + (A %*% (B)^2))"
        assert expr.fingerprint() == "21120303785863dadcbbbf6186654c88"
        assert expr.canonical_fingerprint() == "67e2c9f5f3542a0dccf822043de06c75"


class TestShapes:
    def test_leaf_shape_from_dict(self):
        assert shape_of(matrix("M"), {"M": (4, 5)}) == (4, 5)

    def test_unknown_leaf_raises(self):
        with pytest.raises(UnknownMatrixError):
            shape_of(matrix("Missing"), {})

    def test_matmul_shape_and_conformability(self):
        shapes = {"M": (4, 3), "N": (3, 7)}
        assert shape_of(matrix("M") @ matrix("N"), shapes) == (4, 7)
        with pytest.raises(ShapeError):
            shape_of(matrix("N") @ matrix("N"), shapes)

    def test_add_requires_same_shape_but_broadcasts_scalars(self):
        shapes = {"A": (4, 3), "B": (4, 3), "C": (2, 2)}
        assert shape_of(matrix("A") + matrix("B"), shapes) == (4, 3)
        assert shape_of(matrix("A") + scalar(1.0), shapes) == (4, 3)
        with pytest.raises(ShapeError):
            shape_of(matrix("A") + matrix("C"), shapes)

    def test_transpose_and_aggregations(self):
        shapes = {"M": (4, 3)}
        assert shape_of(transpose(matrix("M")), shapes) == (3, 4)
        assert shape_of(rowsums(matrix("M")), shapes) == (4, 1)
        assert shape_of(colsums(matrix("M")), shapes) == (1, 3)
        assert is_scalar_shape(shape_of(sum_all(matrix("M")), shapes))

    def test_inverse_requires_square(self):
        with pytest.raises(ShapeError):
            shape_of(inv(matrix("M")), {"M": (4, 3)})
        assert shape_of(inv(matrix("C")), {"C": (5, 5)}) == (5, 5)

    def test_det_trace_require_square(self):
        with pytest.raises(ShapeError):
            shape_of(det(matrix("M")), {"M": (4, 3)})
        assert shape_of(trace(matrix("C")), {"C": (5, 5)}) == (1, 1)

    def test_scalar_mul_scalar_operand_must_be_1x1(self):
        shapes = {"A": (4, 3), "C": (5, 5)}
        with pytest.raises(ShapeError):
            shape_of(mx.ScalarMul(matrix("C"), matrix("A")), shapes)
        assert shape_of(scalar_mul(det(matrix("C")), matrix("A")), shapes) == (4, 3)

    def test_direct_sum_and_kron(self):
        shapes = {"A": (2, 3), "B": (4, 5)}
        assert shape_of(direct_sum(matrix("A"), matrix("B")), shapes) == (6, 8)
        assert shape_of(mx.DirectProduct(matrix("A"), matrix("B")), shapes) == (8, 15)

    def test_cbind_rbind_shapes(self):
        shapes = {"A": (4, 3), "B": (4, 2), "C": (5, 3)}
        assert shape_of(mx.CBind(matrix("A"), matrix("B")), shapes) == (4, 5)
        assert shape_of(mx.RBind(matrix("A"), matrix("C")), shapes) == (9, 3)
        with pytest.raises(ShapeError):
            shape_of(mx.CBind(matrix("A"), matrix("C")), shapes)

    def test_diag_of_vector_and_matrix(self):
        assert shape_of(mx.Diag(matrix("v")), {"v": (4, 1)}) == (4, 4)
        assert shape_of(mx.Diag(matrix("C")), {"C": (5, 5)}) == (5, 1)

    def test_matpow_and_cholesky_require_square(self):
        with pytest.raises(ShapeError):
            shape_of(mat_pow(matrix("M"), 3), {"M": (4, 3)})
        assert shape_of(cholesky(matrix("C")), {"C": (5, 5)}) == (5, 5)

    def test_check_expr_with_catalog(self, small_catalog):
        assert check_expr(matrix("M") @ matrix("N"), small_catalog) == (40, 40)


class TestVisitors:
    def test_walk_and_count(self):
        expr = (matrix("A") + matrix("B")) @ matrix("v1")
        assert count_nodes(expr) == 5
        ops = [node.op for node in walk(expr)]
        assert ops[0] == "multi_m"

    def test_collect_refs_includes_scalars(self):
        expr = scalar_mul(scalar("s1"), matrix("A")) + matrix("B")
        assert collect_refs(expr) == {"s1", "A", "B"}

    def test_transform_bottom_up_rewrites_nodes(self):
        expr = transpose(transpose(matrix("A")))

        def simplify(node):
            if isinstance(node, mx.Transpose) and isinstance(node.child, mx.Transpose):
                return node.child.child
            return node

        assert transform_bottom_up(expr, simplify) == matrix("A")

    def test_transform_preserves_payload(self):
        expr = mat_pow(matrix("A") @ matrix("B"), 3)
        same = transform_bottom_up(expr, lambda node: node)
        assert same == expr and same.exponent == 3

    def test_expression_depth(self):
        assert expression_depth(matrix("A")) == 1
        assert expression_depth(transpose(matrix("A") @ matrix("B"))) == 3


class TestRelationalExpr:
    def test_predicate_validation(self):
        with pytest.raises(TypeMismatchError):
            Predicate("col", "~", 3)
        assert repr(Predicate("col", "<=", 3))

    def test_builders(self):
        plan = project(
            select(join(table("T"), table("U"), "id", "id"), Predicate("x", ">", 1)),
            ["a", "b"],
        )
        assert plan.op == "project"
        assert plan.child.op == "select"
        cast = to_matrix(plan, ["a", "b"], name="M")
        assert cast.columns == ("a", "b") and cast.name == "M"

    def test_selection_requires_predicates(self):
        with pytest.raises(TypeMismatchError):
            select(table("T"))


@st.composite
def random_chain(draw):
    """Random conformable multiplication chains for property tests."""
    length = draw(st.integers(min_value=2, max_value=5))
    dims = [draw(st.integers(min_value=1, max_value=9)) for _ in range(length + 1)]
    return dims


class TestShapeProperties:
    @given(random_chain())
    @settings(max_examples=40, deadline=None)
    def test_chain_shape_is_outer_dims(self, dims):
        shapes = {f"M{i}": (dims[i], dims[i + 1]) for i in range(len(dims) - 1)}
        expr = matrix("M0")
        for i in range(1, len(dims) - 1):
            expr = expr @ matrix(f"M{i}")
        assert shape_of(expr, shapes) == (dims[0], dims[-1])

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_transpose_involution_shape(self, rows, cols):
        shapes = {"M": (rows, cols)}
        assert shape_of(transpose(transpose(matrix("M"))), shapes) == (rows, cols)
