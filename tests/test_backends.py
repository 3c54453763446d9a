"""Tests for the execution backends (NumPy, SystemML-like, Morpheus, relational)."""

import numpy as np
import pytest
from scipy import sparse

from repro.backends.base import to_dense, values_allclose
from repro.backends.morpheus import MorpheusBackend, NormalizedMatrix
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.relational import RelationalEngine
from repro.backends.systemml_like import SystemMLLikeBackend
from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
from repro.benchkit.pipelines import build_pipeline, default_roles, pipeline_names
from repro.data.catalog import Catalog
from repro.exceptions import ExecutionError
from repro.lang import (
    colsums, det, diag, inv, mat_exp, mat_pow, matrix, rowsums, scalar, scalar_mul,
    sum_all, trace, transpose, cholesky, qr_q, qr_r,
)
from repro.lang import matrix_expr as mx
from repro.lang.builder import select, table, join, project, to_matrix
from repro.lang.relational_expr import Predicate
from repro.planner import PlanSession


class TestNumpyBackend:
    def test_leaves(self, small_catalog):
        backend = NumpyBackend(small_catalog)
        assert backend.evaluate(scalar(2.0)) == 2.0
        assert backend.evaluate(scalar("s1")) == 2.5
        assert np.allclose(backend.evaluate(mx.Identity(3)), np.eye(3))
        assert backend.evaluate(matrix("M")).shape == (40, 6)

    def test_missing_values_raise(self, small_catalog):
        backend = NumpyBackend(small_catalog)
        from repro.data.matrix import MatrixMeta

        small_catalog.register_metadata(MatrixMeta("meta_only", 3, 3, 9))
        with pytest.raises(ExecutionError):
            backend.evaluate(matrix("meta_only"))

    def test_basic_algebra_matches_numpy(self, small_catalog):
        backend = NumpyBackend(small_catalog)
        m = small_catalog.matrix("M").values
        n = small_catalog.matrix("N").values
        assert np.allclose(backend.evaluate(matrix("M") @ matrix("N")), m @ n)
        assert np.allclose(backend.evaluate(transpose(matrix("M"))), m.T)
        assert np.allclose(backend.evaluate(matrix("M") + matrix("M")), 2 * m)
        assert np.allclose(backend.evaluate(matrix("M") - matrix("M")), 0 * m)
        assert np.allclose(backend.evaluate(matrix("M") * matrix("M")), m * m)

    def test_aggregations(self, small_catalog):
        backend = NumpyBackend(small_catalog)
        m = small_catalog.matrix("M").values
        assert backend.evaluate(sum_all(matrix("M"))) == pytest.approx(m.sum())
        assert np.allclose(to_dense(backend.evaluate(rowsums(matrix("M")))), m.sum(axis=1, keepdims=True))
        assert np.allclose(to_dense(backend.evaluate(colsums(matrix("M")))), m.sum(axis=0, keepdims=True))

    def test_inverse_det_trace(self, small_catalog):
        backend = NumpyBackend(small_catalog)
        c = small_catalog.matrix("C").values
        assert np.allclose(backend.evaluate(inv(matrix("C"))), np.linalg.inv(c))
        assert backend.evaluate(det(matrix("C"))) == pytest.approx(np.linalg.det(c))
        assert backend.evaluate(trace(matrix("C"))) == pytest.approx(np.trace(c))

    def test_scalar_multiplication_and_pow(self, small_catalog):
        backend = NumpyBackend(small_catalog)
        c = small_catalog.matrix("C").values
        assert np.allclose(backend.evaluate(scalar_mul(scalar(3.0), matrix("C"))), 3 * c)
        assert np.allclose(backend.evaluate(mat_pow(matrix("C"), 2)), c @ c)

    def test_exp_adjoint_diag(self, small_catalog):
        backend = NumpyBackend(small_catalog)
        c = small_catalog.matrix("C").values
        from scipy.linalg import expm

        assert np.allclose(backend.evaluate(mat_exp(matrix("C"))), expm(c))
        assert np.allclose(
            backend.evaluate(mx.Adjoint(matrix("C"))), np.linalg.det(c) * np.linalg.inv(c)
        )
        assert np.allclose(
            to_dense(backend.evaluate(diag(matrix("C")))), np.diag(c).reshape(-1, 1)
        )

    def test_decompositions(self, small_catalog):
        backend = NumpyBackend(small_catalog)
        spd = small_catalog.matrix("SPD").values
        chol = backend.evaluate(cholesky(matrix("SPD")))
        assert np.allclose(chol @ chol.T, spd)
        c = small_catalog.matrix("C").values
        q, r = backend.evaluate(qr_q(matrix("C"))), backend.evaluate(qr_r(matrix("C")))
        assert np.allclose(q @ r, c)

    def test_sparse_operands_stay_sparse_for_products(self, small_catalog):
        backend = NumpyBackend(small_catalog)
        result = backend.evaluate(matrix("Sp") @ transpose(matrix("Sp")))
        assert sparse.issparse(result)
        dense = small_catalog.matrix("Sp").to_dense()
        assert np.allclose(to_dense(result), dense @ dense.T)

    def test_scalar_broadcast_in_elementwise_ops(self, small_catalog):
        backend = NumpyBackend(small_catalog)
        m = small_catalog.matrix("M").values
        expr = mx.Hadamard(matrix("M"), sum_all(matrix("M")))
        assert np.allclose(to_dense(backend.evaluate(expr)), m * m.sum())

    def test_cbind_rbind(self, small_catalog):
        backend = NumpyBackend(small_catalog)
        m = small_catalog.matrix("M").values
        assert backend.evaluate(mx.CBind(matrix("M"), matrix("M"))).shape == (40, 12)
        assert backend.evaluate(mx.RBind(matrix("M"), matrix("M"))).shape == (80, 6)

    def test_timed_wrapper(self, small_catalog):
        backend = NumpyBackend(small_catalog)
        run = backend.timed(matrix("M") @ matrix("N"))
        assert run.seconds >= 0.0 and run.as_dense().shape == (40, 40)

    def test_values_allclose_helper(self):
        assert values_allclose(np.ones((2, 2)), np.ones((2, 2)))
        assert values_allclose(3.0, np.asarray([[3.0]]))
        assert not values_allclose(np.ones((2, 2)), np.zeros((2, 2)))


@pytest.fixture()
def mixed_catalog(rng):
    """Dense and sparse operands of every shape the mixed kernels meet."""
    catalog = Catalog()
    for name, shape in (("D", (20, 12)), ("E", (12, 8)), ("v", (20, 1)), ("w", (1, 20)),
                        ("x", (12, 1)), ("one", (1, 1))):
        catalog.register_dense(name, rng.random(shape))
    for seed, (name, shape) in enumerate((("S", (20, 12)), ("S2", (20, 12)), ("T", (12, 8)),
                                          ("sv", (20, 1)), ("sw", (1, 20)))):
        catalog.register_sparse(
            name, sparse.random(*shape, density=0.3, random_state=np.random.default_rng(seed))
        )
    catalog.register_sparse("sone", sparse.csr_matrix([[0.7]]))
    return catalog


_SAME_SHAPE = [("S", "D"), ("D", "S"), ("S", "S2"), ("D", "S2")]
_BROADCAST = [("S", "v"), ("v", "S"), ("S", "one"), ("one", "S"), ("D", "sv"),
              ("sw", "w"), ("sone", "D"), ("sone", "one"), ("S", "sone"), ("sone", "S")]
_PRODUCTS = [("S", "E"), ("D", "T"), ("S", "T"), ("D", "E"), ("S", "x"), ("w", "S"),
             ("sw", "D"), ("D", "x"), ("one", "sw"), ("sone", "w"), ("sv", "one"),
             ("sone", "one")]


def _binary_cases():
    for left, right in _SAME_SHAPE + _BROADCAST:
        yield "add", mx.Add(matrix(left), matrix(right))
        yield "sub", mx.Sub(matrix(left), matrix(right))
    for left, right in _PRODUCTS:
        yield "product", mx.MatMul(matrix(left), matrix(right))


class TestMixedKernels:
    """One sparse and one dense operand run on SciPy's mixed kernels."""

    @pytest.mark.parametrize("kind,expr", list(_binary_cases()), ids=lambda case: str(case))
    def test_value_equals_the_all_dense_evaluation(self, mixed_catalog, kind, expr):
        dense = to_dense(NumpyBackend(mixed_catalog.densified()).evaluate(expr))
        for backend in (NumpyBackend, SystemMLLikeBackend, MorpheusBackend):
            value = backend(mixed_catalog).evaluate(expr)
            if kind == "product":
                assert np.allclose(to_dense(value), dense, rtol=1e-12, atol=1e-12), backend.name
            else:
                # Adding the nonzeros onto the dense side is exact.
                assert np.array_equal(to_dense(value), dense), backend.name

    @pytest.mark.parametrize("left,right", _SAME_SHAPE)
    def test_add_and_sub_never_densify_a_sparse_operand(
        self, mixed_catalog, monkeypatch, left, right
    ):
        from repro.backends import numpy_backend

        densified = []

        def counting_to_dense(value):
            if sparse.issparse(value):
                densified.append(value.shape)
            return to_dense(value)

        monkeypatch.setattr(numpy_backend, "to_dense", counting_to_dense)
        backend = NumpyBackend(mixed_catalog)
        for node in (mx.Add, mx.Sub):
            value = backend.evaluate(node(matrix(left), matrix(right)))
            both_sparse = left.startswith("S") and right.startswith("S")
            assert sparse.issparse(value) == both_sparse
            if not both_sparse:
                assert type(value) is np.ndarray
        assert densified == []

    @pytest.mark.parametrize("left,right", [("S", "E"), ("D", "T"), ("S", "x"), ("w", "S")])
    def test_mixed_product_is_a_dense_ndarray(self, mixed_catalog, left, right):
        value = NumpyBackend(mixed_catalog).evaluate(mx.MatMul(matrix(left), matrix(right)))
        assert type(value) is np.ndarray

    def test_catalog_values_are_not_mutated(self, mixed_catalog):
        before = {
            name: to_dense(mixed_catalog.matrix(name).values).copy()
            for name in mixed_catalog.matrix_names()
        }
        for backend in (NumpyBackend, SystemMLLikeBackend, MorpheusBackend):
            for _, expr in _binary_cases():
                backend(mixed_catalog).evaluate(expr)
        for name, values in before.items():
            assert np.array_equal(to_dense(mixed_catalog.matrix(name).values), values), name


class TestSystemMLLikeBackend:
    def test_static_rules_applied_locally(self, small_catalog):
        backend = SystemMLLikeBackend(small_catalog)
        plan = backend.optimize_locally(sum_all(transpose(matrix("M"))))
        assert plan == sum_all(matrix("M"))

    def test_sum_of_product_rule(self, small_catalog):
        backend = SystemMLLikeBackend(small_catalog)
        plan = backend.optimize_locally(sum_all(matrix("M") @ matrix("N")))
        assert plan != sum_all(matrix("M") @ matrix("N"))
        assert values_allclose(
            backend.evaluate(sum_all(matrix("M") @ matrix("N"))),
            NumpyBackend(small_catalog).evaluate(sum_all(matrix("M") @ matrix("N"))),
        )

    def test_misses_cross_property_rewrites(self, small_catalog):
        """SystemML's local rules rewrite sum(colSums(N^T M^T)) but, lacking
        (MN)^T = N^T M^T, they keep the transposes of the large inputs — the
        RW2-vs-RW1 situation of Example 6.3 — whereas HADAD's rewrite works on
        M and N directly."""
        backend = SystemMLLikeBackend(small_catalog)
        expr = sum_all(colsums(transpose(matrix("N")) @ transpose(matrix("M"))))
        plan = backend.optimize_locally(expr)
        hadad_form = sum_all(
            mx.Hadamard(transpose(colsums(matrix("M"))), rowsums(matrix("N")))
        )
        assert plan != hadad_form
        assert any(node.op == "tr" for node in _walk(plan))

    def test_chain_reordering(self, small_catalog):
        backend = SystemMLLikeBackend(small_catalog)
        plan = backend.optimize_locally((matrix("M") @ matrix("N")) @ matrix("M"))
        assert plan == matrix("M") @ (matrix("N") @ matrix("M"))

    def test_execution_matches_numpy(self, small_catalog):
        reference = NumpyBackend(small_catalog)
        backend = SystemMLLikeBackend(small_catalog)
        for expr in (
            sum_all(matrix("M") @ matrix("N")),
            rowsums(transpose(matrix("M"))),
            trace(matrix("C") @ matrix("D")),
        ):
            assert values_allclose(backend.evaluate(expr), reference.evaluate(expr))


class TestSystemMLLikeLocalOptimisation:
    def test_one_local_optimisation_per_evaluation(self, monkeypatch):
        """The 57 pipelines at scale 0.01: ``optimize_locally`` runs once per
        top-level ``evaluate`` — not once per node — and the value is
        NumPy's evaluation of that one optimised plan, bit for bit."""
        catalog = benchmark_catalog(scale=0.01)
        roles = default_roles(ROLE_BINDINGS_DENSE)
        backend, reference = SystemMLLikeBackend(catalog), NumpyBackend(catalog)
        calls = []
        optimize = backend.optimize_locally
        monkeypatch.setattr(
            backend, "optimize_locally", lambda expr: calls.append(expr) or optimize(expr)
        )
        for name in pipeline_names():
            expr = build_pipeline(name, roles)
            calls.clear()
            value = backend.evaluate(expr)
            assert calls == [expr], name
            expected = reference.evaluate(optimize(expr))
            assert np.array_equal(to_dense(value), to_dense(expected), equal_nan=True), name
            assert backend._frames() == [], name


def _walk(expr):
    yield expr
    for child in expr.children:
        yield from _walk(child)


class TestMorpheusBackend:
    @pytest.fixture()
    def normalized(self, small_catalog, rng):
        n_s, n_r, d_s, d_r = 30, 8, 3, 4
        entity = rng.random((n_s, d_s))
        attribute = rng.random((n_r, d_r))
        fk = rng.integers(0, n_r, size=n_s)
        indicator = sparse.csr_matrix(
            (np.ones(n_s), (np.arange(n_s), fk)), shape=(n_s, n_r)
        )
        small_catalog.register_dense("Mnorm", np.hstack([entity, indicator @ attribute]))
        backend = MorpheusBackend(small_catalog)
        backend.register(NormalizedMatrix("Mnorm", entity, indicator, attribute))
        return backend

    def test_materialize_matches_catalog(self, normalized, small_catalog):
        assert np.allclose(
            normalized.normalized("Mnorm").materialize(), small_catalog.matrix("Mnorm").values
        )

    def test_factorized_aggregates(self, normalized, small_catalog):
        reference = NumpyBackend(small_catalog)
        for expr in (colsums(matrix("Mnorm")), rowsums(matrix("Mnorm")), sum_all(matrix("Mnorm"))):
            assert values_allclose(normalized.evaluate(expr), reference.evaluate(expr))

    def test_factorized_multiplications(self, normalized, small_catalog, rng):
        small_catalog.register_dense("Wr", rng.random((7, 5)))
        small_catalog.register_dense("Wl", rng.random((9, 30)))
        reference = NumpyBackend(small_catalog)
        assert values_allclose(
            normalized.evaluate(matrix("Mnorm") @ matrix("Wr")),
            reference.evaluate(matrix("Mnorm") @ matrix("Wr")),
        )
        assert values_allclose(
            normalized.evaluate(matrix("Wl") @ matrix("Mnorm")),
            reference.evaluate(matrix("Wl") @ matrix("Mnorm")),
        )

    def test_transpose_aware_aggregate(self, normalized, small_catalog):
        reference = NumpyBackend(small_catalog)
        assert values_allclose(
            normalized.evaluate(sum_all(transpose(matrix("Mnorm")))),
            reference.evaluate(sum_all(transpose(matrix("Mnorm")))),
        )

    def test_elementwise_falls_back_to_materialisation(self, normalized, small_catalog):
        reference = NumpyBackend(small_catalog)
        expr = sum_all(matrix("Mnorm") * matrix("Mnorm"))
        assert values_allclose(normalized.evaluate(expr), reference.evaluate(expr))

    @pytest.mark.parametrize(
        "build",
        [
            lambda m: colsums(m @ matrix("Nright")),
            lambda m: rowsums(matrix("Nleft") @ m),
            lambda m: sum_all(matrix("Nadd") + m),
            lambda m: sum_all(rowsums(m)),
        ],
        ids=["P1.12", "P2.10", "P2.11", "P2.15"],
    )
    def test_rewritten_plan_keeps_its_value(self, normalized, small_catalog, rng, build):
        """Fig 9: HADAD's plan, run on the normalized matrix, equals the
        pipeline as stated run there."""
        small_catalog.register_dense("Nright", rng.random((7, 5)))
        small_catalog.register_dense("Nleft", rng.random((9, 30)))
        small_catalog.register_dense("Nadd", rng.random((30, 7)))
        expr = build(matrix("Mnorm"))
        result = PlanSession(small_catalog).rewrite(expr)
        assert result.changed
        assert values_allclose(normalized.evaluate(result.best), normalized.evaluate(expr))


class TestRelationalEngine:
    def test_scan_and_selection(self, small_tables):
        engine = RelationalEngine(small_tables)
        result = engine.evaluate(select(table("Facts"), Predicate("level", "<=", 3)))
        assert result.n_rows == 4

    def test_like_predicate(self, small_tables):
        engine = RelationalEngine(small_tables)
        result = engine.evaluate(select(table("Facts"), Predicate("text", "like", "covid")))
        assert result.n_rows == 5

    def test_projection(self, small_tables):
        engine = RelationalEngine(small_tables)
        result = engine.evaluate(project(table("Left"), ["l1"]))
        assert result.columns == ("l1",)

    def test_join_and_to_matrix(self, small_tables):
        engine = RelationalEngine(small_tables)
        plan = to_matrix(
            join(table("Left"), table("Right"), "id", "id"), ["l1", "l2", "r1"], name="F"
        )
        values = engine.evaluate_to_matrix(plan)
        assert values.shape == (10, 3)
        assert np.allclose(values[:, 2], np.arange(10) * 3.0)

    def test_join_is_pk_fk_consistent(self, small_tables):
        engine = RelationalEngine(small_tables)
        joined = engine.evaluate(join(table("Left"), table("Right"), "id", "id"))
        assert joined.n_rows == 10
        assert np.allclose(np.asarray(joined.column("id")), np.arange(10.0))

    def test_matrix_to_table(self, small_tables):
        engine = RelationalEngine(small_tables)
        small_tables.register_dense("Mx", np.arange(6.0).reshape(3, 2))
        result = engine.evaluate(mx_to_table())
        assert result.n_rows == 3 and result.columns == ("a", "b")


def mx_to_table():
    from repro.lang.builder import to_table
    return to_table(matrix("Mx"), ["a", "b"])


class TestInPlaceSparseAccumulation:
    """A same-shaped ``+`` / ``-`` of a sparse and a dense operand writes the
    nonzeros into the dense operand only when it is a fresh temporary."""

    @pytest.fixture()
    def accumulations(self, monkeypatch):
        """The in-place accumulations made, as ``(dense, sparse)`` pairs."""
        from repro.backends import numpy_backend

        made = []
        accumulate = numpy_backend._accumulate

        def counting(dense, value, subtract):
            made.append((dense, value))
            return accumulate(dense, value, subtract)

        monkeypatch.setattr(numpy_backend, "_accumulate", counting)
        return made

    @pytest.fixture()
    def mixed(self):
        rng = np.random.default_rng(3)
        catalog = Catalog()
        catalog.register_dense("A", rng.random((40, 5)))
        catalog.register_dense("B", rng.standard_normal((5, 30)))
        catalog.register_dense("Dn", rng.random((40, 30)))
        catalog.register_sparse(
            "S", sparse.random(40, 30, density=0.1, random_state=np.random.default_rng(4))
        )
        return catalog

    @pytest.mark.parametrize(
        "build",
        [
            lambda S, P: P + S,
            lambda S, P: S + P,
            lambda S, P: P - S,
            lambda S, P: S - P,
        ],
        ids=["fresh+sparse", "sparse+fresh", "fresh-sparse", "sparse-fresh"],
    )
    def test_in_place_result_is_scipys_bit_for_bit(self, mixed, build, accumulations):
        stored = {name: mixed.matrix(name).values.copy() for name in ("A", "B", "Dn", "S")}
        product = stored["A"] @ stored["B"]
        expected = np.asarray(build(stored["S"], product))
        value = NumpyBackend(mixed).evaluate(build(matrix("S"), matrix("A") @ matrix("B")))
        assert [dense is value for dense, _ in accumulations] == [True]
        assert value.tobytes() == expected.tobytes()
        for name, values in stored.items():
            assert to_dense(mixed.matrix(name).values).tobytes() == to_dense(values).tobytes()

    @pytest.mark.parametrize("subtract", [False, True])
    def test_a_leaf_is_never_overwritten(self, mixed, subtract, accumulations):
        before = mixed.matrix("Dn").values.copy()
        expr = matrix("Dn") - matrix("S") if subtract else matrix("S") + matrix("Dn")
        value = NumpyBackend(mixed).evaluate(expr)
        assert [dense is value for dense, _ in accumulations] == [True]
        assert value is not mixed.matrix("Dn").values
        assert np.array_equal(mixed.matrix("Dn").values, before)
        stored_sparse = mixed.matrix("S").values
        expected = before - stored_sparse if subtract else stored_sparse + before
        assert value.tobytes() == np.asarray(expected).tobytes()

    def test_an_operator_returning_its_childs_object_is_not_fresh(self, mixed):
        class Aliasing(NumpyBackend):
            def _eval_rev(self, expr):  # hands the child's value back as is
                return self._child(expr)

        before = mixed.matrix("Dn").values.copy()
        value = Aliasing(mixed).evaluate(mx.Rev(matrix("Dn")) + matrix("S"))
        assert np.array_equal(mixed.matrix("Dn").values, before)
        assert np.allclose(value, before + mixed.matrix("S").values.toarray())

    def test_a_morpheus_materialised_factor_is_never_overwritten(self):
        rng = np.random.default_rng(5)
        catalog = Catalog()
        entity, attribute = rng.random((12, 2)), rng.random((4, 3))
        indicator = sparse.csr_matrix(
            (np.ones(12), (np.arange(12), rng.integers(0, 4, size=12))), shape=(12, 4)
        )
        catalog.register_dense("Mn", np.hstack([entity, indicator @ attribute]))
        catalog.register_sparse(
            "S", sparse.random(12, 5, density=0.3, random_state=np.random.default_rng(6))
        )
        backend = MorpheusBackend(catalog)
        backend.register(NormalizedMatrix("Mn", entity, indicator, attribute))
        parts = [entity.copy(), indicator.toarray(), attribute.copy()]
        value = backend.evaluate(matrix("Mn") + matrix("S"))
        expected = catalog.matrix("Mn").values + catalog.matrix("S").values.toarray()
        assert np.allclose(value, expected)
        now = backend.normalized("Mn")
        for stored, kept in zip(
            (now.entity_part, now.indicator.toarray(), now.attribute_part), parts
        ):
            assert np.array_equal(stored, kept)

    def test_freshness_rule(self):
        from repro.backends.numpy_backend import is_fresh_temporary

        node, leaf = matrix("A") @ matrix("B"), matrix("A")
        owned = np.ones((3, 3))
        assert is_fresh_temporary(node, owned, [])
        assert not is_fresh_temporary(leaf, owned, [])
        assert not is_fresh_temporary(node, owned, [(owned, False)])
        assert not is_fresh_temporary(node, owned.T, [])
        assert not is_fresh_temporary(node, owned[:2], [])
        assert not is_fresh_temporary(node, owned.astype(np.float32), [])
        assert not is_fresh_temporary(node, sparse.csr_matrix(owned), [])
        assert not is_fresh_temporary(node, 1.0, [])
        frozen = np.ones((3, 3))
        frozen.flags.writeable = False
        assert not is_fresh_temporary(node, frozen, [])
