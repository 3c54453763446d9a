"""Tests for the VREM encoding, the instance, and the constraint DSL / libraries."""

import numpy as np
import pytest
from scipy import linalg as scipy_linalg

from repro.api.schema import expr_from_json, expr_to_json
from repro.backends.numpy_backend import NumpyBackend
from repro.chase.kernel import kernel_for
from repro.constraints import (
    default_constraints,
    la_property_constraints,
    matrix_model_constraints,
    morpheus_rule_constraints,
    systemml_rule_constraints,
)
from repro.constraints.core import EGD, TGD, egd, parse_atoms, tgd, validate_constraints
from repro.constraints.decompositions import decomposition_constraints
from repro.constraints.views import LAView, constraints_for_views, view_constraints
from repro.core.extraction import extract_best_expression
from repro.cost.model import annotate_instance_classes
from repro.cost.naive_estimator import NaiveMetadataEstimator
from repro.data.catalog import Catalog
from repro.exceptions import ChaseError, EncodingError, ShapeError, ViewError
from repro.lang import colsums, inv, matrix, sum_all, transpose, scalar
from repro.lang import matrix_expr as mx
from repro.lang.shapes import shape_of
from repro.vrem.atoms import Atom, Const, Var, make_atom
from repro.vrem.decoder import decode_atom_to_expr, decode_fact_to_expr
from repro.vrem.encoder import LAEncoder, encode_expression
from repro.vrem.instance import VremInstance
from repro.vrem.schema import COMMUTATIVE_RELATIONS, VREM_SCHEMA, relation_spec


class TestAtoms:
    def test_make_atom_wraps_constants(self):
        atom = make_atom("name", 3, "M.csv")
        assert atom.args == (3, Const("M.csv"))
        assert atom.is_ground()

    def test_variables_detected(self):
        atom = Atom("multi_m", (Var("M"), Var("N"), Var("R")))
        assert not atom.is_ground()
        assert [v.name for v in atom.variables()] == ["M", "N", "R"]


class TestSchema:
    def test_all_relations_have_consistent_specs(self):
        for name, spec in VREM_SCHEMA.items():
            assert spec.arity >= 1
            assert all(0 <= pos < spec.arity for pos in spec.output_positions)
            assert all(0 <= pos < spec.input_positions[-1] + 1 for pos in spec.input_positions)

    def test_functional_relations(self):
        assert relation_spec("multi_m").functional
        assert not relation_spec("name").functional

    def test_shape_inference_product(self):
        def output_shapes(relation, shapes):
            return tuple(rule(shapes) for rule in relation_spec(relation).dims)

        assert output_shapes("multi_m", [(4, 3), (3, 7)]) == ((4, 7),)
        assert output_shapes("tr", [(4, 3)]) == ((3, 4),)
        assert output_shapes("col_sums", [(4, 3)]) == ((1, 3),)
        assert output_shapes("det", [(4, 4)]) == ((1, 1),)
        assert output_shapes("multi_m", [None, (3, 7)]) == (None,)
        assert output_shapes("qr", [(5, 5)]) == ((5, 5), (5, 5))

    #: Input shapes each dimension rule is tried on: conformable, square,
    #: column, 1x1 beside a matrix, and partly unknown.
    SAMPLE_SHAPES = (
        [(4, 3), (3, 7)], [(5, 5), (5, 5)], [(6, 1), (6, 1)], [(1, 1), (4, 3)],
        [(4, 3), (1, 1)], [None, (3, 7)], [(4, 3), None], [None, None],
    )

    def test_specs_agree_with_the_lang_declarations(self):
        """Every spec field the per-atom paths read is what the operator
        classes declare: inputs and outputs, commutativity, dimension rules.
        The scalar relations, which no class declares, commute as the
        matrix node they decode to does and always yield a 1x1."""
        for name, spec in VREM_SCHEMA.items():
            n_inputs = len(spec.input_positions)
            assert spec.functional == bool(spec.output_positions), name
            assert spec.commutative == (name in COMMUTATIVE_RELATIONS), name
            assert len(spec.dims) == len(spec.output_positions), name
            if not spec.functional:
                assert not spec.commutative and not spec.scalar_output, name
                continue
            # Operations list their inputs first.
            assert spec.input_positions == tuple(range(n_inputs)), name
            declared = [mx.operator_for(name, out) for out in range(len(spec.dims))]
            if declared[0] is None:
                # Scalar arithmetic: decode one atom to see which node it is.
                args = list(range(n_inputs)) + [n_inputs]
                if name == "pow_s":
                    args[1] = Const(2)
                node = decode_atom_to_expr(
                    Atom(name, tuple(args)), 0, [matrix("a"), matrix("b")][: n_inputs]
                )
                assert spec.commutative == type(node).commutative, name
                assert spec.scalar_output, name
                assert all(
                    rule(shapes[:n_inputs]) == (1, 1)
                    for rule in spec.dims for shapes in self.SAMPLE_SHAPES
                ), name
                continue
            assert None not in declared, name
            assert n_inputs == declared[0].arity + (name == "mat_pow"), name
            assert mx.operator_for(name, len(spec.dims)) is None, name
            assert spec.commutative == declared[0].commutative, name
            assert spec.scalar_output == all(
                cls.dims(shapes[:n_inputs]) == (1, 1)
                for cls in declared for shapes in self.SAMPLE_SHAPES
            ), name
            for rule, cls in zip(spec.dims, declared):
                for shapes in self.SAMPLE_SHAPES:
                    assert rule(shapes[:n_inputs]) == cls.dims(shapes[:n_inputs]), name
        # Every commutative operator class is a commutative relation.
        assert {
            cls.relation for cls in mx.op_registry().values() if cls.commutative
        } <= COMMUTATIVE_RELATIONS == {"add_m", "multi_e", "add_s", "multi_s"}


#: NumPy reference semantics of every operator, over dense operands.
_REFERENCE = {
    "tr": lambda a: a.T,
    "inv_m": np.linalg.inv,
    "exp": scipy_linalg.expm,
    "adj": lambda a: np.linalg.det(a) * np.linalg.inv(a),
    "diag": lambda a: np.diag(a)[:, None],
    "rev": lambda a: a[::-1],
    "row_sums": lambda a: a.sum(axis=1)[:, None],
    "col_sums": lambda a: a.sum(axis=0)[None, :],
    "row_means": lambda a: a.mean(axis=1)[:, None],
    "col_means": lambda a: a.mean(axis=0)[None, :],
    "row_max": lambda a: a.max(axis=1)[:, None],
    "col_max": lambda a: a.max(axis=0)[None, :],
    "row_min": lambda a: a.min(axis=1)[:, None],
    "col_min": lambda a: a.min(axis=0)[None, :],
    "row_var": lambda a: a.var(axis=1, ddof=1)[:, None],
    "col_var": lambda a: a.var(axis=0, ddof=1)[None, :],
    "det": np.linalg.det,
    "trace": np.trace,
    "sum": np.sum,
    "mean": np.mean,
    "var": lambda a: np.var(a, ddof=1),
    "min": np.min,
    "max": np.max,
    "multi_m": lambda a, b: a @ b,
    "add_m": lambda a, b: a + b,
    "sub_m": lambda a, b: a - b,
    "div_m": lambda a, b: a / b,
    "multi_e": lambda a, b: a * b,
    "multi_ms": lambda s, a: s * a,
    "sum_d": scipy_linalg.block_diag,
    "product_d": np.kron,
    "cbind": lambda a, b: np.hstack([a, b]),
    "rbind": lambda a, b: np.vstack([a, b]),
    "mat_pow": lambda a: np.linalg.matrix_power(a, 3),
    "cho": np.linalg.cholesky,
    "qr_q": lambda a: np.linalg.qr(a)[0],
    "qr_r": lambda a: np.linalg.qr(a)[1],
    "lu_l": lambda a: scipy_linalg.lu(a)[0] @ scipy_linalg.lu(a)[1],
    "lu_u": lambda a: scipy_linalg.lu(a)[2],
    "lup_l": lambda a: scipy_linalg.lu(a)[1],
    "lup_u": lambda a: scipy_linalg.lu(a)[2],
    "lup_p": lambda a: scipy_linalg.lu(a)[0].T,
}

#: Operand shapes that break each conformability check, for "L" and "R".
_BREAKS = {
    "square": ((4, 3), (4, 3)),
    "square_or_column": ((4, 3), (4, 3)),
    "conformable": ((4, 3), (4, 3)),
    "equal_or_scalar": ((4, 3), (3, 4)),
    "scalar_operand": ((2, 2), (4, 4)),
    "equal_rows": ((4, 3), (3, 3)),
    "equal_cols": ((4, 3), (4, 2)),
}

_OPERATORS = [cls for cls in mx.op_registry().values() if cls.arity]


class TestOperatorRegistry:
    """Every operator class, through every layer that reads its declaration."""

    @pytest.mark.parametrize("cls", _OPERATORS, ids=lambda cls: cls.op)
    def test_operator_round_trips_and_matches_numpy(self, rng, cls):
        def build(*operands):
            return cls(*operands, 3) if cls is mx.MatPow else cls(*operands)

        left = "s" if cls is mx.ScalarMul else "L"
        expr = build(*(matrix(name) for name in (left, "R")[: cls.arity]))
        spd = rng.random((4, 4))
        values = {"L": spd @ spd.T + 4 * np.eye(4), "R": rng.random((4, 4)) + 1, "s": np.array([[2.5]])}
        catalog = Catalog()
        for name, value in values.items():
            catalog.register_dense(name, value)

        # (a) enc_LA then extraction from a fresh instance gives the node back.
        instance, root = encode_expression(expr, catalog=catalog)
        infos = annotate_instance_classes(instance, catalog, NaiveMetadataEstimator())
        assert extract_best_expression(instance, root, infos)[0] == expr
        assert expr_from_json(expr_to_json(expr)) == expr
        # (b) its relation is in the VREM schema with the node's input arity.
        spec = VREM_SCHEMA[cls.relation]
        assert len(spec.input_positions) == cls.arity + (cls is mx.MatPow)
        assert cls.output < len(spec.output_positions)
        # (c) each check it lists rejects operands that break it.
        for check in cls.checks:
            bad = dict(zip(("s" if cls is mx.ScalarMul else "L", "R"), _BREAKS[check]))
            with pytest.raises(ShapeError):
                shape_of(expr, bad)
        # (d) the as-stated evaluator agrees with NumPy, in value and shape.
        value = np.asarray(NumpyBackend(catalog).evaluate(expr))
        reference = _REFERENCE[cls.op](*(values[name] for name in (left, "R")[: cls.arity]))
        assert np.allclose(value, reference)
        assert np.shape(np.atleast_2d(value)) == shape_of(expr, catalog)


class TestInstance:
    def test_new_class_and_union(self):
        instance = VremInstance()
        a, b = instance.new_class(), instance.new_class()
        assert not instance.same_class(a, b)
        instance.union(a, b)
        assert instance.same_class(a, b)

    def test_congruence_merges_equal_operations(self):
        instance = VremInstance()
        m, n = instance.new_class(), instance.new_class()
        (r1,) = instance.add_op("multi_m", (m, n))
        (r2,) = instance.add_op("multi_m", (m, n))
        assert instance.find(r1) == instance.find(r2)

    def test_congruence_after_input_merge(self):
        instance = VremInstance()
        m, n, p = instance.new_class(), instance.new_class(), instance.new_class()
        (r1,) = instance.add_op("tr", (m,))
        (r2,) = instance.add_op("tr", (p,))
        assert not instance.same_class(r1, r2)
        instance.union(m, p)
        instance.rebuild()
        assert instance.same_class(r1, r2)

    def test_shape_metadata_and_conflicts(self):
        instance = VremInstance()
        m = instance.new_class()
        instance.set_shape(m, (4, 5))
        assert instance.shape(m) == (4, 5)
        with pytest.raises(ChaseError):
            instance.set_shape(m, (3, 3))

    def test_shape_inferred_through_operations(self):
        instance = VremInstance()
        m, n = instance.new_class(), instance.new_class()
        instance.set_shape(m, (4, 3))
        instance.set_shape(n, (3, 6))
        (r,) = instance.add_op("multi_m", (m, n))
        assert instance.shape(r) == (4, 6)

    def test_size_atoms_become_metadata(self):
        instance = VremInstance()
        m = instance.new_class()
        instance.add_atom("size", (m, Const(7), Const(2)))
        assert instance.shape(m) == (7, 2)

    def test_leaf_names_and_lookup(self):
        instance = VremInstance()
        m = instance.new_class()
        instance.add_atom("name", (m, Const("M.csv")))
        assert instance.leaf_name(m) == "M.csv"
        assert instance.class_of_name("M.csv") == instance.find(m)
        assert instance.class_of_name("missing") is None

    def test_positional_index(self):
        instance = VremInstance()
        m, n = instance.new_class(), instance.new_class()
        (r,) = instance.add_op("multi_m", (m, n))
        hits = instance.atoms_with("multi_m", 0, m)
        assert len(hits) == 1

    def test_producers(self):
        instance = VremInstance()
        m, n = instance.new_class(), instance.new_class()
        (r,) = instance.add_op("add_m", (m, n))
        producers = instance.producers(r)
        assert len(producers) == 1 and producers[0].relation == "add_m"

    def test_variables_rejected_in_ground_atoms(self):
        instance = VremInstance()
        with pytest.raises(ChaseError):
            instance.add_atom("name", (Var("x"), Const("M")))


class TestEncoderDecoder:
    def test_encode_simple_product(self, small_catalog):
        expr = transpose(matrix("M") @ matrix("N"))
        instance, root = encode_expression(expr, catalog=small_catalog)
        assert instance.shape(root) == (40, 40)
        relations = {atom.relation for atom in instance.atoms()}
        assert {"name", "multi_m", "tr"} <= relations

    def test_shared_subexpressions_share_classes(self, small_catalog):
        shared = matrix("M") @ matrix("N")
        expr = shared + shared
        instance, _ = encode_expression(expr, catalog=small_catalog)
        assert sum(1 for _ in instance.atoms("multi_m")) == 1

    def test_scalars_and_constants(self, small_catalog):
        expr = mx.ScalarMul(scalar("s1"), matrix("M")) + mx.ScalarMul(mx.ScalarConst(2.0), matrix("M"))
        instance, root = encode_expression(expr, catalog=small_catalog)
        assert instance.shape(root) == small_catalog.shape("M")

    def test_type_atoms_from_catalog(self, small_catalog):
        instance, root = encode_expression(mx.CholeskyFactor(matrix("SPD")), catalog=small_catalog)
        spd_class = instance.class_of_name("SPD")
        assert "S" in instance.types_of(spd_class)

    def test_decompositions_encode_with_two_outputs(self, small_catalog):
        instance, q_root = encode_expression(mx.QRFactorQ(matrix("C")), catalog=small_catalog)
        encoder = LAEncoder(instance, small_catalog)
        r_root = encoder.encode(mx.QRFactorR(matrix("C")))
        assert sum(1 for _ in instance.atoms("qr")) == 1
        assert not instance.same_class(q_root, r_root)

    def test_unencodable_operator_raises(self):
        class Fake(mx.Expr):
            op = "not_a_relation"
            arity = 1

        with pytest.raises(EncodingError):
            encode_expression(Fake((matrix("M"),)))

    def test_decode_fact_atoms(self):
        assert decode_fact_to_expr(Atom("name", (1, Const("M.csv")))) == matrix("M.csv")
        assert decode_fact_to_expr(Atom("identity", (1,)), shape=(3, 3)) == mx.Identity(3)
        assert decode_fact_to_expr(Atom("scalar_const", (1, Const(2.0)))) == mx.ScalarConst(2.0)

    def test_decode_op_atoms(self):
        atom = Atom("multi_m", (1, 2, 3))
        expr = decode_atom_to_expr(atom, 0, [matrix("A"), matrix("B")])
        assert expr == matrix("A") @ matrix("B")
        qr_atom = Atom("qr", (1, 2, 3))
        assert isinstance(decode_atom_to_expr(qr_atom, 1, [matrix("A")]), mx.QRFactorR)

    def test_round_trip_encode_decode_via_producers(self, small_catalog):
        expr = colsums(matrix("M") @ matrix("N"))
        instance, root = encode_expression(expr, catalog=small_catalog)
        producers = instance.producers(root)
        assert producers and producers[0].relation == "col_sums"


class TestConstraintDSL:
    def test_parse_atoms(self):
        atoms = parse_atoms('multi_m(M, N, R) & name(M, "M.csv")')
        assert atoms[0].relation == "multi_m"
        assert atoms[1].args[1] == Const("M.csv")

    def test_unknown_relation_rejected(self):
        with pytest.raises(ChaseError):
            parse_atoms("unknown_rel(M, N)")

    def test_wrong_arity_rejected(self):
        with pytest.raises(ChaseError):
            parse_atoms("multi_m(M, N)")

    def test_tgd_existentials(self):
        constraint = tgd("t", "multi_m(M, N, R1) & tr(R1, R2) -> tr(N, R4) & multi_m(R4, R3, R2) & tr(M, R3)")
        existentials = {v.name for v in constraint.existential_variables()}
        assert existentials == {"R3", "R4"}

    def test_egd_parse_and_validate(self):
        constraint = egd("e", "tr(M, R1) & tr(R1, R2) -> R2 = M")
        assert constraint.equalities == ((Var("R2"), Var("M")),)
        validate_constraints([constraint])

    def test_egd_with_numeric_constant(self):
        constraint = egd("e", "identity(I) & det(I, d) -> d = 1")
        assert constraint.equalities[0][1] == Const(1)

    def test_duplicate_names_rejected(self):
        a = tgd("same", "add_m(M, N, R) -> add_m(N, M, R)")
        with pytest.raises(ChaseError):
            validate_constraints([a, a])


class TestConstraintLibraries:
    def test_all_libraries_parse_and_validate(self):
        constraints = default_constraints(include_decompositions=True, include_morpheus=True)
        validate_constraints(constraints)
        assert len(constraints) > 100

    def test_library_composition(self):
        assert len(matrix_model_constraints()) == 11
        assert len(la_property_constraints()) == 57
        assert len(systemml_rule_constraints()) == 44
        assert len(decomposition_constraints()) == 12
        assert len(morpheus_rule_constraints()) == 5

    def test_both_directions_present_for_key_properties(self):
        names = {c.name for c in la_property_constraints()}
        assert "tr-product-fwd" in names and "tr-product-rev" in names
        assert "mult-assoc-fwd" in names and "mult-assoc-rev" in names


def _rule(name):
    everything = default_constraints(include_decompositions=True, include_morpheus=True)
    return next(c for c in everything if c.name == name)


class TestUnsoundRulesRepaired:
    """Rules whose conclusion the as-stated evaluator contradicts."""

    @staticmethod
    def _catalog(rng, shapes):
        catalog = Catalog()
        for name, shape in shapes.items():
            catalog.register_dense(name, rng.random(shape))
        return catalog

    @pytest.mark.parametrize("rule,node,shapes,fires", [
        # (M ⊕ N) + (C ⊕ D) is 5x5 either way; M + C only when shape(M) = shape(C).
        ("directsum-add", mx.Add,
         {"M": (2, 3), "N": (3, 2), "C": (3, 2), "D": (2, 3)}, False),
        ("directsum-add", mx.Add,
         {"M": (2, 3), "N": (3, 2), "C": (2, 3), "D": (3, 2)}, True),
        # (M ⊕ N)(C ⊕ D) is 5x5 either way; M C only when cols(M) = rows(C).
        ("directsum-product", mx.MatMul,
         {"M": (2, 3), "N": (3, 2), "C": (2, 4), "D": (3, 1)}, False),
        ("directsum-product", mx.MatMul,
         {"M": (2, 3), "N": (3, 2), "C": (3, 4), "D": (2, 1)}, True),
    ])
    def test_direct_sum_rules_fire_only_when_the_conclusion_evaluates(
        self, rng, rule, node, shapes, fires
    ):
        catalog = self._catalog(rng, shapes)
        m, n, c, d = (matrix(name) for name in "MNCD")
        original = node(mx.DirectSum(m, n), mx.DirectSum(c, d))
        conclusion = mx.DirectSum(node(m, c), node(n, d))
        instance, _ = encode_expression(original, catalog=catalog)
        matches = kernel_for(_rule(rule)).full_matches(instance)
        assert len(matches) == int(fires)
        backend = NumpyBackend(catalog)
        if fires:
            assert np.allclose(backend.evaluate(conclusion), backend.evaluate(original))
        else:
            with pytest.raises(ValueError):
                backend.evaluate(conclusion)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("node,shape", [(mx.ColVar, (1, 5)), (mx.RowVar, (5, 1))])
    def test_variance_of_a_vector_is_never_the_vector(self, rng, node, shape):
        catalog = self._catalog(rng, {"M": shape})
        assert np.isnan(NumpyBackend(catalog).evaluate(node(matrix("M")))).all()
        names = {c.name for c in default_constraints(
            include_decompositions=True, include_morpheus=True)}
        assert not names & {"sml-col_var-rowvector", "sml-row_var-colvector"}
        assert {"sml-col_sums-rowvector", "sml-row_sums-colvector"} <= names

    def test_lu_rules_claim_only_what_the_evaluator_returns(self):
        # A pivot moves on this M, so lu_l(M) = P L is not lower-triangular.
        catalog = Catalog()
        catalog.register_dense("M", np.array([[1.0, 2.0, 0.0], [3.0, 1.0, 1.0], [0.0, 2.0, 5.0]]))
        catalog.register_dense("L", np.array([[2.0, 0.0], [1.0, 3.0]]))
        catalog.register_dense("U", np.array([[2.0, 1.0], [0.0, 3.0]]))
        backend = NumpyBackend(catalog)
        l, u = (backend.evaluate(node(matrix("M"))) for node in (mx.LUFactorL, mx.LUFactorU))
        assert np.allclose(l @ u, catalog.matrix("M").values)
        assert np.allclose(u, np.triu(u)) and not np.allclose(l, np.tril(l))
        conclusion = _rule("lu-defining").conclusion
        assert [atom.args for atom in conclusion if atom.relation == "type"] == [(Var("U"), Const("U"))]
        # lu(L) = (L, I) fails for a lower-triangular L off the unit diagonal.
        assert not np.allclose(backend.evaluate(mx.LUFactorL(matrix("L"))), catalog.matrix("L").values)
        names = {c.name for c in decomposition_constraints()}
        assert "lu-lower-fixpoint" not in names
        # lu(U) = (I, U) holds and stays.
        assert "lu-upper-fixpoint" in names
        assert np.allclose(backend.evaluate(mx.LUFactorL(matrix("U"))), np.eye(2))
        assert np.allclose(backend.evaluate(mx.LUFactorU(matrix("U"))), catalog.matrix("U").values)


class TestViewConstraints:
    def test_view_io_and_oi_generated(self, small_catalog):
        view = LAView("V7.csv", inv(matrix("C")))
        constraints = view_constraints(view, small_catalog)
        assert len(constraints) == 2
        io_constraint = constraints[0]
        assert isinstance(io_constraint, TGD)
        assert io_constraint.conclusion[0].relation == "name"
        assert io_constraint.conclusion[0].args[1] == Const("V7.csv")

    def test_view_oi_inverts_view_io(self, small_catalog):
        view = LAView("V.csv", matrix("C") @ matrix("D"))
        io_constraint, oi_constraint = view_constraints(view, small_catalog)
        assert oi_constraint.name == "view-oi:V.csv"
        assert oi_constraint.premise == io_constraint.conclusion
        assert oi_constraint.conclusion == io_constraint.premise

    def test_multiple_views(self, small_catalog):
        views = [LAView("V1", inv(matrix("C"))), LAView("V2", matrix("C") + matrix("D"))]
        assert len(constraints_for_views(views, small_catalog)) == 4

    def test_invalid_view_rejected(self):
        with pytest.raises(ViewError):
            LAView("", matrix("C"))
        with pytest.raises(ViewError):
            LAView("V", "not an expression")

    def test_aggregate_view_encodes(self, small_catalog):
        view = LAView("Vsum", sum_all(matrix("M")))
        (io_constraint, _) = view_constraints(view, small_catalog)
        assert any(atom.relation == "sum" for atom in io_constraint.premise)
