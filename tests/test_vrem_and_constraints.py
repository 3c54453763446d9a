"""Tests for the VREM encoding, the instance, and the constraint DSL / libraries."""

import pytest

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
from repro.exceptions import ChaseError, EncodingError, ViewError
from repro.lang import colsums, inv, matrix, sum_all, transpose, scalar
from repro.lang import matrix_expr as mx
from repro.vrem.atoms import Atom, Const, Var, make_atom
from repro.vrem.decoder import decode_atom_to_expr, decode_fact_to_expr
from repro.vrem.encoder import LAEncoder, encode_expression
from repro.vrem.instance import VremInstance
from repro.vrem.schema import VREM_SCHEMA, infer_output_shapes, relation_spec


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
        assert infer_output_shapes("multi_m", [(4, 3), (3, 7)]) == ((4, 7),)
        assert infer_output_shapes("tr", [(4, 3)]) == ((3, 4),)
        assert infer_output_shapes("col_sums", [(4, 3)]) == ((1, 3),)
        assert infer_output_shapes("det", [(4, 4)]) == ((1, 1),)
        assert infer_output_shapes("multi_m", [None, (3, 7)]) == (None,)


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
        assert len(matrix_model_constraints()) >= 10
        assert len(la_property_constraints()) >= 40
        assert len(systemml_rule_constraints()) >= 40
        assert len(decomposition_constraints()) >= 10
        assert len(morpheus_rule_constraints()) >= 6

    def test_both_directions_present_for_key_properties(self):
        names = {c.name for c in la_property_constraints()}
        assert "tr-product-fwd" in names and "tr-product-rev" in names
        assert "mult-assoc-fwd" in names and "mult-assoc-rev" in names


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
