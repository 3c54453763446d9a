"""``dec_LA``: decoding VREM atoms back into LA expression nodes (§5).

The extraction step of the optimizer walks the saturated instance choosing,
for every class, a producing atom (or a leaf fact); this module provides the
single-step decoding of one chosen atom into one AST node, given the already
decoded sub-expressions of its input classes.

The relation -> node mapping is not written out here: it is the operator
registry of :mod:`repro.lang` (:func:`~repro.lang.matrix_expr.operator_for`,
keyed by relation and output position).  Only the leaf facts, the constant
exponent of ``mat_pow`` / ``pow_s`` and the scalar ``*_s`` relations, which
have no node class of their own, are decoded by hand.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import DecodingError
from repro.lang import matrix_expr as mx
from repro.vrem.atoms import Atom, Const
from repro.vrem.schema import relation_spec


def decode_atom_to_expr(
    atom: Atom,
    output_index: int,
    child_exprs: Sequence[mx.Expr],
) -> mx.Expr:
    """Decode one producing atom into one expression node.

    Parameters
    ----------
    atom:
        The operation atom chosen as the derivation of the target class.
    output_index:
        Which of the relation's output positions the target class occupies
        (0 for all single-output relations).
    child_exprs:
        Already decoded expressions for the atom's *input* class arguments,
        in input-position order.  Constant input arguments (e.g. the exponent
        of ``mat_pow``) are not included — they are read from the atom.
    """
    relation = atom.relation
    if relation in ("mat_pow", "pow_s"):
        const = atom.args[relation_spec(relation).input_positions[1]]
        if not isinstance(const, Const):
            raise DecodingError(f"{relation} exponent must be a constant")
        return mx.MatPow(child_exprs[0], int(const.value))
    node = mx.operator_for(relation, output_index)
    if node is not None:
        return node(*child_exprs)
    # Scalar arithmetic is decoded with the matrix-level node set so the
    # resulting expression stays executable: a + b and a * b over 1x1
    # matrices, 1/a as an element-wise division, a^k as repeated product.
    if relation == "add_s":
        return mx.Add(child_exprs[0], child_exprs[1])
    if relation == "multi_s":
        return mx.Hadamard(child_exprs[0], child_exprs[1])
    if relation == "inv_s":
        return mx.ElemDiv(mx.ScalarConst(1.0), child_exprs[0])
    raise DecodingError(f"cannot decode relation {relation!r} into an expression")


def decode_fact_to_expr(atom: Atom, shape=None) -> mx.Expr:
    """Decode a leaf fact atom (name / scalar / identity / zero) into a leaf node."""
    if atom.relation == "name":
        return mx.MatrixRef(atom.args[1].value)
    if atom.relation == "scalar_const":
        return mx.ScalarConst(float(atom.args[1].value))
    if atom.relation == "scalar_name":
        return mx.ScalarRef(atom.args[1].value)
    if atom.relation == "identity":
        if shape is None:
            raise DecodingError("cannot decode identity atom without a known shape")
        return mx.Identity(shape[0])
    if atom.relation == "zero":
        if shape is None:
            raise DecodingError("cannot decode zero atom without a known shape")
        return mx.Zero(shape[0], shape[1])
    raise DecodingError(f"atom {atom!r} is not a decodable leaf fact")
