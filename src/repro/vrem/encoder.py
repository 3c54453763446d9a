"""``enc_LA``: encoding LA expressions on the VREM schema (paper §6.2.2).

The encoder walks an :class:`~repro.lang.matrix_expr.Expr` bottom-up and
produces, inside a :class:`~repro.vrem.instance.VremInstance`,

* one ``name`` atom per referenced base matrix (plus its ``size``/shape and
  ``type`` metadata, read from the catalog when one is supplied), and
* one operation atom per AST node, whose output argument is the equivalence
  class standing for the node's value.

The encoder keeps no operator table: each node class of
:mod:`repro.lang.matrix_expr` declares its relation (``Expr.relation``) and
which output of it the node is (``Expr.output``, e.g. ``qr_r`` is output 1
of ``qr``).  Only the leaves and ``MatPow``'s constant exponent are encoded
by hand.

Because the instance hash-conses operation atoms (congruence), encoding the
same sub-expression twice yields the same class — exactly the paper's
"two expressions are assigned the same ID iff they yield value-based-equal
matrices" reading, restricted to syntactic equality until the chase adds
semantic equalities.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.data.catalog import Catalog
from repro.data.matrix import MatrixType
from repro.exceptions import EncodingError
from repro.lang import matrix_expr as mx
from repro.vrem.atoms import Const
from repro.vrem.instance import VremInstance


class LAEncoder:
    """Stateful encoder producing class IDs inside one instance."""

    def __init__(self, instance: VremInstance, catalog: Optional[Catalog] = None):
        self.instance = instance
        self.catalog = catalog
        self._memo: Dict[mx.Expr, int] = {}

    # -- leaves ----------------------------------------------------------------
    def _encode_matrix_ref(self, expr: mx.MatrixRef) -> int:
        existing = self.instance.class_of_name(expr.name)
        if existing is not None:
            return existing
        cid = self.instance.new_class()
        self.instance.add_atom("name", (cid, Const(expr.name)))
        if self.catalog is not None and self.catalog.has_matrix(expr.name):
            meta = self.catalog.meta(expr.name)
            self.instance.set_shape(cid, meta.shape)
            if meta.matrix_type != MatrixType.GENERAL:
                self.instance.add_atom("type", (cid, Const(meta.matrix_type)))
        return cid

    def _encode_scalar_const(self, expr: mx.ScalarConst) -> int:
        for atom in self.instance.atoms_with("scalar_const", 1, Const(expr.value)):
            return self.instance.find(atom.args[0])
        cid = self.instance.new_class()
        self.instance.add_atom("scalar_const", (cid, Const(expr.value)))
        self.instance.set_shape(cid, (1, 1))
        return cid

    def _encode_scalar_ref(self, expr: mx.ScalarRef) -> int:
        for atom in self.instance.atoms_with("scalar_name", 1, Const(expr.name)):
            return self.instance.find(atom.args[0])
        cid = self.instance.new_class()
        self.instance.add_atom("scalar_name", (cid, Const(expr.name)))
        self.instance.set_shape(cid, (1, 1))
        return cid

    def _encode_identity(self, expr: mx.Identity) -> int:
        for atom in self.instance.atoms("identity"):
            cid = self.instance.find(atom.args[0])
            if self.instance.shape(cid) == (expr.n, expr.n):
                return cid
        cid = self.instance.new_class()
        self.instance.add_atom("identity", (cid,))
        self.instance.set_shape(cid, (expr.n, expr.n))
        return cid

    def _encode_zero(self, expr: mx.Zero) -> int:
        for atom in self.instance.atoms("zero"):
            cid = self.instance.find(atom.args[0])
            if self.instance.shape(cid) == (expr.rows, expr.cols):
                return cid
        cid = self.instance.new_class()
        self.instance.add_atom("zero", (cid,))
        self.instance.set_shape(cid, (expr.rows, expr.cols))
        return cid

    # -- main dispatch ------------------------------------------------------------
    def encode(self, expr: mx.Expr) -> int:
        """Encode an expression and return the class ID of its value."""
        memoised = self._memo.get(expr)
        if memoised is not None:
            return self.instance.find(memoised)

        if isinstance(expr, mx.MatPow):
            child = self.encode(expr.child)
            (cid,) = self.instance.add_op("mat_pow", (child, Const(expr.exponent)))
        elif expr.children:
            if mx.operator_for(expr.relation, expr.output) is not type(expr):
                raise EncodingError(f"cannot encode operator {expr.op!r} on VREM")
            inputs = [self.encode(child) for child in expr.children]
            cid = self.instance.add_op(expr.relation, inputs)[expr.output]
        elif isinstance(expr, mx.MatrixRef):
            cid = self._encode_matrix_ref(expr)
        elif isinstance(expr, mx.ScalarConst):
            cid = self._encode_scalar_const(expr)
        elif isinstance(expr, mx.ScalarRef):
            cid = self._encode_scalar_ref(expr)
        elif isinstance(expr, mx.Identity):
            cid = self._encode_identity(expr)
        elif isinstance(expr, mx.Zero):
            cid = self._encode_zero(expr)
        else:
            raise EncodingError(f"cannot encode operator {expr.op!r} on VREM")

        self._memo[expr] = cid
        return self.instance.find(cid)


def encode_expression(
    expr: mx.Expr,
    instance: Optional[VremInstance] = None,
    catalog: Optional[Catalog] = None,
) -> Tuple[VremInstance, int]:
    """One-shot helper: encode ``expr`` and return ``(instance, root class)``."""
    instance = instance if instance is not None else VremInstance()
    encoder = LAEncoder(instance, catalog)
    root = encoder.encode(expr)
    return instance, root
