"""Shape inference and validation for LA expressions.

The cost model of §7.1 sums the sizes of intermediate results, so every
optimizer component needs to know the dimensions of every sub-expression.
:func:`shape_of` computes ``(rows, cols)`` for an expression given the
dimensions of its leaf matrices; :func:`check_expr` walks an expression and
raises :class:`~repro.exceptions.ShapeError` on any dimension mismatch
(non-conformable product, addition of different shapes, inverse of a
non-square matrix, ...).

The operator facts are not repeated here: each node class of
:mod:`repro.lang.matrix_expr` names its conformability checks
(``Expr.checks``, keys of :data:`CHECKS`) and its output-dimension rule
(``Expr.dims``), the same rule the chase applies to VREM atoms through
:attr:`repro.vrem.schema.RelationSpec.dims`.  This module holds the checks
and resolves leaves.

Leaf dimensions are provided by any object exposing ``shape(name)`` — in
practice a :class:`repro.data.catalog.Catalog` — or by a plain ``dict``
mapping matrix names to ``(rows, cols)`` tuples.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Tuple, Union

from repro.exceptions import ShapeError, UnknownMatrixError
from repro.lang import matrix_expr as mx
from repro.lang.matrix_expr import SCALAR_SHAPE, Shape

ShapeSource = Union[Mapping[str, Shape], "SupportsShape"]


def is_scalar_shape(shape: Shape) -> bool:
    """True when the shape is the degenerate 1x1 shape used for scalars."""
    return tuple(shape) == SCALAR_SHAPE


def _leaf_shape(name: str, shapes: ShapeSource) -> Shape:
    """Resolve the dimensions of a named leaf matrix."""
    if hasattr(shapes, "shape"):
        return tuple(shapes.shape(name))  # type: ignore[union-attr]
    try:
        return tuple(shapes[name])  # type: ignore[index]
    except KeyError as exc:
        raise UnknownMatrixError(f"matrix {name!r} has no registered shape") from exc


#: The conformability checks an operator class names in ``Expr.checks``:
#: a predicate over the input shapes, and what it requires of them.
CHECKS: Dict[str, Tuple[Callable[..., bool], str]] = {
    "square": (lambda a: a[0] == a[1], "a square matrix"),
    "square_or_column": (lambda a: a[1] == 1 or a[0] == a[1], "a square matrix or a column vector"),
    "conformable": (lambda a, b: a[1] == b[0], "conformable operands"),
    "equal_or_scalar": (lambda a, b: a == b or SCALAR_SHAPE in (a, b), "operands of identical shape"),
    "scalar_operand": (lambda a, b: a == SCALAR_SHAPE, "a 1x1 scalar operand"),
    "equal_rows": (lambda a, b: a[0] == b[0], "equal row counts"),
    "equal_cols": (lambda a, b: a[1] == b[1], "equal column counts"),
}


def shape_of(expr: mx.Expr, shapes: ShapeSource, _cache: Dict[mx.Expr, Shape] = None) -> Shape:
    """Return ``(rows, cols)`` of ``expr``, validating conformability.

    Raises
    ------
    ShapeError
        If any operator in the expression is applied to operands of
        incompatible dimensions.
    UnknownMatrixError
        If a leaf matrix name cannot be resolved.
    """
    if _cache is None:
        _cache = {}
    cached = _cache.get(expr)
    if cached is not None:
        return cached
    shape = _shape_of(expr, shapes, _cache)
    _cache[expr] = shape
    return shape


def _shape_of(expr: mx.Expr, shapes: ShapeSource, cache: Dict[mx.Expr, Shape]) -> Shape:
    if isinstance(expr, mx.MatrixRef):
        return _leaf_shape(expr.name, shapes)
    if isinstance(expr, (mx.ScalarConst, mx.ScalarRef)):
        return SCALAR_SHAPE
    if isinstance(expr, mx.Identity):
        return (expr.n, expr.n)
    if isinstance(expr, mx.Zero):
        return (expr.rows, expr.cols)
    if mx.operator_for(expr.relation, expr.output) is not type(expr):
        raise ShapeError(f"shape inference does not know operator {expr.op!r}")
    inputs = [shape_of(child, shapes, cache) for child in expr.children]
    for check in expr.checks:
        holds, requirement = CHECKS[check]
        if not holds(*inputs):
            got = " and ".join(f"{rows}x{cols}" for rows, cols in inputs)
            raise ShapeError(f"{type(expr).__name__} requires {requirement}, got {got}")
    return expr.dims(inputs)


def check_expr(expr: mx.Expr, shapes: ShapeSource) -> Shape:
    """Validate an entire expression and return its result shape.

    This is just :func:`shape_of`, exported under a name that makes call
    sites read as an assertion (``check_expr(pipeline, catalog)``).
    """
    return shape_of(expr, shapes)
