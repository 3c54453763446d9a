"""Relational expression AST for the RA part of hybrid queries.

The hybrid language L of §3 combines LA operators with the standard
relational selection, projection and join, plus the implicit conversions
between relations and matrices (a matrix can be seen as a relation with the
row order forgotten, and a relation can be cast into a matrix).

These nodes are deliberately simple: the relational engine of
:mod:`repro.backends.relational` interprets them over in-memory column
tables, as stated: the hybrid optimizer of :mod:`repro.hybrid` rewrites only
the LA side.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from repro.exceptions import TypeMismatchError
from repro.lang.matrix_expr import Expr

_COMPARATORS = ("==", "!=", "<", "<=", ">", ">=", "like")


class Predicate:
    """A simple comparison predicate ``column <op> value`` (or column/column).

    ``like`` performs a substring match on string columns, mirroring the
    ``text LIKE '%covid%'`` selections of the Twitter benchmark queries.
    """

    __slots__ = ("column", "comparator", "value", "is_column_rhs")

    def __init__(self, column: str, comparator: str, value, is_column_rhs: bool = False):
        if comparator not in _COMPARATORS:
            raise TypeMismatchError(
                f"unsupported comparator {comparator!r}; expected one of {_COMPARATORS}"
            )
        self.column = column
        self.comparator = comparator
        self.value = value
        self.is_column_rhs = bool(is_column_rhs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Predicate)
            and self.column == other.column
            and self.comparator == other.comparator
            and self.value == other.value
            and self.is_column_rhs == other.is_column_rhs
        )

    def __hash__(self) -> int:
        return hash((self.column, self.comparator, repr(self.value), self.is_column_rhs))

    def __repr__(self) -> str:
        rhs = self.value if self.is_column_rhs else repr(self.value)
        return f"{self.column} {self.comparator} {rhs}"


class RelExpr:
    """Base class of relational expression nodes."""

    op: str = "rel"
    __slots__ = ("_children", "_payload", "_hash")

    def __init__(self, children: Tuple["RelExpr", ...] = (), payload: Tuple = ()):
        self._children = tuple(children)
        self._payload = tuple(payload)
        self._hash = hash((self.op, self._children, self._payload))

    @property
    def children(self) -> Tuple["RelExpr", ...]:
        return self._children

    @property
    def payload(self) -> Tuple:
        return self._payload

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RelExpr)
            and self.op == other.op
            and self._children == other._children
            and self._payload == other._payload
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}{self._payload or ''}"


class TableRef(RelExpr):
    """A scan of a stored base table (or materialized relational view)."""

    op = "table"
    __slots__ = ()

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise TypeMismatchError("TableRef needs a non-empty string name")
        super().__init__((), (name,))

    @property
    def name(self) -> str:
        return self._payload[0]


class Selection(RelExpr):
    """Relational selection sigma_p(E)."""

    op = "select"
    __slots__ = ()

    def __init__(self, child: RelExpr, predicates: Sequence[Predicate]):
        if not isinstance(child, RelExpr):
            raise TypeMismatchError("Selection child must be a RelExpr")
        predicates = tuple(predicates)
        if not predicates:
            raise TypeMismatchError("Selection needs at least one predicate")
        for pred in predicates:
            if not isinstance(pred, Predicate):
                raise TypeMismatchError("Selection predicates must be Predicate objects")
        super().__init__((child,), (predicates,))

    @property
    def child(self) -> RelExpr:
        return self._children[0]

    @property
    def predicates(self) -> Tuple[Predicate, ...]:
        return self._payload[0]


class Projection(RelExpr):
    """Relational projection pi_cols(E)."""

    op = "project"
    __slots__ = ()

    def __init__(self, child: RelExpr, columns: Sequence[str]):
        if not isinstance(child, RelExpr):
            raise TypeMismatchError("Projection child must be a RelExpr")
        columns = tuple(columns)
        if not columns:
            raise TypeMismatchError("Projection needs at least one column")
        super().__init__((child,), (columns,))

    @property
    def child(self) -> RelExpr:
        return self._children[0]

    @property
    def columns(self) -> Tuple[str, ...]:
        return self._payload[0]


class Join(RelExpr):
    """Equi-join of two relational expressions on ``left_key = right_key``."""

    op = "join"
    __slots__ = ()

    def __init__(self, left: RelExpr, right: RelExpr, left_key: str, right_key: str):
        for side in (left, right):
            if not isinstance(side, RelExpr):
                raise TypeMismatchError("Join children must be RelExpr nodes")
        super().__init__((left, right), (left_key, right_key))

    @property
    def left(self) -> RelExpr:
        return self._children[0]

    @property
    def right(self) -> RelExpr:
        return self._children[1]

    @property
    def left_key(self) -> str:
        return self._payload[0]

    @property
    def right_key(self) -> str:
        return self._payload[1]


class TableToMatrix(RelExpr):
    """Cast the result of a relational expression into a matrix.

    The selected ``columns`` (all numeric) become the matrix columns; the
    relation's row order is the (arbitrary) matrix row order, as per §3.
    The node lives in the relational AST, but its *result* is a matrix and it
    may be referenced from LA expressions through a named binding (see
    :class:`repro.hybrid.query.HybridQuery`).
    """

    op = "to_matrix"
    __slots__ = ()

    def __init__(self, child: RelExpr, columns: Sequence[str], name: Optional[str] = None):
        if not isinstance(child, RelExpr):
            raise TypeMismatchError("TableToMatrix child must be a RelExpr")
        columns = tuple(columns)
        if not columns:
            raise TypeMismatchError("TableToMatrix needs at least one column")
        super().__init__((child,), (columns, name))

    @property
    def child(self) -> RelExpr:
        return self._children[0]

    @property
    def columns(self) -> Tuple[str, ...]:
        return self._payload[0]

    @property
    def name(self) -> Optional[str]:
        return self._payload[1]


class MatrixToTable(RelExpr):
    """Cast a matrix-valued LA expression back into a relation (§3).

    The row order of the matrix is forgotten; column names must be supplied.
    """

    op = "to_table"
    __slots__ = ("_matrix",)

    def __init__(self, matrix: Expr, columns: Sequence[str]):
        if not isinstance(matrix, Expr):
            raise TypeMismatchError("MatrixToTable needs an LA expression")
        columns = tuple(columns)
        if not columns:
            raise TypeMismatchError("MatrixToTable needs at least one column name")
        super().__init__((), (matrix, columns))
        self._matrix = matrix

    @property
    def matrix(self) -> Expr:
        return self._payload[0]

    @property
    def columns(self) -> Tuple[str, ...]:
        return self._payload[1]


RelOrMatrix = Union[RelExpr, Expr]
