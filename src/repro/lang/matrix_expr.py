"""Linear-algebra expression AST.

Every node is an immutable, hashable value object.  Structural equality is
used throughout the optimizer (memoisation, duplicate elimination in the
rewrite search, test assertions), so ``__eq__``/``__hash__`` are defined once
on the base class in terms of the node's *signature* — its operator name plus
its children and scalar payloads.

The operator set follows §6.1 of the paper: element-wise multiplication
(Hadamard product), matrix-scalar multiplication, matrix multiplication,
addition, (element-wise) division, transposition, inversion, determinant,
trace, diagonal, exponential, adjoint, direct sum, direct product, summation,
row/column summation, and the QR / Cholesky / LU / pivoted-LU decompositions.
The SystemML rewrite rules of Appendix B additionally mention row/column
means, variances, minima, maxima and the row-reversal ``rev``; those are
included as well so that the MMC_StatAgg constraints can be expressed.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, Type, Union

from repro.exceptions import TypeMismatchError

Number = Union[int, float]
Shape = Tuple[int, int]
Shapes = Sequence[Optional[Shape]]
SCALAR_SHAPE: Shape = (1, 1)


# ---------------------------------------------------------------------------
# Output-dimension rules.  Each takes the shapes of a node's inputs in order
# (``None`` where unknown) and returns the output shape, or ``None`` when the
# known inputs do not determine it.  :func:`repro.lang.shapes.shape_of`
# applies them after its conformability checks, and the VREM instance to
# every atom the chase adds (read off :attr:`repro.vrem.schema.RelationSpec.dims`).
# ---------------------------------------------------------------------------


def _same(shapes: Shapes) -> Optional[Shape]:
    return shapes[0]


def _transposed(shapes: Shapes) -> Optional[Shape]:
    a = shapes[0]
    return (a[1], a[0]) if a else None


def _per_row(shapes: Shapes) -> Optional[Shape]:
    a = shapes[0]
    return (a[0], 1) if a else None


def _per_column(shapes: Shapes) -> Optional[Shape]:
    a = shapes[0]
    return (1, a[1]) if a else None


def _diagonal(shapes: Shapes) -> Optional[Shape]:
    # A column vector is expanded into a diagonal matrix; a matrix yields
    # its diagonal as a column vector.
    a = shapes[0]
    if a is None:
        return None
    return (a[0], a[0]) if a[1] == 1 else (a[0], 1)


def _scalar(shapes: Shapes) -> Optional[Shape]:
    return SCALAR_SHAPE


def _product(shapes: Shapes) -> Optional[Shape]:
    a, b = shapes
    return (a[0], b[1]) if a and b else None


def _elementwise(shapes: Shapes) -> Optional[Shape]:
    # A 1x1 operand broadcasts (e.g. N ⊙ trace(...) in the hybrid queries).
    a, b = shapes
    if a and a != SCALAR_SHAPE:
        return a
    return b or a


def _scaled(shapes: Shapes) -> Optional[Shape]:
    return shapes[1]


def _side_by_side(shapes: Shapes) -> Optional[Shape]:
    a, b = shapes
    return (a[0], a[1] + b[1]) if a and b else None


def _stacked(shapes: Shapes) -> Optional[Shape]:
    a, b = shapes
    return (a[0] + b[0], a[1]) if a and b else None


def _block_diagonal(shapes: Shapes) -> Optional[Shape]:
    a, b = shapes
    return (a[0] + b[0], a[1] + b[1]) if a and b else None


def _kronecker(shapes: Shapes) -> Optional[Shape]:
    a, b = shapes
    return (a[0] * b[0], a[1] * b[1]) if a and b else None


class Expr:
    """Base class of every LA expression node.

    Each concrete class declares what every layer needs to know about its
    operator, once:

    ``op``
        The canonical operator name, also the wire codec's tag
        (e.g. ``"multi_m"`` for matrix multiplication).
    ``arity``
        Number of expression children.
    ``relation`` / ``output``
        The VREM relation encoding the node and which of its output
        positions the node's value occupies.  ``relation`` defaults to
        ``op``; only the decomposition factors differ (``qr_r`` is output 1
        of ``qr``).
    ``commutative``
        Whether the two operands commute.
    ``dims``
        The output-dimension rule (one of the rules above).
    ``checks``
        Names of the conformability checks :func:`repro.lang.shapes.shape_of`
        applies to the input shapes.
    """

    op: str = "expr"
    arity: int = 0
    relation: str = "expr"
    output: int = 0
    commutative: bool = False
    dims: Callable[[Shapes], Optional[Shape]] = staticmethod(_same)
    checks: Tuple[str, ...] = ()
    __slots__ = ("_children", "_payload", "_hash", "_fingerprint", "_canonical_fp")

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "relation" not in cls.__dict__:
            cls.relation = cls.op

    def __init__(self, children: Tuple["Expr", ...] = (), payload: Tuple = ()):
        for child in children:
            if not isinstance(child, Expr):
                raise TypeMismatchError(
                    f"{type(self).__name__} expects Expr children, got "
                    f"{type(child).__name__}"
                )
        self._children = tuple(children)
        self._payload = tuple(payload)
        self._hash = hash((self.op, self._children, self._payload))
        self._fingerprint = None
        self._canonical_fp = None

    # -- structural identity -------------------------------------------------
    @property
    def children(self) -> Tuple["Expr", ...]:
        """The expression's sub-expressions, in syntactic order."""
        return self._children

    @property
    def payload(self) -> Tuple:
        """Non-expression arguments (names, numeric constants, exponents)."""
        return self._payload

    def signature(self) -> Tuple:
        """A tuple uniquely identifying this node up to structural equality."""
        return (self.op, self._children, self._payload)

    def fingerprint(self) -> str:
        """Canonical structural fingerprint of this expression tree.

        Two expressions have the same fingerprint iff they are structurally
        equal (``__eq__``), up to hash collisions of the underlying 128-bit
        digest.  Unlike ``hash()``, the fingerprint is stable across
        processes, so it can key persistent caches (the planner's
        :class:`~repro.planner.cache.PlanStore`) and appear in logs.  The
        digest is computed once per node and cached.
        """
        fp = self._fingerprint
        if fp is None:
            fp = self._fingerprint = self._digest(
                b"", [child.fingerprint() for child in self._children]
            )
        return fp

    def canonical_fingerprint(self) -> str:
        """Structural fingerprint modulo commutativity.

        Like :meth:`fingerprint`, but the child digests of commutative
        operators (``A + B``, elementwise ``A * B``) are sorted before
        hashing, so ``A + B`` and ``B + A`` share one canonical fingerprint.
        This mirrors the VREM encoder's canonical construction: both orders
        hash-cons to the same equivalence class, so they always extract the
        same plan.  ``fingerprint()`` equality implies ``canonical_fingerprint``
        equality, never the reverse.
        """
        fp = self._canonical_fp
        if fp is None:
            children = [child.canonical_fingerprint() for child in self._children]
            if self.commutative:
                children.sort()  # fixed-width hex sorts as its bytes do
            fp = self._canonical_fp = self._digest(b"canon\x00", children)
        return fp

    def _digest(self, prefix: bytes, children: Sequence[str]) -> str:
        """BLAKE2b-128 of ``prefix``, the operator, the payload and the
        children's hex digests, in that order."""
        digest = hashlib.blake2b(prefix, digest_size=16)
        digest.update(self.op.encode("utf-8"))
        digest.update(b"\x00")
        for item in self._payload:
            digest.update(type(item).__name__.encode("utf-8"))
            digest.update(repr(item).encode("utf-8"))
            digest.update(b"\x01")
        digest.update(b"\x02")
        for child in children:
            digest.update(bytes.fromhex(child))
        return digest.hexdigest()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Expr)
            and self.op == other.op
            and self._payload == other._payload
            and self._children == other._children
        )

    def __hash__(self) -> int:
        return self._hash

    # -- convenience operator overloading ------------------------------------
    def __matmul__(self, other: "Expr") -> "MatMul":
        return MatMul(self, _coerce(other))

    def __add__(self, other: "Expr") -> "Add":
        return Add(self, _coerce(other))

    def __sub__(self, other: "Expr") -> "Sub":
        return Sub(self, _coerce(other))

    def __mul__(self, other) -> "Expr":
        """``*`` is the Hadamard product for two matrices and matrix-scalar
        multiplication when one side is a scalar constant / scalar node."""
        other = _coerce(other)
        if isinstance(self, (ScalarConst, ScalarRef)):
            return ScalarMul(self, other)
        if isinstance(other, (ScalarConst, ScalarRef)):
            return ScalarMul(other, self)
        return Hadamard(self, other)

    def __rmul__(self, other) -> "Expr":
        return _coerce(other).__mul__(self)

    def __truediv__(self, other: "Expr") -> "ElemDiv":
        return ElemDiv(self, _coerce(other))

    def __neg__(self) -> "ScalarMul":
        return ScalarMul(ScalarConst(-1.0), self)

    @property
    def T(self) -> "Transpose":
        """Transpose, so pipelines read like the paper: ``(M @ N).T``."""
        return Transpose(self)

    # -- pretty printing ------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.to_string()

    def to_string(self) -> str:
        """Render the expression in a compact R/DML-like surface syntax."""
        return _render(self)

    def leaves(self) -> Iterable["Expr"]:
        """Yield all leaf nodes (matrix/scalar references and literals)."""
        if not self._children:
            yield self
        for child in self._children:
            yield from child.leaves()


def _coerce(value) -> Expr:
    """Turn plain Python numbers into :class:`ScalarConst` nodes."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return ScalarConst(float(value))
    raise TypeMismatchError(f"cannot use {type(value).__name__} in an LA expression")


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class MatrixRef(Expr):
    """A reference to a stored (base or view) matrix, identified by name.

    The name plays the role of the ``name(M, n)`` relation of §6.2.1 — e.g.
    ``"M.csv"`` — and is resolved against a :class:`repro.data.catalog.Catalog`
    at shape-inference and execution time.
    """

    op = "name"
    arity = 0
    __slots__ = ()

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise TypeMismatchError("MatrixRef needs a non-empty string name")
        super().__init__((), (name,))

    @property
    def name(self) -> str:
        return self._payload[0]


class ScalarConst(Expr):
    """A numeric literal (a degenerate 1x1 matrix, cf. §3)."""

    op = "scalar_const"
    arity = 0
    __slots__ = ()

    def __init__(self, value: Number):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeMismatchError("ScalarConst needs an int or float value")
        super().__init__((), (float(value),))

    @property
    def value(self) -> float:
        return self._payload[0]


class ScalarRef(Expr):
    """A named scalar input (e.g. the ``s1``, ``s2`` of pipelines P1.8, P2.4)."""

    op = "scalar_ref"
    arity = 0
    __slots__ = ()

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise TypeMismatchError("ScalarRef needs a non-empty string name")
        super().__init__((), (name,))

    @property
    def name(self) -> str:
        return self._payload[0]


class Identity(Expr):
    """The identity matrix I_n (§6.2.1)."""

    op = "identity"
    arity = 0
    __slots__ = ()

    def __init__(self, n: int):
        if not isinstance(n, int) or n <= 0:
            raise TypeMismatchError("Identity needs a positive integer size")
        super().__init__((), (n,))

    @property
    def n(self) -> int:
        return self._payload[0]


class Zero(Expr):
    """The zero matrix O of a given shape (§6.2.1)."""

    op = "zero"
    arity = 0
    __slots__ = ()

    def __init__(self, rows: int, cols: int):
        if rows <= 0 or cols <= 0:
            raise TypeMismatchError("Zero needs positive dimensions")
        super().__init__((), (int(rows), int(cols)))

    @property
    def rows(self) -> int:
        return self._payload[0]

    @property
    def cols(self) -> int:
        return self._payload[1]


# ---------------------------------------------------------------------------
# Unary matrix -> matrix operators
# ---------------------------------------------------------------------------


class _Unary(Expr):
    arity = 1
    __slots__ = ()

    def __init__(self, child: Expr):
        super().__init__((_coerce(child),))

    @property
    def child(self) -> Expr:
        return self._children[0]


class Transpose(_Unary):
    """Matrix transposition M^T (VREM relation ``tr``)."""

    op = "tr"
    dims = staticmethod(_transposed)
    __slots__ = ()


class Inverse(_Unary):
    """Matrix inversion M^{-1} (VREM relation ``inv_m``)."""

    op = "inv_m"
    checks = ("square",)
    __slots__ = ()


class MatExp(_Unary):
    """Matrix exponential exp(M) (VREM relation ``exp``)."""

    op = "exp"
    checks = ("square",)
    __slots__ = ()


class Adjoint(_Unary):
    """Classical adjoint (adjugate) adj(M) (VREM relation ``adj``)."""

    op = "adj"
    checks = ("square",)
    __slots__ = ()


class Diag(_Unary):
    """Diagonal extraction diag(M) (VREM relation ``diag``)."""

    op = "diag"
    dims = staticmethod(_diagonal)
    checks = ("square_or_column",)
    __slots__ = ()


class Rev(_Unary):
    """Row reversal rev(M); appears in SystemML's aggregate rewrite rules."""

    op = "rev"
    __slots__ = ()


class RowSums(_Unary):
    """Row summation: a column vector whose i-th entry is the sum of row i."""

    op = "row_sums"
    dims = staticmethod(_per_row)
    __slots__ = ()


class ColSums(_Unary):
    """Column summation: a row vector whose j-th entry is the sum of column j."""

    op = "col_sums"
    dims = staticmethod(_per_column)
    __slots__ = ()


class RowMeans(_Unary):
    op = "row_means"
    dims = staticmethod(_per_row)
    __slots__ = ()


class ColMeans(_Unary):
    op = "col_means"
    dims = staticmethod(_per_column)
    __slots__ = ()


class RowMax(_Unary):
    op = "row_max"
    dims = staticmethod(_per_row)
    __slots__ = ()


class ColMax(_Unary):
    op = "col_max"
    dims = staticmethod(_per_column)
    __slots__ = ()


class RowMin(_Unary):
    op = "row_min"
    dims = staticmethod(_per_row)
    __slots__ = ()


class ColMin(_Unary):
    op = "col_min"
    dims = staticmethod(_per_column)
    __slots__ = ()


class RowVar(_Unary):
    op = "row_var"
    dims = staticmethod(_per_row)
    __slots__ = ()


class ColVar(_Unary):
    op = "col_var"
    dims = staticmethod(_per_column)
    __slots__ = ()


# ---------------------------------------------------------------------------
# Unary matrix -> scalar operators
# ---------------------------------------------------------------------------


class Det(_Unary):
    """Determinant det(M) (VREM relation ``det``)."""

    op = "det"
    dims = staticmethod(_scalar)
    checks = ("square",)
    __slots__ = ()


class Trace(_Unary):
    """Trace trace(M) (VREM relation ``trace``)."""

    op = "trace"
    dims = staticmethod(_scalar)
    checks = ("square",)
    __slots__ = ()


class SumAll(_Unary):
    """Sum of all cells sum(M) (VREM relation ``sum``)."""

    op = "sum"
    dims = staticmethod(_scalar)
    __slots__ = ()


class MeanAll(_Unary):
    op = "mean"
    dims = staticmethod(_scalar)
    __slots__ = ()


class VarAll(_Unary):
    op = "var"
    dims = staticmethod(_scalar)
    __slots__ = ()


class MinAll(_Unary):
    op = "min"
    dims = staticmethod(_scalar)
    __slots__ = ()


class MaxAll(_Unary):
    op = "max"
    dims = staticmethod(_scalar)
    __slots__ = ()


# ---------------------------------------------------------------------------
# Binary operators
# ---------------------------------------------------------------------------


class _Binary(Expr):
    arity = 2
    __slots__ = ()

    def __init__(self, left: Expr, right: Expr):
        super().__init__((_coerce(left), _coerce(right)))

    @property
    def left(self) -> Expr:
        return self._children[0]

    @property
    def right(self) -> Expr:
        return self._children[1]


class MatMul(_Binary):
    """Matrix multiplication M N (VREM relation ``multi_m``)."""

    op = "multi_m"
    dims = staticmethod(_product)
    checks = ("conformable",)
    __slots__ = ()


class Add(_Binary):
    """Matrix addition M + N (VREM relation ``add_m``)."""

    op = "add_m"
    commutative = True
    dims = staticmethod(_elementwise)
    checks = ("equal_or_scalar",)
    __slots__ = ()


class Sub(_Binary):
    """Matrix subtraction M - N (VREM relation ``sub_m``).

    Subtraction is not listed explicitly in Table 1, but it occurs in the
    benchmark pipelines (e.g. the ALS building block P2.25, ``(u v^T - X) v``);
    it is encoded with its own relation and the obvious distributivity
    constraints mirroring those of addition.
    """

    op = "sub_m"
    dims = staticmethod(_elementwise)
    checks = ("equal_or_scalar",)
    __slots__ = ()


class ElemDiv(_Binary):
    """Element-wise division M / N (VREM relation ``div_m``)."""

    op = "div_m"
    dims = staticmethod(_elementwise)
    checks = ("equal_or_scalar",)
    __slots__ = ()


class Hadamard(_Binary):
    """Element-wise (Hadamard) product M ⊙ N (VREM relation ``multi_e``)."""

    op = "multi_e"
    commutative = True
    dims = staticmethod(_elementwise)
    checks = ("equal_or_scalar",)
    __slots__ = ()


class ScalarMul(_Binary):
    """Matrix-scalar multiplication s·M (VREM relation ``multi_ms``).

    The scalar operand is always the *left* child.
    """

    op = "multi_ms"
    dims = staticmethod(_scaled)
    checks = ("scalar_operand",)
    __slots__ = ()

    @property
    def scalar(self) -> Expr:
        return self._children[0]

    @property
    def matrix(self) -> Expr:
        return self._children[1]


class DirectSum(_Binary):
    """Direct sum M ⊕ N (block-diagonal composition, VREM ``sum_d``)."""

    op = "sum_d"
    dims = staticmethod(_block_diagonal)
    __slots__ = ()


class CBind(_Binary):
    """Horizontal (column-wise) concatenation ``[M, N]`` (VREM ``cbind``).

    Needed to express Morpheus' factorization rules, e.g.
    ``colSums(M) -> [colSums(S), colSums(K) R]`` over a normalized matrix
    ``M = [S, K R]``.
    """

    op = "cbind"
    dims = staticmethod(_side_by_side)
    checks = ("equal_rows",)
    __slots__ = ()


class RBind(_Binary):
    """Vertical (row-wise) concatenation (VREM ``rbind``)."""

    op = "rbind"
    dims = staticmethod(_stacked)
    checks = ("equal_cols",)
    __slots__ = ()


class DirectProduct(_Binary):
    """Direct (Kronecker) product M ⊗ N (VREM ``product_d``)."""

    op = "product_d"
    dims = staticmethod(_kronecker)
    __slots__ = ()


class MatPow(Expr):
    """Matrix power M^k for a non-negative integer k (square M).

    Used by the reachability pipeline P1.29 (a chain of matrix self-products)
    and Example 6.3 ((M^T)^k).  ``MatPow(M, 0)`` is the identity.
    """

    op = "mat_pow"
    checks = ("square",)
    arity = 1
    __slots__ = ()

    def __init__(self, child: Expr, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise TypeMismatchError("MatPow needs a non-negative integer exponent")
        Expr.__init__(self, (_coerce(child),), (exponent,))

    @property
    def child(self) -> Expr:
        return self._children[0]

    @property
    def exponent(self) -> int:
        return self._payload[0]


# ---------------------------------------------------------------------------
# Decomposition factor accessors (§6.2.5)
# ---------------------------------------------------------------------------


class CholeskyFactor(_Unary):
    """The lower-triangular factor L of the Cholesky decomposition M = L L^T."""

    op = "cho"
    checks = ("square",)
    __slots__ = ()


class QRFactorQ(_Unary):
    """The orthogonal factor Q of the QR decomposition M = Q R."""

    op = "qr_q"
    relation = "qr"
    checks = ("square",)
    __slots__ = ()


class QRFactorR(_Unary):
    """The upper-triangular factor R of the QR decomposition M = Q R."""

    op = "qr_r"
    relation = "qr"
    output = 1
    checks = ("square",)
    __slots__ = ()


class LUFactorL(_Unary):
    """The lower-triangular factor L of the LU decomposition M = L U."""

    op = "lu_l"
    relation = "lu"
    checks = ("square",)
    __slots__ = ()


class LUFactorU(_Unary):
    """The upper-triangular factor U of the LU decomposition M = L U."""

    op = "lu_u"
    relation = "lu"
    output = 1
    checks = ("square",)
    __slots__ = ()


class LUPFactorL(_Unary):
    """The L factor of the pivoted LU decomposition P M = L U."""

    op = "lup_l"
    relation = "lup"
    checks = ("square",)
    __slots__ = ()


class LUPFactorU(_Unary):
    """The U factor of the pivoted LU decomposition P M = L U."""

    op = "lup_u"
    relation = "lup"
    output = 1
    checks = ("square",)
    __slots__ = ()


class LUPFactorP(_Unary):
    """The permutation factor P of the pivoted LU decomposition P M = L U."""

    op = "lup_p"
    relation = "lup"
    output = 2
    checks = ("square",)
    __slots__ = ()


# ---------------------------------------------------------------------------
# The operator registry: one table, built from the class tree above
# ---------------------------------------------------------------------------


def _concrete(cls: Type[Expr]) -> Iterable[Type[Expr]]:
    """Every concrete node class below ``cls``, in definition order
    (abstract helpers such as ``_Unary`` / ``_Binary`` are skipped)."""
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_"):
            yield sub
        yield from _concrete(sub)


_CLASSES = list(_concrete(Expr))
_BY_OP = {cls.op: cls for cls in _CLASSES}
_BY_RELATION = {(cls.relation, cls.output): cls for cls in _CLASSES if cls.arity}
if len(_BY_OP) != len(_CLASSES) or len(_BY_RELATION) != sum(1 for cls in _CLASSES if cls.arity):
    raise RuntimeError("two node classes share an op name or a relation output")


def op_registry() -> Dict[str, Type[Expr]]:
    """Every concrete node class by op name (the wire codec's table)."""
    return _BY_OP


def operator_for(relation: str, output: int = 0) -> Optional[Type[Expr]]:
    """The operator class whose value is ``output`` of a ``relation`` atom."""
    return _BY_RELATION.get((relation, output))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_RENDER_INFIX = {
    "multi_m": " %*% ",
    "add_m": " + ",
    "sub_m": " - ",
    "div_m": " / ",
    "multi_e": " * ",
    "sum_d": " (+) ",
    "product_d": " (x) ",
}

_RENDER_CALL_BINARY = {
    "cbind": "cbind",
    "rbind": "rbind",
}

_RENDER_CALL = {
    "inv_m": "inv",
    "exp": "exp",
    "adj": "adj",
    "diag": "diag",
    "rev": "rev",
    "row_sums": "rowSums",
    "col_sums": "colSums",
    "row_means": "rowMeans",
    "col_means": "colMeans",
    "row_max": "rowMaxs",
    "col_max": "colMaxs",
    "row_min": "rowMins",
    "col_min": "colMins",
    "row_var": "rowVars",
    "col_var": "colVars",
    "det": "det",
    "trace": "trace",
    "sum": "sum",
    "mean": "mean",
    "var": "var",
    "min": "min",
    "max": "max",
    "cho": "cholesky",
    "qr_q": "qr.Q",
    "qr_r": "qr.R",
    "lu_l": "lu.L",
    "lu_u": "lu.U",
    "lup_l": "lup.L",
    "lup_u": "lup.U",
    "lup_p": "lup.P",
}


def _render(expr: Expr) -> str:
    """Recursive pretty-printer used by :meth:`Expr.to_string`."""
    if isinstance(expr, MatrixRef):
        return expr.name
    if isinstance(expr, ScalarRef):
        return expr.name
    if isinstance(expr, ScalarConst):
        value = expr.value
        return str(int(value)) if float(value).is_integer() else repr(value)
    if isinstance(expr, Identity):
        return f"I({expr.n})"
    if isinstance(expr, Zero):
        return f"O({expr.rows},{expr.cols})"
    if isinstance(expr, Transpose):
        return f"t({_render(expr.child)})"
    if isinstance(expr, MatPow):
        return f"({_render(expr.child)})^{expr.exponent}"
    if isinstance(expr, ScalarMul):
        return f"({_render(expr.scalar)} * {_render(expr.matrix)})"
    if expr.op in _RENDER_INFIX:
        left, right = expr.children
        return f"({_render(left)}{_RENDER_INFIX[expr.op]}{_render(right)})"
    if expr.op in _RENDER_CALL_BINARY:
        left, right = expr.children
        return f"{_RENDER_CALL_BINARY[expr.op]}({_render(left)}, {_render(right)})"
    if expr.op in _RENDER_CALL:
        inner = ", ".join(_render(child) for child in expr.children)
        return f"{_RENDER_CALL[expr.op]}({inner})"
    inner = ", ".join(_render(child) for child in expr.children)
    return f"{expr.op}({inner})"
