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
from typing import Iterable, Tuple, Union

from repro.exceptions import TypeMismatchError

Number = Union[int, float]


class Expr:
    """Base class of every LA expression node.

    Subclasses define two class attributes:

    ``op``
        The canonical operator name, matching the VREM relation used to
        encode the node (e.g. ``"multi_m"`` for matrix multiplication).
    ``arity``
        Number of expression children.
    """

    op: str = "expr"
    arity: int = 0
    __slots__ = ("_children", "_payload", "_hash", "_fingerprint", "_canonical_fp")

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
            digest = hashlib.blake2b(digest_size=16)
            digest.update(self.op.encode("utf-8"))
            digest.update(b"\x00")
            for item in self._payload:
                digest.update(type(item).__name__.encode("utf-8"))
                digest.update(repr(item).encode("utf-8"))
                digest.update(b"\x01")
            digest.update(b"\x02")
            for child in self._children:
                digest.update(bytes.fromhex(child.fingerprint()))
            fp = digest.hexdigest()
            self._fingerprint = fp
        return fp

    #: Operators whose operands commute; ``canonical_fingerprint`` sorts their
    #: child digests so both operand orders share one canonical form.  Must
    #: stay aligned with ``COMMUTATIVE_RELATIONS`` in :mod:`repro.vrem.instance`
    #: (the congruence keys that hash-cons both orders to one class).
    COMMUTATIVE_OPS = frozenset({"add_m", "multi_e"})

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
            digest = hashlib.blake2b(digest_size=16)
            digest.update(b"canon\x00")
            digest.update(self.op.encode("utf-8"))
            digest.update(b"\x00")
            for item in self._payload:
                digest.update(type(item).__name__.encode("utf-8"))
                digest.update(repr(item).encode("utf-8"))
                digest.update(b"\x01")
            digest.update(b"\x02")
            child_digests = [
                bytes.fromhex(child.canonical_fingerprint()) for child in self._children
            ]
            if self.op in Expr.COMMUTATIVE_OPS:
                child_digests.sort()
            for blob in child_digests:
                digest.update(blob)
            fp = digest.hexdigest()
            self._canonical_fp = fp
        return fp

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
    __slots__ = ()


class Inverse(_Unary):
    """Matrix inversion M^{-1} (VREM relation ``inv_m``)."""

    op = "inv_m"
    __slots__ = ()


class MatExp(_Unary):
    """Matrix exponential exp(M) (VREM relation ``exp``)."""

    op = "exp"
    __slots__ = ()


class Adjoint(_Unary):
    """Classical adjoint (adjugate) adj(M) (VREM relation ``adj``)."""

    op = "adj"
    __slots__ = ()


class Diag(_Unary):
    """Diagonal extraction diag(M) (VREM relation ``diag``)."""

    op = "diag"
    __slots__ = ()


class Rev(_Unary):
    """Row reversal rev(M); appears in SystemML's aggregate rewrite rules."""

    op = "rev"
    __slots__ = ()


class RowSums(_Unary):
    """Row summation: a column vector whose i-th entry is the sum of row i."""

    op = "row_sums"
    __slots__ = ()


class ColSums(_Unary):
    """Column summation: a row vector whose j-th entry is the sum of column j."""

    op = "col_sums"
    __slots__ = ()


class RowMeans(_Unary):
    op = "row_means"
    __slots__ = ()


class ColMeans(_Unary):
    op = "col_means"
    __slots__ = ()


class RowMax(_Unary):
    op = "row_max"
    __slots__ = ()


class ColMax(_Unary):
    op = "col_max"
    __slots__ = ()


class RowMin(_Unary):
    op = "row_min"
    __slots__ = ()


class ColMin(_Unary):
    op = "col_min"
    __slots__ = ()


class RowVar(_Unary):
    op = "row_var"
    __slots__ = ()


class ColVar(_Unary):
    op = "col_var"
    __slots__ = ()


# ---------------------------------------------------------------------------
# Unary matrix -> scalar operators
# ---------------------------------------------------------------------------


class Det(_Unary):
    """Determinant det(M) (VREM relation ``det``)."""

    op = "det"
    __slots__ = ()


class Trace(_Unary):
    """Trace trace(M) (VREM relation ``trace``)."""

    op = "trace"
    __slots__ = ()


class SumAll(_Unary):
    """Sum of all cells sum(M) (VREM relation ``sum``)."""

    op = "sum"
    __slots__ = ()


class MeanAll(_Unary):
    op = "mean"
    __slots__ = ()


class VarAll(_Unary):
    op = "var"
    __slots__ = ()


class MinAll(_Unary):
    op = "min"
    __slots__ = ()


class MaxAll(_Unary):
    op = "max"
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
    __slots__ = ()


class Add(_Binary):
    """Matrix addition M + N (VREM relation ``add_m``)."""

    op = "add_m"
    __slots__ = ()


class Sub(_Binary):
    """Matrix subtraction M - N (VREM relation ``sub_m``).

    Subtraction is not listed explicitly in Table 1, but it occurs in the
    benchmark pipelines (e.g. the ALS building block P2.25, ``(u v^T - X) v``);
    it is encoded with its own relation and the obvious distributivity
    constraints mirroring those of addition.
    """

    op = "sub_m"
    __slots__ = ()


class ElemDiv(_Binary):
    """Element-wise division M / N (VREM relation ``div_m``)."""

    op = "div_m"
    __slots__ = ()


class Hadamard(_Binary):
    """Element-wise (Hadamard) product M ⊙ N (VREM relation ``multi_e``)."""

    op = "multi_e"
    __slots__ = ()


class ScalarMul(_Binary):
    """Matrix-scalar multiplication s·M (VREM relation ``multi_ms``).

    The scalar operand is always the *left* child.
    """

    op = "multi_ms"
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
    __slots__ = ()


class CBind(_Binary):
    """Horizontal (column-wise) concatenation ``[M, N]`` (VREM ``cbind``).

    Needed to express Morpheus' factorization rules, e.g.
    ``colSums(M) -> [colSums(S), colSums(K) R]`` over a normalized matrix
    ``M = [S, K R]``.
    """

    op = "cbind"
    __slots__ = ()


class RBind(_Binary):
    """Vertical (row-wise) concatenation (VREM ``rbind``)."""

    op = "rbind"
    __slots__ = ()


class DirectProduct(_Binary):
    """Direct (Kronecker) product M ⊗ N (VREM ``product_d``)."""

    op = "product_d"
    __slots__ = ()


class MatPow(Expr):
    """Matrix power M^k for a non-negative integer k (square M).

    Used by the reachability pipeline P1.29 (a chain of matrix self-products)
    and Example 6.3 ((M^T)^k).  ``MatPow(M, 0)`` is the identity.
    """

    op = "mat_pow"
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
    __slots__ = ()


class QRFactorQ(_Unary):
    """The orthogonal factor Q of the QR decomposition M = Q R."""

    op = "qr_q"
    __slots__ = ()


class QRFactorR(_Unary):
    """The upper-triangular factor R of the QR decomposition M = Q R."""

    op = "qr_r"
    __slots__ = ()


class LUFactorL(_Unary):
    """The lower-triangular factor L of the LU decomposition M = L U."""

    op = "lu_l"
    __slots__ = ()


class LUFactorU(_Unary):
    """The upper-triangular factor U of the LU decomposition M = L U."""

    op = "lu_u"
    __slots__ = ()


class LUPFactorL(_Unary):
    """The L factor of the pivoted LU decomposition P M = L U."""

    op = "lup_l"
    __slots__ = ()


class LUPFactorU(_Unary):
    """The U factor of the pivoted LU decomposition P M = L U."""

    op = "lup_u"
    __slots__ = ()


class LUPFactorP(_Unary):
    """The permutation factor P of the pivoted LU decomposition P M = L U."""

    op = "lup_p"
    __slots__ = ()


# ---------------------------------------------------------------------------
# Operator groupings used by the encoder, cost model and backends
# ---------------------------------------------------------------------------

UNARY_MATRIX_OPS = (
    Transpose,
    Inverse,
    MatExp,
    Adjoint,
    Diag,
    Rev,
    RowSums,
    ColSums,
    RowMeans,
    ColMeans,
    RowMax,
    ColMax,
    RowMin,
    ColMin,
    RowVar,
    ColVar,
    CholeskyFactor,
    QRFactorQ,
    QRFactorR,
    LUFactorL,
    LUFactorU,
    LUPFactorL,
    LUPFactorU,
    LUPFactorP,
)

UNARY_SCALAR_OPS = (Det, Trace, SumAll, MeanAll, VarAll, MinAll, MaxAll)

BINARY_MATRIX_OPS = (
    MatMul,
    Add,
    Sub,
    ElemDiv,
    Hadamard,
    ScalarMul,
    DirectSum,
    DirectProduct,
    CBind,
    RBind,
)


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
