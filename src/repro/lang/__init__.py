"""The hybrid expression language L of HADAD (paper §3).

This package defines the abstract syntax trees for

* linear-algebra expressions (:mod:`repro.lang.matrix_expr`) covering the
  operator set L_ops of §6.1.  Each node class is the one declaration of its
  operator: VREM relation and output, commutativity, dimension rule and
  conformability checks; :func:`op_registry` / :func:`operator_for` index
  them for the wire codec and for ``enc_LA`` / ``dec_LA``,
* relational expressions (:mod:`repro.lang.relational_expr`) covering the
  RA operators (selection, projection, join) plus the matrix/table
  conversions of §3, and
* shape inference over both (:mod:`repro.lang.shapes`).

The user-facing construction helpers live in :mod:`repro.lang.builder` and are
re-exported here so ``from repro.lang import matrix, inv, trace`` works.
"""

from repro.lang.matrix_expr import (
    Expr,
    MatrixRef,
    ScalarConst,
    ScalarRef,
    Identity,
    Zero,
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
    Det,
    Trace,
    SumAll,
    MeanAll,
    VarAll,
    MinAll,
    MaxAll,
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
    MatPow,
    CholeskyFactor,
    QRFactorQ,
    QRFactorR,
    LUFactorL,
    LUFactorU,
    LUPFactorL,
    LUPFactorU,
    LUPFactorP,
    op_registry,
    operator_for,
)
from repro.lang.relational_expr import (
    RelExpr,
    TableRef,
    Selection,
    Projection,
    Join,
    TableToMatrix,
    MatrixToTable,
    Predicate,
)
from repro.lang.builder import (
    matrix,
    scalar,
    identity,
    zeros,
    transpose,
    inv,
    det,
    trace,
    mat_exp,
    adjoint,
    diag,
    rev,
    rowsums,
    colsums,
    rowmeans,
    colmeans,
    rowmax,
    colmax,
    rowmin,
    colmin,
    rowvar,
    colvar,
    sum_all,
    mean_all,
    var_all,
    min_all,
    max_all,
    matmul,
    add,
    sub,
    elem_div,
    hadamard,
    scalar_mul,
    direct_sum,
    direct_product,
    mat_pow,
    cholesky,
    qr_q,
    qr_r,
    lu_l,
    lu_u,
    lup_l,
    lup_u,
    lup_p,
    table,
    select,
    project,
    join,
    to_matrix,
    to_table,
)
from repro.lang.shapes import shape_of, is_scalar_shape, check_expr
from repro.lang.visitor import walk, transform_bottom_up, count_nodes, collect_refs

__all__ = [name for name in dir() if not name.startswith("_")]
