"""Hybrid query definitions.

A :class:`HybridQuery` consists of

* a set of *matrix builders* (the Q_RA part): each builder produces one named
  matrix from relational tables — either the dense feature matrix of a PK-FK
  join (:class:`JoinFeatureMatrix`) or the ultra-sparse pivot of a filtered
  fact table (:class:`PivotSparseMatrix`);
* an LA expression (the Q_LA part) over those names plus any auxiliary
  matrices already present in the catalog.

The builders deliberately mirror the two preprocessing queries of the
paper's micro-hybrid benchmark (construction of M and of N, §9.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from repro.exceptions import TypeMismatchError
from repro.lang import matrix_expr as mx
from repro.lang import relational_expr as rx


@dataclass(frozen=True)
class JoinFeatureMatrix:
    """A dense feature matrix obtained by joining two tables on ``key``.

    ``M = [left_columns of left_table | right_columns of right_table]`` with
    rows aligned by the join on ``key`` — the construction of the matrix M in
    the Twitter / MIMIC benchmarks, where the join is PK-FK.
    """

    name: str
    left_table: str
    right_table: str
    key: str
    left_columns: Tuple[str, ...]
    right_columns: Tuple[str, ...]

    def __post_init__(self):
        if not self.left_columns or not self.right_columns:
            raise TypeMismatchError("JoinFeatureMatrix needs columns from both tables")

    @property
    def n_features(self) -> int:
        return len(self.left_columns) + len(self.right_columns)

    def relational_plan(self) -> rx.RelExpr:
        """The equivalent relational expression (join then projection)."""
        joined = rx.Join(
            rx.TableRef(self.left_table), rx.TableRef(self.right_table), self.key, self.key
        )
        return rx.Projection(joined, self.left_columns + self.right_columns)


@dataclass(frozen=True)
class PivotSparseMatrix:
    """An ultra-sparse matrix pivoted from a (filtered) fact table.

    Each fact row ``(row_key, col_key, measure)`` contributes one non-zero
    cell; ``filters`` restrict the fact table before pivoting (the paper's
    selection of "covid" tweets from the US, or of "CCU" patients), and
    ``measure_filter`` is the additional selection applied to the matrix
    values right before the LA analysis (filter-level < 4, outcome == 2).
    """

    name: str
    fact_table: str
    row_key: str
    col_key: str
    measure: str
    n_rows: int
    n_cols: int
    filters: Tuple[rx.Predicate, ...] = ()
    measure_filter: Tuple[str, float] = None  # (comparator, value), e.g. ("<=", 4)

    def relational_plan(self) -> rx.RelExpr:
        plan: rx.RelExpr = rx.TableRef(self.fact_table)
        if self.filters:
            plan = rx.Selection(plan, self.filters)
        return rx.Projection(plan, (self.row_key, self.col_key, self.measure))


MatrixBuilder = Union[JoinFeatureMatrix, PivotSparseMatrix]


@dataclass
class HybridQuery:
    """One hybrid RA + LA query."""

    name: str
    builders: Tuple[MatrixBuilder, ...]
    analysis: mx.Expr
    description: str = ""

    def builder(self, name: str) -> MatrixBuilder:
        for builder in self.builders:
            if builder.name == name:
                return builder
        raise KeyError(f"hybrid query {self.name!r} has no builder named {name!r}")
