"""Seeded random generation of synthetic catalogs, LA expressions and views.

Everything here is a pure function of a seed: :func:`generate_catalog`
builds the same catalog for the same :class:`CatalogSpec`, and
:class:`ExpressionGenerator` draws the same expression stream for the same
``numpy`` generator state.  That determinism is what makes a fuzz failure a
*repro*: the corpus (:mod:`repro.fuzz.corpus`) persists only the spec and
the per-case seed, and replay regenerates byte-identical inputs.

The grammar is deliberately the grammar the planner claims to handle —
the operator set of the 57 benchkit pipelines — restricted where the
*numeric* oracle would otherwise drown in false positives:

* inversion / determinant / matrix exponential / powers are applied only to
  expressions built by :meth:`ExpressionGenerator.gen_invertible` (diagonal-
  dominant square leaves composed under transpose, products, sums and
  positive scalings — operations that preserve invertibility and keep the
  condition number small at these sizes — and Gram products ``t(X) X`` /
  ``X t(X)`` of tall / wide dense leaves, whose factors are not square);
* element-wise division draws its denominator from the ``P*`` matrices,
  whose entries are bounded away from zero, or from a positive scalar
  constant — the backends define ``x/0 = 0``, and rewritten plans are free
  to reassociate around those cells, so a fuzzer that divides by arbitrary
  expressions reports tolerance noise instead of planner bugs;
* variance/min/max aggregates and the (non-unique) QR/LU/Cholesky factor
  accessors are excluded: their values are either not uniquely determined
  by the input (factor sign conventions) or undefined on degenerate slices
  (``var`` with one sample).

Shapes are drawn from a small axis pool (``spec.dims`` plus the vector
axis 1) and every ``(rows, cols)`` pair over the pool is backed by at least
one dense and one positive matrix, so shape-directed generation never dead
ends: any requested shape has a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.constraints.views import LAView
from repro.data.catalog import Catalog
from repro.lang import matrix_expr as mx

Shape = Tuple[int, int]


@dataclass(frozen=True)
class CatalogSpec:
    """The deterministic recipe for one synthetic catalog.

    The spec — not the catalog — is what the corpus persists: regenerating
    from an equal spec yields an identical catalog (same names, shapes and
    values), so a minimized failing expression stays reproducible.
    """

    seed: int = 0
    dims: Tuple[int, ...] = (2, 3, 5)
    sparse_density: float = 0.3

    def __post_init__(self):
        if not self.dims or any(d < 2 for d in self.dims):
            raise ValueError(f"CatalogSpec dims must all be >= 2, got {self.dims!r}")

    def to_json(self) -> dict:
        return {
            "seed": int(self.seed),
            "dims": [int(d) for d in self.dims],
            "sparse_density": float(self.sparse_density),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CatalogSpec":
        return cls(
            seed=int(payload["seed"]),
            dims=tuple(int(d) for d in payload["dims"]),
            sparse_density=float(payload.get("sparse_density", 0.3)),
        )


@dataclass
class CatalogInventory:
    """What the generator knows about a synthetic catalog's contents."""

    spec: CatalogSpec
    #: Every materialized matrix name, keyed by shape.
    by_shape: Dict[Shape, List[str]] = field(default_factory=dict)
    #: Names whose entries are bounded away from zero (safe ElemDiv denominators).
    positive_by_shape: Dict[Shape, List[str]] = field(default_factory=dict)
    #: Diagonally dominant square matrices, keyed by dimension.
    invertible_by_dim: Dict[int, List[str]] = field(default_factory=dict)
    scalars: List[str] = field(default_factory=list)

    @property
    def shapes(self) -> List[Shape]:
        return sorted(self.by_shape)

    @property
    def axes(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.spec.dims) | {1}))


def generate_catalog(spec: CatalogSpec) -> Tuple[Catalog, CatalogInventory]:
    """Build the synthetic catalog described by ``spec`` (deterministic).

    For every ``(rows, cols)`` pair over the axis pool (``spec.dims`` plus
    the vector axis 1, excluding the scalar-shaped 1x1):

    * ``D{r}x{c}`` — dense, entries uniform in [0, 1);
    * ``P{r}x{c}`` — dense, entries uniform in [0.5, 1.5) (never zero);

    plus, per square dimension ``n`` in ``spec.dims``, a diagonally dominant
    ``Q{n}``, a sparse ``S{r}x{c}`` for the two largest rectangular shapes,
    and the two scalars ``s1`` / ``s2``.
    """
    rng = np.random.default_rng(spec.seed)
    catalog = Catalog()
    inventory = CatalogInventory(spec=spec)
    axes = inventory.axes

    def remember(store: Dict, key, name: str) -> None:
        store.setdefault(key, []).append(name)

    for r in axes:
        for c in axes:
            if (r, c) == (1, 1):
                continue
            dense_name = f"D{r}x{c}"
            catalog.register_dense(dense_name, rng.random((r, c)))
            remember(inventory.by_shape, (r, c), dense_name)
            positive_name = f"P{r}x{c}"
            catalog.register_dense(positive_name, 0.5 + rng.random((r, c)))
            remember(inventory.by_shape, (r, c), positive_name)
            remember(inventory.positive_by_shape, (r, c), positive_name)

    for n in sorted(set(spec.dims)):
        name = f"Q{n}"
        catalog.register_dense(name, rng.random((n, n)) + n * np.eye(n))
        remember(inventory.by_shape, (n, n), name)
        remember(inventory.invertible_by_dim, n, name)

    rect = sorted(
        ((r, c) for r in spec.dims for c in spec.dims if r != c),
        key=lambda shape: shape[0] * shape[1],
        reverse=True,
    )
    for r, c in rect[:2]:
        name = f"S{r}x{c}"
        catalog.register_sparse(
            name,
            sparse.random(
                r, c, density=spec.sparse_density,
                random_state=np.random.default_rng(rng.integers(0, 2**31)),
            ),
        )
        remember(inventory.by_shape, (r, c), name)

    for scalar_name in ("s1", "s2"):
        catalog.register_scalar(scalar_name, float(0.5 + 2.5 * rng.random()))
        inventory.scalars.append(scalar_name)

    return catalog, inventory


class ExpressionGenerator:
    """Shape-directed random construction of LA expressions over a catalog.

    ``generate()`` draws one expression; every recursive step either emits a
    leaf of the required shape or picks a weighted operator whose operand
    shapes are again drawn from the axis pool, so the result is always
    conformable (``shape_of`` never raises on generated expressions — a
    property the smoke tests assert).
    """

    def __init__(
        self,
        inventory: CatalogInventory,
        rng: np.random.Generator,
        max_depth: int = 5,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.inventory = inventory
        self.rng = rng
        self.max_depth = max_depth

    # ------------------------------------------------------------------ helpers
    def _choice(self, items: Sequence):
        return items[int(self.rng.integers(0, len(items)))]

    def _random_shape(self) -> Shape:
        return self._choice(self.inventory.shapes)

    def _splits(self, total: int) -> List[Tuple[int, int]]:
        axes = set(self.inventory.axes)
        return [(a, total - a) for a in sorted(axes) if 0 < a < total and (total - a) in axes]

    # ------------------------------------------------------------------ leaves
    def leaf(self, shape: Shape) -> mx.Expr:
        if shape == (1, 1):
            return self.scalar_leaf()
        names = self.inventory.by_shape.get(shape)
        if names:
            return mx.MatrixRef(self._choice(names))
        if shape[0] == shape[1]:
            return mx.Identity(shape[0])
        raise ValueError(f"no catalog matrix of shape {shape!r} to draw a leaf from")

    def scalar_leaf(self) -> mx.Expr:
        if self.inventory.scalars and self.rng.random() < 0.5:
            return mx.ScalarRef(self._choice(self.inventory.scalars))
        return mx.ScalarConst(round(float(0.5 + 2.5 * self.rng.random()), 3))

    # ------------------------------------------------------------------ invertible squares
    def gen_invertible(self, n: int, depth: int = 2) -> mx.Expr:
        """A square expression that is invertible and well conditioned.

        Built from the diagonally dominant ``Q{n}`` leaves under operations
        preserving both properties at these sizes: transpose, products,
        sums of (positively scaled) dominant leaves; or the Gram product of
        a tall / wide dense leaf.
        """
        leaves = self.inventory.invertible_by_dim.get(n)
        if not leaves:
            return mx.Identity(n)

        def atomic() -> mx.Expr:
            base = mx.MatrixRef(self._choice(leaves))
            if self.rng.random() < 0.3:
                return mx.ScalarMul(mx.ScalarConst(round(float(0.5 + self.rng.random()), 3)), base)
            return base

        if depth <= 0:
            return atomic()
        roll = self.rng.random()
        if roll < 0.35:
            return atomic()
        if roll < 0.55:
            return mx.Transpose(self.gen_invertible(n, depth - 1))
        if roll < 0.8:
            return mx.MatMul(self.gen_invertible(n, depth - 1), self.gen_invertible(n, depth - 1))
        longer = [d for d in self.inventory.spec.dims if d > n]
        if roll < 0.9 and longer:
            # A Gram product: square and invertible, its factors neither —
            # the OLS shape, which product rules for inv / det must not split.
            r = self._choice(longer)
            if self.rng.random() < 0.5:
                tall = mx.MatrixRef(f"D{r}x{n}")
                return mx.MatMul(mx.Transpose(tall), tall)
            wide = mx.MatrixRef(f"D{n}x{r}")
            return mx.MatMul(wide, mx.Transpose(wide))
        return mx.Add(atomic(), atomic())

    # ------------------------------------------------------------------ matrices
    def gen_matrix(self, shape: Shape, depth: int) -> mx.Expr:
        """A random expression of exactly ``shape``."""
        r, c = shape
        if depth <= 0 or shape == (1, 1):
            return self.leaf(shape)
        axes = self.inventory.axes
        candidates: List[Tuple[float, object]] = []

        def add(weight: float, build) -> None:
            candidates.append((weight, build))

        add(1.5, lambda: self.leaf(shape))
        add(2.0, lambda: mx.Transpose(self.gen_matrix((c, r), depth - 1)))

        def matmul() -> mx.Expr:
            k = self._choice(axes)
            return mx.MatMul(self.gen_matrix((r, k), depth - 1), self.gen_matrix((k, c), depth - 1))

        add(2.5, matmul)
        for op in (mx.Add, mx.Sub, mx.Hadamard):
            add(
                0.8,
                lambda op=op: op(self.gen_matrix(shape, depth - 1), self.gen_matrix(shape, depth - 1)),
            )
        add(1.0, lambda: mx.ScalarMul(self.scalar_leaf(), self.gen_matrix(shape, depth - 1)))
        add(0.5, lambda: mx.Rev(self.gen_matrix(shape, depth - 1)))

        positive = self.inventory.positive_by_shape.get(shape)
        if positive:

            def elem_div() -> mx.Expr:
                if self.rng.random() < 0.3:
                    denominator: mx.Expr = mx.ScalarConst(
                        round(float(0.5 + 1.5 * self.rng.random()), 3)
                    )
                else:
                    denominator = mx.MatrixRef(self._choice(positive))
                return mx.ElemDiv(self.gen_matrix(shape, depth - 1), denominator)

            add(0.8, elem_div)

        if c == 1:
            for op in (mx.RowSums, mx.RowMeans):
                add(
                    0.8,
                    lambda op=op: op(self.gen_matrix((r, self._choice(axes)), depth - 1)),
                )
            if r in self.inventory.invertible_by_dim or (r, r) in self.inventory.by_shape:
                add(0.4, lambda: mx.Diag(self.gen_matrix((r, r), depth - 1)))
        if r == 1:
            for op in (mx.ColSums, mx.ColMeans):
                add(
                    0.8,
                    lambda op=op: op(self.gen_matrix((self._choice(axes), c), depth - 1)),
                )

        if r == c and r in self.inventory.invertible_by_dim:
            add(1.0, lambda: mx.Inverse(self.gen_invertible(r)))
            add(0.4, lambda: mx.MatExp(self.gen_invertible(r, depth=1)))
            add(
                0.6,
                lambda: mx.MatPow(self.gen_invertible(r, depth=1), int(self.rng.integers(0, 4))),
            )
            add(0.4, lambda: mx.Diag(self.gen_matrix((r, 1), depth - 1)))

        col_splits = self._splits(c)
        if col_splits and r != 1:

            def cbind() -> mx.Expr:
                left_cols, right_cols = self._choice(col_splits)
                return mx.CBind(
                    self.gen_matrix((r, left_cols), depth - 1),
                    self.gen_matrix((r, right_cols), depth - 1),
                )

            add(0.5, cbind)
        row_splits = self._splits(r)
        if row_splits and c != 1:

            def rbind() -> mx.Expr:
                top_rows, bottom_rows = self._choice(row_splits)
                return mx.RBind(
                    self.gen_matrix((top_rows, c), depth - 1),
                    self.gen_matrix((bottom_rows, c), depth - 1),
                )

            add(0.5, rbind)

        weights = np.asarray([weight for weight, _ in candidates], dtype=np.float64)
        index = int(self.rng.choice(len(candidates), p=weights / weights.sum()))
        return candidates[index][1]()

    # ------------------------------------------------------------------ scalars
    def gen_scalar(self, depth: int) -> mx.Expr:
        """A random scalar-valued expression (sum / trace / det roots)."""
        roll = self.rng.random()
        square_dims = sorted(self.inventory.invertible_by_dim)
        if square_dims and roll < 0.3:
            return mx.Trace(self.gen_matrix((n := self._choice(square_dims), n), depth - 1))
        if square_dims and roll < 0.45:
            return mx.Det(self.gen_invertible(self._choice(square_dims)))
        return mx.SumAll(self.gen_matrix(self._random_shape(), depth - 1))

    # ------------------------------------------------------------------ entry points
    def generate(self) -> mx.Expr:
        """Draw one random LA expression (matrix- or scalar-valued)."""
        depth = int(self.rng.integers(2, self.max_depth + 1))
        if self.rng.random() < 0.18:
            return self.gen_scalar(depth)
        return self.gen_matrix(self._random_shape(), depth)

    def generate_views(self, count: int, name_prefix: str = "VF") -> List[LAView]:
        """Random materializable views drawn from the same grammar.

        View definitions only reference catalog matrices (never other
        views), so they can be materialized in any order.
        """
        views: List[LAView] = []
        for index in range(count):
            depth = int(self.rng.integers(1, 4))
            views.append(
                LAView(f"{name_prefix}{index}", self.gen_matrix(self._random_shape(), depth))
            )
        return views


def spawn_rng(master_seed: int, *key: int) -> np.random.Generator:
    """An independent, reproducible generator for one (seed, case) lane."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=key))


__all__ = [
    "CatalogInventory",
    "CatalogSpec",
    "ExpressionGenerator",
    "generate_catalog",
    "spawn_rng",
]
