"""The VREM relation catalogue.

Each relation of Table 1 (plus the few auxiliary relations needed by the
Appendix A/B constraints) is described by a :class:`RelationSpec` recording

* its arity,
* which argument positions are *inputs* and which are *outputs* of the
  encoded operation, and
* how the output dimensions derive from the input dimensions.

The input/output split is what turns the functional EGDs of §6.2.3
(I_multiM etc. — "the products of pairwise equal matrices are equal") into a
congruence: whenever two atoms of the same relation agree on all input
positions, their output classes are merged by the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

Shape = Tuple[int, int]


@dataclass(frozen=True)
class RelationSpec:
    """Static description of one VREM relation."""

    name: str
    arity: int
    input_positions: Tuple[int, ...]
    output_positions: Tuple[int, ...]
    scalar_output: bool = False
    #: True for the "fact" relations (name/type/zero/identity/...) that carry
    #: no operation semantics and therefore no congruence rule.
    is_fact: bool = False

    @property
    def functional(self) -> bool:
        """Whether equal inputs force equal outputs (congruence applies)."""
        return bool(self.output_positions) and not self.is_fact


def _op(name: str, arity: int, inputs: Sequence[int], outputs: Sequence[int], scalar=False) -> RelationSpec:
    return RelationSpec(name, arity, tuple(inputs), tuple(outputs), scalar_output=scalar)


def _fact(name: str, arity: int) -> RelationSpec:
    return RelationSpec(name, arity, tuple(range(arity)), (), is_fact=True)


_SPECS = [
    # --- facts about classes -------------------------------------------------
    _fact("name", 2),          # name(M, "M.csv")
    _fact("scalar_const", 2),  # scalar_const(S, 2.5)
    _fact("scalar_name", 2),   # scalar_name(S, "s1")
    _fact("zero", 1),          # zero(O)
    _fact("identity", 1),      # identity(I)
    _fact("type", 2),          # type(M, "S"|"L"|"U"|"O"|"P")
    _fact("size", 3),          # size(M, k, z) — matched against shape metadata
    # --- binary matrix operations --------------------------------------------
    _op("multi_m", 3, (0, 1), (2,)),
    _op("add_m", 3, (0, 1), (2,)),
    _op("sub_m", 3, (0, 1), (2,)),
    _op("div_m", 3, (0, 1), (2,)),
    _op("multi_e", 3, (0, 1), (2,)),
    _op("multi_ms", 3, (0, 1), (2,)),
    _op("sum_d", 3, (0, 1), (2,)),
    _op("product_d", 3, (0, 1), (2,)),
    _op("cbind", 3, (0, 1), (2,)),
    _op("rbind", 3, (0, 1), (2,)),
    _op("mat_pow", 3, (0, 1), (2,)),
    # --- normalized (join-factorized) matrices, for the Morpheus rules ---------
    _fact("factorized", 4),    # factorized(M, S, K, R): M = [S, K R]
    # --- unary matrix -> matrix ------------------------------------------------
    _op("tr", 2, (0,), (1,)),
    _op("inv_m", 2, (0,), (1,)),
    _op("exp", 2, (0,), (1,)),
    _op("adj", 2, (0,), (1,)),
    _op("diag", 2, (0,), (1,)),
    _op("rev", 2, (0,), (1,)),
    _op("row_sums", 2, (0,), (1,)),
    _op("col_sums", 2, (0,), (1,)),
    _op("row_means", 2, (0,), (1,)),
    _op("col_means", 2, (0,), (1,)),
    _op("row_max", 2, (0,), (1,)),
    _op("col_max", 2, (0,), (1,)),
    _op("row_min", 2, (0,), (1,)),
    _op("col_min", 2, (0,), (1,)),
    _op("row_var", 2, (0,), (1,)),
    _op("col_var", 2, (0,), (1,)),
    # --- unary matrix -> scalar -------------------------------------------------
    _op("det", 2, (0,), (1,), scalar=True),
    _op("trace", 2, (0,), (1,), scalar=True),
    _op("sum", 2, (0,), (1,), scalar=True),
    _op("mean", 2, (0,), (1,), scalar=True),
    _op("var", 2, (0,), (1,), scalar=True),
    _op("min", 2, (0,), (1,), scalar=True),
    _op("max", 2, (0,), (1,), scalar=True),
    # --- decompositions (§6.2.5) -------------------------------------------------
    _op("cho", 2, (0,), (1,)),
    _op("qr", 3, (0,), (1, 2)),
    _op("lu", 3, (0,), (1, 2)),
    _op("lup", 4, (0,), (1, 2, 3)),
    # --- scalar arithmetic ----------------------------------------------------------
    _op("add_s", 3, (0, 1), (2,), scalar=True),
    _op("multi_s", 3, (0, 1), (2,), scalar=True),
    _op("inv_s", 2, (0,), (1,), scalar=True),
    _op("pow_s", 3, (0, 1), (2,), scalar=True),
]

VREM_SCHEMA: Dict[str, RelationSpec] = {spec.name: spec for spec in _SPECS}


def relation_spec(name: str) -> RelationSpec:
    """Look up a relation spec, raising ``KeyError`` on unknown relations."""
    return VREM_SCHEMA[name]


_SCALAR_SHAPE: Shape = (1, 1)


def infer_output_shapes(
    relation: str,
    input_shapes: Sequence[Optional[Shape]],
    const_args: Sequence[object] = (),
) -> Tuple[Optional[Shape], ...]:
    """Dimensions of the output classes of an operation atom.

    ``input_shapes`` lists the known shapes of the *input* class arguments in
    position order (``None`` when unknown); the returned tuple is aligned
    with the relation's output positions.  A ``None`` entry means the shape
    cannot be determined from the available information.
    """
    spec = relation_spec(relation)
    n_out = len(spec.output_positions)
    unknown = tuple([None] * n_out)

    def first(index: int) -> Optional[Shape]:
        return input_shapes[index] if index < len(input_shapes) else None

    a, b = first(0), first(1)
    if spec.scalar_output:
        return tuple([_SCALAR_SHAPE] * n_out)
    if relation == "multi_m":
        if a and b:
            return ((a[0], b[1]),)
        return unknown
    if relation in ("add_m", "sub_m", "div_m", "multi_e"):
        if a and a != _SCALAR_SHAPE:
            return (a,)
        if b:
            return (b,)
        return (a,) if a else unknown
    if relation == "multi_ms":
        return (b,) if b else unknown
    if relation == "cbind":
        if a and b:
            return ((a[0], a[1] + b[1]),)
        return unknown
    if relation == "rbind":
        if a and b:
            return ((a[0] + b[0], a[1]),)
        return unknown
    if relation == "sum_d":
        if a and b:
            return ((a[0] + b[0], a[1] + b[1]),)
        return unknown
    if relation == "product_d":
        if a and b:
            return ((a[0] * b[0], a[1] * b[1]),)
        return unknown
    if relation == "mat_pow":
        return (a,) if a else unknown
    if relation == "tr":
        return ((a[1], a[0]),) if a else unknown
    if relation in ("inv_m", "exp", "adj", "rev"):
        return (a,) if a else unknown
    if relation == "diag":
        if a is None:
            return unknown
        if a[1] == 1:
            return ((a[0], a[0]),)
        return ((a[0], 1),)
    if relation in ("row_sums", "row_means", "row_max", "row_min", "row_var"):
        return ((a[0], 1),) if a else unknown
    if relation in ("col_sums", "col_means", "col_max", "col_min", "col_var"):
        return ((1, a[1]),) if a else unknown
    if relation == "cho":
        return (a,) if a else unknown
    if relation in ("qr", "lu"):
        return (a, a) if a else unknown
    if relation == "lup":
        return (a, a, a) if a else unknown
    return unknown
