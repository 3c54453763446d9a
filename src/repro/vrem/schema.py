"""The VREM relation catalogue.

Each relation of Table 1 (plus the few auxiliary relations needed by the
Appendix A/B constraints) is described by a :class:`RelationSpec` recording

* its arity,
* which argument positions are *inputs* and which are *outputs* of the
  encoded operation, and
* whether its outputs are scalars.

Operation relations are declared once, on the operator classes of
:mod:`repro.lang.matrix_expr`: a class's ``arity`` gives the inputs, the
classes sharing its ``relation`` give the outputs, and ``Expr.dims`` how the
output dimensions derive from the input dimensions
(:func:`infer_output_shapes` reads those rules per relation and output).
Only the fact relations and the operations no class declares are listed
here by hand.

The input/output split is what turns the functional EGDs of §6.2.3
(I_multiM etc. — "the products of pairwise equal matrices are equal") into a
congruence: whenever two atoms of the same relation agree on all input
positions, their output classes are merged by the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang.matrix_expr import SCALAR_SHAPE, Shape, _scalar, op_registry, operator_for


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


def _op(name: str, inputs: int, outputs: int = 1, scalar: bool = False) -> RelationSpec:
    return RelationSpec(
        name,
        inputs + outputs,
        tuple(range(inputs)),
        tuple(range(inputs, inputs + outputs)),
        scalar_output=scalar,
    )


def _fact(name: str, arity: int) -> RelationSpec:
    return RelationSpec(name, arity, tuple(range(arity)), (), is_fact=True)


_FACTS = [
    _fact("name", 2),          # name(M, "M.csv")
    _fact("scalar_const", 2),  # scalar_const(S, 2.5)
    _fact("scalar_name", 2),   # scalar_name(S, "s1")
    _fact("zero", 1),          # zero(O)
    _fact("identity", 1),      # identity(I)
    _fact("type", 2),          # type(M, "S"|"L"|"U"|"O"|"P")
    _fact("size", 3),          # size(M, k, z) — matched against shape metadata
    _fact("factorized", 4),    # factorized(M, S, K, R): M = [S, K R], for the Morpheus rules
]

#: Operations no operator class declares as such: ``mat_pow``'s exponent is
#: a constant input (the node's payload, not a child), and the scalar
#: arithmetic of the Appendix constraints has no node class at all.
_EXPLICIT_OPS = [
    _op("mat_pow", 2),
    _op("add_s", 2, scalar=True),
    _op("multi_s", 2, scalar=True),
    _op("inv_s", 1, scalar=True),
    _op("pow_s", 2, scalar=True),
]


def _declared_ops() -> List[RelationSpec]:
    """One relation per operator class of :mod:`repro.lang` that is output 0
    of its relation: the node's children are the inputs, and every class
    naming the relation is one output (``qr_q`` and ``qr_r`` make ``qr``
    two-output).  A scalar-valued node's outputs are scalars."""
    explicit = {spec.name for spec in _EXPLICIT_OPS}
    operators = [cls for cls in op_registry().values() if cls.arity]
    return [
        _op(
            cls.relation,
            cls.arity,
            sum(1 for other in operators if other.relation == cls.relation),
            scalar=cls.dims is _scalar,
        )
        for cls in operators
        if cls.output == 0 and cls.relation not in explicit
    ]


VREM_SCHEMA: Dict[str, RelationSpec] = {
    spec.name: spec for spec in _FACTS + _declared_ops() + _EXPLICIT_OPS
}


def relation_spec(name: str) -> RelationSpec:
    """Look up a relation spec, raising ``KeyError`` on unknown relations."""
    return VREM_SCHEMA[name]


#: Each operation relation's dimension rules, one per output position, read
#: off the operator classes of :mod:`repro.lang`.
_OUTPUT_RULES = {
    name: tuple(operator_for(name, out).dims for out in range(len(spec.output_positions)))
    for name, spec in VREM_SCHEMA.items()
    if operator_for(name) is not None
}


def infer_output_shapes(
    relation: str,
    input_shapes: Sequence[Optional[Shape]],
) -> Tuple[Optional[Shape], ...]:
    """Dimensions of the output classes of an operation atom.

    ``input_shapes`` lists the known shapes of the *input* arguments in
    position order (``None`` when unknown, 1x1 for a constant); the returned
    tuple is aligned with the relation's output positions.  A ``None`` entry
    means the shape cannot be determined from the available information.
    """
    spec = relation_spec(relation)
    if spec.scalar_output:
        return (SCALAR_SHAPE,) * len(spec.output_positions)
    rules = _OUTPUT_RULES.get(relation)
    if rules is None:
        return (None,) * len(spec.output_positions)
    if len(rules) == 1:
        return (rules[0](input_shapes),)
    return tuple([rule(input_shapes) for rule in rules])
