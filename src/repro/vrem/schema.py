"""The VREM relation catalogue.

Each relation of Table 1 (plus the few auxiliary relations needed by the
Appendix A/B constraints) is described by a :class:`RelationSpec` recording

* its arity,
* which argument positions are *inputs* and which are *outputs* of the
  encoded operation,
* whether it is an operation (functional) or a fact, whether its inputs
  commute and whether its outputs are scalars, and
* the dimension rule of each output.

Operation relations are declared once, on the operator classes of
:mod:`repro.lang.matrix_expr`: a class's ``arity`` gives the inputs, the
classes sharing its ``relation`` give the outputs, ``Expr.commutative``
whether the inputs commute, and ``Expr.dims`` how the output dimensions
derive from the input dimensions.  The specs are built from those
declarations at import, so the per-atom paths (insertion, the chase's
conclusion tests, the cost analysis) read one spec and re-derive nothing.
Only the fact relations and the operations no class declares are listed
here by hand.

The input/output split is what turns the functional EGDs of §6.2.3
(I_multiM etc. — "the products of pairwise equal matrices are equal") into a
congruence: whenever two atoms of the same relation agree on all input
positions, their output classes are merged by the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.lang import matrix_expr as mx
from repro.lang.matrix_expr import Shape, _scalar, op_registry, operator_for

#: An output-dimension rule of :mod:`repro.lang`: input shapes in, output shape out.
DimsRule = Callable[[Sequence[Optional[Shape]]], Optional[Shape]]


@dataclass(frozen=True)
class RelationSpec:
    """Static description of one VREM relation: everything insertion, the
    chase's conclusion tests and the cost analysis read per atom, derived
    once at import.  Operation relations list their inputs first."""

    name: str
    arity: int
    input_positions: Tuple[int, ...]
    output_positions: Tuple[int, ...]
    scalar_output: bool = False
    #: Whether equal inputs force equal outputs (congruence applies): true
    #: of every operation, false of the "fact" relations
    #: (name/type/zero/identity/...), which carry no operation semantics.
    functional: bool = False
    #: Whether the inputs commute: the congruence key sorts them.
    commutative: bool = False
    #: One output-dimension rule per output position: given the input
    #: shapes in position order (``None`` when unknown, 1x1 for a constant),
    #: the output's shape, or ``None`` when they do not determine it.
    dims: Tuple[DimsRule, ...] = ()


def _op(
    name: str, inputs: int, dims: Tuple[DimsRule, ...], commutative: bool = False
) -> RelationSpec:
    return RelationSpec(
        name,
        inputs + len(dims),
        tuple(range(inputs)),
        tuple(range(inputs, inputs + len(dims))),
        scalar_output=all(rule is _scalar for rule in dims),
        functional=True,
        commutative=commutative,
        dims=dims,
    )


def _fact(name: str, arity: int) -> RelationSpec:
    return RelationSpec(name, arity, tuple(range(arity)), ())


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
#: arithmetic of the Appendix constraints has no node class at all.  A
#: scalar operation commutes where the matrix node it decodes to does
#: (``a + b`` decodes to ``Add``, ``a * b`` to ``Hadamard``).
_EXPLICIT_OPS = [
    _op("mat_pow", 2, (mx.MatPow.dims,)),
    _op("add_s", 2, (_scalar,), mx.Add.commutative),
    _op("multi_s", 2, (_scalar,), mx.Hadamard.commutative),
    _op("inv_s", 1, (_scalar,)),
    _op("pow_s", 2, (_scalar,)),
]


def _declared_ops() -> List[RelationSpec]:
    """One relation per operator class of :mod:`repro.lang` that is output 0
    of its relation: the node's children are the inputs, and every class
    naming the relation is one output (``qr_q`` and ``qr_r`` make ``qr``
    two-output), with that class's dimension rule."""
    explicit = {spec.name for spec in _EXPLICIT_OPS}
    operators = [cls for cls in op_registry().values() if cls.arity]
    specs = []
    for cls in operators:
        if cls.output == 0 and cls.relation not in explicit:
            outputs = sum(1 for other in operators if other.relation == cls.relation)
            dims = tuple(operator_for(cls.relation, out).dims for out in range(outputs))
            specs.append(_op(cls.relation, cls.arity, dims, cls.commutative))
    return specs


VREM_SCHEMA: Dict[str, RelationSpec] = {
    spec.name: spec for spec in _FACTS + _declared_ops() + _EXPLICIT_OPS
}

#: Operation relations whose inputs commute (read off the specs).
COMMUTATIVE_RELATIONS: FrozenSet[str] = frozenset(
    name for name, spec in VREM_SCHEMA.items() if spec.commutative
)


def relation_spec(name: str) -> RelationSpec:
    """Look up a relation spec, raising ``KeyError`` on unknown relations."""
    return VREM_SCHEMA[name]
