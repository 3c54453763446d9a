"""Terms and atoms of the VREM encoding.

Three kinds of terms appear in atoms:

* **class IDs** — plain ``int``s naming an equivalence class of expressions
  in a :class:`~repro.vrem.instance.VremInstance`;
* **constants** — :class:`Const`, wrapping matrix storage names, numeric
  literals and structural type tags;
* **variables** — :class:`Var`, used only inside constraints (TGDs / EGDs)
  and conjunctive queries, never inside a ground instance.

All three are immutable value objects with **cached hashes**: atoms are the
keys of every index the congruence closure and the homomorphism matcher
maintain, so hashing them is the single hottest primitive of the chase.
Ground atoms are additionally *hash-consed* per instance (see
:meth:`repro.vrem.instance.VremInstance`): structurally equal atoms are one
object, which turns the equality checks inside set/dict probes into pointer
comparisons.
"""

from __future__ import annotations

from typing import Tuple, Union


class Const:
    """A constant term (matrix name, scalar value, type tag, dimension)."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: object):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash((Const, value)))

    def __setattr__(self, name, _value):  # pragma: no cover - immutability guard
        raise AttributeError(f"Const is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"~{self.value!r}"


class Var:
    """A variable term; only meaningful inside constraints and queries."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash((Var, name)))

    def __setattr__(self, name, _value):  # pragma: no cover - immutability guard
        raise AttributeError(f"Var is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"?{self.name}"


Term = Union[int, Const, Var]


class Atom:
    """A (possibly non-ground) atom ``relation(arg_1, ..., arg_n)``."""

    __slots__ = ("relation", "args", "_hash")

    def __init__(self, relation: str, args: Tuple[Term, ...]):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "_hash", hash((relation, self.args)))

    def __setattr__(self, name, _value):  # pragma: no cover - immutability guard
        raise AttributeError(f"Atom is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Atom)
            and self._hash == other._hash
            and self.relation == other.relation
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(arg) for arg in self.args)
        return f"{self.relation}({inner})"

    def is_ground(self) -> bool:
        """True when the atom contains no variables."""
        return not any(isinstance(arg, Var) for arg in self.args)

    def variables(self) -> Tuple[Var, ...]:
        """The variables occurring in the atom, in argument order."""
        return tuple(arg for arg in self.args if isinstance(arg, Var))


def make_atom(relation: str, *args: Term) -> Atom:
    """Convenience constructor, wrapping raw strings/floats as constants.

    Integers are interpreted as class IDs (the instance's convention), so
    numeric constants must be passed as :class:`Const` explicitly or as
    floats/strings.
    """
    wrapped = []
    for arg in args:
        if isinstance(arg, (Const, Var, int)) and not isinstance(arg, bool):
            wrapped.append(arg)
        else:
            wrapped.append(Const(arg))
    return Atom(relation, tuple(wrapped))
