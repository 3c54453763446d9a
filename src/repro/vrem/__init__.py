"""VREM: the Virtual Relational Encoding of Matrices (paper §6.2).

LA expressions are encoded as conjunctive structures over a virtual
relational schema whose relations (Table 1) describe LA operations as
uninterpreted functions: ``multi_m(M, N, R)`` states that R is the result of
the matrix product M·N, ``tr(M, R)`` that R is Mᵀ, and so on.  The arguments
are *equivalence-class identifiers*: two expressions get the same identifier
iff they denote value-equal matrices (§6.2.1).

The package provides:

* :mod:`repro.vrem.atoms` — terms (class IDs, constants, variables) and atoms;
* :mod:`repro.vrem.schema` — the VREM relation catalogue with arities and
  functional-dependency information (which drives congruence closure);
* :mod:`repro.vrem.instance` — the chased instance: a congruence-closed set
  of ground atoms, stored once in an insertion-ordered table, with
  union-find over class IDs and per-class shape metadata;
* :mod:`repro.vrem.encoder` — ``enc_LA``: expression → instance encoding;
* :mod:`repro.vrem.decoder` — ``dec_LA``: atom → expression-node decoding
  used by the extraction step.
"""

from repro.vrem.atoms import Const, Var, Atom, make_atom
from repro.vrem.schema import RelationSpec, VREM_SCHEMA, relation_spec
from repro.vrem.instance import VremInstance
from repro.vrem.encoder import LAEncoder, encode_expression
from repro.vrem.decoder import decode_atom_to_expr

__all__ = [
    "Const",
    "Var",
    "Atom",
    "make_atom",
    "RelationSpec",
    "VREM_SCHEMA",
    "relation_spec",
    "VremInstance",
    "LAEncoder",
    "encode_expression",
    "decode_atom_to_expr",
]
