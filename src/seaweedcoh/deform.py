"""Deformations of a seaweed along a 2-cocycle.

The deformed bracket is [x,y]_t = [x,y] + t f2(x,y).  Jacobi for all t is
equivalent to the t^1 coefficient (delta f2 = 0) and the t^2 coefficient
(the quadratic self-composition) vanishing; both are checked coefficient-wise
over the basis, not by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .chevalley import LieAlgebra, jacobi_violation
from .cochain import Cochain, adjoint_context, coboundary
from .exactlin import Echelon, vec_add
from .seaweed import Seaweed, center, seaweed_from_algebra


def _check_direction(sw: Seaweed, f2: Cochain):
    """Refuse all but a 2-cochain of C(s, s): in the member basis of s its
    data {(i, j): f2(e_i, e_j)} is then a bracket table."""
    if f2.context is not adjoint_context(sw) or f2.degree != 2:
        raise ValueError("deformation direction must be a 2-cochain of "
                         "adjoint_context(sw)")


@dataclass
class DeformedAlgebra:
    base: LieAlgebra          # s in its member basis
    direction: Cochain        # 2-cochain of adjoint_context(s)
    parameter: Fraction

    @cached_property
    def algebra(self) -> LieAlgebra:
        return _materialize(self.base, self.direction.data, self.parameter)


def _materialize(base: LieAlgebra, table, t) -> LieAlgebra:
    brackets = {}
    for i in range(base.dim):
        for j in range(i + 1, base.dim):
            vec = vec_add(dict(base.bracket(i, j)), table.get((i, j), {}), t)
            if vec:
                brackets[(i, j)] = vec
    return LieAlgebra(base.dim, brackets, base.labels, base.cartan,
                      base.root_of, base.root_system, check=False)


def deform(sw: Seaweed, f2: Cochain, t) -> DeformedAlgebra:
    """Materialize the deformed structure constants; Jacobi is NOT assumed."""
    _check_direction(sw, f2)
    return DeformedAlgebra(sw.algebra(), f2, Fraction(t))


def jacobi_in_t(sw: Seaweed, f2: Cochain):
    """(linear_term_zero, quadratic_term_zero) of the Jacobi polynomial in t.

    The t coefficient vanishes iff delta f2 = 0; the t^2 coefficient iff the
    cyclic sum of f2(f2(x,y), z) vanishes on every basis triple, the Jacobi
    sums of f2 read as a bracket table.
    """
    _check_direction(sw, f2)
    linear = coboundary(f2).is_zero()
    quadratic = jacobi_violation(sw.dim, f2.data) is None
    return linear, quadratic


@dataclass
class InvariantProfile:
    dim: int
    center_dim: int
    derived_dims: tuple   # dims of [L,L] and [[L,L],[L,L]]

    def as_dict(self):
        return {"dim": self.dim, "center_dim": self.center_dim,
                "derived_dims": list(self.derived_dims)}


def invariant_profile(L: LieAlgebra) -> InvariantProfile:
    """Coarse isomorphism invariants: dim, dim Z, first two derived dims."""
    sw = seaweed_from_algebra(L)
    zdim = len(center(sw))
    d1 = _span_brackets(L, [{i: Fraction(1)} for i in range(L.dim)])
    d2 = _span_brackets(L, d1)
    return InvariantProfile(L.dim, zdim, (len(d1), len(d2)))


def _span_brackets(L, vectors):
    """Independent spanning set of [span(vectors), span(vectors)]."""
    span = Echelon()
    basis = []
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            b = L.bracket_vec(vectors[i], vectors[j])
            if span.add(b):
                basis.append(b)
    return basis
