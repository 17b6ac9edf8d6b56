"""Deformations of a seaweed along a 2-cocycle.

The deformed bracket is [x,y]_t = [x,y] + t f2(x,y).  Jacobi for all t is
equivalent to the t^1 coefficient (delta f2 = 0) and the t^2 coefficient
(the quadratic self-composition) vanishing; both are checked coefficient-wise
over the basis, not by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chevalley import LieAlgebra, jacobi_violation
from .cochain import Cochain, coboundary
from .exactlin import Echelon, vec_add
from .seaweed import Seaweed, center, seaweed_from_algebra


def _f2_member_table(sw: Seaweed, f2: Cochain):
    """f2 values re-indexed to the member basis of s."""
    pos = {idx: p for p, idx in enumerate(sw.member)}
    ctx = f2.context
    dom_amb = [next(iter(v)) for v in ctx.domain]
    mod_amb = [next(iter(v)) for v in ctx.module]
    table = {}
    for (a, b), vec in f2.data.items():
        key = (pos[dom_amb[a]], pos[dom_amb[b]])
        table[key] = {pos[mod_amb[k]]: v for k, v in vec.items()}
    return table


@dataclass
class DeformedAlgebra:
    base: LieAlgebra          # s in its member basis
    direction: Cochain        # degree-2 cochain over (s, s)
    parameter: Fraction

    @property
    def algebra(self) -> LieAlgebra:
        if not hasattr(self, "_algebra"):
            self._algebra = _materialize(self.base, self._table, self.parameter)
        return self._algebra


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
    if f2.degree != 2:
        raise ValueError("deformation direction must have degree 2")
    base = sw.algebra()
    out = DeformedAlgebra(base, f2, Fraction(t))
    out._table = _f2_member_table(sw, f2)
    return out


def jacobi_in_t(sw: Seaweed, f2: Cochain):
    """(linear_term_zero, quadratic_term_zero) of the Jacobi polynomial in t.

    The t coefficient vanishes iff delta f2 = 0; the t^2 coefficient iff the
    cyclic sum of f2(f2(x,y), z) vanishes on every basis triple.
    """
    if f2.degree != 2:
        raise ValueError("need a 2-cochain")
    linear = coboundary(f2).is_zero()
    # values live in the module = s; in domain coordinates f2 is a bracket
    # table whose Jacobi sums are the t^2 coefficients
    table = {pair: _module_to_domain(f2.context, vec)
             for pair, vec in f2.data.items()}
    quadratic = jacobi_violation(len(f2.context.domain), table) is None
    return linear, quadratic


def _module_to_domain(ctx, vec):
    """Convert module coordinates to domain coordinates (same span for (s,s))."""
    amb = {}
    for k, c in vec.items():
        vec_add(amb, ctx.module[k], c)
    out = ctx._dom_solver.coords(amb)
    if out is None:
        raise ValueError("deformation direction leaves the domain span")
    return out


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
