"""Cohomology of decomposable seaweeds through the center.

For s = Z(s) (+) Q the degree-n adjoint cohomology decomposes as
sum over i+j=n of wedge^i Z(s)* tensor H^j(Q, s); these routines evaluate the
formula, compare it against the direct cochain computation, and build the
mixed-component representatives as cup products z* smile f^1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .cochain import (Cochain, ComplexContext, _cleared_echelon, _decoded,
                      adjoint_context, coboundary, quotient_context)
from .exactlin import InvariantError, sparse_kernel_basis, vec_add
from .seaweed import CenterSplit, split_over_center


def _split_of(sw, split):
    return split if split is not None else split_over_center(sw)


def quotient_cohomology(sw, j, split=None, want_representatives=None):
    """(dim H^j(Q, s), representatives) with Q acting through the splitting.

    Representatives (Cochain objects over the (Q, s) context) are returned
    for j <= 1 by default.
    """
    split = _split_of(sw, split)
    ctx = quotient_context(split)
    dims = ctx.cohomology_dims(j)
    if want_representatives is None:
        want_representatives = j <= 1
    reps = []
    if want_representatives and dims.cohomology > 0:
        reps = _class_representatives(ctx, j, dims.cohomology)
    return dims.cohomology, reps


def _class_representatives(ctx, q, expect):
    """Cocycles whose classes are a basis of H^q, from weight zero alone.

    delta keeps the weight grading and blocks of nonzero weight are acyclic
    (see `cochain`).  Blocks have disjoint supports, so a weight-zero cocycle
    is independent of B^q and the representatives before it iff it is
    independent of delta(C^(q-1)_0), the span of `_cleared_echelon`, and
    them, and a cocycle of nonzero weight, a coboundary, is never kept:
    screening every block against B^q gives these representatives, in this
    order.
    """
    basis = ctx.zero_basis(q)
    cocycles = [{basis[p]: c for p, c in rel.items()} for rel in
                sparse_kernel_basis(list(map(ctx.delta_column, basis)))]
    span = _cleared_echelon(ctx, q - 1)
    reps = [_decoded(ctx, q, z) for z in cocycles if span.add(z)]
    if len(reps) != expect:
        raise InvariantError(
            f"{len(reps)} class representatives for dim H^{q} = {expect}")
    return reps


@dataclass
class CGReport:
    n: int
    term_dims: list          # (i, j, binom(z, i) * dim H^j(Q,s))
    formula_total: int
    direct_total: int
    match: bool
    center_dim: int
    h0_equals_center: bool   # paper: H^0(Q,s) = Z(s)

    def as_dict(self):
        return {
            "n": self.n,
            "terms": [list(t) for t in self.term_dims],
            "formula_total": self.formula_total,
            "direct_total": self.direct_total,
            "match": self.match,
            "center_dim": self.center_dim,
            "h0_equals_center": self.h0_equals_center,
        }


def cg_dims(sw, n, split=None) -> CGReport:
    """Formula vs direct computation of dim H^n(s, s)."""
    split = _split_of(sw, split)
    z = len(split.center_basis)
    qdims = {}
    for j in range(n + 1):
        if comb(z, n - j) == 0 and j != n:
            continue
        qdims[j], _ = quotient_cohomology(sw, j, split=split,
                                          want_representatives=False)
    terms = []
    total = 0
    for i in range(n + 1):
        j = n - i
        d = comb(z, i) * qdims.get(j, 0)
        terms.append((i, j, d))
        total += d
    direct = adjoint_context(split.seaweed).cohomology_dims(n).cohomology
    h0 = qdims.get(0)
    h0_ok = h0 is None or h0 == z
    return CGReport(n, terms, total, direct, total == direct, z, h0_ok)


@dataclass
class DegreeReport:
    central_term: int
    mixed_term: int

    @property
    def total(self):
        return self.central_term + self.mixed_term

    def __iter__(self):
        return iter((self.central_term, self.mixed_term))


def h2_report(sw, split=None) -> DegreeReport:
    """(dim wedge^2 Z* x Z, dim Z* x H^1(Q,s)); their sum is dim H^2(s,s)."""
    return _degree_report(sw, 2, split)


def h3_report(sw, split=None) -> DegreeReport:
    """(dim wedge^3 Z* x Z, dim wedge^2 Z* x H^1(Q,s))."""
    return _degree_report(sw, 3, split)


def _degree_report(sw, n, split):
    """(C(z,n) z, C(z,n-1) dim H^1(Q,s)) for a center of dimension z."""
    split = _split_of(sw, split)
    z = len(split.center_basis)
    h1, _ = quotient_cohomology(sw, 1, split=split, want_representatives=False)
    return DegreeReport(comb(z, n) * z, comb(z, n - 1) * h1)


def cup_with_center(split: CenterSplit, f1: Cochain,
                    z_functional=None) -> Cochain:
    """The 2-cocycle phi(x, y) = z*(x) f1(y-bar) - z*(y) f1(x-bar).

    `f1` is a 1-cocycle over the (Q, s) context; bars project to the quotient
    along the center.  The result lives over (s, s) and is checked to be a
    cocycle.
    """
    if f1.degree != 1:
        raise ValueError("need a 1-cochain on Q")
    if not coboundary(f1).is_zero():
        raise ValueError("f1 is not a cocycle")
    sw = split.seaweed
    if z_functional is None:
        z_functional = split.center_functional(0)
    member = sw.member
    proj = [split.project_to_quotient({i: Fraction(1)}) for i in member]
    zstar = [z_functional[i] for i in member]
    f1_on = []
    for p in proj:
        val = {}
        for qi, c in p.items():
            vec_add(val, f1.data.get((qi,), {}), c)
        f1_on.append(val)
    data = {}
    for a in range(len(member)):
        for b in range(a + 1, len(member)):
            vec = vec_add({}, f1_on[b], zstar[a])
            vec_add(vec, f1_on[a], -zstar[b])
            if vec:
                data[(a, b)] = vec
    phi = Cochain(adjoint_context(sw), 2, data)
    if not coboundary(phi).is_zero():
        raise ValueError("cup product failed to be a cocycle")
    return phi


def is_coboundary(ctx: ComplexContext, f: Cochain) -> bool:
    """f is in B^q iff delta f = 0 and its weight-zero part is in
    delta(C^(q-1)_0), the span of `_cleared_echelon`: cocycles of nonzero
    weight are coboundaries.  ValueError unless f lives over ctx, a complex
    whose weight zero carries H^*, as for `cohomology_dims`."""
    if f.context is not ctx:
        raise ValueError("the cochain does not live over this complex")
    ctx._require_weight_zero()
    if not coboundary(f).is_zero():
        return False
    zero = set(ctx.zero_basis(f.degree))
    return _cleared_echelon(ctx, f.degree - 1).contains(
        {key: c for key, c in f.coded().items() if key in zero})


def cohomologous(ctx: ComplexContext, f: Cochain, g: Cochain) -> bool:
    return is_coboundary(ctx, f.add(g, -1))
