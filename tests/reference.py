"""Helpers that only the tests need, kept out of the package: basis
cochains, pointwise evaluation of a cochain, the direct sum of two
algebras, and the complex built with tables of its own on any bases, the
reference that the complexes of the package are checked against."""

from itertools import combinations
from weakref import WeakKeyDictionary

from seaweedcoh.chevalley import LieAlgebra
from seaweedcoh.cochain import (Cochain, ComplexContext, _acts_diagonally,
                                _weights)

from dense import SpanSolver

_BUILT = WeakKeyDictionary()


def bracket_coords(ctx, x, where, start=0):
    """{position p: coordinates of [x, b_p]} over the vectors b_p, p >= start,
    of ctx's `where` basis ("domain" or "module") whose bracket with x is
    nonzero: one `bracket_vec` and one `SpanSolver.coords` per vector;
    ValueError when a bracket leaves the span."""
    basis = ctx.domain if where == "domain" else ctx.module
    solver, out = SpanSolver(basis), {}
    for p in range(start, len(basis)):
        b = ctx.ambient.bracket_vec(x, basis[p])
        if b:
            c = solver.coords(b)
            if c is None:
                raise ValueError(f"the {where} is not closed under the bracket")
            if c:
                out[p] = c
    return out


class Built(ComplexContext):
    """C^*(domain, module) for lists of ambient vectors, with tables of its
    own in positions, bracket by bracket (`bracket_coords`), and no domain
    mask: codes are positions, bit i for domain vector i, k for module
    vector k.  It is graded by r, the generators `levi`, else the domain:
    by the generators that act diagonally."""

    def __init__(self, ambient, domain, module, levi=None):
        self.ambient, self.levi = ambient, levi
        self.domain = [dict(v) for v in domain]
        self.module = [dict(v) for v in module]
        self.n, self.m = len(self.domain), len(self.module)
        same = self.domain == self.module
        rows = [bracket_coords(self, x, "domain", 0 if same else i + 1)
                for i, x in enumerate(self.domain)]
        self.dbr = {(i, j): c for i, row in enumerate(rows)
                    for j, c in row.items() if j > i}
        self.act = rows if same else [bracket_coords(self, x, "module")
                                      for x in self.domain]
        self._acting = {}
        for mdx, row in enumerate(self.act):
            for k, col in row.items():
                self._acting.setdefault(k, []).append((1 << mdx, col))
        self.pairs_hitting, ad = {}, [{} for _ in range(self.n)]
        for (a, b), vec in self.dbr.items():
            for t, c in vec.items():
                self.pairs_hitting.setdefault(1 << t, []).append(
                    (1 << a | 1 << b, (1 << b) - (1 << a), c))
            ad[a][b] = vec
            ad[b][a] = {t: -c for t, c in vec.items()}
        tables = ([(ad[i], self.act[i]) for i in range(self.n)] if levi is None
                  else [tuple(bracket_coords(self, x, w) for w in
                              ("domain", "module")) for x in levi])
        diag = [_acts_diagonally(*pair) for pair in tables]
        self._dom_weights, self._mod_weights = _weights(
            self, [pair for pair, d in zip(tables, diag) if d])
        self._general = [pair for pair, d in zip(tables, diag) if not d]
        self._weight_zero_carries_h = True
        self._stride, self._outside = self.m, 0
        self._bits = [1 << i for i in range(self.n)]
        self._dom_pos = range(self.n)
        self._mod_codes = self._mod_pos = range(self.m)
        self._new_caches()


def built(ctx):
    """ctx itself if it is a `Built`, else the `Built` complex on the same
    unit bases and levi (one per complex): the reference that a complex on
    the tables of C(g, g) is checked against."""
    if isinstance(ctx, Built):
        return ctx
    if ctx not in _BUILT:
        _BUILT[ctx] = Built(ctx.ambient, ctx.domain, ctx.module, levi=ctx.levi)
    return _BUILT[ctx]


def basis_cochain(ctx, tup, k):
    """The basis cochain of C^|tup| that is 1 on (tup, module vector k)."""
    return Cochain(ctx, len(tup), {tuple(tup): {k: 1}})


def evaluate(f, indices):
    """f on domain basis indices in any order; {} on repeats."""
    if len(indices) != f.degree:
        raise ValueError("wrong arity")
    if len(set(indices)) != len(indices):
        return {}
    order = sorted(range(len(indices)), key=lambda i: indices[i])
    inversions = sum(1 for a, b in combinations(range(len(indices)), 2)
                     if order[a] > order[b])
    sign = -1 if inversions % 2 else 1
    vec = f.data.get(tuple(sorted(indices)), {})
    return {k: sign * v for k, v in vec.items()}


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """a (+) b, with b's basis after a's."""
    brackets = {}
    for (i, j), vec in a.brackets.items():
        brackets[(i, j)] = dict(vec)
    for (i, j), vec in b.brackets.items():
        brackets[(i + a.dim, j + a.dim)] = {k + a.dim: v
                                            for k, v in vec.items()}
    labels = (tuple(f"a.{s}" for s in a.labels)
              + tuple(f"b.{s}" for s in b.labels))
    cartan = a.cartan + tuple(i + a.dim for i in b.cartan)
    return LieAlgebra(a.dim + b.dim, brackets, labels, cartan, check=False)
