"""Helpers that only the tests need, kept out of the package: basis
cochains, pointwise evaluation of a cochain, the direct sum of two
algebras and the complex built with its own tables on a view's bases."""

from itertools import combinations
from weakref import WeakKeyDictionary

from seaweedcoh.chevalley import LieAlgebra
from seaweedcoh.cochain import Cochain, ComplexContext

_BUILT = WeakKeyDictionary()


def built(ctx):
    """ctx itself if it holds its own tables, else the ComplexContext built
    on the same unit bases and levi, with its own tables in positions (one
    per view): the reference that a view of C(g, g) is checked against."""
    if ctx.base is ctx:
        return ctx
    if ctx not in _BUILT:
        _BUILT[ctx] = ComplexContext(ctx.ambient, ctx.domain, ctx.module,
                                     levi=ctx.levi)
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
