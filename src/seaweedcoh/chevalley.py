"""Lie algebras as exact structure-constant tables.

Two sources: a canonical Chevalley-basis construction from a root system
(extraspecial-pair sign convention, so tables are deterministic), and verbatim
structure-constant files for reproducing published bases that use their own
normalizations.

The construction works on integer coefficient tuples over the simple roots,
whose Cartan pairings, squared lengths and root strings the `RootSystem`
answers, so no ambient root vector is rebuilt.  Every constructed or loaded
table is checked for the Jacobi identity on all basis triples by
`jacobi_violation`, which sums only the products of nonzero brackets.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from . import rootsystem
from .exactlin import Echelon, vec_add
from .rootsystem import RootSystem


class JacobiError(ValueError):
    pass


class DegenerateFormError(ValueError):
    """The Killing form is degenerate, so the algebra has no dual basis."""


def _num(x):
    """Keep integers as plain ints; exact rationals otherwise."""
    if isinstance(x, int):
        return x
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


def jacobi_violation(dim, table):
    """Lexicographically first basis triple (i, j, k), i < j < k, on which
    the Jacobi identity fails, or None.

    `table` maps index pairs i < j to the sparse vector [e_i, e_j];
    antisymmetry supplies the rest.  With i the smallest index,

        J(i,j,k) = [[e_i,e_j],e_k] - [[e_i,e_k],e_j] - [e_i,[e_j,e_k]],

    the cyclic sum rearranged by antisymmetry.  For each i the first two
    terms come from the adjoint column of i and then the columns of each l
    in [e_i, e_x]; the last from the pairs (j, k) whose bracket has an e_l
    component, for each l with [e_i, e_l] != 0.  Every triple is covered
    and only products with a zero bracket factor are skipped, so each sum
    is the exact sum of the triple loop; one i-slice is held at a time.
    """
    cols = [{} for _ in range(dim)]     # cols[l][y] = [e_l, e_y]
    hits = [[] for _ in range(dim)]     # hits[l]: (j, k, c) with c e_l in [e_j, e_k]
    for (j, k), vec in table.items():
        cols[j][k] = vec
        cols[k][j] = {t: -c for t, c in vec.items()}
        for t, c in vec.items():
            hits[t].append((j, k, c))
    for i in range(dim):
        acc = {}
        adi = cols[i]
        for x, bx in adi.items():
            if x < i:
                continue
            for l, a in bx.items():
                for y, by in cols[l].items():
                    if y <= i or y == x:
                        continue
                    if x < y:
                        vec_add(acc.setdefault((x, y), {}), by, a)
                    else:
                        vec_add(acc.setdefault((y, x), {}), by, -a)
        for l, bl in adi.items():
            for j, k, c in hits[l]:
                if j > i:
                    vec_add(acc.setdefault((j, k), {}), bl, -c)
        bad = [key for key, vec in acc.items() if vec]
        if bad:
            return (i,) + min(bad)
    return None


class LieAlgebra:
    """Finite-dimensional Lie algebra over the rationals.

    Brackets are stored sparsely for index pairs i < j; antisymmetry supplies
    the rest.  `root_of` maps a basis index to the coefficient tuple of its
    root over the simple roots (Cartan indices carry no root).
    """

    def __init__(self, dim, brackets, labels=None, cartan=(), root_of=None,
                 root_system=None, form_scale=Fraction(1), check=True):
        self.dim = dim
        self.labels = tuple(labels) if labels else tuple(f"e{i+1}" for i in range(dim))
        if len(self.labels) != dim:
            raise ValueError("label count != dim")
        self.cartan = tuple(cartan)
        self.root_of = dict(root_of or {})
        self.root_system = root_system
        self.form_scale = Fraction(form_scale)
        self.brackets = {}
        for (i, j), vec in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index out of range: ({i+1},{j+1})")
            if i == j:
                if any(v != 0 for v in vec.values()):
                    raise ValueError(f"[x,x] != 0 at index {i+1}")
                continue
            if i > j:
                i, j = j, i
                vec = {k: -v for k, v in vec.items()}
            vec = {k: _num(v) for k, v in vec.items() if v != 0}
            for k in vec:
                if not 0 <= k < dim:
                    raise ValueError(f"bracket target out of range: {k+1}")
            if (i, j) in self.brackets and self.brackets[(i, j)] != vec:
                raise ValueError(f"conflicting entries for bracket ({i+1},{j+1})")
            if vec:
                self.brackets[(i, j)] = vec
        self._ad_cache = {}
        self._ad_shared = {}        # negated brackets by their items
        self._root_index = None
        self._killing = None
        self._dual = None
        if check:
            self.check_jacobi()

    # -- bracket evaluation -------------------------------------------------

    def bracket(self, i, j):
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        vec = self.brackets.get((j, i), {})
        return {k: -v for k, v in vec.items()}

    def bracket_vec(self, u, v):
        """[u, v] for sparse coordinate dicts u, v."""
        acc = {}
        for i, ci in u.items():
            if ci == 0:
                continue
            for j, cj in v.items():
                if cj == 0:
                    continue
                b = self.bracket(i, j)
                if b:
                    vec_add(acc, b, ci * cj)
        return acc

    def ad(self, i):
        """Columns of ad(e_i): maps j -> coords of [e_i, e_j], in increasing
        j; built on first use and kept, so callers must not mutate them.
        Equal negated brackets (j < i) share one dict: E7 has 328 of them."""
        cached = self._ad_cache.get(i)
        if cached is None:
            cached = {}
            for j in range(self.dim):
                b = self.bracket(i, j)
                if b:
                    cached[j] = (self._ad_shared.setdefault(tuple(b.items()), b)
                                 if j < i else b)
            self._ad_cache[i] = cached
        return cached

    def check_jacobi(self):
        bad = jacobi_violation(self.dim, self.brackets)
        if bad is not None:
            i, j, k = bad
            raise JacobiError(
                f"Jacobi identity fails on basis triple "
                f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})")

    # -- Killing form and dual basis ----------------------------------------

    def killing_matrix(self):
        """kappa(i,j) = Tr(ad e_i . ad e_j), the literal Killing form, as a
        tuple of row tuples, built once; integral entries are plain ints,
        as in the bracket tables, others Fractions.  It is symmetric, so
        each row is also a column."""
        if self._killing is None:
            ads = [self.ad(i) for i in range(self.dim)]
            m = [[0] * self.dim for _ in range(self.dim)]
            for i in range(self.dim):
                for j in range(i, self.dim):
                    s = 0
                    for u, col in ads[j].items():
                        adi = ads[i]
                        for v, c in col.items():
                            back = adi.get(v)
                            if back:
                                s += back.get(u, 0) * c
                    m[i][j] = m[j][i] = _num(s)
            self._killing = tuple(map(tuple, m))
        return self._killing

    def dual_basis(self):
        """Vectors e^j with B(e_i, e^j) = delta_ij for B = form_scale * kappa.

        `form_scale` defaults to 1; fixture files may declare another scale
        when the published tables normalize the invariant form differently.
        """
        if self._dual is None:
            scale = self.form_scale
            ech = Echelon(({i: scale * x for i, x in enumerate(col) if x}
                           for col in self.killing_matrix()),
                          track=True)
            if ech.rank < self.dim:
                raise DegenerateFormError(
                    "Killing form is degenerate; no dual basis")
            zero = Fraction(0)
            self._dual = []
            for j in range(self.dim):
                e = ech.coords({j: 1})
                self._dual.append([e.get(i, zero) for i in range(self.dim)])
        return self._dual

    # -- helpers -------------------------------------------------------------

    def opposite_index(self, i):
        """Index of the root vector with negated root, if annotated (the
        first such index in `root_of` order, from a root -> index map built
        on first use)."""
        r = self.root_of.get(i)
        if r is None:
            return None
        if self._root_index is None:
            self._root_index = {}
            for j, rj in self.root_of.items():
                self._root_index.setdefault(rj, j)
        return self._root_index.get(tuple(-c for c in r))

    def rescaled(self, scalars):
        """Same algebra in the basis (scalars[i] * e_i)."""
        if len(scalars) != self.dim or any(s == 0 for s in scalars):
            raise ValueError("need a nonzero scalar per basis vector")
        scalars = [Fraction(s) for s in scalars]
        new = {}
        for (i, j), vec in self.brackets.items():
            new[(i, j)] = {k: scalars[i] * scalars[j] / scalars[k] * v
                           for k, v in vec.items()}
        return LieAlgebra(self.dim, new, self.labels, self.cartan,
                          self.root_of, self.root_system, self.form_scale,
                          check=False)


def construct(rs: RootSystem) -> LieAlgebra:
    """Chevalley basis of the simple Lie algebra with root system `rs`.

    Basis layout: positive root vectors in the root system's order, then the
    negative ones in matching order, then the simple coroots.  Signs follow
    the extraspecial-pair convention, so the table is reproducible.
    """
    consts = _ChevalleyConstants(rs)
    m = len(rs.positive_roots)
    rank = rs.rank
    dim = 2 * m + rank

    pos_coeff = [rs.coefficients(b) for b in rs.positive_roots]
    index_of = {}
    for i, c in enumerate(pos_coeff):
        index_of[c] = i
        index_of[tuple(-x for x in c)] = m + i
    root_at = {i: c for c, i in index_of.items()}

    cartan = rs.cartan_matrix()
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            if i in root_at and j in root_at:
                x, y = root_at[i], root_at[j]
                s = tuple(a + b for a, b in zip(x, y))
                if all(c == 0 for c in s):
                    brackets[(i, j)] = consts.coroot(x, 2 * m)
                elif s in index_of:
                    n = _num(consts.N(x, y))
                    if abs(n) != rs.string(x, y)[0] + 1:
                        raise JacobiError(
                            f"structure constant for {x}+{y} is not +/-(p+1)")
                    brackets[(i, j)] = {index_of[s]: n}
            elif i in root_at and j >= 2 * m:
                h = j - 2 * m
                c = rootsystem._coroot_pairing(cartan, root_at[i], h)
                if c != 0:
                    brackets[(i, j)] = {i: -c}
    labels = ([f"x{i+1}" for i in range(m)] + [f"y{i+1}" for i in range(m)]
              + [f"h{i+1}" for i in range(rank)])
    return LieAlgebra(dim, brackets, labels, tuple(range(2 * m, dim)),
                      root_at, rs)


class _ChevalleyConstants:
    """Structure constants N(a, b) via the extraspecial-pair recursion."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.pos = set(rs.coeffs.values())
        # by height, then lexicographically; iterating gives that order
        self.order = {c: i for i, c in enumerate(
            sorted(self.pos, key=lambda c: (sum(c), c)))}
        self._memo = {}
        self._extra = {}

    def extraspecial(self, gamma):
        pair = self._extra.get(gamma)
        if pair is None:
            for a in self.order:
                b = tuple(g - x for g, x in zip(gamma, a))
                if b in self.pos and self.order[a] < self.order[b]:
                    pair = (a, b)
                    break
            else:
                raise ValueError(f"no special pair for {gamma}")
            self._extra[gamma] = pair
        return pair

    def coroot(self, c, offset):
        """Coordinates of the coroot of the root with coefficients c."""
        sq = self.rs.sq(c)
        out = {}
        for i, ci in enumerate(c):
            if ci != 0:
                out[offset + i] = _num(Fraction(ci) * self.rs.gram[i][i] / sq)
        return out

    def N(self, a, b):
        """[e_a, e_b] = N(a,b) e_{a+b}; requires a+b to be a root."""
        key = (a, b)
        if key in self._memo:
            return self._memo[key]
        val = self._compute(a, b)
        self._memo[key] = val
        return val

    def _neg(self, c):
        return tuple(-x for x in c)

    def _compute(self, a, b):
        apos, bpos = a in self.pos, b in self.pos
        if apos and bpos:
            return self._positive_pair(a, b)
        if not apos and not bpos:
            return -self.N(self._neg(a), self._neg(b))
        if not apos:
            return -self.N(b, a)
        # a positive, b negative
        s = tuple(x + y for x, y in zip(a, b))
        if s in self.pos:
            # rotate a + b + (-s) = 0:  N(a,b) = (s,s)/(a,a) N(b,-s)
            return -self.rs.sq(s) / self.rs.sq(a) * self.N(self._neg(b), s)
        return -self.N(self._neg(a), self._neg(b))

    def _positive_pair(self, a, b):
        if self.order[a] > self.order[b]:
            return -self.N(b, a)
        gamma = tuple(x + y for x, y in zip(a, b))
        a1, b1 = self.extraspecial(gamma)
        if (a, b) == (a1, b1):
            return Fraction(self.rs.string(a, b)[0] + 1)
        # Jacobi on (e_{a1}, e_{b1}, e_{-a}) determines N(a, b) from pairs
        # whose sums have smaller height.
        roots = self.rs.root_coeffs
        total = Fraction(0)
        d1 = tuple(x - y for x, y in zip(b1, a))
        if d1 in roots:
            total += self.N(b1, self._neg(a)) * self.N(d1, a1)
        d2 = tuple(x - y for x, y in zip(a1, a))
        if d2 in roots:
            total += self.N(self._neg(a), a1) * self.N(d2, b1)
        n11 = self.N(a1, b1)
        return total * self.rs.sq(gamma) / (self.rs.sq(b) * n11)


# -- fixture files ----------------------------------------------------------

def loads_fixture(text: str) -> LieAlgebra:
    """Parse a structure-constant document (see `load_fixture`)."""
    dim = None
    labels = None
    cartan = ()
    root_of = {}
    form_scale = Fraction(1)
    rs = None
    brackets = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "dim":
                dim = int(rest)
            elif head == "labels":
                labels = rest.split()
            elif head == "cartan":
                cartan = tuple(int(t) - 1 for t in rest.split())
            elif head == "type":
                t, r = rest.split()
                rs = rootsystem.build(t, int(r))
            elif head == "formscale":
                form_scale = Fraction(rest)
            elif head == "root":
                idx_s, _, coeff_s = rest.partition(":")
                root_of[int(idx_s) - 1] = tuple(int(t) for t in coeff_s.split())
            elif head == "bracket":
                pair_s, _, terms_s = rest.partition(":")
                i, j = (int(t) - 1 for t in pair_s.split())
                toks = terms_s.split()
                if len(toks) % 2:
                    raise ValueError("bracket needs (index, value) pairs")
                vec = {}
                for k_s, v_s in zip(toks[::2], toks[1::2]):
                    vec[int(k_s) - 1] = Fraction(v_s)
                if (i, j) in brackets:
                    raise ValueError(f"duplicate bracket ({i+1},{j+1})")
                brackets[(i, j)] = vec
            else:
                raise ValueError(f"unknown directive {head!r}")
        except ValueError as exc:
            raise ValueError(f"fixture line {ln}: {exc}") from None
    if dim is None:
        raise ValueError("fixture missing 'dim'")
    return LieAlgebra(dim, brackets, labels, cartan, root_of, rs,
                      form_scale)


def load_fixture(path) -> LieAlgebra:
    """Load a structure-constant file.

    Format (1-based indices, '#' comments):

        dim 8
        labels e1 e2 ... e8
        cartan 7 8
        type A 2                 # optional: ambient simple type
        formscale 1/4            # optional: invariant-form scale for duals
        root 1 : 1 0             # optional: root coefficients over simples
        bracket 1 2 : 3 -2       # [e1,e2] = -2 e3 (pairs: index value ...)

    Antisymmetric completion is applied; the Jacobi identity is verified and
    a violation names the offending triple.
    """
    return loads_fixture(Path(path).read_text())

