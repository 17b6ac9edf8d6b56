"""Lie algebras as exact structure-constant tables.

Two sources: a canonical Chevalley-basis construction from a root system
(extraspecial-pair sign convention, so tables are deterministic), and verbatim
structure-constant files for reproducing published bases that use their own
normalizations.

The construction works on integer coefficient tuples over the simple roots,
packed into one int code per root so that adding roots is adding codes, and
computes every structure constant in int arithmetic: squared lengths are
scaled to ints and each division is checked exact.

Every constructed or loaded table is checked for the Jacobi identity by
`jacobi_violation`, which sums only the products of nonzero brackets.  The
elements x for which ad x is a derivation form a subalgebra: Jacobi on
(x, y, .) says ad [x, y] = [ad x, ad y], and the commutator of two
derivations is a derivation (Jacobson, *Lie Algebras*, Ch. I).  So Jacobi
holds on every triple iff it holds on every triple containing a generator.
The e_(+-alpha_i) generate a simple algebra in its Chevalley basis
(Humphreys, *Introduction to Lie Algebras and Representation Theory*, §18),
but a table is trusted only when it certifies this itself: every basis
vector is a root vector or a Cartan unit; every root vector that is not an
e_(+-alpha_i) is, in order of |height|, a single-entry nonzero bracket of an
already reached root vector with an e_(+-alpha_i); and the brackets
[e_alpha_i, e_-alpha_i] span the Cartan units.  With the certificate only the
2r generator slices are summed; without it (fixtures without root data,
`deform`'s f2 tables) every triple is.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub
from pathlib import Path

from . import rootsystem
from .exactlin import Echelon, InvariantError, vec_add
from .rootsystem import RootSystem, pack


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


def jacobi_violation(dim, table, generators=None):
    """Lexicographically first basis triple (i, j, k), i < j < k, on which
    the Jacobi identity fails, or None.

    `table` maps index pairs i < j to the sparse vector [e_i, e_j];
    antisymmetry supplies the rest.  With i the smallest index,

        J(i,j,k) = [[e_i,e_j],e_k] - [[e_i,e_k],e_j] - [e_i,[e_j,e_k]],

    the cyclic sum rearranged by antisymmetry; J(i, ., .) = 0 says that
    ad e_i is a derivation.  For each i the first two terms come from the
    adjoint column of i and then the columns of each l in [e_i, e_x]; the
    last from the pairs (j, k) whose bracket has an e_l component, for each
    l with [e_i, e_l] != 0.  Every triple is covered and only products with
    a zero bracket factor are skipped, so each sum is the exact sum of the
    triple loop; one i-slice is held at a time.

    `generators`, if given, are basis indices that the caller has certified
    to generate the algebra (`LieAlgebra.check_jacobi` certifies the
    e_(+-alpha_i) from the table's own root data and brackets).  The elements whose ad is a derivation form a
    subalgebra (Jacobson, *Lie Algebras*, Ch. I), so Jacobi holds iff the
    generators' whole slices, over every pair (j, k) without the generator,
    vanish, and only those are summed.  A nonzero one is a violation; the
    scan over every triple then names the first.
    """
    cols = [{} for _ in range(dim)]     # cols[l][y] = [e_l, e_y]
    hits = [[] for _ in range(dim)]     # hits[l]: (j, k, c) with c e_l in [e_j, e_k]
    for (j, k), vec in table.items():
        cols[j][k] = vec
        cols[k][j] = {t: -c for t, c in vec.items()}
        for t, c in vec.items():
            hits[t].append((j, k, c))
    if generators is not None:
        if not any(_failing_pairs(cols, hits, s, -1) for s in generators):
            return None
    for i in range(dim):
        bad = _failing_pairs(cols, hits, i, i)
        if bad:
            return (i,) + min(bad)
    if generators is not None:
        raise InvariantError("a generator slice fails Jacobi, no triple does")
    return None


def _failing_pairs(cols, hits, i, lo):
    """The pairs (j, k), lo < j < k, both other than i, with J(i, j, k)
    nonzero; `cols` and `hits` as in `jacobi_violation`."""
    acc = {}
    adi = cols[i]
    for x, bx in adi.items():
        if x <= lo:
            continue
        for l, a in bx.items():
            for y, by in cols[l].items():
                if y <= lo or y == x or y == i:
                    continue
                if x < y:
                    vec_add(acc.setdefault((x, y), {}), by, a)
                else:
                    vec_add(acc.setdefault((y, x), {}), by, -a)
    for l, bl in adi.items():
        for j, k, c in hits[l]:
            if j > lo and i != j and i != k:
                vec_add(acc.setdefault((j, k), {}), bl, -c)
    return [key for key, vec in acc.items() if vec]


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
        marked = self.cartan + tuple(self.root_of)
        if not all(0 <= i < dim for i in marked):
            raise ValueError("cartan or root index out of range")
        if len(set(marked)) != len(marked):
            raise ValueError("cartan and root indices must be distinct")
        self.root_system = root_system
        self.form_scale = Fraction(form_scale)
        entries = {}
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
            if entries.setdefault((i, j), vec) != vec:
                raise ValueError(f"conflicting entries for bracket ({i+1},{j+1})")
        self.brackets = {key: vec for key, vec in entries.items() if vec}
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
        """Raise JacobiError naming the first basis triple that violates
        Jacobi.  The elements whose ad is a derivation form a subalgebra
        (Jacobson), so only the slices of the e_(+-alpha_i) are summed when
        the table certifies that they generate (`_generators`; Humphreys,
        §18): every basis vector is a root vector or a Cartan unit, every
        other root vector is reached, in order of |height|, as a
        single-entry nonzero bracket of a reached one with a generator, and
        the [e_alpha_i, e_-alpha_i] span the Cartan units.  Otherwise every
        triple is summed."""
        bad = jacobi_violation(self.dim, self.brackets, self._generators())
        if bad is not None:
            i, j, k = bad
            raise JacobiError(
                f"Jacobi identity fails on basis triple "
                f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})")

    def _generators(self):
        """The indices of the e_(+-alpha_i) when the table certifies that
        they generate the algebra (module docstring), else None."""
        roots = self.root_of
        if len(roots) + len(self.cartan) != self.dim:
            return None
        gens = [i for i, c in roots.items() if sum(map(abs, c)) == 1]
        reached = set(gens)
        for k in sorted(roots, key=lambda k: abs(sum(roots[k]))):
            if k in reached:
                continue
            for g in gens:
                j = self._index_of_root(tuple(map(sub, roots[k], roots[g])))
                if j in reached and self.bracket(j, g).keys() == {k}:
                    reached.add(k)
                    break
            else:
                return None
        units = set(self.cartan)
        coroots = [self.bracket(g, self.opposite_index(g)) for g in gens
                   if sum(roots[g]) == 1 and self.opposite_index(g) in reached]
        if (any(h.keys() - units for h in coroots)
                or Echelon(coroots).rank != len(units)):
            return None
        return gens

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
        first such index in `root_of` order)."""
        r = self.root_of.get(i)
        return None if r is None else self._index_of_root(tuple(-c for c in r))

    def _index_of_root(self, c):
        """The first index in `root_of` order whose root is the coefficient
        tuple c, or None; from a root -> index map built on first use."""
        if self._root_index is None:
            self._root_index = {}
            for j, rj in self.root_of.items():
                self._root_index.setdefault(rj, j)
        return self._root_index.get(c)

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
    the extraspecial-pair convention, so the table is reproducible.  Root
    pairs are matched by their packed codes (`rootsystem.pack`): [e_a, e_b]
    is a root vector exactly when code(a) + code(b) is a root's code.
    """
    pos = sorted(rs.coeffs.values())        # the order of rs.positive_roots
    consts = _ChevalleyConstants(rs, pos)
    m = len(pos)
    rank = rs.rank
    dim = 2 * m + rank

    root_at = {}
    for i, c in enumerate(pos):
        root_at[i] = c
        root_at[m + i] = tuple(-x for x in c)
    codes = [pack(c) for c in pos]
    codes += [-k for k in codes]
    index_of = {k: i for i, k in enumerate(codes)}

    cartan = rs.cartan_matrix()
    brackets = {}
    for i, x in enumerate(codes):
        for j in range(i + 1, 2 * m):
            y = codes[j]
            if x + y == 0:
                brackets[(i, j)] = consts.coroot(root_at[i], 2 * m)
            elif (k := index_of.get(x + y)) is not None:
                n = consts.N(x, y)
                if abs(n) != consts.down(x, y) + 1:
                    raise JacobiError(f"structure constant for {root_at[i]}"
                                      f"+{root_at[j]} is not +/-(p+1)")
                brackets[(i, j)] = {k: n}
        for h in range(rank):
            c = rootsystem._coroot_pairing(cartan, root_at[i], h)
            if c != 0:
                brackets[(i, 2 * m + h)] = {i: -c}
    labels = ([f"x{i+1}" for i in range(m)] + [f"y{i+1}" for i in range(m)]
              + [f"h{i+1}" for i in range(rank)])
    return LieAlgebra(dim, brackets, labels, tuple(range(2 * m, dim)),
                      root_at, rs)


def _exact(num, den):
    """num / den, which must be an integer."""
    q, r = divmod(num, den)
    if r:
        raise InvariantError(f"{num}/{den} is not an integer")
    return q


class _ChevalleyConstants:
    """Structure constants N(a, b) via the extraspecial-pair recursion, on
    packed root codes (`rootsystem.pack`) in int arithmetic: the squared
    lengths are `RootSystem.lengths`, all scaled by one constant, and every
    division is checked exact."""

    def __init__(self, rs: RootSystem, pos):
        self.sq = rs.lengths
        self.order = {}         # positive codes, by height then lexicographically
        for c in sorted(pos, key=lambda c: (sum(c), c)):
            self.order[pack(c)] = len(self.order)
        self._memo = {}
        self._extra = {}

    def down(self, a, b):
        """r of the a-string through b, for root codes a != +-b."""
        return rootsystem._steps(self.sq, b, -a)

    def extraspecial(self, gamma):
        pair = self._extra.get(gamma)
        if pair is None:
            for a in self.order:
                b = gamma - a
                if b in self.order and self.order[a] < self.order[b]:
                    pair = (a, b)
                    break
            else:
                raise ValueError(f"no special pair for root code {gamma}")
            self._extra[gamma] = pair
        return pair

    def coroot(self, c, offset):
        """Coordinates of the coroot of the root with coefficients c."""
        sq = self.sq[pack(c)]
        return {offset + i: _exact(ci * self.sq[rootsystem.CODE_BASE ** i], sq)
                for i, ci in enumerate(c) if ci}

    def N(self, a, b):
        """[e_a, e_b] = N(a,b) e_{a+b} for root codes a, b; requires a+b to
        be a root."""
        val = self._memo.get((a, b))
        if val is None:
            val = self._memo[(a, b)] = self._compute(a, b)
        return val

    def _compute(self, a, b):
        pos = self.order
        if a in pos and b in pos:
            return self._positive_pair(a, b)
        if a not in pos and b not in pos:
            return -self.N(-a, -b)
        if a not in pos:
            return -self.N(b, a)
        # a positive, b negative
        s = a + b
        if s in pos:
            # rotate a + b + (-s) = 0:  N(a,b) = (s,s)/(a,a) N(b,-s)
            return _exact(-self.sq[s] * self.N(-b, s), self.sq[a])
        return -self.N(-a, -b)

    def _positive_pair(self, a, b):
        if self.order[a] > self.order[b]:
            return -self.N(b, a)
        gamma = a + b
        a1, b1 = self.extraspecial(gamma)
        if (a, b) == (a1, b1):
            return self.down(a, b) + 1
        # Jacobi on (e_{a1}, e_{b1}, e_{-a}) determines N(a, b) from pairs
        # whose sums have smaller height.
        total = 0
        d1 = b1 - a
        if d1 in self.sq:
            total += self.N(b1, -a) * self.N(d1, a1)
        d2 = a1 - a
        if d2 in self.sq:
            total += self.N(-a, a1) * self.N(d2, b1)
        return _exact(total * self.sq[gamma], self.sq[b] * self.N(a1, b1))


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
                if int(idx_s) - 1 in root_of:
                    raise ValueError(f"duplicate root {idx_s.strip()}")
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

