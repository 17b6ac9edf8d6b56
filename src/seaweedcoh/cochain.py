"""The Chevalley-Eilenberg complex C^q(a, V) with exact coefficients.

A complex is a bracket-closed `domain` and a `module` closed under the
domain action, both given as increasing index sets of an algebra g.
Cochains are stored sparsely on strictly increasing tuples of positions in
those sets; a basis cochain (tup, k) is also one int code mask * m + k
(`code`, `cell`).  `delta_column` inserts index i by mask | 1 << i, signed
by the parity of the bits below i (a bracket term, which drops the t-th bit
and inserts a < b, by that of t + 1 + the bits between a and b).

One code space.  The tables of C(g, g) are read once per algebra off its
ad columns (`_Tables`).  Every complex on g, C(g, g) itself
(`full_context`) and a seaweed's C(s, s), C(n, s), C(Q, s) and C(n, g), is
a domain bitmask and a module index set over them, with the codes of
C(g, g) (bit i for e_i, k the index of the value), so C(n, s) and C(n, g)
share codes.  Positions, in increasing index order, are only what `code`,
`cell` and `_decoded` translate for Cochains.  The restriction lemma makes
this exact: for a spanned by unit vectors and closed under the bracket, and
an a-stable V spanned by unit vectors, delta of C(a, V) on a tuple of a
reads only sub-tuples and brackets inside a (Chevalley-Eilenberg, Trans.
AMS 63, 1948): the delta of C(g, g) with insertions limited to a.
`delta_column` skips action bits and bracket pairs outside the domain mask.
A center complement that is not a unit basis of s is made one: s is
rebuilt as its own algebra on the center and the complement
(`quotient_context`).

Cohomology is counted on an invariant subcomplex.  Let r act on the complex
through a, with each C^q a semisimple r-module.  By the Cartan formula
L_x = delta i_x + i_x delta each isotypic component is a subcomplex; on a
nontrivial one a central element of r, or the Casimir of [r, r], acts by a
nonzero scalar and is null-homotopic, so it is acyclic, and
H^*(a, V) = H^*(C^*(a, V)^r) (Hochschild-Serre, Ann. of Math. 57, 1953).
Every complex takes the weights of C(g, g), graded by the torus T of g: its
units whose ad is diagonal.  Z^q and B^q follow by rank-nullity:
- without `levi`, the weight-zero block `zero_basis` carries H^*, with no
  kernel step, when every weight of the complex that is nonzero is nonzero
  on T cap a: T acts diagonally on unit spans, so its weight blocks are
  subcomplexes, and L_t, t in T cap a, is null-homotopic.  A complex checks
  this once (`_weight_zero_carries_h`).  It holds on C(g, g) and C(s, s),
  where T lies in s, and on C(Q, s): h = Z(s) + (h cap Q), and the roots of
  s vanish on Z(s).  C(n, g) holds none of T, so `cohomology_dims` and
  `is_coboundary` refuse it.  `gerstenhaber` reads class representatives
  and B^q membership from weight zero too;
- with `levi` (only a seaweed's C(n, s), r itself: the Cartan and the
  e_(alpha_i), `reductive_generators`) the invariants are the kernel of L_x
  on `zero_basis`, x over the generators off T (`_general`), for the
  invariant rows and the certificates.  r does not act through n, so
  `cohomology_dims` refuses such a context.  Its invariants, L_x columns
  and coboundary echelon are all on codes.

The weight-zero rank is cleared (Chen-Kerber, "Persistent homology
computation with a twist", EuroCG 2011; Bauer-Kerber-Reininghaus, "Clear
and compress", 2014).  Let W be vectors in im delta_(q-1)|_0, so delta w = 0
(delta^2 = 0: Jacobi, checked on every construction and load), and P a set
of rows with the square minor W|_P invertible.  For p in P some combination
w' of W has w'|_P = e_p, so e_p = w' - (w' off P) and delta e_p lies in the
span of the columns off P: rank delta_q|_0 is theirs.  The pivot rows of an
echelon of delta_(q-1)|_0 give a triangular minor with a nonzero diagonal,
and one nonzero column w its first row.  The lemma names rows only to skip
them, so it holds on codes, and on every weight-zero block (L_h commutes
with delta).  The kept columns span delta(C^q_0), so `gerstenhaber` screens
class representatives and B^q membership against them too.

Weights are packed: scaled by the lcm L of their denominators, w is the int
sum_c L w_c B^c, so codes add as the vectors do.  If M bounds every
component of a module weight plus at most n domain weights and B > 2M, two
such vectors u, v with equal codes have sum_c (u_c - v_c) B^c = 0 and
|u_c - v_c| < B, so the lowest nonzero term would be divisible by B: u = v.
A weight-zero test compares two such vectors, and so does a grade
comparison (m_k - S = m_k' - S' iff m_k + S' = m_k' + S).  `_subset_sums`
walks every tuple depth first (incremental, not output-sensitive).

C(n, s) reads g's rows of its generators off T, filtered by the masks, on
first use.  Integral values stay plain ints and invariant bases come from
primitive int kernel relations, so every complex of a spec seaweed runs in
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, lcm
from operator import attrgetter, ge

from .chevalley import LieAlgebra
from .exactlin import Echelon, InvariantError, sparse_kernel_basis, vec_add


class ComplexContext:
    """C^*(a, V) for a bracket-closed a and a subalgebra V, given as
    strictly increasing index sets of the unit vectors of g that span them.
    It keeps g's tables (`_tables`) and adds a domain mask and a module
    index set; its codes are those of C(g, g) (module docstring).  `levi`,
    unit vectors that hold the grading torus, is the r of the invariant
    API; their rows are read on first use."""

    def __init__(self, g: LieAlgebra, domain, module, levi=None):
        tables = _tables(g)
        domain, module = tuple(domain), tuple(module)
        if any(map(ge, domain, domain[1:])) or any(map(ge, module, module[1:])):
            raise ValueError("the index sets must be strictly increasing")
        inside, mod, reach = sum(1 << i for i in domain), set(module), 0
        for a in domain:
            for b, hit in tables.reach[a]:
                if inside & b:
                    reach |= hit
        if reach & ~inside:
            raise ValueError("the domain is not closed under the bracket")
        for a in domain:    # V is a subalgebra: only e_a outside V can move V
            if a not in mod and any(not mod.issuperset(col) for k, col in
                                    tables.act[a].items() if k in mod):
                raise ValueError("the module is not closed under the bracket")
        self.ambient, self.levi, self._tables = g, levi, tables
        self.n, self.m = len(domain), len(module)
        self._stride = g.dim
        self._outside = inside ^ ((1 << g.dim) - 1)
        self._bits = [1 << i for i in domain]
        self._dom_pos = {i: p for p, i in enumerate(domain)}
        self._mod_codes, self._mod_pos = module, {
            k: p for p, k in enumerate(module)}
        self._acting, self.pairs_hitting = tables.acting, tables.pairs_hitting
        self._dom_weights = [tables.weights[i] for i in domain]
        self._mod_weights = [tables.weights[k] for k in module]
        self._new_caches()

    def _new_caches(self):
        self._rank_cache = {}       # q -> weight zero (dim, rank, pivots)
        self._dims = []             # `cohomology_dims` of degrees 0, 1, ..
        self._basis_cache = {}
        self._zero_cache = {}
        self._invariant_cache = {}

    # -- basis bookkeeping --------------------------------------------------

    def dim_cochains(self, q):
        if q < 0 or q > self.n:
            return 0
        return comb(self.n, q) * self.m

    def basis_by_grade(self, q):
        """{packed module weight minus domain weights: codes of its basis
        cochains of C^q, in increasing (tup, k) order}."""
        cached = self._basis_cache.get(q)
        if cached is None:
            cached = self._basis_cache[q] = {}
            for mask, total in _subset_sums(self._bits, q, self._dom_weights):
                for k, w in zip(self._mod_codes, self._mod_weights):
                    cached.setdefault(w - total, []).append(
                        mask * self._stride + k)
        return cached

    def code(self, tup, k):
        """The int code of the basis cochain (tup, k) of positions (module
        docstring)."""
        return (sum(self._bits[i] for i in tup) * self._stride
                + self._mod_codes[k])

    def cell(self, code):
        """The basis cochain (tup, k) of positions of an int code."""
        mask, k = divmod(code, self._stride)
        pos = self._dom_pos
        return (tuple(pos[i] for i in range(mask.bit_length()) if mask >> i & 1),
                self._mod_pos[k])

    # -- the differential ----------------------------------------------------

    def delta_column(self, code):
        """delta of the basis cochain with this code, as {row code: coeff}:
        bits are inserted by `|` and signed by the parity of the bits below
        them, and action bits and bracket pairs outside the domain are
        skipped (module docstring), so no tuple is built."""
        m, outside, out = self._stride, self._outside, {}
        mask, k = divmod(code, m)
        blocked = mask | outside
        for bit, acted in self._acting.get(k, ()):
            if blocked & bit:
                continue
            row = (mask | bit) * m
            odd = (mask & bit - 1).bit_count() & 1
            # each (bit, k2) is a distinct row, and no action value is 0
            for k2, v in acted.items():
                out[row + k2] = -v if odd else v
        tpos, bits = 0, mask
        while bits:
            t = bits & -bits            # the bits of the mask, increasing
            bits ^= t
            rest = mask ^ t
            blocked = rest | outside
            for pair, between, c in self.pairs_hitting.get(t, ()):
                if blocked & pair:
                    continue
                key = (rest | pair) * m + k
                odd = (tpos + (rest & between).bit_count()) & 1
                nv = out.get(key, 0) + (c if odd else -c)
                if nv == 0:
                    out.pop(key, None)
                else:
                    out[key] = nv
            tpos += 1
        return out

    def zero_basis(self, q):
        """The codes of the weight-zero basis cochains of C^q, in increasing
        (tup, k) order; [] outside 0..n.  Cached per degree; callers must
        not mutate it."""
        if not 0 <= q <= self.n:
            return []
        if q not in self._zero_cache:
            self._zero_cache[q] = _weight_matches(self, q)
        return self._zero_cache[q]

    def _require_weight_zero(self):
        """ValueError unless weight zero carries H^* (module docstring)."""
        if self.levi is not None:
            raise ValueError("the complex carries levi generators for its "
                             "invariant rows; count on one built without")
        if not self._weight_zero_carries_h:
            raise ValueError("the domain holds too little of the grading "
                             "torus for weight zero to carry H^*")

    def cohomology_dims(self, q):
        """(dim Z^q, dim B^q, dim H^q), memoized per degree.

        H^q = dim C^q_0 - rank delta_q|_0 - rank delta_(q-1)|_0 on the
        weight-zero block (see the module docstring), and B^q =
        rank delta_(q-1) = dim C^(q-1) - dim Z^(q-1) by rank-nullity, with
        Z^i = H^i + B^i from B^0 = 0.  Block i-1 is built before block i,
        so block i is cleared by its pivots; each degree is counted, and
        guarded, once.  ValueError where weight zero does not carry H^*: a
        context built with `levi`, for its invariant rows, or one whose
        domain does not hold enough of the grading torus.
        """
        self._require_weight_zero()
        if q < 0 or q > self.n:
            return CohomologyDims(0, 0, 0)
        dims = self._dims
        while len(dims) <= q:
            i = len(dims)
            _, b, h = dims[-1] if dims else (0, 0, 0)
            b = self.dim_cochains(i - 1) - h - b
            dim_i, rank_i = _invariant_block(self, i)
            h = dim_i - rank_i - (_invariant_block(self, i - 1)[1] if i else 0)
            if h < 0 or not 0 <= b <= self.dim_cochains(i - 1):
                raise InvariantError(
                    f"impossible counts at q={i}: dim H = {h}, dim B = {b}")
            dims.append(CohomologyDims(h + b, b, h))
        return dims[q]

    @cached_property
    def domain(self):
        """The domain basis as unit vectors of g."""
        return _units(self._dom_pos)

    @cached_property
    def module(self):
        """The module basis as unit vectors of g."""
        return _units(self._mod_codes)

    @cached_property
    def dbr(self):
        """The domain bracket table in positions, from g's."""
        pos = self._dom_pos
        return {(pos[a], pos[b]): {pos[t]: c for t, c in vec.items()}
                for (a, b), vec in self._tables.dbr.items()
                if a in pos and b in pos}

    @cached_property
    def _general(self):
        """The (a_dom, a_mod) tables of the `levi` generators off the
        grading torus: g's rows, filtered by the masks.  The torus must be
        among the generators, so the joint kernel is r's."""
        tables = self._tables
        gens = [i for x in self.levi for i, c in x.items()
                if len(x) == 1 and c == 1]
        if len(gens) < len(self.levi) or not set(tables.torus) <= set(gens):
            raise ValueError("the levi generators must be unit vectors that "
                             "include the grading torus")
        dom, mod = self._dom_pos, self._mod_pos
        return [({u: col for u, col in tables.act[i].items() if u in dom},
                 {k: col for k, col in tables.act[i].items() if k in mod})
                for i in gens if i not in tables.torus]

    @cached_property
    def _weight_zero_carries_h(self):
        """Whether the weights of the units of a and V are determined by
        their values on the torus units inside a: whether each torus unit's
        column of weights lies in the span of those inside a (module
        docstring)."""
        tables, inside = self._tables, self._dom_pos
        if all(t in inside for t in tables.torus):
            return True
        units = inside.keys() | self._mod_pos.keys()
        cols = {t: {u: col[u] for u, col in tables.act[t].items() if u in units}
                for t in tables.torus}
        span = Echelon(col for t, col in cols.items() if t in inside)
        return all(t in inside or span.contains(col) for t, col in cols.items())


class _Tables:
    """The tables of C(g, g), read off g's ad columns, which they keep
    rather than copy: `act`, ad(e_i) by i; `dbr`, [e_i, e_j] by (i, j),
    i < j; `acting`, by module index k, (1 << i, [e_i, e_k]);
    `pairs_hitting`, by target bit 1 << t, (bits a and b, bits a..b-1, c)
    for each c e_t in [e_a, e_b]; `reach`, by a, (bit b, the bits
    [e_a, e_b] hits) for b > a; the grading `torus`, the units whose ad is
    diagonal, and the packed `weights` of every index under it (as domain
    and as module index alike, since g is both)."""

    def __init__(self, g: LieAlgebra):
        self.n = self.m = g.dim        # C(g, g)'s sizes, which `_weights` reads
        self.act = [g.ad(i) for i in range(g.dim)]
        self.dbr = {(i, j): c for i, row in enumerate(self.act)
                    for j, c in row.items() if j > i}
        self.acting = {}
        for i, row in enumerate(self.act):
            for k, col in row.items():
                self.acting.setdefault(k, []).append((1 << i, col))
        self.pairs_hitting, self.reach = {}, [[] for _ in range(g.dim)]
        for (a, b), vec in self.dbr.items():
            for t, c in vec.items():
                self.pairs_hitting.setdefault(1 << t, []).append(
                    (1 << a | 1 << b, (1 << b) - (1 << a), c))
            self.reach[a].append((1 << b, sum(1 << t for t in vec)))
        self.torus = [i for i, row in enumerate(self.act)
                      if _acts_diagonally(row, row)]
        self.weights = _weights(self, [(self.act[i], self.act[i])
                                       for i in self.torus])[0]


def _tables(g: LieAlgebra) -> _Tables:
    """g's `_Tables`, built on first use and kept on g."""
    if not hasattr(g, "_complex_tables"):
        g._complex_tables = _Tables(g)
    return g._complex_tables


def _acts_diagonally(a_dom, a_mod):
    """Whether an element with these action tables sends every domain and
    module basis vector to a multiple of itself."""
    return all(len(col) == 1 and u in col
               for table in (a_dom, a_mod) for u, col in table.items())


def _weights(ctx, tables):
    """(domain weights, module weights): per domain and module index, its
    eigenvalues under the diagonally acting elements whose (a_dom, a_mod)
    tables are given, scaled by the lcm of their denominators and packed by
    `_pack` in a power of two above 2 (n + 1) max |x| >= 2M."""
    vals = [col[u] for pair in tables for table in pair
            for u, col in table.items()]
    scale = lcm(*map(attrgetter("denominator"), vals))
    top = int(max(map(abs, vals), default=0) * scale)
    return _pack(ctx, tables, scale,
                 1 << top.bit_length() + ctx.n.bit_length() + 1)


def _pack(ctx, tables, scale, base):
    """(domain codes, module codes): the weight w of each index as the int
    sum_c scale w[c] base^c; InvariantError unless base > 2M with M = scale
    (n max |domain component| + max |module component|) (module docstring)."""
    top = [max((abs(col[u]) for pair in tables
                for u, col in pair[side].items()), default=0) for side in (0, 1)]
    bound = int(scale * (ctx.n * top[0] + top[1]))
    if base <= 2 * bound:
        raise InvariantError(f"weight base {base} is not above 2 * {bound}")
    dom, mod = [0] * ctx.n, [0] * ctx.m
    for c, pair in enumerate(tables):
        unit = scale * base ** c
        for codes, table in zip((dom, mod), pair):
            for u, col in table.items():
                codes[u] += int(col[u] * unit)
    return dom, mod


def _subset_sums(bits, q, weights, start=0, mask=0, total=0):
    """(bitset, sum of weights over it) of each q-subset of the positions
    range(start, len(bits)), position j being bit bits[j], joined to mask,
    in increasing tuple order: a depth-first walk over increasing positions
    that carries the partial int sum."""
    if q > 1:
        for j in range(start, len(bits) - q + 1):
            yield from _subset_sums(bits, q - 1, weights, j + 1,
                                    mask | bits[j], total + weights[j])
    elif q:
        for j in range(start, len(bits)):
            yield mask | bits[j], total + weights[j]
    else:
        yield mask, total


def _weight_matches(ctx, q):
    """The codes of the basis cochains (tup, k) of C^q, in increasing
    (tup, k) order, whose packed module weight is the sum of the domain
    weights over tup, looked up per tuple among the module weights."""
    mod_by_weight = {}
    for k, w in zip(ctx._mod_codes, ctx._mod_weights):
        mod_by_weight.setdefault(w, []).append(k)
    m = ctx._stride
    return [mask * m + k for mask, total in
            _subset_sums(ctx._bits, q, ctx._dom_weights)
            for k in mod_by_weight.get(total, ())]


def _decoded(ctx, q, col):
    """The q-cochain of a {code: coefficient} column."""
    data = {}
    for code, c in col.items():
        tup, k = ctx.cell(code)
        data.setdefault(tup, {})[k] = c
    return Cochain(ctx, q, data)


@dataclass(frozen=True)
class CohomologyDims:
    cocycles: int
    coboundaries: int
    cohomology: int

    def __iter__(self):
        return iter((self.cocycles, self.coboundaries, self.cohomology))


class Cochain:
    """Alternating q-cochain: {increasing tuple: {module index: coeff}}."""

    __slots__ = ("context", "degree", "data")

    def __init__(self, context, degree, data):
        self.context = context
        self.degree = degree
        self.data = {}
        for tup, vec in data.items():
            vec = {k: v for k, v in vec.items() if v != 0}
            if vec:
                self.data[tup] = vec

    def is_zero(self):
        return not self.data

    def items(self):
        for tup, vec in self.data.items():
            for k, c in vec.items():
                yield (tup, k), c

    def coded(self):
        """{code: coefficient} over its basis cochains (`code`)."""
        code = self.context.code
        return {code(tup, k): c for (tup, k), c in self.items()}

    def add(self, other, scale=1):
        if other.context is not self.context or other.degree != self.degree:
            raise ValueError("cochain mismatch")
        out = {t: dict(v) for t, v in self.data.items()}
        for t, vec in other.data.items():
            vec_add(out.setdefault(t, {}), vec, scale)
        return Cochain(self.context, self.degree, out)

    def scale(self, c):
        return Cochain(self.context, self.degree,
                       {t: {k: c * v for k, v in vec.items()}
                        for t, vec in self.data.items()})

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.degree == other.degree
                and self.data == other.data)


def coboundary(f: Cochain) -> Cochain:
    """Chevalley-Eilenberg differential: `delta_column`, extended linearly.

    (delta f)(x_0..x_q) = sum_i (-1)^i x_i . f(..x^_i..)
                        + sum_{i<j} (-1)^{i+j} f([x_i,x_j], ..x^_i..x^_j..)
    """
    return _decoded(f.context, f.degree + 1, _delta(f.context, f.coded()))


def _delta(ctx, f):
    """delta of a {code: coefficient} cochain, as {row code: coefficient}."""
    acc = {}
    for code, c in f.items():
        if c:
            vec_add(acc, ctx.delta_column(code), c)
    return acc


def invariant_cochains(ctx: ComplexContext, q):
    """Basis of the joint kernel of the Lie derivatives of `ctx.levi` on
    C^q, decoded on each call from the codes computed once per context and
    degree.
    """
    return [_decoded(ctx, q, f) for f in _invariant_entry(ctx, q)[0]]


def invariant_coboundaries(ctx: ComplexContext, q) -> Echelon:
    """Tracked echelon of delta of the invariant q-cochains, in their order,
    on row codes, built once per context and degree.  Every caller reads
    the same one (`rank`, `kernel()`, `contains`), so nothing may `add`.
    """
    entry = _invariant_entry(ctx, q)
    if entry[1] is None:
        entry[1] = Echelon((_delta(ctx, f) for f in entry[0]), track=True)
    return entry[1]


def _invariant_entry(ctx, q):
    """[invariant q-cochains as {code: int}, their coboundary echelon or
    None until asked]; ValueError on a context built without `levi`."""
    if ctx.levi is None:
        raise ValueError("the complex was built without levi generators")
    if q < 0 or q > ctx.n:
        return [[], None]
    if q not in ctx._invariant_cache:
        ctx._invariant_cache[q] = [_invariant_basis(ctx, q), None]
    return ctx._invariant_cache[q]


def _invariant_basis(ctx, q):
    """The invariant q-cochains as {code: int}: one per primitive int kernel
    relation of the L_x columns of the weight-zero codes (only they can
    carry an invariant), x over `_general`, over those codes; with no
    generator acting non-diagonally every weight-zero code is one."""
    candidates = ctx.zero_basis(q)
    general = candidates and ctx._general
    if not general:
        return [{code: 1} for code in candidates]
    return [{candidates[p]: c for p, c in rel.items()} for rel in
            sparse_kernel_basis(_lie_columns(ctx, candidates, general), True)]


def _lie_columns(ctx, candidates, generators):
    """L_x of each candidate code, stacked over the generators x, given by
    their (a_dom, a_mod) action tables, as {row: coefficient}, the row of
    code c under generator gi being gi * (m << dim g) + c, for the code
    stride m.  An index replaces another by `|` and is signed by
    popcount parity, as in `delta_column`; zero entries may remain (no
    relation changes)."""
    m, tables = ctx._stride, []
    for gi, (a_dom, a_mod) in enumerate(generators):
        into = {}       # bit of t -> [(bit of u, c)]: [x, d_u] has c on d_t
        for u in sorted(a_dom):
            for t, c in a_dom[u].items():
                into.setdefault(1 << t, []).append((1 << u, c))
        tables.append((gi * (m << ctx.ambient.dim), a_mod, into))
    cols = []
    for code in candidates:
        mask, k = divmod(code, m)
        col = {}
        for off, a_mod, into in tables:
            for k2, c in a_mod.get(k, {}).items():
                col[off + mask * m + k2] = c
            tpos, bits = 0, mask
            while bits:
                t = bits & -bits
                bits ^= t
                rest = mask ^ t
                for u, c in into.get(t, ()):
                    if not rest & u:
                        key = off + (rest | u) * m + k
                        odd = (tpos + (rest & u - 1).bit_count()) & 1
                        col[key] = col.get(key, 0) + (c if odd else -c)
                tpos += 1
        cols.append(col)
    return cols


def _invariant_block(ctx, q):
    """(dim, rank of delta_q) of the weight-zero block in degree q, with no
    kernel step, cleared by `_cleared_echelon`."""
    if q not in ctx._rank_cache:
        _cleared_echelon(ctx, q)
    return ctx._rank_cache[q][:2]


def _cleared_echelon(ctx, q):
    """Echelon of delta over the weight-zero codes of C^q off the pivot rows
    of _rank_cache[q - 1], if cached with them: its span is delta(C^q_0)
    (module docstring).  _rank_cache[q] becomes (dim, rank, pivot rows)
    before the caller may add to the echelon."""
    basis, prev = ctx.zero_basis(q), ctx._rank_cache.get(q - 1, ())
    cleared = set(*prev[2:])        # the pivot rows of block q-1, if any
    kept = [c for c in basis if c not in cleared]
    if prev[2:] and not len(cleared) == prev[1] == len(basis) - len(kept):
        raise InvariantError(f"the pivot rows of delta_{q - 1} are not "
                             f"{prev[1]} block {q}-cochains")
    span = Echelon(map(ctx.delta_column, kept))
    rows = span.pivot_rows()
    ctx._rank_cache[q] = (len(basis), len(rows), rows)
    return span


@dataclass(frozen=True)
class InvariantCohomologyDims(CohomologyDims):
    coboundaries_match_full: bool


def invariant_cohomology_dims(ctx: ComplexContext, q):
    """Dims of the `ctx.levi` invariant subcomplex at degree q.

    Invariant coboundaries are delta of invariant (q-1)-cochains; for a
    reductive invariance algebra this agrees with B^q intersected with the
    invariants, and `coboundaries_match_full` records that comparison.
    """
    inv_q = _invariant_entry(ctx, q)[0]
    z_dim = len(inv_q) - invariant_coboundaries(ctx, q).rank
    b_dim = invariant_coboundaries(ctx, q - 1).rank
    consistent = q <= 0 or _coboundary_consistency(ctx, q, inv_q, b_dim)
    h = z_dim - b_dim
    if h < 0:
        raise InvariantError(f"negative invariant cohomology at q={q}")
    return InvariantCohomologyDims(z_dim, b_dim, h, consistent)


def _coboundary_consistency(ctx, q, inv_q, b_dim):
    """dim(B^q cap invariants) == dim delta(invariant (q-1)-cochains)?

    B^q is spanned from weight zero only.  Let h run over the Levi
    generators that act diagonally.  Each L_h commutes with delta, so delta
    maps the joint h-weight spaces C^(q-1)_lambda into C^q_lambda.  The invariants
    lie in weight zero; if delta(c) is invariant, its components of nonzero
    weight, delta(c_lambda), vanish, so delta(c) = delta(c_0).  Hence
    B^q cap invariants = delta(C^(q-1)_0) cap invariants, the span of
    `_cleared_echelon`, whose pivot rows are cached before the invariant
    codes inv_q are added.  inv_q has rank len(inv_q): each kernel relation
    has its own dependent column, on which the others vanish, and distinct
    codes are distinct basis cochains.
    """
    if not inv_q:
        return b_dim == 0
    span = _cleared_echelon(ctx, q - 1)
    r_b0 = span.rank
    for f in inv_q:
        span.add(f)
    return r_b0 + len(inv_q) - span.rank == b_dim


def _units(indices):
    return [{i: 1} for i in indices]


def adjoint_context(sw) -> ComplexContext:
    """C^*(s, s) for a seaweed (cached on the seaweed), counted on weight
    zero; it carries no `levi` (see the module docstring)."""
    if not hasattr(sw, "_adjoint_ctx"):
        sw._adjoint_ctx = ComplexContext(sw.ambient, sw.member, sw.member)
    return sw._adjoint_ctx


def nilradical_context(sw) -> ComplexContext:
    """C^*(n, s) for a seaweed, carrying r (cached on the seaweed)."""
    if not hasattr(sw, "_nilradical_ctx"):
        sw._nilradical_ctx = ComplexContext(
            sw.ambient, sw.nilradical, sw.member, reductive_generators(sw))
    return sw._nilradical_ctx


def nilradical_ambient_context(sw) -> ComplexContext:
    """C^*(n, g): the nilradical acting on the whole ambient algebra, which
    the rigidity certificate differentiates in (cached on the seaweed)."""
    if not hasattr(sw, "_nilradical_ambient_ctx"):
        sw._nilradical_ambient_ctx = ComplexContext(
            sw.ambient, sw.nilradical, range(sw.ambient.dim))
    return sw._nilradical_ambient_ctx


def full_context(L: LieAlgebra) -> ComplexContext:
    """C^*(g, g) for a whole algebra (cached on the algebra): the complex
    with full masks."""
    if not hasattr(L, "_full_context"):
        L._full_context = ComplexContext(L, range(L.dim), range(L.dim))
    return L._full_context


def quotient_context(split) -> ComplexContext:
    """C^*(Q, s): the center complement acting on all of s (cached).

    The adjoint context when the complement is the unit basis of s (a
    trivial center), and C(Q, s) on the units of g when it is another unit
    basis (always for a spec).  Otherwise it is C(Q, s) in s rebuilt as its
    own algebra on center_basis + complement_basis (`CenterSplit.algebra`),
    where the complement is the last units: its values are then in that
    basis, not in the member units of s.
    """
    sw = split.seaweed
    comp = split.complement_basis
    if comp == _units(sw.member):
        return adjoint_context(sw)
    if not hasattr(split, "_quotient_ctx"):
        z = len(split.center_basis)
        split._quotient_ctx = (
            ComplexContext(sw.ambient, map(min, comp), sw.member)
            if all(v == {min(v): 1} for v in comp) else
            ComplexContext(split.algebra, range(z, sw.dim), range(sw.dim)))
    return split._quotient_ctx


def reductive_generators(sw):
    """Generators of r as a list of ambient coordinate dicts: for a seaweed
    with a spec, the Cartan and the root vectors of the positive simple
    roots alpha_i, i in pi1 & pi2; otherwise every basis vector of r.  They
    are the `levi` of C(n, s).

    The Lie derivative is a representation, so the elements killing a
    cochain form a subalgebra, and a generating set of r has the same joint
    kernel as all of r; h and the e_(+/-alpha_i) generate
    r = h + sum of g_alpha over the roots alpha of pi1 & pi2.  The
    e_(-alpha_i) are not needed.  r is reductive in g and normalizes n and
    s, so every C^q(a, s) here is a finite-dimensional semisimple r-module
    on which h acts diagonally.  A cochain killed by h and by every
    e_(alpha_i) is a highest-weight vector of weight 0 for [r, r]; the
    module it generates is irreducible (complete reducibility) of highest
    weight 0, the trivial one, so every e_(-alpha_i) kills it too.  The
    same kernel gives the same column dependencies, so `sparse_kernel_basis`
    returns the same invariant cochains, in the same order.
    """
    g, spec = sw.ambient, sw.spec
    if spec is None:
        return _units(sw.reductive)
    simple = {tuple(int(x == i - 1) for x in range(spec.rank))
              for i in spec.pi1 & spec.pi2}
    return _units(i for i in sw.reductive
                  if i in g.cartan or g.root_of.get(i) in simple)
