"""Root data for the simple types A-G.

Roots live in a standard orthonormal ambient space with rational coordinates.
The invariant form is the ambient dot product rescaled so that long roots have
squared length 2 in every type; Cartan integers are independent of that scale.

Root data in integer simple-root coefficient tuples is answered here alone
(`build`, `RootSystem.sq`, `string`, `root_coeffs`, `gram`, and `lengths`
over packed codes, `pack`); such tuples compare exactly as root vectors do,
and root closure and strings step over their codes in ints.  The vector
methods (`pairing`, `root_string`, `is_root`, `cartan_integer`) are the
tested reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import lcm
from operator import add, mul

from .exactlin import InvariantError

VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 3,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def _simple_roots(type_label, rank):
    """Simple roots as rational coordinate tuples, Bourbaki realizations."""
    t, n = type_label, rank

    def step(i, dim):
        return _add(_unit(i, dim, 1), _unit(i + 1, dim, -1))

    if t == "A":
        return [step(i, n + 1) for i in range(n)]
    if t == "B":
        return [step(i, n) for i in range(n - 1)] + [_unit(n - 1, n, 1)]
    if t == "C":
        return [step(i, n) for i in range(n - 1)] + [_unit(n - 1, n, 2)]
    if t == "D":
        return [step(i, n) for i in range(n - 1)] + \
            [_add(_unit(n - 2, n, 1), _unit(n - 1, n, 1))]
    if t == "G":
        return [(Fraction(1), Fraction(-1), Fraction(0)),
                (Fraction(-2), Fraction(1), Fraction(1))]
    if t == "F":
        h = Fraction(1, 2)
        return [
            (Fraction(0), Fraction(1), Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1), Fraction(-1)),
            (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
            (h, -h, -h, -h),
        ]
    if t == "E":
        h = Fraction(1, 2)
        e8 = [
            (h, -h, -h, -h, -h, -h, -h, h),
            (Fraction(1), Fraction(1)) + (Fraction(0),) * 6,
            (Fraction(-1), Fraction(1)) + (Fraction(0),) * 6,
            (Fraction(0), Fraction(-1), Fraction(1)) + (Fraction(0),) * 5,
            (Fraction(0), Fraction(0), Fraction(-1), Fraction(1)) + (Fraction(0),) * 4,
            (Fraction(0),) * 3 + (Fraction(-1), Fraction(1)) + (Fraction(0),) * 3,
            (Fraction(0),) * 4 + (Fraction(-1), Fraction(1)) + (Fraction(0),) * 2,
            (Fraction(0),) * 5 + (Fraction(-1), Fraction(1), Fraction(0)),
        ]
        return e8[:n]
    raise ValueError(f"unknown type {type_label!r}")


def _unit(i, dim, val):
    v = [Fraction(0)] * dim
    v[i] = Fraction(val)
    return tuple(v)


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _scale(u, c):
    return tuple(c * a for a in u)


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _integral(vectors):
    """(den, rows): the rational vectors times their common denominator den,
    as int rows; dot products of the rows are den**2 times the ambient ones."""
    den = lcm(*(x.denominator for v in vectors for x in v))
    return den, [[int(x * den) for x in v] for v in vectors]


def _cartan_rows(simples):
    """Cartan integers 2(a, b)/(b, b) as int rows; the form's scale cancels."""
    rows = _integral(simples)[1]
    out = []
    for a in rows:
        row = []
        for b in rows:
            num, sq = 2 * sum(map(mul, a, b)), sum(map(mul, b, b))
            if num % sq:
                raise InvariantError(
                    f"non-integral Cartan entry {Fraction(num, sq)}")
            row.append(num // sq)
        out.append(tuple(row))
    return tuple(out)


def _coroot_pairing(cartan, c, i):
    """<beta, alpha_i^vee> = sum_j c_j <alpha_j, alpha_i^vee> in ints, for
    beta = sum_j c_j alpha_j and `cartan` rows <alpha_j, alpha_i^vee>."""
    return sum(cj * row[i] for cj, row in zip(c, cartan) if cj)


# A coefficient tuple c packs into the int sum(c_i * CODE_BASE**i).  The map
# is linear, so adding roots is adding codes, and it is injective on tuples
# with entries below CODE_BASE / 2 in absolute value.  A root's entries are at
# most 6 (E8), and a code looked up is at most a root plus 4 multiples of a
# root (a root string has at most 4 roots): entries of at most 30.
CODE_BASE = 64


def pack(c):
    return sum(x * CODE_BASE ** p for p, x in enumerate(c))


def _steps(roots, start, step):
    """How many of start + step, start + 2 step, ... lie in `roots` before
    the first that does not; packed codes throughout."""
    n = 0
    cur = start + step
    while cur in roots:
        n += 1
        cur += step
    return n


@lru_cache(maxsize=None)
def canonical_cartan(type_label, rank):
    """Cartan matrix of a simple type from its simple roots alone, without
    the root closure of `build`; rows are int tuples."""
    return _cartan_rows(_simple_roots(type_label, rank))


@dataclass(frozen=True)
class RootSystem:
    type_label: str
    rank: int
    simple_roots: tuple            # ambient coordinate tuples
    positive_roots: tuple          # ambient coordinate tuples, lex order on coefficients
    coeffs: dict = field(compare=False)   # root -> coefficient tuple over the simple roots
    form_scale: Fraction = Fraction(1)

    @property
    def roots(self):
        return self.positive_roots + tuple(_scale(b, -1) for b in self.positive_roots)

    def coefficients(self, root):
        """Integer coefficients of a root over the simple roots."""
        c = self.coeffs.get(root)
        if c is None:
            neg = self.coeffs.get(_scale(root, -1))
            if neg is None:
                raise ValueError(f"not a root: {root}")
            c = tuple(-x for x in neg)
        return c

    def is_root(self, vec):
        return vec in self.coeffs or _scale(vec, -1) in self.coeffs

    def pairing(self, v, w):
        return self.form_scale * _dot(v, w)

    def cartan_integer(self, beta, alpha):
        """2(beta, alpha)/(alpha, alpha)."""
        return 2 * self.pairing(beta, alpha) / self.pairing(alpha, alpha)

    @cached_property
    def _cartan(self):
        return _cartan_rows(self.simple_roots)

    def cartan_matrix(self):
        """Cartan integers as ints, computed once per root system; each call
        gets a fresh list of lists."""
        return [list(row) for row in self._cartan]

    @cached_property
    def _int_gram(self):
        """(den, G): G the int Gram matrix of the simple roots' integral rows
        (`_integral`), so that `gram` is G * form_scale / den**2."""
        den, rows = _integral(self.simple_roots)
        return den, [[sum(map(mul, a, b)) for b in rows] for a in rows]

    @cached_property
    def gram(self):
        """(alpha_i, alpha_j) over the simple roots, in the normalized form."""
        den, g = self._int_gram
        unit = self.form_scale / (den * den)
        return tuple(tuple(unit * x for x in row) for row in g)

    @cached_property
    def lengths(self):
        """{pack(c): c^T G c} over the roots c of both signs, G the int Gram
        matrix: the squared lengths times one positive constant, in ints."""
        g = self._int_gram[1]
        out = {}
        for c in self.coeffs.values():
            out[pack(c)] = out[-pack(c)] = sum(
                ca * cb * g[a][b] for a, ca in enumerate(c) if ca
                for b, cb in enumerate(c) if cb)
        return out

    @cached_property
    def root_coeffs(self):
        """Coefficient tuples of the roots of both signs."""
        pos = set(self.coeffs.values())
        return frozenset(pos | {tuple(-x for x in c) for c in pos})

    @cached_property
    def _sq_memo(self):
        return {}

    def sq(self, c):
        """(beta, beta) = c^T G c for beta = sum_i c_i alpha_i over the Gram
        matrix G; any integer tuple, memoized."""
        val = self._sq_memo.get(c)
        if val is None:
            val = self._sq_memo[c] = sum(
                (ca * cb * self.gram[a][b] for a, ca in enumerate(c) if ca
                 for b, cb in enumerate(c) if cb), Fraction(0))
        return val

    def string(self, alpha, beta):
        """`root_string` over coefficient tuples: (r, q) with the
        alpha-string through beta equal to beta-r*alpha ... beta+q*alpha."""
        a, b = pack(alpha), pack(beta)
        if b == a or b == -a:
            raise ValueError("string through +/-alpha is degenerate")
        return _steps(self.lengths, b, -a), _steps(self.lengths, b, a)

    def root_string(self, alpha, beta):
        """(r, q) with the alpha-string through beta equal to beta-r*alpha ... beta+q*alpha."""
        if beta == alpha or beta == _scale(alpha, -1):
            raise ValueError("string through +/-alpha is degenerate")
        r = 0
        cur = _add(beta, _scale(alpha, -1))
        while self.is_root(cur):
            r += 1
            cur = _add(cur, _scale(alpha, -1))
        q = 0
        cur = _add(beta, alpha)
        while self.is_root(cur):
            q += 1
            cur = _add(cur, alpha)
        return r, q


def build(type_label: str, rank: int) -> RootSystem:
    """Construct the root system, generating positive roots to closure."""
    ok = VALID_RANKS.get(type_label)
    if ok is None or not ok(rank):
        raise ValueError(f"invalid simple type ({type_label}, {rank})")
    simples = _simple_roots(type_label, rank)
    cartan = canonical_cartan(type_label, rank)

    # Extend by height over packed codes: beta + alpha_i is a root iff
    # q > 0, with q = r - <beta, alpha_i^vee> and r read off the part
    # already generated.
    units = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    found = {CODE_BASE ** i: e for i, e in enumerate(units)}
    frontier = list(found)
    while frontier:
        new = []
        for k in frontier:
            c = found[k]
            for i, e in enumerate(units):
                step = CODE_BASE ** i
                if _steps(found, k, -step) > _coroot_pairing(cartan, c, i):
                    if k + step not in found:
                        found[k + step] = tuple(map(add, c, e))
                        new.append(k + step)
        frontier = new
    if 5 * max(map(max, found.values())) >= CODE_BASE // 2:
        raise InvariantError("root coefficients too large to pack")

    # ambient vectors, derived once: simple roots as given, the rest summed
    # in ints over the simple roots' common denominator
    den, rows = _integral(simples)
    cols = list(zip(*rows))
    coeffs = dict(zip(simples, units))
    for c in list(found.values())[rank:]:
        coeffs[tuple(Fraction(sum(map(mul, c, col)), den) for col in cols)] = c
    positive = sorted(coeffs, key=lambda root: coeffs[root])
    form_scale = Fraction(2 * den * den, max(sum(map(mul, a, a)) for a in rows))
    return RootSystem(type_label, rank, tuple(simples), tuple(positive),
                      coeffs, form_scale)


def dynkin_edges(rs: RootSystem):
    """Edges (i, j, multiplicity) of the Dynkin diagram, 0-based node indices."""
    edges = []
    cm = rs.cartan_matrix()
    for i, j in combinations(range(rs.rank), 2):
        m = cm[i][j] * cm[j][i]
        if m != 0:
            edges.append((i, j, m))
    return edges
