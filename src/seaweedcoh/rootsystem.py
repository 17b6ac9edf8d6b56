"""Root data for the simple types A-G.

Roots live in a standard orthonormal ambient space with rational coordinates.
The invariant form is the ambient dot product rescaled so that long roots have
squared length 2 in every type; Cartan integers are independent of that scale.

Root data in integer simple-root coefficient tuples is answered here alone
(`build`, `RootSystem.sq`, `string`, `root_coeffs`, `gram`); such tuples
compare exactly as root vectors do.  The vector methods (`pairing`,
`root_string`, `is_root`, `cartan_integer`) are the tested reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
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


def _cartan_rows(simples):
    """Cartan integers 2(a, b)/(b, b) as int rows; the form's scale cancels."""
    rows = []
    for a in simples:
        row = []
        for b in simples:
            c = 2 * _dot(a, b) / _dot(b, b)
            if c.denominator != 1:
                raise InvariantError(f"non-integral Cartan entry {c}")
            row.append(int(c))
        rows.append(tuple(row))
    return tuple(rows)


def _coroot_pairing(cartan, c, i):
    """<beta, alpha_i^vee> = sum_j c_j <alpha_j, alpha_i^vee> in ints, for
    beta = sum_j c_j alpha_j and `cartan` rows <alpha_j, alpha_i^vee>."""
    return sum(cj * row[i] for cj, row in zip(c, cartan) if cj)


def _steps(roots, start, step):
    """How many of start + step, start + 2 step, ... lie in `roots` before
    the first that does not; coefficient tuples throughout."""
    n = 0
    cur = tuple(map(add, start, step))
    while cur in roots:
        n += 1
        cur = tuple(map(add, cur, step))
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
    def gram(self):
        """(alpha_i, alpha_j) over the simple roots, in the normalized form."""
        return tuple(tuple(self.pairing(a, b) for b in self.simple_roots)
                     for a in self.simple_roots)

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
        down = tuple(-x for x in alpha)
        if beta == alpha or beta == down:
            raise ValueError("string through +/-alpha is degenerate")
        return (_steps(self.root_coeffs, beta, down),
                _steps(self.root_coeffs, beta, alpha))

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

    # Extend by height over coefficient tuples: beta + alpha_i is a root iff
    # q > 0, with q = r - <beta, alpha_i^vee> and r read off the part
    # already generated.
    units = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    downs = [tuple(-x for x in e) for e in units]
    found = dict.fromkeys(units)
    frontier = units
    while frontier:
        new = []
        for c in frontier:
            for i, e in enumerate(units):
                if _steps(found, c, downs[i]) > _coroot_pairing(cartan, c, i):
                    cand = tuple(map(add, c, e))
                    if cand not in found:
                        found[cand] = None
                        new.append(cand)
        frontier = new

    # ambient vectors, derived once: simple roots as given, the rest summed
    cols = list(zip(*simples))
    coeffs = dict(zip(simples, units))
    for c in list(found)[rank:]:
        coeffs[tuple(sum(map(mul, c, col)) for col in cols)] = c
    positive = sorted(coeffs, key=lambda root: coeffs[root])
    form_scale = Fraction(2) / max(_dot(a, a) for a in simples)
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
