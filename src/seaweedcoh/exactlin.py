"""Exact linear algebra over the rationals.

`Echelon` is the one elimination engine: sparse, incremental, fraction-free
over the integers.  It answers rank, kernel relations, span membership and
coordinates.  It pivots in the rows that the fewest columns touch, which
keeps fill-in low; its outputs depend only on the order of the columns,
never on the row order.  `SpanSolver` reads coordinates in a list of unit
vectors directly and factors any other spanning list once.  The tests
compare both against a dense Gauss-Jordan reference (`tests/dense.py`).
Pivoting is deterministic throughout, so kernel bases and coordinates are
reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd


class InvariantError(ValueError):
    """An internal invariant of an exact computation does not hold."""


class SpanSolver:
    """Coordinates of sparse vectors in a fixed spanning list, exactly.

    A list of distinct unit vectors is read off directly through `unit`,
    the map {index of the unit vector: list index}; any other list is
    factored once by a tracked `Echelon` (and `unit` is None).  The answer
    is the one the dense reference `solve` gives: free coordinates zero.
    """

    def __init__(self, vectors):
        self.unit = {next(iter(v)): i for i, v in enumerate(vectors)
                     if len(v) == 1 and next(iter(v.values())) == 1}
        if len(self.unit) < len(vectors):
            self.unit = None
            self._echelon = Echelon(vectors, track=True)

    def coords(self, vec):
        """{list index: coefficient} with sum = vec, or None outside the span."""
        if self.unit is None:
            return self._echelon.coords(vec)
        out = {}
        for i, c in vec.items():
            j = self.unit.get(i)
            if j is None:
                return None
            if c != 0:
                out[j] = c
        return out


def vec_add(acc, other, scale=1):
    """acc += scale * other for sparse {key: value} dicts, dropping zeros."""
    for k, v in other.items():
        nv = acc.get(k, 0) + scale * v
        if nv == 0:
            acc.pop(k, None)
        else:
            acc[k] = nv
    return acc


# Sparse elimination over column dictionaries.  This is the workhorse behind
# the cochain complexes, where coboundary matrices are huge but each column
# has only a handful of nonzero rows.  Columns are rescaled to integers and
# eliminated fraction-free (cross-multiplication with content reduction), so
# the inner loop is pure integer arithmetic.

_CONTENT_LIMIT = 1 << 128


def _integerize(col, pos):
    """(integer copy of a column with its rows renamed by `pos`, the
    denominator lcm it was scaled by).  A row new to `pos` gets the next
    free position."""
    vec = {}
    scale = 0       # stays 0 while every value is an int
    for r, v in col.items():
        if v == 0:
            continue
        p = pos.get(r)
        if p is None:
            p = pos[r] = len(pos)
        vec[p] = v
        if not isinstance(v, int):
            d = v.denominator
            scale = scale * d // gcd(scale, d) if scale else d
    if not scale:
        return vec, 1
    for p, v in vec.items():
        vec[p] = int(v * scale)
    return vec, scale


def _reduce_content(vec, comb=None):
    """Divide a column (and its combination) by their common content."""
    parts = (vec,) if comb is None else (vec, comb)
    g = 0
    for part in parts:
        for v in part.values():
            g = gcd(g, v)
            if g == 1:
                return
    if g > 1:
        for part in parts:
            for r in part:
                part[r] //= g


class Echelon:
    """Incremental echelon form of {row: value} columns, exact.

    Rows are renamed to integer positions, rarest first: a row that fewer
    of the constructor's columns touch gets a lower position, ties going to
    the row seen first, and a row first seen later (through `add` or
    `contains`) gets the next free position.  Each column is reduced
    against the stored pivots, the pivot row of a stored column being its
    least position, so pivots fall in sparse rows and fill-in stays low
    (Markowitz, Management Science 3, 1957).  With `track=True` every pivot
    also carries its combination of the input columns, and `kernel()` gives
    one relation per dependent column.  Columns may be anything with an
    `items()` of (row, value) pairs whose values are ints or Fractions.

    No output depends on the row order: whether a column is independent of
    those before it, `rank`, `contains`, and the relation of a dependent
    column (the unique one over it and the independent columns before it,
    first nonzero coefficient 1) are properties of the column sequence
    alone.  The row order changes only the stored pivots.
    """

    def __init__(self, columns=(), track=False):
        self._pivots = {}      # pivot position -> integer column
        self._combs = {} if track else None   # pivot position -> combination
        self._relations = []
        self.count = 0         # columns added
        columns = [c if isinstance(c, dict) else dict(c.items())
                   for c in columns]
        counts = {}     # a plain dict beats Counter on the many tiny inputs
        for r in chain.from_iterable(columns):
            counts[r] = counts.get(r, 0) + 1
        self._pos = {r: p for p, r in
                     enumerate(sorted(counts, key=counts.__getitem__))}
        for col in columns:
            self.add(col)

    @property
    def rank(self):
        return len(self._pivots)

    def pivot_rows(self):
        """The row keys of the stored pivots (`_pos` lists rows in order)."""
        rows = list(self._pos)
        return [rows[p] for p in self._pivots]

    def _reduce(self, vec, comb):
        """Reduce `vec` in place; its new pivot row, or None if it vanished."""
        pivots, combs = self._pivots, self._combs
        while vec:
            r = min(vec)
            piv = pivots.get(r)
            if piv is None:
                return r
            a, b = vec[r], piv[r]
            if b != 1:
                for k in vec:
                    vec[k] *= b
            vec_add(vec, piv, -a)
            if comb is not None:
                if b != 1:
                    for k in comb:
                        comb[k] *= b
                vec_add(comb, combs[r], -a)
            if abs(a) > _CONTENT_LIMIT or abs(b) > _CONTENT_LIMIT:
                _reduce_content(vec, comb)
        return None

    def add(self, col) -> bool:
        """Add a column; True when it was independent of those before."""
        vec, scale = _integerize(col, self._pos)
        comb = {self.count: scale} if self._combs is not None else None
        self.count += 1
        r = self._reduce(vec, comb)
        if r is None:
            if comb is not None:
                self._relations.append(comb)
            return False
        _reduce_content(vec, comb)
        self._pivots[r] = vec
        if comb is not None:
            self._combs[r] = comb
        return True

    def contains(self, col) -> bool:
        """Whether `col` lies in the span of the columns added so far."""
        return self._reduce(_integerize(col, self._pos)[0], None) is None

    def coords(self, col):
        """{column index: coefficient} with sum = `col`, over the independent
        columns in increasing order, or None outside the span: the dense
        reference `solve` with free coordinates zero.  Needs `track=True`."""
        vec, scale = _integerize(col, self._pos)
        comb = {-1: scale}     # -1 stands for `col` itself
        if self._reduce(vec, comb) is not None:
            return None
        lead = comb.pop(-1)
        return {c: Fraction(-v, lead) for c, v in sorted(comb.items())}

    def kernel(self, primitive=False):
        """One {column index: coefficient} relation per dependent column.

        The relation of column j is supported on j and the independent
        columns before it, and its first nonzero coefficient is 1: exactly
        the kernel vector that the dense reference `kernel_basis` builds for
        that column.  With `primitive`, it is the positive multiple of that
        vector with coprime int coefficients instead.
        """
        out = []
        for comb in self._relations:
            lead = comb[min(comb)]
            if primitive:
                g = reduce(gcd, comb.values())
                g = g if lead > 0 else -g
                out.append({c: v // g for c, v in sorted(comb.items())})
            else:
                out.append({c: Fraction(v, lead)
                            for c, v in sorted(comb.items())})
        return out


def sparse_rank(columns) -> int:
    """Rank of a matrix given as an iterable of {row: value} columns."""
    return Echelon(columns).rank


def sparse_kernel_basis(columns, primitive=False):
    """Kernel basis of sparse columns as {column index: coefficient}
    relations (`Echelon.kernel`), sorted by column index: made dense, they
    are the vectors of the dense reference `kernel_basis`, in its order and
    normalization, or with `primitive` their primitive int multiples."""
    return Echelon(columns, track=True).kernel(primitive)
