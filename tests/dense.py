"""Dense Gauss-Jordan elimination over the rationals on lists of rows: the
reference that the tests compare the sparse `Echelon` against; coordinates
in a spanning list (`SpanSolver`); and the structure constants of a span,
bracket by bracket, the reference for `Seaweed.algebra` and the split
quotient."""

from fractions import Fraction
from itertools import combinations

from seaweedcoh.chevalley import LieAlgebra
from seaweedcoh.exactlin import Echelon


def rref(rows):
    """(reduced row echelon form as Fraction rows, pivot column list)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0])):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows):
    return len(rref(rows)[1])


def kernel_basis(rows):
    """Basis of the right null space, one vector per free column in
    increasing order, leading coefficient 1 in each vector."""
    red, pivots = rref(rows)
    ncols = len(red[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        lead = next(x for x in v if x != 0)
        basis.append([x / lead for x in v])
    return basis


def solve(rows, v):
    """One solution x of rows * x = v, free coordinates zero, or None if v
    is outside the column span."""
    ncols = len(rows[0])
    red, pivots = rref([list(row) + [val] for row, val in zip(rows, v)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def matvec(rows, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows]


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


def subalgebra(parent, vectors, labels=None, check=True):
    """The LieAlgebra of span(vectors) in the given basis; ValueError if
    the span is not bracket-closed."""
    solver, brackets = SpanSolver(vectors), {}
    for (i, u), (j, v) in combinations(enumerate(vectors), 2):
        b = parent.bracket_vec(u, v)
        if b:
            brackets[(i, j)] = solver.coords(b)
            if brackets[(i, j)] is None:
                raise ValueError("vector outside the subalgebra span")
    return LieAlgebra(len(vectors), brackets, labels, check=check)
