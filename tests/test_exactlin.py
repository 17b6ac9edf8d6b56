from fractions import Fraction as F
from math import gcd
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from seaweedcoh import exactlin, rootsystem
from seaweedcoh.chevalley import construct, load_fixture
from seaweedcoh.cli import _all_specs, verify_report
from seaweedcoh.cochain import Cochain
from seaweedcoh.exactlin import Echelon, sparse_kernel_basis, sparse_rank
from seaweedcoh.gerstenhaber import cup_with_center, quotient_cohomology
from seaweedcoh.seaweed import (SeaweedSpec, build_seaweed, center,
                                seaweed_from_algebra, split_over_center)

import dense
from dense import SpanSolver

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def cofactor_det(rows):
    """Independent determinant oracle by cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = F(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * cofactor_det(minor)
    return total


IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_rank_identity_and_zero():
    assert dense.rank(IDENTITY3) == 3
    assert dense.rank([[0] * 6 for _ in range(4)]) == 0


def test_rank_killing_a2(a2_fixture):
    k = a2_fixture.killing_matrix()
    assert dense.rank(k) == 8
    assert cofactor_det(k) != 0


def test_kernel_identity_empty():
    assert dense.kernel_basis(IDENTITY3) == []


def test_kernel_single_relation():
    basis = dense.kernel_basis([[2, 3]])
    assert len(basis) == 1
    v = basis[0]
    assert 2 * v[0] + 3 * v[1] == 0
    assert v[0] == 1  # leading-one normalization; the line is (3, -2) rescaled


def test_kernel_g2_constrained_system():
    # the published degree-2 cocycle constraints: 9 unknowns ordered
    # (c^2_13_2, c^2_13_13, c^2_13_14, c^2_14_*, c^13_14_*), 3 relations
    rows = [
        [0, 0, 0, 0, 0, 0, 0, 6, -4],
        [0, 4, 0, 0, 6, 0, 0, 0, 0],
        [0, 0, 4, 0, 0, 6, 0, 0, 0],
    ]
    basis = dense.kernel_basis(rows)
    assert len(basis) == 6
    for v in basis:
        assert all(x == 0 for x in dense.matvec(rows, v))


def test_membership_zero_vector():
    assert dense.solve([[1, 2], [3, 4]], [0, 0]) == [0, 0]


def test_membership_witness_and_outside():
    m = [[1], [2]]  # rank 1 column
    assert dense.solve(m, [2, 4]) == [2]
    assert dense.solve(m, [1, 3]) is None


def test_membership_a2_invariant_coboundary():
    # delta of the diagonal invariant 1-cochains hits 2(c4 + c5 - c6) e6;
    # columns are the images of the three diagonal generators
    witness = dense.solve([[2, 2, -2]], [1])
    assert witness is not None
    c4, c5, c6 = witness
    assert 2 * (c4 + c5 - c6) == 1


@st.composite
def small_matrices(draw, scale=1):
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    vals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return [[draw(vals) * scale for _ in range(ncols)] for _ in range(nrows)]


def sparse_columns(m):
    return [{i: v for i, v in enumerate(col) if v != 0} for col in zip(*m)]


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rank_nullity(m):
    assert dense.rank(m) + len(dense.kernel_basis(m)) == len(m[0])


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_kernel_vectors_annihilate(m):
    for v in dense.kernel_basis(m):
        assert all(x == 0 for x in dense.matvec(m, v))


@settings(max_examples=60, deadline=None)
@given(small_matrices(), st.data())
def test_membership_exact_witness(m, data):
    coeffs = [data.draw(st.fractions(min_value=-3, max_value=3,
                                     max_denominator=2))
              for _ in range(len(m[0]))]
    v = dense.matvec(m, coeffs)
    witness = dense.solve(m, v)
    assert witness is not None
    assert dense.matvec(m, witness) == v


def echelon_outputs(cols, as_input=list):
    """Everything an Echelon reports on a column list: verdicts, rank and
    relations column by column, then rank, membership of the last column,
    its verdict and the relations with the others given at construction."""
    one_by_one = Echelon(track=True)
    verdicts = [one_by_one.add(c) for c in cols]
    ech = Echelon(as_input(cols[:-1]), track=True)
    return (verdicts, one_by_one.rank, one_by_one.kernel(), ech.rank,
            ech.contains(cols[-1]), ech.add(cols[-1]), ech.kernel())


# entries near 2**130 exceed the content limit of the sparse elimination,
# so its content reduction runs while kernel relations are tracked
@settings(max_examples=40, deadline=None)
@given(st.one_of(small_matrices(), small_matrices(scale=2**130 + 1)),
       st.randoms(use_true_random=False))
def test_sparse_matches_dense(m, rng):
    cols = sparse_columns(m)
    assert sparse_rank(cols) == dense.rank(m)
    relations = []
    for rel in sparse_kernel_basis(cols):
        assert list(rel) == sorted(rel)
        v = [F(0)] * len(m[0])
        for c, x in rel.items():
            v[c] = x
        relations.append(v)
    assert relations == dense.kernel_basis(m)
    in_span = dense.solve([row[:-1] for row in m],
                          [row[-1] for row in m]) is not None
    assert Echelon(cols[:-1]).contains(cols[-1]) == in_span
    # the pivot order follows the rows; the outputs follow the columns only:
    # rows renamed by a seeded permutation, columns passed as a generator,
    # and non-dict columns with items() (Cochain) report the same
    perm = list(range(len(m)))
    rng.shuffle(perm)
    renamed = [{perm[i]: v for i, v in c.items()} for c in cols]
    cochains = [Cochain(None, 1, {(perm[i],): {0: v} for i, v in c.items()})
                for c in cols]
    expected = echelon_outputs(cols)
    assert echelon_outputs(renamed) == expected
    assert echelon_outputs(cols, as_input=iter) == expected
    assert echelon_outputs(cochains) == expected
    assert sparse_rank(renamed) == sparse_rank(cochains) == dense.rank(m)


# content reduction during tracking (entries near 2**130) must leave the
# primitive relations primitive
@settings(max_examples=60, deadline=None)
@given(st.one_of(small_matrices(), small_matrices(scale=2**130 + 1)))
def test_primitive_relations_are_positive_multiples(m):
    cols = sparse_columns(m)
    ech = Echelon(cols, track=True)
    got = sparse_kernel_basis(cols, primitive=True)
    assert got == ech.kernel(primitive=True)
    want = ech.kernel()
    assert len(got) == len(want) == len(dense.kernel_basis(m))
    for rel, ref, vec in zip(got, want, dense.kernel_basis(m)):
        assert list(rel) == list(ref)               # same support, in order
        assert all(type(v) is int for v in rel.values())
        assert gcd(*rel.values()) == 1              # content 1
        lead = rel[min(rel)]
        assert lead > 0
        assert rel == {c: lead * v for c, v in ref.items()}
        assert [rel.get(c, 0) for c in range(len(vec))] == \
            [lead * v for v in vec]


def closed_rank(columns):
    """Rank of no column or one, as the wrappers once answered it."""
    return sum(any(v != 0 for _, v in col.items()) for col in columns)


def closed_kernel(columns, primitive=False):
    """Kernel relations of no column or one, as once answered."""
    one = 1 if primitive else F(1)
    return [{0: one} for col in columns
            if not any(v != 0 for _, v in col.items())]


def test_small_inputs_match_the_engine():
    # no column or one: sparse_rank and sparse_kernel_basis, now the
    # engine, give the closed forms' outputs, value types and key order;
    # the rows keep their first-seen order and a nonzero column's pivot is
    # its first nonzero row
    cases = [[], [{}], [{0: 0}], [{3: 0, 1: 0}], [{0: 2}], [{0: 0, 5: -1}],
             [{1: F(1, 3), 2: 0}], [{7: 2**130 + 1}],
             [Cochain(None, 1, {})], [Cochain(None, 1, {(0,): {2: F(5)}})]]
    assert [closed_rank(cols) for cols in cases] == [0, 0, 0, 0, 1, 1, 1, 1,
                                                     0, 1]
    for cols in cases:
        for arg in (cols, iter(cols)):
            assert sparse_rank(arg) == closed_rank(cols), cols
        for primitive in (False, True):
            want = repr(closed_kernel(cols, primitive))
            for arg in (cols, iter(cols)):
                assert repr(sparse_kernel_basis(arg, primitive)) == want, cols
        rows = [r for col in cols for r, _ in col.items()]
        echelon = Echelon(cols)
        assert list(echelon._pos) == rows
        assert echelon.pivot_rows() == [r for col in cols for r, v in
                                        col.items() if v != 0][:1]


def dense_coords(m, v):
    """The dense `solve` as a {column: coefficient} dict of its nonzero
    entries, or None outside the column span."""
    sol = dense.solve(m, v)
    return None if sol is None else {j: c for j, c in enumerate(sol) if c != 0}


# the queries are every column (dependent ones included), a combination of
# the columns, an arbitrary vector (usually outside a deficient span) and
# zero; at 2**130 + 1 scaling content reduction runs on the combinations
@settings(max_examples=60, deadline=None)
@given(st.one_of(small_matrices(), small_matrices(scale=2**130 + 1)),
       st.data())
def test_echelon_coords_matches_solve(m, data):
    vals = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    cols = sparse_columns(m)
    queries = [list(col) for col in zip(*m)] + [
        dense.matvec(m, [data.draw(vals) for _ in range(len(m[0]))]),
        [data.draw(vals) for _ in range(len(m))],
        [0] * len(m)]
    independent = [j for j, c in enumerate(cols) if Echelon(cols[:j]).add(c)]
    ech = Echelon(cols, track=True)
    from_iter = Echelon(iter(cols), track=True)
    as_cochains = Echelon([Cochain(None, 1, {(i,): {0: v} for i, v in c.items()})
                           for c in cols], track=True)
    for v in queries:
        ref = dense_coords(m, v)
        vec = {i: c for i, c in enumerate(v) if c != 0}
        got = ech.coords(vec)
        assert got == ref
        if got is not None:
            assert list(got) == sorted(got)
            assert set(got) <= set(independent)
            assert all(type(c) is F for c in got.values())
        assert from_iter.coords(vec) == ref
        query = Cochain(None, 1, {(i,): {0: c} for i, c in vec.items()})
        assert as_cochains.coords(query) == ref


def test_echelon_coords_outside_rows():
    # a row no column touches puts a vector outside the span
    ech = Echelon([{0: 2}, {0: 1, 1: 1}], track=True)
    assert ech.coords({0: 1, 1: 3}) == {0: F(-1), 1: F(3)}
    assert ech.coords({5: 1}) is None
    assert ech.coords({}) == {}


@settings(max_examples=60, deadline=None)
@given(small_matrices(), st.data())
def test_span_solver_matches_solve(m, data):
    # one factorization answers every query as the dense solve does, members
    # of the span (free coordinates zero) and vectors outside it (None)
    vals = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    solver = SpanSolver(sparse_columns(m))
    inside = dense.matvec(m, [data.draw(vals) for _ in range(len(m[0]))])
    anywhere = [data.draw(vals) for _ in range(len(m))]
    for v in (inside, anywhere):
        ref = dense_coords(m, v)
        assert solver.coords({i: c for i, c in enumerate(v) if c != 0}) == ref


def test_span_solver_unit_vectors():
    solver = SpanSolver([{2: 1}, {0: 1}])
    assert solver.coords({0: F(3), 2: F(-1)}) == {1: F(3), 0: F(-1)}
    assert solver.coords({1: F(1)}) is None


def test_span_solver_repeated_unit_vectors():
    # a repeated unit vector has no unit map: the factored list answers as
    # the dense solve does, free coordinates zero
    assert SpanSolver([{0: 1}, {0: 1}]).coords({0: 5}) == {0: 5}
    for vectors in ([{0: 1}, {1: 1}, {0: 1}], [{1: 1}, {0: F(1)}, {1: 1}]):
        solver, m = SpanSolver(vectors), [[v.get(i, 0) for v in vectors]
                                          for i in range(2)]
        assert solver.unit is None and solver.coords({2: 1}) is None
        for v in ([5, 0], [0, F(1, 2)], [2, -3], [0, 0]):
            vec = {i: c for i, c in enumerate(v) if c != 0}
            assert solver.coords(vec) == dense_coords(m, v), (vectors, v)
    assert SpanSolver([{1: 1}, {0: 1}]).unit == {1: 0, 0: 1}


def test_reports_need_no_dense_elimination():
    # the package has one elimination engine: no dense matrix class, and the
    # Killing form is immutable rows of plain ints on the integral Chevalley
    # tables, built once per algebra.  Verify reports and the cup product
    # run on the algebras built here.
    assert not hasattr(exactlin, "Matrix")
    for t, r in [("A", 2), ("B", 2), ("G", 2)]:
        g = construct(rootsystem.build(t, r))
        kappa = g.killing_matrix()
        assert type(kappa) is tuple and len(kappa) == g.dim
        assert all(type(row) is tuple and all(type(x) is int for x in row)
                   for row in kappa)
        assert g.killing_matrix() is kappa
        for sp in _all_specs(t, r):
            if sp.rank == r:
                assert verify_report(build_seaweed(g, sp), sp)["ok"]
    a2 = load_fixture(FIXTURES / "a2_table1")
    g2 = load_fixture(FIXTURES / "g2_seaweed")
    # both fixtures are integral too; a Fraction rescaling keeps its
    # integral entries as ints and the others as Fractions
    rescaled = a2.rescaled([F(1, 2), F(2, 3), 1, 1, 3, 1, F(1, 5), 1])
    for L, kinds in ((a2, {int}), (g2, {int}), (rescaled, {int, F})):
        entries = [x for row in L.killing_matrix() for x in row]
        assert {type(x) for x in entries} == kinds
        assert all(type(x) is int or x.denominator > 1 for x in entries)
    a2_spec = SeaweedSpec.make("A", 2, [], [1, 2])
    assert verify_report(build_seaweed(a2, a2_spec), a2_spec)["ok"]
    assert verify_report(seaweed_from_algebra(a2), None)["ok"]
    sw = seaweed_from_algebra(g2)
    assert verify_report(sw, None)["ok"]
    # demo 02: the cup product of z* with the quotient 1-cocycle
    split = split_over_center(sw, section_indices=[0, 1])
    _, reps = quotient_cohomology(sw, 1, split=split)
    f1 = reps[0].scale(F(2) / reps[0].data[(1,)][1])
    zstar = split.center_functional(0, vector=center(sw)[0])
    phi = cup_with_center(split, f1, z_functional=zstar)
    assert phi.data == {(1, 2): {1: F(-2, 3), 2: -1}}
    assert cup_with_center(split, f1).data
