from fractions import Fraction as F

import pytest

from seaweedcoh import rootsystem
from seaweedcoh.exactlin import InvariantError
from seaweedcoh.rootsystem import (RootSystem, build, canonical_cartan,
                                   dynkin_edges, pack)

# |roots| of each type as a function of the rank
ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


def reflection_closure_oracle(simples, pairing):
    """Generate the root set as the reflection closure of the simple roots."""
    roots = set(simples)
    while True:
        new = set()
        for b in roots:
            for a in roots:
                coeff = 2 * pairing(b, a) / pairing(a, a)
                r = tuple(x - coeff * y for x, y in zip(b, a))
                if r not in roots:
                    new.add(r)
        if not new:
            break
        roots |= new
    return roots


CASES = [("A", 1, 1), ("A", 2, 3), ("A", 3, 6), ("A", 4, 10),
         ("B", 2, 4), ("B", 3, 9), ("B", 4, 16),
         ("C", 3, 9), ("C", 4, 16), ("D", 4, 12),
         ("G", 2, 6), ("F", 4, 24), ("E", 6, 36)]


@pytest.mark.parametrize("t,r,npos", CASES)
def test_positive_root_counts(t, r, npos):
    rs = build(t, r)
    assert len(rs.positive_roots) == npos
    assert len(rs.roots) == 2 * npos == ROOT_COUNTS[t](r)
    closure = reflection_closure_oracle(rs.simple_roots, rs.pairing)
    assert closure == set(rs.roots)


def test_invalid_types_rejected():
    for t, r in [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9),
                 ("F", 3), ("G", 3), ("H", 2)]:
        with pytest.raises(ValueError):
            build(t, r)


def test_pairing_normalization_a2():
    rs = build("A", 2)
    a1, a2 = rs.simple_roots
    assert rs.pairing(a1, a1) == 2
    assert rs.pairing(a1, a2) == -1
    zero = tuple(F(0) for _ in a1)
    assert rs.pairing(zero, a2) == 0


CARTAN_TABLES = {
    ("A", 2): [[2, -1], [-1, 2]],
    ("B", 2): [[2, -2], [-1, 2]],
    ("C", 3): [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    ("G", 2): [[2, -1], [-3, 2]],
    ("F", 4): [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    ("D", 4): [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
}


@pytest.mark.parametrize("key", sorted(CARTAN_TABLES))
def test_cartan_matrices(key):
    rs = build(*key)
    assert rs.cartan_matrix() == CARTAN_TABLES[key]
    # the matrix is cached: a caller's edit must not reach the next caller
    rs.cartan_matrix()[0][0] = 99
    assert rs.cartan_matrix() == CARTAN_TABLES[key]


@pytest.mark.parametrize("key", sorted(CARTAN_TABLES) + [("E", 8)])
def test_cartan_entries_are_ints(key):
    assert all(type(c) is int for row in build(*key).cartan_matrix() for c in row)


@pytest.mark.parametrize("t,r,npos", CASES + [("D", 5, 20), ("E", 7, 63),
                                              ("E", 8, 120)])
def test_canonical_cartan_matches_build(t, r, npos):
    # the simple roots alone give the Cartan matrix of the full root system
    cm = canonical_cartan(t, r)
    assert [list(row) for row in cm] == build(t, r).cartan_matrix()
    assert all(type(c) is int for row in cm for c in row)


def test_non_integral_cartan_entry_raises():
    # 2(a, b)/(b, b) = 2/5 for a = (1, 0), b = (1, 2): not a root system
    rs = RootSystem("A", 2, ((F(1), F(0)), (F(1), F(2))), (), {})
    with pytest.raises(InvariantError, match="non-integral"):
        rs.cartan_matrix()


def test_non_integral_simple_roots_rejected_by_build(monkeypatch):
    # the integer closure reads its Cartan pairings from canonical_cartan,
    # whose integrality check must fire before any root is generated
    monkeypatch.setattr(rootsystem, "_simple_roots",
                        lambda t, n: [(F(1), F(0)), (F(1), F(2))])
    canonical_cartan.cache_clear()
    try:
        with pytest.raises(InvariantError, match="non-integral"):
            build("A", 2)
    finally:
        canonical_cartan.cache_clear()


def test_long_roots_have_square_two():
    for t, r, _ in CASES:
        rs = build(t, r)
        longest = max(rs.pairing(b, b) for b in rs.positive_roots)
        assert longest == 2
        assert all(rs.pairing(b, b) > 0 for b in rs.roots)


def test_root_string_examples():
    rs = build("A", 2)
    a1, a2 = rs.simple_roots
    theta = tuple(x + y for x, y in zip(a1, a2))
    assert rs.root_string(a1, a2) == (0, 1)
    assert rs.root_string(a1, theta) == (1, 0)
    with pytest.raises(ValueError):
        rs.root_string(a1, a1)


@pytest.mark.parametrize("t,r", [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                 ("B", 2), ("B", 3), ("B", 4), ("C", 3),
                                 ("C", 4), ("D", 4), ("G", 2), ("F", 4)])
def test_string_cartan_identity(t, r):
    rs = build(t, r)
    neg = lambda v: tuple(-x for x in v)
    unit = rs.form_scale / rs._int_gram[0] ** 2     # `gram` over the int G
    for alpha in rs.roots:
        a = rs.coefficients(alpha)
        for beta in rs.roots:
            b = rs.coefficients(beta)
            # the coefficient-tuple answers against the vector reference:
            # the int squared lengths of both signs are the pairing / unit
            for c in (b, neg(b)):
                assert rs.lengths[pack(c)] * unit == rs.pairing(beta, beta)
            if beta in (alpha, neg(alpha)):
                with pytest.raises(ValueError):
                    rs.string(a, b)
                continue
            rr, qq = rs.root_string(alpha, beta)
            assert rs.string(a, b) == (rr, qq)
            assert rr - qq == rs.cartan_integer(beta, alpha)
            # strings are unbroken
            for j in range(-rr, qq + 1):
                shifted = tuple(b + j * a for b, a in zip(beta, alpha))
                assert rs.is_root(shifted)


def test_dynkin_edges_g2_f4():
    assert dynkin_edges(build("G", 2)) == [(0, 1, 3)]
    assert dynkin_edges(build("F", 4)) == [(0, 1, 1), (1, 2, 2), (2, 3, 1)]
    e6 = dynkin_edges(build("E", 6))
    assert (1, 3, 1) in e6 and len(e6) == 5
