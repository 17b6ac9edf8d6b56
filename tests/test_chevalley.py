import hashlib
import inspect
import random
import re
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

from seaweedcoh import chevalley, rootsystem
from seaweedcoh.chevalley import (JacobiError, LieAlgebra, construct,
                                  jacobi_violation, load_fixture,
                                  loads_fixture)
from seaweedcoh.exactlin import InvariantError, vec_add

import dense
from reference import direct_sum

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def test_construct_a1():
    L = construct(rootsystem.build("A", 1))
    assert L.dim == 3
    # [e, f] is a nonzero Cartan element and [h, e] = 2e
    ef = L.bracket(0, 1)
    assert set(ef) == {2}
    h_on_e = L.bracket(2, 0)
    assert h_on_e == {0: 2}


def test_construct_a2_killing_nondegenerate():
    L = construct(rootsystem.build("A", 2))
    assert L.dim == 8
    assert dense.rank(L.killing_matrix()) == 8


def test_construct_g2():
    L = construct(rootsystem.build("G", 2))
    assert L.dim == 14
    L.check_jacobi()  # exhaustive triple check


def test_construct_exceptional_types():
    assert construct(rootsystem.build("F", 4)).dim == 52
    assert construct(rootsystem.build("E", 6)).dim == 78
    assert construct(rootsystem.build("E", 7)).dim == 133
    assert construct(rootsystem.build("E", 8)).dim == 248


@pytest.mark.parametrize("t,r", [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                 ("B", 2), ("B", 3), ("C", 3), ("D", 4),
                                 ("F", 4), ("G", 2), ("E", 6), ("E", 7),
                                 ("E", 8)])
def test_construct_matches_ambient_reference(t, r):
    # the integer Cartan and Gram arithmetic of `construct` against the
    # same quantities computed on ambient root vectors
    rs = rootsystem.build(t, r)
    L = construct(rs)
    m = len(rs.positive_roots)
    simple_sq = [rs.pairing(a, a) for a in rs.simple_roots]
    for i, c in L.root_of.items():
        beta = sum_root(rs, c)
        for pos, h in enumerate(L.cartan):
            expect = -rs.cartan_integer(beta, rs.simple_roots[pos])
            assert L.bracket(i, h) == ({i: expect} if expect else {})
        if i < m:
            sq = rs.pairing(beta, beta)
            coroot = {L.cartan[k]: ck * simple_sq[k] / sq
                      for k, ck in enumerate(c) if ck}
            assert L.bracket(i, i + m) == coroot
    values = [v for vec in L.brackets.values() for v in vec.values()]
    assert all(type(v) is int for v in values)


# sha256 of the root system and the Chevalley table, recorded before the
# root data moved to integer coefficients; see `root_data_digest`
ROOT_DATA_DIGESTS = [
    ("A", 1, "c8b4ad14d3f6cf9572cea3fdceabfced2494f4df47e59d0a85b234f9e381a40a"),
    ("A", 2, "c4c7fd9306a4a504b67601533cff18b4e9dc11a32c63ec257aa103e587dfef33"),
    ("A", 3, "18ec804a246d43607c1a1cbdf2a7454e295f5f2e4c4c9282f784509d9b440fe5"),
    ("A", 4, "ab77b9bf715b60fff07561759566a2597e930273f0e3befae19e6ca93d9aa066"),
    ("B", 2, "677aac73e4bdc377084370cd814f6fbb09700f3572eadc2a05e87e5779e54253"),
    ("B", 3, "a523a21c442c307272044f8b1d017bfb9a1472f1c7864cad466f968a721802fe"),
    ("B", 4, "930aafa2be7d5d67dd407c2ed2234f75ea06a221af6702c113e41ca30cf517b3"),
    ("C", 3, "c58f7b088ec961f9c03c2c6fd4183df30b9b25a9e4007c83674855ccc2260aa3"),
    ("C", 4, "203b97579a86c80dc01ea3db4136122f1370fe7612cc1a3a5900dc63a6a5c1ac"),
    ("D", 4, "8630f1c8ecd1ce2a742257d47d6afee5eb04e833c52a8855053725dccbeae7b3"),
    ("D", 5, "e90d43fc75b0bde672cfe05ac0935c03c916489e369d03b682b6db8cc5988c94"),
    ("E", 6, "7791a968903e284cf40dbe86185186873432661ce2384dad44e97025b158c9b3"),
    ("E", 7, "e75d8a1db0c6357581649e3b688107bb97cbfb03e1335a09eaaec3ddd1c0b81f"),
    ("E", 8, "c2fa9b61348179ac0b188c8573f24fda6ea7856890c9e34e1efdfa5d44daeb15"),
    ("F", 4, "ce0ccd43eecd3fab8e607ee42f74fd592cfc1b5db89f47302390f47133fe7ac7"),
    ("G", 2, "ca78e873599e37c8c79c9b3afc4784c26d029509b0debfecfa154f6957738b7a"),
]


def root_data_digest(t, r):
    """sha256 over the repr of the simple and positive roots, the root
    coefficients, and the labels, Cartan indices, root annotations and
    brackets of the Chevalley table; the repr keeps int and Fraction apart."""
    rs = rootsystem.build(t, r)
    L = construct(rs)
    data = (rs.simple_roots, rs.positive_roots, sorted(rs.coeffs.items()),
            L.labels, L.cartan, sorted(L.root_of.items()),
            sorted((k, sorted(v.items())) for k, v in L.brackets.items()))
    return hashlib.sha256(repr(data).encode()).hexdigest()


@pytest.mark.parametrize("t,r,digest", [
    pytest.param(t, r, d, id=f"{t}-{r}") for t, r, d in ROOT_DATA_DIGESTS])
def test_root_data_digest(t, r, digest):
    # E8, F4, B4, C4 and D5 reach no report digest
    assert root_data_digest(t, r) == digest


def test_weight_vectors_and_cartan_action():
    L = construct(rootsystem.build("B", 2))
    rs = L.root_system
    for i, ci in L.root_of.items():
        beta = sum_root(rs, ci)
        for pos, h in enumerate(L.cartan):
            b = L.bracket(h, i)
            expect = rs.cartan_integer(beta, rs.simple_roots[pos])
            assert b.get(i, 0) == expect
            assert set(b) <= {i}


def sum_root(rs, coeffs):
    v = None
    for c, a in zip(coeffs, rs.simple_roots):
        t = tuple(c * x for x in a)
        v = t if v is None else tuple(p + q for p, q in zip(v, t))
    return v


def test_root_space_grading():
    L = construct(rootsystem.build("A", 3))
    rs = L.root_system
    for (i, j), vec in L.brackets.items():
        if i in L.root_of and j in L.root_of:
            s = tuple(a + b for a, b in
                      zip(L.root_of[i], L.root_of[j]))
            if any(s):
                targets = {k for k in vec}
                assert targets <= {k for k, c in L.root_of.items() if c == s}
            else:
                assert set(vec) <= set(L.cartan)


def test_root_string_bracket_eigenvalue_canonical():
    # [e_-a, [e_a, e_b]] = q(r+1) e_b in a coroot-normalized Chevalley basis
    for t, r in [("A", 2), ("G", 2)]:
        L = construct(rootsystem.build(t, r))
        rs = L.root_system
        idx = {c: i for i, c in L.root_of.items()}
        for a_c, i_a in idx.items():
            for b_c, i_b in idx.items():
                if b_c == a_c or b_c == tuple(-x for x in a_c):
                    continue
                alpha, beta = sum_root(rs, a_c), sum_root(rs, b_c)
                rr, qq = rs.root_string(alpha, beta)
                val = L.bracket_vec({idx[tuple(-x for x in a_c)]: 1},
                                    L.bracket_vec({i_a: 1}, {i_b: 1}))
                assert val.get(i_b, 0) == qq * (rr + 1)
                assert set(val) <= {i_b}


def test_cartan_sum_identity():
    # sum_i [h^i, [h_i, e_b]] = (b, b) e_b with Killing-dual Cartan partners
    for t, r in [("A", 2), ("G", 2)]:
        L = construct(rootsystem.build(t, r))
        rs = L.root_system
        dual = L.dual_basis()
        kappa_ratio = None
        for i, ci in L.root_of.items():
            beta = sum_root(rs, ci)
            acc = {}
            for h in L.cartan:
                hd = {k: c for k, c in enumerate(dual[h]) if c != 0}
                inner = L.bracket_vec({h: 1}, {i: 1})
                for k, v in L.bracket_vec(hd, inner).items():
                    acc[k] = acc.get(k, 0) + v
            assert set(acc) <= {i}
            got = acc.get(i, 0)
            ratio = got / rs.pairing(beta, beta)
            if kappa_ratio is None:
                kappa_ratio = ratio
            # a single proportionality constant relates the Killing-induced
            # form to the long-squared-2 normalization
            assert ratio == kappa_ratio


def test_cartan_sum_identity_fixture(a2_fixture):
    # with the fixture's declared form, the Cartan dual pair reproduces a
    # single consistent (beta, beta) ratio on every root vector
    L = a2_fixture
    dual = L.dual_basis()
    rs = L.root_system
    ratio = None
    for i, ci in L.root_of.items():
        beta = sum_root(rs, ci)
        acc = {}
        for h in L.cartan:
            hd = {k: c for k, c in enumerate(dual[h]) if c != 0}
            inner = L.bracket_vec({h: 1}, {i: 1})
            for k, v in L.bracket_vec(hd, inner).items():
                acc[k] = acc.get(k, 0) + v
        assert set(acc) == {i}
        got = acc[i] / rs.pairing(beta, beta)
        ratio = got if ratio is None else ratio
        assert got == ratio
    assert ratio == F(2, 3)   # (theta,theta)_B / 2 for the kappa/4 form


FIXTURE_TEXT = """
dim 2
labels a b
"""


def test_load_abelian():
    L = loads_fixture(FIXTURE_TEXT)
    assert L.dim == 2
    assert L.bracket(0, 1) == {}
    assert L.killing_matrix() == ((0, 0), (0, 0))


def test_load_a2_table(a2_fixture):
    L = a2_fixture
    assert L.bracket(0, 1) == {2: -2}          # [e1,e2] = -2 e3
    assert L.bracket(2, 5) == {6: 2, 7: 2}     # [e3,e6] = 2e7 + 2e8
    assert L.bracket(5, 7) == {5: 2}           # [e6,e8] = 2 e6
    assert L.bracket(1, 0) == {2: 2}           # antisymmetric completion
    assert L.cartan == (6, 7)
    assert L.form_scale == F(1, 4)


def test_load_g2_fixture(g2_fixture):
    L = g2_fixture
    assert L.dim == 3
    assert L.bracket(0, 1) == {0: 6}
    assert L.bracket(0, 2) == {0: -4}


def test_jacobi_violation_reported():
    bad = """
dim 3
bracket 1 2 : 3 1
bracket 1 3 : 1 1
"""
    with pytest.raises(JacobiError) as err:
        loads_fixture(bad)
    assert "(e1, e2, e3)" in str(err.value)


def test_construct_and_load_always_check_jacobi(monkeypatch):
    # no parameter skips the check: when the checker finds a violation,
    # both sources raise
    for build in (construct, loads_fixture, load_fixture):
        assert "check" not in inspect.signature(build).parameters
    monkeypatch.setattr(chevalley, "jacobi_violation",
                        lambda dim, brackets, generators=None: (0, 1, 2))
    with pytest.raises(JacobiError, match=r"\(x1, y1, h1\)"):
        construct(rootsystem.build("A", 1))
    with pytest.raises(JacobiError, match=r"\(e1, e2, e3\)"):
        load_fixture(FIXTURES / "a2_table1")


def brute_force_violation(L):
    """First i < j < k whose cyclic Jacobi sum is nonzero, term by term."""
    for i, j, k in combinations(range(L.dim), 3):
        acc = {}
        vec_add(acc, L.bracket_vec(L.bracket(i, j), {k: 1}))
        vec_add(acc, L.bracket_vec(L.bracket(j, k), {i: 1}))
        vec_add(acc, L.bracket_vec(L.bracket(k, i), {j: 1}))
        if acc:
            return (i, j, k)
    return None


def perturbed(table, dim, rng):
    """A copy of the table with one changed coefficient, wrong target or
    dropped entry."""
    table = {key: dict(vec) for key, vec in table.items()}
    key = rng.choice(sorted(table))
    vec = table[key]
    target = rng.choice(sorted(vec))
    kind = rng.randrange(3)
    if kind == 0:
        vec[target] += rng.choice([-2, -1, 1, 2])
    elif kind == 1:
        vec[rng.choice([t for t in range(dim) if t != target])] = vec.pop(target)
    else:
        del table[key]
    return table


@pytest.mark.parametrize("t,r", [("A", 2), ("G", 2), ("B", 3), ("A", 4),
                                 ("C", 3), ("D", 4)])
def test_jacobi_first_failure_matches_brute_force(t, r):
    base = construct(rootsystem.build(t, r))
    assert jacobi_violation(base.dim, base.brackets) is None
    rng = random.Random(f"{t}{r}")
    failing = 0
    for _ in range(12):
        table = perturbed(base.brackets, base.dim, rng)
        L = LieAlgebra(base.dim, table, base.labels, check=False)
        want = brute_force_violation(L)
        assert jacobi_violation(L.dim, L.brackets) == want
        if want is None:
            continue
        failing += 1
        with pytest.raises(JacobiError) as err:
            L.check_jacobi()
        names = ", ".join(L.labels[i] for i in want)
        assert str(err.value).endswith(f"({names})")
    assert failing >= 9


def simple_root_indices(L):
    """The e_(+-alpha_i): indices whose root is plus or minus a unit."""
    return sorted(i for i, c in L.root_of.items() if sum(map(abs, c)) == 1)


@pytest.mark.parametrize("t,r", [
    pytest.param(t, r, id=f"{t}-{r}") for t, r, _ in ROOT_DATA_DIGESTS])
def test_generator_slices_match_full_scan(t, r):
    # the table certifies its e_(+-alpha_i) as generators, and on every
    # perturbed table the generator slices find a violation exactly when
    # the full scan does; LieAlgebra names the full scan's triple
    base = construct(rootsystem.build(t, r))
    gens = base._generators()
    assert sorted(gens) == simple_root_indices(base)
    assert jacobi_violation(base.dim, base.brackets, gens) is None
    rng = random.Random(f"slices-{t}{r}")
    rounds = 3 if t == "E" else 12
    certified = 0
    for _ in range(rounds):
        table = perturbed(base.brackets, base.dim, rng)
        want = jacobi_violation(base.dim, table)
        L = LieAlgebra(base.dim, table, base.labels, base.cartan,
                       base.root_of, check=False)
        own = L._generators()
        if own is not None:
            certified += 1
            assert own == gens
            assert jacobi_violation(L.dim, L.brackets, own) == want
        if want is None:
            L.check_jacobi()
        else:
            names = ", ".join(L.labels[i] for i in want)
            with pytest.raises(JacobiError, match=re.escape(f"({names})")):
                L.check_jacobi()
    assert certified >= rounds // 2


# A1 (+) a 3-dimensional bracket that fails Jacobi on (u, v, w): the
# e_(+-alpha) slices vanish, so only the certificate keeps the check exact
SPLIT_A1 = """
dim 6
labels e f h u v w
root 1 : 1
root 2 : -1
bracket 1 2 : 3 1
bracket 3 1 : 1 2
bracket 3 2 : 2 -2
bracket 4 5 : 4 1
bracket 4 6 : 5 1
"""


@pytest.mark.parametrize("marks", [
    pytest.param("cartan 3", id="unmarked"),
    pytest.param("cartan 3\nroot 4 : 2\nroot 5 : 3\nroot 6 : -2",
                 id="unreached-roots"),
    pytest.param("cartan 3 4 5 6", id="unspanned-cartan")])
def test_jacobi_checked_where_generators_are_not_certified(marks, monkeypatch):
    seen = []
    check = chevalley.jacobi_violation
    monkeypatch.setattr(chevalley, "jacobi_violation",
                        lambda *args: seen.append(args[2:]) or check(*args))
    with pytest.raises(JacobiError, match=r"\(u, v, w\)"):
        loads_fixture(SPLIT_A1 + marks)
    assert seen == [(None,)]


def test_check_jacobi_passes_the_certified_generators(monkeypatch):
    seen = []
    check = chevalley.jacobi_violation
    monkeypatch.setattr(chevalley, "jacobi_violation",
                        lambda *args: seen.append(args[2] and sorted(args[2]))
                        or check(*args))
    algebras = [construct(rootsystem.build("B", 3)),
                load_fixture(FIXTURES / "a2_table1"),
                loads_fixture(SPLIT_A1.replace("bracket 4 6 : 5 1", "")
                              + "cartan 3")]
    assert seen == [simple_root_indices(L) for L in algebras[:2]] + [None]


def test_inexact_structure_constant_raises():
    # construct divides scaled squared lengths in ints and checks each
    # division; a forged length makes one inexact
    rs = rootsystem.build("B", 2)
    k = sorted(k for k in rs.lengths if k > 0)[2]
    rs.lengths[k] = rs.lengths[-k] = 3 * rs.lengths[k]
    with pytest.raises(InvariantError, match="not an integer"):
        construct(rs)


def test_out_of_range_or_shared_indices_refused():
    # the certificate reads these annotations, so LieAlgebra checks them
    text = (FIXTURES / "a2_table1").read_text()
    for old, new, msg in [("cartan 7 8", "cartan 7 9", "out of range"),
                          ("root 6 : -1 -1", "root 9 : -1 -1", "out of range"),
                          ("cartan 7 8", "cartan 7 7", "distinct"),
                          ("cartan 7 8", "cartan 6 8", "distinct"),
                          ("root 6 : -1 -1", "root 5 : -1 -1", "duplicate")]:
        assert old in text
        with pytest.raises(ValueError, match=msg):
            loads_fixture(text.replace(old, new))
    with pytest.raises(ValueError, match="out of range"):
        LieAlgebra(2, {}, cartan=(-1,), check=False)


def test_conflicting_brackets_refused_in_either_order():
    # a zero entry and a nonzero one for the same pair conflict whichever
    # comes first
    for lines in (["bracket 1 2 :", "bracket 2 1 : 3 1"],
                  ["bracket 2 1 : 3 1", "bracket 1 2 :"]):
        with pytest.raises(ValueError, match="conflicting entries"):
            loads_fixture("\n".join(["dim 3"] + lines))


def test_parse_errors():
    with pytest.raises(ValueError):
        loads_fixture("dim 2\nbracket 1 5 : 1 1\n")
    with pytest.raises(ValueError):
        loads_fixture("bracket 1 2 : 1 1\n")
    with pytest.raises(ValueError):
        loads_fixture("dim 2\nbracket 1 2 : 1\n")
    with pytest.raises(ValueError):
        loads_fixture("dim 3\nlabels a b\n")   # label count != dim


def test_killing_values_literal_and_scaled(a2_fixture):
    # the published dual tables correspond to kappa/4, not kappa itself;
    # both values are pinned here so the discrepancy stays visible
    k = a2_fixture.killing_matrix()
    assert k[0][3] == 24
    assert a2_fixture.form_scale * k[0][3] == 6
    assert k[6][6] == 48
    assert all(k[i][j] == k[j][i] for i in range(8) for j in range(8))


TABLE2 = {
    0: {3: F(1, 6)}, 1: {4: F(1, 6)}, 2: {5: F(1, 6)},
    3: {0: F(1, 6)}, 4: {1: F(1, 6)}, 5: {2: F(1, 6)},
    6: {6: F(1, 9), 7: F(1, 18)}, 7: {6: F(1, 18), 7: F(1, 9)},
}


def test_dual_basis_table2(a2_fixture):
    dual = a2_fixture.dual_basis()
    for j, expect in TABLE2.items():
        got = {i: c for i, c in enumerate(dual[j]) if c != 0}
        assert got == expect


def test_dual_basis_defining_property(a2_fixture):
    kappa = a2_fixture.killing_matrix()
    dual = a2_fixture.dual_basis()
    for i in range(8):
        for j in range(8):
            val = sum(a2_fixture.form_scale * kappa[i][k] * dual[j][k]
                      for k in range(8))
            assert val == (1 if i == j else 0)


@pytest.mark.parametrize("source", ["a2_table1", "A-2", "B-2", "G-2"])
def test_dual_basis_matches_dense_inverse(source):
    # fresh algebras, so the cached duals come from this call; e^j is the
    # j-th column of the inverse of form_scale * kappa
    if source == "a2_table1":
        L = load_fixture(FIXTURES / source)
    else:
        t, r = source.split("-")
        L = construct(rootsystem.build(t, int(r)))
    scaled = [[L.form_scale * x for x in row] for row in L.killing_matrix()]
    dual = L.dual_basis()
    for j in range(L.dim):
        unit = [int(i == j) for i in range(L.dim)]
        assert dual[j] == dense.solve(scaled, unit)


def test_dual_basis_degenerate_rejected(g2_fixture):
    with pytest.raises(chevalley.DegenerateFormError):
        g2_fixture.dual_basis()


def test_direct_sum_and_rescale(g2_fixture):
    D = direct_sum(g2_fixture, g2_fixture)
    assert D.dim == 6
    D.check_jacobi()
    scaled = g2_fixture.rescaled([2, 3, F(1, 2)])
    scaled.check_jacobi()
    assert scaled.bracket(0, 1) == {0: 6 * 3}


def scan_opposite_index(L, i):
    """opposite_index as first written: a scan of root_of, first match."""
    r = L.root_of.get(i)
    if r is None:
        return None
    neg = tuple(-c for c in r)
    return next((j for j, rj in L.root_of.items() if rj == neg), None)


@pytest.mark.parametrize("t,r", [("A", 1), ("A", 4), ("B", 3), ("C", 3),
                                 ("D", 4), ("G", 2), ("F", 4), ("E", 6)])
def test_opposite_index_matches_scan(t, r):
    L = construct(rootsystem.build(t, r))
    got = [L.opposite_index(i) for i in range(L.dim + 1)]
    assert got == [scan_opposite_index(L, i) for i in range(L.dim + 1)]
    assert all(got[h] is None for h in L.cartan) and got[L.dim] is None


def test_opposite_index_first_match(a2_fixture, g2_fixture):
    # a repeated root answers with its first index; a zero root with itself;
    # an unannotated index with None
    L = LieAlgebra(5, {}, root_of={0: (1,), 1: (-1,), 2: (-1,), 3: (0,)},
                   check=False)
    assert [L.opposite_index(i) for i in range(5)] == [1, 0, 0, 3, None]
    for M in (a2_fixture, g2_fixture):
        assert ([M.opposite_index(i) for i in range(M.dim)]
                == [scan_opposite_index(M, i) for i in range(M.dim)])


def test_ad_columns_are_the_brackets(a2_fixture):
    # values and key order are those of `bracket`; equal negated brackets
    # share one dict
    e7 = construct(rootsystem.build("E", 7))
    for L in (e7, construct(rootsystem.build("G", 2)),
              a2_fixture.rescaled([F(k + 1, 2) for k in range(8)])):
        for i in range(L.dim):
            ref = [(j, list(L.bracket(i, j).items())) for j in range(L.dim)
                   if L.bracket(i, j)]
            assert [(j, list(b.items())) for j, b in L.ad(i).items()] == ref
    negated = [b for i in range(e7.dim) for j, b in e7.ad(i).items() if j < i]
    assert len({id(b) for b in negated}) < len(negated) / 5
