import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from seaweedcoh.cli import _all_specs, _ambient
from seaweedcoh.cochain import (Cochain, _decoded, _invariant_block,
                                adjoint_context, coboundary,
                                invariant_cochains, nilradical_context,
                                quotient_context)
from seaweedcoh.exactlin import Echelon, InvariantError, sparse_kernel_basis
from seaweedcoh.gerstenhaber import (_class_representatives, cg_dims,
                                     cohomologous, cup_with_center,
                                     h2_report, h3_report, is_coboundary,
                                     quotient_cohomology)
from seaweedcoh.seaweed import (SeaweedSpec, build_seaweed,
                                seaweed_from_algebra, split_over_center)

from reference import basis_cochain, built, direct_sum
from test_cochain import reference_grading


@pytest.fixture(scope="module")
def g2(g2_fixture):
    sw = seaweed_from_algebra(g2_fixture)
    split = split_over_center(sw, section_indices=[0, 1])
    return sw, split


def test_quotient_cohomology_g2(g2):
    sw, split = g2
    h1, reps = quotient_cohomology(sw, 1, split=split)
    assert h1 == 1
    f1 = reps[0]
    # the class is generated by f1(e2-bar) = 0, f1(e13-bar) = z (up to scale)
    assert (0,) not in f1.data
    val = f1.data[(1,)]
    assert val.get(2, 0) * 2 == val.get(1, 0) * 3  # proportional to 2e13+3e14

    h0, reps0 = quotient_cohomology(sw, 0, split=split)
    assert h0 == 1
    h2, _ = quotient_cohomology(sw, 2, split=split, want_representatives=False)
    assert h2 == 0


def test_cg_dims_g2(g2):
    sw, split = g2
    rep = cg_dims(sw, 2, split=split)
    assert rep.term_dims == [(0, 2, 0), (1, 1, 1), (2, 0, 0)]
    assert rep.formula_total == 1 and rep.direct_total == 1 and rep.match
    rep3 = cg_dims(sw, 3, split=split)
    assert rep3.formula_total == 0 and rep3.direct_total == 0 and rep3.match


def test_cg_dims_indecomposable():
    sw = build_seaweed(_ambient("A", 2), SeaweedSpec.make("A", 2, [], [1, 2]))
    for n in range(0, 4):
        rep = cg_dims(sw, n)
        assert rep.formula_total == 0 == rep.direct_total
        assert rep.match


def test_h2_h3_reports(g2):
    sw, split = g2
    assert tuple(h2_report(sw, split=split)) == (0, 1)
    assert tuple(h3_report(sw, split=split)) == (0, 0)
    ind = build_seaweed(_ambient("A", 2), SeaweedSpec.make("A", 2, [], [1, 2]))
    assert tuple(h2_report(ind)) == (0, 0)
    assert tuple(h3_report(ind)) == (0, 0)


def test_synthetic_center_dim_two(g2_fixture):
    # direct sum of two copies: center dim 2 exercises the i >= 2 terms
    D = direct_sum(g2_fixture, g2_fixture)
    sw = seaweed_from_algebra(D)
    split = split_over_center(sw)
    assert len(split.center_basis) == 2
    h1 = _h1(sw, split)
    rep2 = cg_dims(sw, 2, split=split)
    first_term = next(t for t in rep2.term_dims if t[0] == 2)
    assert first_term == (2, 0, 2)          # wedge^2 Z* (x) Z has dim 1*2
    assert rep2.match                       # formula equals direct computation
    assert tuple(h2_report(sw, split=split)) == (2, 2 * h1)
    rep3 = cg_dims(sw, 3, split=split)
    assert rep3.match
    second = next(t for t in rep3.term_dims if t[0] == 2)
    assert second[2] == 1 * h1              # wedge^2 Z* (x) H^1(Q,s) pattern


def _h1(sw, split):
    h1, _ = quotient_cohomology(sw, 1, split=split, want_representatives=False)
    return h1


def test_cup_product_published(g2):
    sw, split = g2
    L = sw.ambient
    ctx = adjoint_context(sw)
    _, reps = quotient_cohomology(sw, 1, split=split)
    f1 = reps[0].scale(F(2) / reps[0].data[(1,)][1])   # f1(e13-bar) = z
    zstar = split.center_functional(0, vector={1: F(2), 2: F(3)})
    assert zstar[2] == F(1, 3)                          # z*(e14) = 1/3
    phi = cup_with_center(split, f1, z_functional=zstar)
    assert phi.data == {(1, 2): {1: F(-2, 3), 2: -1}}   # -(1/3) z at (e13,e14)
    gen = Cochain(ctx, 2, {(1, 2): {1: F(2), 2: F(3)}})
    assert phi.scale(-3) == gen
    assert cohomologous(ctx, phi.scale(-3), gen)
    assert not is_coboundary(ctx, gen)


def test_cup_rejects_non_cocycle(g2):
    sw, split = g2
    qctx = quotient_context(split)
    bad = Cochain(qctx, 1, {(0,): {1: F(1)}})
    with pytest.raises(ValueError):
        cup_with_center(split, bad)


def test_cup_zero(g2):
    sw, split = g2
    qctx = quotient_context(split)
    zero = Cochain(qctx, 1, {})
    phi = cup_with_center(split, zero)
    assert phi.is_zero()


def test_center_functional_needs_a_center_vector(g2):
    # z* exists only for 0 <= which < dim Z: past the center basis it would
    # be the dual of a complement vector.  Whole A2 has no center, so there
    # is no z* to cup with, not even for the zero cocycle
    _, split = g2
    assert len(split.center_basis) == 1 and split.center_functional(0)
    for which in (-1, 1):
        with pytest.raises(ValueError, match="no center basis vector"):
            split.center_functional(which)
    whole = split_over_center(build_seaweed(
        _ambient("A", 2), SeaweedSpec.make("A", 2, [1, 2], [1, 2])))
    assert whole.center_basis == []
    with pytest.raises(ValueError, match="no center basis vector 0"):
        whole.center_functional()
    with pytest.raises(ValueError, match="no center basis vector 0"):
        cup_with_center(whole, Cochain(quotient_context(whole), 1, {}))


def test_cup_with_center_maps_values_to_member_units(a2_cartan_mixed):
    # on the fixture whose Cartan units are e7 and e7 + e8 of the published
    # A2 basis, the complement of the center z = e7 + e8 of p(empty|{2}) and
    # p({2}|empty) is a root vector and e7 - e8, not a unit basis.  C(Q, s)
    # then runs on s rebuilt as its own algebra, where f1(e7 - e8) = z is
    # the unit 0 of its basis z, complement.  Mapped back to the member
    # units of s, phi(e7, e8) = -z/2, as the complex built on the
    # complement computed it, and phi is not a coboundary
    for pi1, pi2 in (([], [2]), ([2], [])):
        sw = build_seaweed(a2_cartan_mixed, SeaweedSpec.make("A", 2, pi1, pi2))
        split = split_over_center(sw)
        assert split.center_basis == [{6: 1, 7: 1}]
        assert split.complement_basis[1:] == [{6: 1, 7: -1}]
        assert quotient_context(split).ambient is split.algebra
        h1, reps = quotient_cohomology(sw, 1, split=split)
        assert h1 == 1 and reps[0].data == {(1,): {0: 1}}
        phi = cup_with_center(split, reps[0])
        assert sw.member[1:] == (6, 7)
        assert phi.data == {(1, 2): {1: F(-1, 2), 2: F(-1, 2)}}
        assert not is_coboundary(adjoint_context(sw), phi)


def test_coboundary_tests_need_cochains_over_the_complex(g2):
    # the codes of a cochain over another complex name other basis
    # cochains: a C(n, s) cocycle is refused by C(s, s), not read against
    # its basis.  C(n, s) itself carries its levi for the invariant rows,
    # and holds none of the grading torus: a 0-cocycle of nonzero weight
    # there is no coboundary (B^0 = 0), yet its weight-zero part, empty,
    # lies in any span, so it is refused
    sw = build_seaweed(_ambient("A", 2), SeaweedSpec.make("A", 2, [], [1, 2]))
    adj, ns = adjoint_context(sw), nilradical_context(sw)
    f = invariant_cochains(ns, 2)[0]
    for check in (lambda: is_coboundary(adj, f),
                  lambda: cohomologous(adj, f, Cochain(ns, 2, {}))):
        with pytest.raises(ValueError, match="does not live over"):
            check()
    top = Cochain(ns, 0, {(): {2: 1}})
    assert coboundary(top).is_zero() and ns.code((), 2) not in ns.zero_basis(0)
    with pytest.raises(ValueError, match="carries levi generators"):
        is_coboundary(ns, top)
    ctx = adjoint_context(g2[0])
    gen = Cochain(ctx, 2, {(1, 2): {1: F(2), 2: F(3)}})
    assert not is_coboundary(ctx, gen) and cohomologous(ctx, gen, gen)


def test_cg_sweep_decomposable(sweep_reports):
    for (t, r), rows in sweep_reports.items():
        for spec, sw, rep in rows:
            for rec in rep["cg"]:
                assert rec["match"], (t, r, spec, rec)
                assert rec["h0_equals_center"], (t, r, spec)


def test_flagged_corollary_discrepancy(sweep_reports):
    # the published vanishing claim for H^n(Q,s), n >= 1 fails exactly where
    # the worked example needs H^1(Q,s) = 1; it is reported as informational
    rows = sweep_reports[("G", 2)]
    flagged = [rep for spec, sw, rep in rows
               if any(d["code"] == "quotient_cohomology_nonzero"
                      for d in rep["discrepancies"])]
    assert flagged, "expected the informational discrepancy on G2 seaweeds"
    for rep in flagged:
        for d in rep["discrepancies"]:
            if d["code"] == "quotient_cohomology_nonzero":
                assert d["severity"] == "informational"


def test_wrong_class_count_raises(g2_fixture):
    # a forged weight-zero rank one short at q = 1 claims dim H^1(Q,s) = 2,
    # but only one class exists.  It is an InvariantError, not an assert, so
    # it fires under python -O too
    sw = seaweed_from_algebra(g2_fixture)
    split = split_over_center(sw, section_indices=[0, 1])
    ctx = quotient_context(split)
    dim1, rank1 = _invariant_block(ctx, 1)
    ctx._rank_cache[1] = (dim1, rank1 - 1)
    with pytest.raises(InvariantError,
                       match="1 class representatives for dim H.1 = 2"):
        quotient_cohomology(sw, 1, split=split)


# -- class representatives and B^q membership against the per-grade code -------

def reference_cocycle_basis(ctx, q):
    """The deleted ComplexContext.cocycle_basis: the kernel relations of
    delta on every weight block of C^q, blocks in sorted grade order."""
    out = []
    for grade, basis in sorted(ctx.basis_by_grade(q).items()):
        cols = list(map(ctx.delta_column, basis))
        out += [_decoded(ctx, q, {basis[p]: c for p, c in rel.items()})
                for rel in sparse_kernel_basis(cols)]
    return out


def reference_coboundary_span(ctx, q):
    """An echelon of the deleted ComplexContext.coboundary_basis: the
    independent delta columns of every weight block of C^(q-1)."""
    span = Echelon()
    if q > 0:
        for grade, basis in sorted(ctx.basis_by_grade(q - 1).items()):
            block = Echelon()
            for code in basis:
                col = ctx.delta_column(code)
                if block.add(col):
                    span.add(col)
    return span


def reference_class_representatives(ctx, q):
    span = reference_coboundary_span(ctx, q)
    return [z for z in reference_cocycle_basis(ctx, q) if span.add(z.coded())]


def ordered(z):
    """A cochain's data with the order of its tuples and module indices."""
    return [(tup, list(vec.items())) for tup, vec in z.data.items()]


def mixed_cochain(ctx, q, rng, density=0.3):
    """A random q-cochain with components of every weight."""
    data = {}
    for tup in combinations(range(ctx.n), q):
        if rng.random() < density:
            data[tup] = {rng.randrange(ctx.m): F(rng.randint(-3, 3))}
    return Cochain(ctx, q, data)


def seeded_cochains(ctx, q, reps, rng):
    """Coboundaries of mixed weight, their nonzero-weight parts, the same
    plus a unit cochain, random cochains, and representatives plus a
    coboundary."""
    zero = set(ctx.zero_basis(q))
    out = []
    for _ in range(3):
        b = (coboundary(mixed_cochain(ctx, q - 1, rng)) if q
             else Cochain(ctx, q, {}))
        out.append(b)
        out.append(Cochain(ctx, q, {tup: {k: c} for (tup, k), c in b.items()
                                     if ctx.code(tup, k) not in zero}))
        if ctx.dim_cochains(q):
            tup = tuple(sorted(rng.sample(range(ctx.n), q)))
            out.append(b.add(basis_cochain(ctx, tup, rng.randrange(ctx.m))))
        out.append(mixed_cochain(ctx, q, rng))
        out += [z.add(b, rng.randint(1, 3)) for z in reps]
    return out


def assert_weight_zero_matches_reference(ctx, max_degree, seed=0):
    """Representatives equal the per-grade ones, data and order included,
    and is_coboundary agrees with the per-grade span; (reps, members,
    non-members) counted."""
    rng = random.Random(seed)
    counts = [0, 0, 0]
    for q in range(max_degree + 1):
        reps = _class_representatives(ctx, q,
                                      ctx.cohomology_dims(q).cohomology)
        assert list(map(ordered, reps)) == list(
            map(ordered, reference_class_representatives(ctx, q))), q
        counts[0] += len(reps)
        span = reference_coboundary_span(ctx, q)
        for f in seeded_cochains(ctx, q, reps, rng):
            verdict = is_coboundary(ctx, f)
            assert verdict == span.contains(f.coded()), (q, f.data)
            counts[2 - verdict] += 1
    return counts


@pytest.mark.parametrize("type_label,rank",
                         [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_representatives_match_per_grade_sweep(type_label, rank):
    counts = [0, 0, 0]
    for i, spec in enumerate(_all_specs(type_label, rank)):
        if spec.rank != rank:
            continue
        sw = build_seaweed(_ambient(type_label, rank), spec)
        for ctx in dict.fromkeys([adjoint_context(sw),
                                  quotient_context(split_over_center(sw))]):
            got = assert_weight_zero_matches_reference(ctx, min(3, ctx.n), i)
            counts = [a + b for a, b in zip(counts, got)]
    assert all(counts), counts   # some classes, members and non-members


def test_representatives_match_per_grade_g2_fixture(g2_fixture):
    sw = seaweed_from_algebra(g2_fixture)
    for ctx in (adjoint_context(sw),
                quotient_context(split_over_center(sw, section_indices=[0, 1])),
                quotient_context(split_over_center(sw))):
        assert all(assert_weight_zero_matches_reference(ctx, 3))


def test_representatives_match_per_grade_rescaled_fixture(a2_fixture):
    # Cartan elements rescaled by p/q: the weights are exact Fractions
    rng = random.Random(5)
    scalars = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(8)]
    L2 = a2_fixture.rescaled(scalars)
    seaweeds = [build_seaweed(L2, SeaweedSpec.make("A", 2, [], pi2))
                for pi2 in ([1, 2], [1], [])]
    adj = built(adjoint_context(seaweeds[0]))
    diag = reference_grading(adj)[0]    # the diagonal domain elements
    assert any(isinstance(adj.act[i][k][k], F) for i in diag
               for k in adj.act[i])
    counts = [0, 0, 0]
    for sw in seaweeds:
        for ctx in dict.fromkeys([adjoint_context(sw),
                                  quotient_context(split_over_center(sw))]):
            got = assert_weight_zero_matches_reference(ctx, min(3, ctx.n))
            counts = [a + b for a, b in zip(counts, got)]
    assert all(counts), counts
