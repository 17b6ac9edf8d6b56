from fractions import Fraction as F

import pytest

from seaweedcoh.chevalley import direct_sum
from seaweedcoh.cli import _ambient
from seaweedcoh.cochain import Cochain, adjoint_context, quotient_context
from seaweedcoh.gerstenhaber import (cg_dims, cohomologous, cup_with_center,
                                     h2_report, h3_report, is_coboundary,
                                     quotient_cohomology)
from seaweedcoh.seaweed import (SeaweedSpec, build_seaweed,
                                seaweed_from_algebra, split_over_center)


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
    zero = qctx.zero(1)
    phi = cup_with_center(split, zero)
    assert phi.is_zero()


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
