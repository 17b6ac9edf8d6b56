"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line (visible with -s or in captured output)
after asserting every stated value at its stated tolerance.
"""

import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from seaweedcoh.casimir import (OperatorContext, casimir_action,
                                extend_by_zero, homotopy, modified_casimir,
                                restrict)
from seaweedcoh.cli import _ambient
from seaweedcoh.cochain import (Cochain, adjoint_context, coboundary,
                                invariant_cochains, invariant_cohomology_dims,
                                nilradical_context)
from seaweedcoh.gerstenhaber import (cg_dims, cohomologous, cup_with_center,
                                     h2_report, h3_report,
                                     quotient_cohomology)
from seaweedcoh.deform import deform, jacobi_in_t
from seaweedcoh.exactlin import sparse_kernel_basis, sparse_rank
from seaweedcoh.seaweed import (SeaweedSpec, build_seaweed, center,
                                seaweed_from_algebra, split_over_center)

import dense
from reference import basis_cochain

TABLE2 = {
    0: {3: F(1, 6)}, 1: {4: F(1, 6)}, 2: {5: F(1, 6)},
    3: {0: F(1, 6)}, 4: {1: F(1, 6)}, 5: {2: F(1, 6)},
    6: {6: F(1, 9), 7: F(1, 18)}, 7: {6: F(1, 18), 7: F(1, 9)},
}


def test_criterion_1_table2_reproduction(a2_fixture):
    t0 = time.monotonic()
    dual = a2_fixture.dual_basis()
    for j, expect in TABLE2.items():
        got = {i: c for i, c in enumerate(dual[j]) if c != 0}
        assert got == expect, f"e^{j+1}"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS dual basis matches the published table "
          f"exactly ({elapsed:.3f}s)")


@pytest.fixture(scope="module")
def a2_seaweed(a2_fixture):
    return build_seaweed(a2_fixture, SeaweedSpec.make("A", 2, [], [2, 1]))


def test_criterion_2_a2_rigidity(a2_seaweed):
    t0 = time.monotonic()
    ctx = adjoint_context(a2_seaweed)
    for n in range(0, 6):
        assert ctx.cohomology_dims(n).cohomology == 0, f"H^{n}(s,s)"
    nctx = nilradical_context(a2_seaweed)
    dims = invariant_cohomology_dims(nctx, 2)
    assert tuple(dims)[:3] == (1, 1, 0)
    inv = invariant_cochains(nctx, 2)
    cocycles = [f for f in inv if coboundary(f).is_zero()]
    assert len(cocycles) == 1
    assert cocycles[0].data == {(0, 1): {2: 1}}   # f2(e4, e5) = e6
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\n[criterion 2] PASS H^0..5(s,s)=0 and "
          f"Z^2=B^2=<f2(e4,e5)=e6>, H^2(n,s)^r=0 ({elapsed:.3f}s)")


def test_criterion_3_operator_chain(a2_fixture, a2_seaweed):
    t0 = time.monotonic()
    octx = OperatorContext(a2_seaweed)
    f2 = invariant_cochains(octx.ns, 2)[0]
    assert f2.data == {(0, 1): {2: 1}}
    fbar = extend_by_zero(octx, f2)
    kf = homotopy(octx, fbar)
    assert kf.data == {(3,): {3: F(1, 3)}, (4,): {4: F(1, 3)}}
    dk = coboundary(kf)
    assert restrict(octx, dk) == f2.scale(F(4, 3))
    kd = homotopy(octx, coboundary(fbar))
    assert kd.data.get((3, 4)) == {5: F(8, 3)}
    gamma = casimir_action(octx, fbar)
    assert gamma.data.get((3, 4)) == {5: 4}
    gbar = modified_casimir(octx, fbar)
    assert gbar.data.get((3, 4)) == {5: F(4) - F(8, 3)}
    assert gbar == dk
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"\n[criterion 3] PASS k=1/3, d k=4/3, Gamma=4, k d=8/3, "
          f"Gammabar=4/3=d k exactly ({elapsed:.3f}s)")


def test_criterion_4_g2_decomposable(g2_fixture):
    t0 = time.monotonic()
    sw = seaweed_from_algebra(g2_fixture)
    assert sw.dim == 3
    zs = center(sw)
    assert zs == [{1: 2, 2: 3}]                     # 2 e13 + 3 e14
    ctx = adjoint_context(sw)
    assert ctx.cohomology_dims(2).cohomology == 1
    gen = Cochain(ctx, 2, {(1, 2): {1: F(2), 2: F(3)}})
    assert coboundary(gen).is_zero()
    from seaweedcoh.gerstenhaber import is_coboundary
    assert not is_coboundary(ctx, gen)              # generates the class
    split = split_over_center(sw, section_indices=[0, 1])
    rep2 = cg_dims(sw, 2, split=split)
    assert rep2.formula_total == 1 == rep2.direct_total
    assert tuple(h2_report(sw, split=split)) == (0, 1)
    assert ctx.cohomology_dims(3).cohomology == 0
    assert tuple(h3_report(sw, split=split)) == (0, 0)
    _, reps = quotient_cohomology(sw, 1, split=split)
    f1 = reps[0].scale(F(2) / reps[0].data[(1,)][1])
    zstar = split.center_functional(0, vector={1: F(2), 2: F(3)})
    phi = cup_with_center(split, f1, z_functional=zstar)
    assert phi.data == {(1, 2): {1: F(-2, 3), 2: -1}}   # phi = -(1/3) z
    assert cohomologous(ctx, phi.scale(-3), gen)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"\n[criterion 4] PASS dim 3, Z=<2e13+3e14>, H^2=1 with the "
          f"published generator, CG=1, h2=(0,1), H^3=0, h3=(0,0), "
          f"phi=-(1/3)z, -3phi ~ f2 ({elapsed:.3f}s)")


def test_criterion_5_deformation(g2_fixture):
    t0 = time.monotonic()
    sw = seaweed_from_algebra(g2_fixture)
    ctx = adjoint_context(sw)
    gen = Cochain(ctx, 2, {(1, 2): {1: F(2), 2: F(3)}})
    assert jacobi_in_t(sw, gen) == (True, True)
    for t in (F(1), F(-2), F(5, 3)):
        alg = deform(sw, gen, t).algebra
        alg.check_jacobi()
        assert alg.bracket(1, 2) == {1: 2 * t, 2: 3 * t}
        assert alg.bracket(0, 1) == {0: 6}
        assert alg.bracket(0, 2) == {0: -4}
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\n[criterion 5] PASS unobstructed deformation, "
          f"[e13,e14]_t = t(2e13+3e14) at t in {{1,-2,5/3}} ({elapsed:.3f}s)")


SWEEP = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("G", 2)]


def test_criterion_6_center_sweep(sweep_reports):
    t0 = time.monotonic()
    total = 0
    for t, r in SWEEP:
        for spec, sw, rep in sweep_reports[(t, r)]:
            union = spec.pi1 | spec.pi2
            zdim = rep["dims"]["center"]
            assert (zdim != 0) == (len(union) != r), spec
            assert zdim == r - len(union), spec
            total += 1
    assert total == sum(4 ** r for _, r in SWEEP)
    elapsed = time.monotonic() - t0 + sweep_reports.elapsed
    assert elapsed < 300
    print(f"\n[criterion 6] PASS center <-> decomposability over {total} "
          f"specs, dim Z = rank - |pi1 u pi2| ({elapsed:.1f}s incl. sweep)")


def test_criterion_7_invariant_vanishing_and_certificates(sweep_reports):
    checked_q = 0
    certs = 0
    for t, r in SWEEP:
        for spec, sw, rep in sweep_reports[(t, r)]:
            rows = rep["invariant_cohomology"]
            assert len(rows) == len(sw.nilradical)
            for row in rows:
                assert row["cohomology"] == 0, (spec, row)
                checked_q += 1
            for cert in rep["certificates"]:
                assert cert["success"], (spec, cert["degree"])
                assert cert["positive_spectrum"], (spec, cert["degree"])
                certs += 1
    assert sweep_reports.elapsed < 900
    print(f"\n[criterion 7] PASS H^q(n,s)^r = 0 at {checked_q} degrees and "
          f"{certs} rigidity certificates succeeded "
          f"({sweep_reports.elapsed:.1f}s for the whole sweep)")


def test_criterion_8_cg_formula_vs_direct(sweep_reports):
    compared = 0
    for t, r in SWEEP:
        for spec, sw, rep in sweep_reports[(t, r)]:
            if rep["indecomposable"]:
                continue
            assert rep["cg"], spec
            for rec in rep["cg"]:
                assert rec["match"], (spec, rec)
                compared += 1
    print(f"\n[criterion 8] PASS CG formula equals direct cohomology in "
          f"{compared} decomposable comparisons (within criterion 7 budget)")


def test_criterion_9_property_suites(a2_fixture, g2_fixture, a2_seaweed):
    t0 = time.monotonic()
    # Jacobi residual identically zero, constructed and fixture algebras
    for t, r in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3),
                 ("D", 4), ("G", 2)]:
        _ambient(t, r).check_jacobi()
    a2_fixture.check_jacobi()
    g2_fixture.check_jacobi()

    # delta^2 = 0 exhaustively per context
    contexts = [adjoint_context(a2_seaweed), nilradical_context(a2_seaweed),
                adjoint_context(seaweed_from_algebra(g2_fixture))]
    for ctx in contexts:
        for q in range(0, min(ctx.n, 4) + 1):
            for tup in combinations(range(ctx.n), q):
                for k in range(ctx.m):
                    f = basis_cochain(ctx, tup, k)
                    assert coboundary(coboundary(f)).is_zero()

    # Casimir identity on all basis cochains of C^q(g,g), q <= 3, A2 fixture
    octx = OperatorContext(a2_seaweed)
    for q in (1, 2, 3):
        for tup in combinations(range(8), q):
            for k in range(8):
                f = Cochain(octx.gg, q, {tup: {k: F(1)}})
                assert casimir_action(octx, f) == coboundary(
                    homotopy(octx, f)).add(homotopy(octx, coboundary(f)))

    # rank-nullity of the sparse engine on assembled coboundary matrices,
    # against the dense reference's rank
    ctx = adjoint_context(a2_seaweed)
    nullities = []
    for q in (0, 1, 2):
        cells = [(tup, k) for tup in combinations(range(ctx.n), q)
                 for k in range(ctx.m)]
        cols = [ctx.delta_column(ctx.code(tup, k)) for tup, k in cells]
        rows = sorted({key for col in cols for key in col})
        index = {key: i for i, key in enumerate(rows)}
        m = [[F(0)] * len(cells) for _ in rows]
        for j, col in enumerate(cols):
            for key, c in col.items():
                m[index[key]][j] = c
        rank = dense.rank(m)
        assert sparse_rank(cols) == rank
        nullities.append(len(sparse_kernel_basis(cols)))
        assert nullities[-1] == len(cells) - rank
    assert nullities[0] == 0 < nullities[1] < nullities[2]
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(f"\n[criterion 9] PASS Jacobi, delta^2 = 0, Casimir identity, "
          f"rank-nullity property suites ({elapsed:.1f}s)")


def test_criterion_10_known_counts(sweep_reports):
    # brute-force union-count oracle, independent of the library
    def oracle(rank):
        count = 0
        nodes = list(range(1, rank + 1))
        for m1 in range(1 << rank):
            s1 = {n for i, n in enumerate(nodes) if m1 >> i & 1}
            for m2 in range(1 << rank):
                s2 = {n for i, n in enumerate(nodes) if m2 >> i & 1}
                if s1 | s2 == set(nodes):
                    count += 1
        return count

    a2 = sweep_reports[("A", 2)]
    indec = sum(1 for spec, sw, rep in a2 if rep["indecomposable"])
    assert indec == oracle(2) == 9
    assert len(a2) == 16

    g2 = sweep_reports[("G", 2)]
    dec = sum(1 for spec, sw, rep in g2 if not rep["indecomposable"])
    assert dec == 16 - oracle(2) == 7
    print("\n[criterion 10] PASS A2: 9/16 indecomposable; G2: 7/16 "
          "decomposable (matches the brute-force union count)")
