from fractions import Fraction as F

import pytest

from seaweedcoh.chevalley import loads_fixture
from seaweedcoh.cli import _ambient
from seaweedcoh.cochain import (Cochain, adjoint_context, nilradical_context,
                                quotient_context)
from seaweedcoh.deform import deform, invariant_profile, jacobi_in_t
from seaweedcoh.exactlin import vec_add
from seaweedcoh.seaweed import (SeaweedSpec, build_seaweed,
                                seaweed_from_algebra, split_over_center)


@pytest.fixture(scope="module")
def g2(g2_fixture):
    sw = seaweed_from_algebra(g2_fixture)
    ctx = adjoint_context(sw)
    gen = Cochain(ctx, 2, {(1, 2): {1: F(2), 2: F(3)}})
    return sw, gen


def test_deform_published_bracket(g2):
    sw, gen = g2
    for t in (F(1), F(-2), F(5, 3)):
        alg = deform(sw, gen, t).algebra
        alg.check_jacobi()
        assert alg.bracket(1, 2) == {1: 2 * t, 2: 3 * t}
        assert alg.bracket(0, 1) == {0: 6}
        assert alg.bracket(0, 2) == {0: -4}


def test_deform_t_zero_is_base(g2):
    sw, gen = g2
    alg = deform(sw, gen, 0).algebra
    assert alg.brackets == sw.algebra().brackets


def test_deform_then_undeform(g2):
    sw, gen = g2
    t = F(7, 2)
    deformed = deform(sw, gen, t).algebra
    table = {}
    for (i, j), vec in deformed.brackets.items():
        table[(i, j)] = dict(vec)
    # subtracting t * f2 recovers the base table exactly (linearity in t)
    for (a, b), vec in gen.data.items():
        key = (a, b)
        cur = table.get(key, {})
        for k, v in vec.items():
            cur[k] = cur.get(k, 0) - t * v
        table[key] = {k: v for k, v in cur.items() if v != 0}
    base = {k: dict(v) for k, v in sw.algebra().brackets.items()}
    assert {k: v for k, v in table.items() if v} == base


def test_jacobi_in_t_published(g2):
    sw, gen = g2
    assert jacobi_in_t(sw, gen) == (True, True)


def test_jacobi_in_t_non_cocycle(g2):
    sw, _ = g2
    ctx = adjoint_context(sw)
    not_cocycle = Cochain(ctx, 2, {(0, 1): {1: F(1)}})
    linear, _ = jacobi_in_t(sw, not_cocycle)
    assert linear is False


def test_jacobi_in_t_zero(g2):
    sw, _ = g2
    ctx = adjoint_context(sw)
    assert jacobi_in_t(sw, Cochain(ctx, 2, {})) == (True, True)


def test_jacobi_obstructed_direction():
    # a cocycle whose self-composition does not vanish: on the 2-dimensional
    # abelian seaweed of A2 every 2-cochain is a cocycle; pick f(x,y) = x
    sw = build_seaweed(_ambient("A", 2), SeaweedSpec.make("A", 2, [], []))
    ctx = adjoint_context(sw)
    f = Cochain(ctx, 2, {(0, 1): {0: F(1)}})
    linear, quadratic = jacobi_in_t(sw, f)
    assert linear is True
    assert quadratic is True  # only two basis directions: no triples exist


def test_deform_refuses_other_complexes():
    # only a 2-cochain of C(s, s) is a bracket table in s's member basis; on
    # A2 p({1}|{}) a 2-cochain of C(Q, s) indexes the center complement
    sw = build_seaweed(_ambient("A", 2), SeaweedSpec.make("A", 2, [1], []))
    f_q = Cochain(quotient_context(split_over_center(sw)), 2,
                  {(0, 1): {0: F(1)}})
    f_1 = Cochain(adjoint_context(sw), 1, {(0,): {0: F(1)}})
    f_n = Cochain(nilradical_context(sw), 1, {(0,): {0: F(1)}})
    for f in (f_q, f_1, f_n):
        with pytest.raises(ValueError, match="adjoint_context"):
            deform(sw, f, 1)
        with pytest.raises(ValueError, match="adjoint_context"):
            jacobi_in_t(sw, f)
    f = Cochain(adjoint_context(sw), 2, {(0, 1): {0: F(1)}})
    assert deform(sw, f, 1).algebra.bracket(0, 1) == \
        vec_add(dict(sw.algebra().bracket(0, 1)), {0: F(1)})


def test_invariant_profile_published(g2):
    sw, gen = g2
    base = invariant_profile(sw.algebra())
    assert base.dim == 3 and base.center_dim == 1
    assert base.derived_dims == (1, 0)
    deformed = invariant_profile(deform(sw, gen, 1).algebra)
    assert deformed.center_dim == 0
    assert deformed.derived_dims[0] == 2


def test_invariant_profile_abelian():
    L = loads_fixture("dim 3\n")
    prof = invariant_profile(L)
    assert prof.center_dim == 3
    assert prof.derived_dims == (0, 0)


def test_gerstenhaber_cocycles_deform(sweep_reports):
    # every 2-cocycle class representative over decomposable sweeps passes the
    # linear Jacobi test by construction
    from seaweedcoh.gerstenhaber import quotient_cohomology
    from seaweedcoh.seaweed import split_over_center
    checked = 0
    for (t, r), rows in sweep_reports.items():
        for spec, sw, rep in rows:
            if rep["indecomposable"] or rep["dims"]["center"] != 1:
                continue
            split = split_over_center(sw)
            h1, reps = quotient_cohomology(sw, 1, split=split)
            if not reps:
                continue
            from seaweedcoh.gerstenhaber import cup_with_center
            phi = cup_with_center(split, reps[0])
            linear, _ = jacobi_in_t(sw, phi)
            assert linear, (t, r, spec)
            checked += 1
            if checked >= 6:
                return
