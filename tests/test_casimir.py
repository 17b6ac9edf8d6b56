import copy
import random
from collections import Counter
from functools import partial
from fractions import Fraction as F
from itertools import combinations
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seaweedcoh import casimir
from seaweedcoh.casimir import (OperatorContext, _casimir_constant,
                                _cocycle_codes, _predicted_scalars,
                                _string_term, casimir_action, extend_by_zero,
                                homotopy, modified_casimir, restrict,
                                rigidity_certificate)
from seaweedcoh.chevalley import construct
from seaweedcoh.cli import _all_specs, _ambient
from seaweedcoh.cochain import (Cochain, ComplexContext, _decoded, coboundary,
                                full_context, invariant_coboundaries,
                                invariant_cochains, invariant_cohomology_dims,
                                nilradical_ambient_context, nilradical_context,
                                reductive_generators)
from seaweedcoh.exactlin import (Echelon, InvariantError,
                                 sparse_kernel_basis, sparse_rank, vec_add)
from seaweedcoh.rootsystem import build
from seaweedcoh.seaweed import SeaweedSpec, build_seaweed

import dense
from reference import basis_cochain, evaluate


def invariant_cocycles(octx, q):
    """Z^q(n, s)^r, the invariant cocycles the certificate tests: its
    `_cocycle_codes`, decoded."""
    return [_decoded(octx.ns, q, f) for f in _cocycle_codes(octx, q)]


def predicted_entry_scalars(octx, f):
    """`_predicted_scalars` of the tuples of a cocycle of C(n, s)."""
    ns = octx.ns
    return _predicted_scalars(octx, [ns.code(tup, 0) // ns._stride
                                     for tup in f.data])


def string_eigenvalue(rs, alpha, beta):
    """(alpha,alpha) q (r+1) / 2 for the alpha-string through beta."""
    r, q = rs.root_string(alpha, beta)
    return rs.pairing(alpha, alpha) * q * (r + 1) / 2


@pytest.fixture(scope="module")
def a2_octx(a2_fixture):
    sw = build_seaweed(a2_fixture, SeaweedSpec.make("A", 2, [], [1, 2]))
    return OperatorContext(sw)


@pytest.fixture(scope="module")
def a2_generator(a2_octx):
    inv = invariant_cochains(a2_octx.ns, 2)
    assert len(inv) == 1
    return inv[0]


def random_gg_cochain(octx, q, seed, density=0.3):
    rng = random.Random(seed)
    data = {}
    for tup in combinations(range(octx.ambient.dim), q):
        if rng.random() < density:
            data[tup] = {rng.randrange(octx.ambient.dim): F(rng.randint(-2, 3))}
    return Cochain(octx.gg, q, data)


def test_extend_by_zero(a2_octx, a2_generator):
    fbar = extend_by_zero(a2_octx, a2_generator)
    assert fbar.data == {(3, 4): {5: 1}}
    assert restrict(a2_octx, fbar) == a2_generator
    zero = Cochain(a2_octx.ns, 2, {})
    assert extend_by_zero(a2_octx, zero).is_zero()


def test_extend_by_zero_rejects_other_modules(a2_fixture):
    # C(n, g) shares the domain of C(n, s) but not its module: its values
    # read through sw.member named the wrong vector (e_0 as e_4 on
    # p(empty|{1})) or none (index 7), so the cochain is refused
    sw = build_seaweed(a2_fixture, SeaweedSpec.make("A", 2, [], [1]))
    octx = OperatorContext(sw)
    ng = nilradical_ambient_context(sw)
    assert ng.domain == octx.ns.domain and ng.module != octx.ns.module
    for k in (0, 7):
        with pytest.raises(ValueError, match="not over"):
            extend_by_zero(octx, Cochain(ng, 1, {(0,): {k: 1}}))
    # a complex rebuilt on the same n and s is accepted
    same = ComplexContext(sw.ambient, octx.ns.domain, octx.ns.module)
    assert extend_by_zero(octx, Cochain(same, 1, {(0,): {0: 1}})).data == \
        {(sw.nilradical[0],): {sw.member[0]: 1}}


def test_restrict_round_trip_random(a2_octx):
    rng = random.Random(3)
    for seed in range(4):
        data = {}
        for tup in combinations(range(3), 2):
            data[tuple(a2_octx.seaweed.nilradical[t] for t in tup)] = {
                a2_octx.seaweed.member[rng.randrange(5)]: F(rng.randint(-3, 3))}
        F_gg = Cochain(a2_octx.gg, 2, data)
        f_ns = restrict(a2_octx, F_gg)
        assert extend_by_zero(a2_octx, f_ns) == F_gg


def test_restrict_rejects_escaping_values(a2_octx):
    bad = Cochain(a2_octx.gg, 2, {(3, 4): {0: F(1)}})  # value e1 outside s
    with pytest.raises(ValueError) as err:
        restrict(a2_octx, bad)
    assert "e4" in str(err.value)
    # with several escaping n-tuples the least one is named, in any data order
    n0, n1, n2 = a2_octx.seaweed.nilradical
    named = set()
    for order in ([(n1, n2), (n0, n2), (n0, n1)], [(n0, n1), (n1, n2)]):
        bad = Cochain(a2_octx.gg, 2, {tup: {0: F(1)} for tup in order})
        with pytest.raises(ValueError) as err:
            restrict(a2_octx, bad)
        named.add(str(err.value))
    labels = a2_octx.ambient.labels
    assert named == {f"value on ({labels[n0]}, {labels[n1]}) lies outside s "
                     f"(components [0])"}


def test_homotopy_values_published(a2_octx, a2_generator):
    fbar = extend_by_zero(a2_octx, a2_generator)
    kf = homotopy(a2_octx, fbar)
    assert kf.data == {(3,): {3: F(1, 3)}, (4,): {4: F(1, 3)}}
    assert homotopy(a2_octx, Cochain(a2_octx.gg, 2, {})).is_zero()


def test_operator_chain_published(a2_octx, a2_generator):
    fbar = extend_by_zero(a2_octx, a2_generator)
    dk = coboundary(homotopy(a2_octx, fbar))
    assert dk.data.get((3, 4)) == {5: F(4, 3)}
    kd = homotopy(a2_octx, coboundary(fbar))
    assert kd.data.get((3, 4)) == {5: F(8, 3)}
    gam = casimir_action(a2_octx, fbar)
    assert gam.data.get((3, 4)) == {5: 4}
    mbar = modified_casimir(a2_octx, fbar)
    assert mbar.data.get((3, 4)) == {5: F(4, 3)}
    assert mbar == dk
    rf = restrict(a2_octx, dk)
    assert rf == a2_generator.scale(F(4, 3))


def test_casimir_identity_exhaustive_a2(a2_octx):
    # Gamma = delta k + k delta on every basis cochain of C^q(g,g), q <= 3
    dim = a2_octx.ambient.dim
    for q in (1, 2, 3):
        for tup in combinations(range(dim), q):
            for k in range(dim):
                f = Cochain(a2_octx.gg, q, {tup: {k: F(1)}})
                lhs = casimir_action(a2_octx, f)
                rhs = coboundary(homotopy(a2_octx, f)).add(
                    homotopy(a2_octx, coboundary(f)))
                assert lhs == rhs, (q, tup, k)


@pytest.fixture(scope="module")
def g2_octx():
    g = _ambient("G", 2)
    sw = build_seaweed(g, SeaweedSpec.make("G", 2, [1], []))
    return OperatorContext(sw)


def test_casimir_identity_canonical_g2(g2_octx):
    dim = g2_octx.ambient.dim
    for q in (1, 2, 3):
        for tup in combinations(range(dim), q):
            for k in range(dim):
                f = Cochain(g2_octx.gg, q, {tup: {k: F(1)}})
                lhs = casimir_action(g2_octx, f)
                rhs = coboundary(homotopy(g2_octx, f)).add(
                    homotopy(g2_octx, coboundary(f)))
                assert lhs == rhs, (q, tup, k)


def test_gamma_commutes_with_delta(a2_octx):
    for q in (1, 2, 3):
        for seed in range(3):
            f = random_gg_cochain(a2_octx, q, seed)
            assert coboundary(casimir_action(a2_octx, f)) == \
                casimir_action(a2_octx, coboundary(f))


def test_modified_casimir_equals_dk_random(a2_octx):
    for q in (1, 2, 3):
        for seed in range(3):
            f = random_gg_cochain(a2_octx, q, seed)
            assert modified_casimir(a2_octx, f) == \
                coboundary(homotopy(a2_octx, f))


def test_string_eigenvalue_examples():
    rs = build("A", 2)
    a1, a2 = rs.simple_roots
    assert string_eigenvalue(rs, a1, a2) == 1      # 2*1*1/2
    theta = tuple(x + y for x, y in zip(a1, a2))
    assert string_eigenvalue(rs, a1, theta) == 0   # q = 0
    with pytest.raises(ValueError):
        string_eigenvalue(rs, a1, a1)

    # cross-check against [e_-a, [e_a, e_b]] in the canonical construction
    # (in type A every root is long, so the normalizations agree)
    L = construct(rs)
    idx = {c: i for i, c in L.root_of.items()}
    for a_c, i_a in idx.items():
        for b_c, i_b in idx.items():
            if b_c in (a_c, tuple(-x for x in a_c)):
                continue
            alpha = _sum_root(rs, a_c)
            beta = _sum_root(rs, b_c)
            val = L.bracket_vec({idx[tuple(-x for x in a_c)]: 1},
                                L.bracket_vec({i_a: 1}, {i_b: 1}))
            assert val.get(i_b, 0) == string_eigenvalue(rs, alpha, beta)


def _sum_root(rs, coeffs):
    v = None
    for c, a in zip(coeffs, rs.simple_roots):
        t = tuple(c * x for x in a)
        v = t if v is None else tuple(p + q for p, q in zip(v, t))
    return v

    g2 = build("G", 2)
    neg = lambda v: tuple(-x for x in v)
    for alpha in g2.roots:
        for beta in g2.roots:
            if beta in (alpha, neg(alpha)):
                continue
            val = string_eigenvalue(g2, alpha, beta)
            _, q = g2.root_string(alpha, beta)
            assert val >= 0
            assert (val > 0) == (q > 0)


def test_case_analysis_a2(a2_octx, a2_generator):
    # per-index contributions of k(delta fbar): the only surviving terms come
    # from the duals of the nilradical
    sw = a2_octx.seaweed
    fbar = extend_by_zero(a2_octx, a2_generator)
    dfbar = coboundary(fbar)
    amb = a2_octx.ambient
    for j in range(amb.dim):
        vals = evaluate(dfbar, (j, 3, 4))
        if j in sw.nilradical:
            assert vals == {}, "cocycle case"
        elif j in sw.reductive:
            assert vals == {}, "invariance case"
        elif j in sw.remainder:
            assert vals == {}, "zero-extension case"
        else:
            assert j in sw.dual_nilradical


def test_case_analysis_with_remainder(a2_fixture):
    # a seaweed whose remainder set is nonempty: pi2 = {a1} only.  For
    # remainder indices the delta-term does NOT vanish outright (the value
    # bracket [e_j, f(args)] survives); everything else reduces to it, and
    # the certificate machinery stays sound because it never assumes
    # otherwise.
    sw = build_seaweed(a2_fixture, SeaweedSpec.make("A", 2, [], [1]))
    assert sw.remainder  # e2, e3, e5, e6 sit outside s and its dual nilradical
    octx = OperatorContext(sw)
    inv = invariant_cochains(octx.ns, 1)
    assert inv
    f = inv[0]
    fbar = extend_by_zero(octx, f)
    dfbar = coboundary(fbar)
    args = tuple(sw.nilradical)
    amb = a2_fixture
    for j in range(amb.dim):
        got = evaluate(dfbar, (j,) + args)
        if j in sw.nilradical or j in sw.reductive:
            assert got == {}, j          # cocycle / invariance cases
        else:
            first_term = amb.bracket_vec({j: 1}, evaluate(fbar, args))
            assert got == first_term, j  # only the value bracket survives
    cert = rigidity_certificate(octx, 1)
    assert cert.success


def test_certificate_a2_published(a2_octx):
    cert = rigidity_certificate(a2_octx, 2)
    assert cert.success and cert.injective and not cert.vacuous
    assert cert.witnesses[0].eigenvalue == F(4, 3)
    assert cert.witnesses[0].positive
    assert cert.witnesses[0].in_invariant_coboundaries
    assert cert.witnesses[0].prediction_matches
    assert cert.positive_spectrum
    assert cert.form_scale == "1/4"
    assert cert.casimir_reading == "value_action"


def test_certificate_vacuous(a2_octx):
    cert = rigidity_certificate(a2_octx, 3)
    assert cert.vacuous and cert.success


def test_certificate_g2_decomposable(g2_octx):
    cert = rigidity_certificate(g2_octx, 1)
    assert cert.success


def test_certificate_reports_first_ratio_of_a_tuple(monkeypatch):
    # a witness tuple whose entries scale by different ratios is not
    # proportional and has no eigenvalue, and its entry scalar is the first
    # ratio, in the cocycle's entry order.  No swept seaweed has such a
    # tuple, so the image is forged: A2 p(|1) has the one invariant
    # 0-cocycle {(): {1: 1, 2: 2}}, whose entries the image scales by 3, 1
    sw = build_seaweed(_ambient("A", 2), SeaweedSpec.make("A", 2, [], [1]))
    octx = OperatorContext(sw)
    (f,) = invariant_cocycles(octx, 0)
    assert list(f.items()) == [(((), 1), 1), (((), 2), 2)]
    D = casimir._dual_brackets(octx.ambient)[0]
    code = octx.ns.code
    forged = {code((), 1): 3 * D, code((), 2): 2 * D}
    monkeypatch.setattr(casimir, "_certificate_image", lambda *a: forged)
    (w,) = rigidity_certificate(octx, 0).witnesses
    assert (w.entry_scalars, w.proportional, w.eigenvalue) == ([3], False, None)


def test_predicted_scalar_matches_a2(a2_octx, a2_generator):
    pred = predicted_entry_scalars(a2_octx, a2_generator)
    assert pred == [F(4, 3)]


def test_certificate_sweep(sweep_reports):
    for (t, r), rows in sweep_reports.items():
        for spec, sw, rep in rows:
            for cert in rep["certificates"]:
                assert cert["success"], (t, r, spec, cert["degree"])


# -- tables built once per ambient, and exactness with int coefficients -------

# 8 A4 seaweeds: the Borel, the whole algebra, and six mixed splits
A4_SAMPLE = [((), (1, 2, 3, 4)), ((1, 2, 3, 4), (1, 2, 3, 4)), ((1,), (2, 3, 4)),
             ((1, 3), (2, 4)), ((2,), (1, 3, 4)), ((1, 2), (3, 4)),
             ((1, 4), (2, 3)), ((2, 3), (1, 4))]


def _sweep_octxs(type_label, rank):
    g = _ambient(type_label, rank)
    for spec in _all_specs(type_label, rank):
        if spec.rank == rank:
            yield OperatorContext(build_seaweed(g, spec))


def _a4_orbit_octxs():
    """One A4 seaweed per orbit of (pi1|pi2) -> (pi2|pi1) and the diagram
    flip i -> 5 - i, the least pair of each orbit."""
    g = _ambient("A", 4)
    flip = lambda pi: frozenset(5 - i for i in pi)
    key = lambda p: (sorted(p[0]), sorted(p[1]))
    for spec in _all_specs("A", 4):
        if spec.rank != 4:
            continue
        pair = (spec.pi1, spec.pi2)
        orbit = [pair, pair[::-1], (flip(pair[0]), flip(pair[1])),
                 (flip(pair[1]), flip(pair[0]))]
        if key(pair) == min(map(key, orbit)):
            yield OperatorContext(build_seaweed(g, spec))


def _exact_number(x):
    return isinstance(x, (int, F)) and not isinstance(x, bool)


def test_certificates_stay_exact():
    octxs = [o for t, r in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]
             for o in _sweep_octxs(t, r)]
    g = _ambient("A", 4)
    octxs += [OperatorContext(build_seaweed(g, SeaweedSpec.make("A", 4, a, b)))
              for a, b in A4_SAMPLE]
    seen = 0
    for octx in octxs:
        for q in range(1, len(octx.seaweed.nilradical) + 1):
            cert = rigidity_certificate(octx, q)
            assert all(map(_exact_number, cert.char_poly or []))
            for w in cert.witnesses:
                seen += 1
                assert all(map(_exact_number, w.entry_scalars)), w
                assert w.eigenvalue is None or _exact_number(w.eigenvalue)
                assert w.predicted_scalars is not None
                assert all(map(_exact_number, w.predicted_scalars)), w
    assert seen > 100


def folded_invariant_cocycles(octx, q):
    """invariant_cocycles as first written: each kernel relation folded
    into a new Cochain term by term through Cochain.add."""
    ns = octx.ns
    inv = invariant_cochains(ns, q)
    out = []
    for rel in sparse_kernel_basis([coboundary(f) for f in inv]):
        f = Cochain(ns, q, {})
        for p, c in rel.items():
            f = f.add(inv[p], c)
        out.append(f)
    return out


def ordered_data(f):
    return [(tup, list(vec.items())) for tup, vec in f.data.items()]


@pytest.mark.parametrize("type_label,rank",
                         [("A", 2), ("B", 2), ("G", 2), ("A", 4)])
def test_invariant_cocycles_match_fold(type_label, rank):
    # the order of f.data is the order of a witness's entry_scalars
    octxs = (_a4_orbit_octxs() if (type_label, rank) == ("A", 4)
             else _sweep_octxs(type_label, rank))
    seen = 0
    for octx in octxs:
        for q in range(1, len(octx.seaweed.nilradical) + 1):
            got = invariant_cocycles(octx, q)
            ref = folded_invariant_cocycles(octx, q)
            # each cocycle is the fold of its first-coefficient-1 relation
            # scaled by the first coefficient of its primitive relation
            scales = [rel[min(rel)] for rel in
                      invariant_coboundaries(octx.ns, q).kernel(True)]
            assert len(scales) == len(ref) and all(c > 0 for c in scales)
            assert list(map(ordered_data, got)) == \
                [ordered_data(f.scale(c)) for f, c in zip(ref, scales)], \
                (octx.seaweed.spec, q)
            seen += len(got)
    assert seen > 0


@pytest.mark.parametrize("type_label,rank",
                         [("A", 2), ("B", 2), ("G", 2), ("A", 4)])
def test_invariant_bases_and_images_are_int_valued(type_label, rank):
    # primitive relations over int L_x columns, coboundaries and the
    # D-scaled homotopy table: the certificate path meets no Fraction
    octxs = (_a4_orbit_octxs() if (type_label, rank) == ("A", 4)
             else _sweep_octxs(type_label, rank))
    seen = 0
    for octx in octxs:
        for q in range(len(octx.seaweed.nilradical) + 1):
            inv = invariant_cochains(octx.ns, q)
            cocycles = invariant_cocycles(octx, q) if q else []
            images = [casimir._certificate_image(octx, f.coded())
                      for f in cocycles]
            for f in inv + cocycles + images:
                assert all(type(c) is int for _, c in f.items()), \
                    (octx.seaweed.spec, q)
            seen += len(inv)
    assert seen > 0


def test_invariant_cocycles_cancellation_order(a2_octx, monkeypatch):
    # a tuple emptied by cancellation and filled again moves to the end,
    # as in the fold; no seaweed swept above produces such a relation
    ns = a2_octx.ns
    inv = [Cochain(ns, 1, {(0,): {0: 1}}),
           Cochain(ns, 1, {(0,): {0: -1}, (1,): {0: 1}}),
           Cochain(ns, 1, {(0,): {0: 1}})]
    rel = {0: 1, 1: 1, 2: 1}
    monkeypatch.setattr(casimir, "_invariant_entry",
                        lambda *a: [[f.coded() for f in inv], None])
    monkeypatch.setattr(casimir, "invariant_coboundaries", lambda *a:
                        SimpleNamespace(kernel=lambda primitive: [rel]))
    (got,) = invariant_cocycles(a2_octx, 1)
    folded = inv[0].add(inv[1]).add(inv[2])
    assert ordered_data(got) == ordered_data(folded) == \
        [((1,), [(0, 1)]), ((0,), [(0, 1)])]


def test_certificates_before_invariant_dims_agree():
    # the coboundary echelon of each invariant degree is built once, by
    # whichever read comes first; verify reads the dims first
    seen = 0
    for t, r in [("A", 2), ("B", 2), ("G", 2)]:
        for dims_first, certs_first in zip(_sweep_octxs(t, r),
                                           _sweep_octxs(t, r)):
            degrees = range(1, len(dims_first.seaweed.nilradical) + 1)
            dims_a = [invariant_cohomology_dims(dims_first.ns, q)
                      for q in degrees]
            certs_a = [rigidity_certificate(dims_first, q) for q in degrees]
            certs_b = [rigidity_certificate(certs_first, q) for q in degrees]
            dims_b = [invariant_cohomology_dims(certs_first.ns, q)
                      for q in degrees]
            assert dims_a == dims_b and certs_a == certs_b, \
                certs_first.seaweed.spec
            for q in degrees:
                assert invariant_coboundaries(certs_first.ns, q) is \
                    invariant_coboundaries(certs_first.ns, q)
            seen += sum(len(c.witnesses) for c in certs_a)
    assert seen > 0


def reference_entry_scalars(octx, f, kappa_ratio):
    """The string prediction in ambient root coordinates: rs.pairing and
    rs.root_string on every entry and outside root, with no memo."""
    g, sw = octx.ambient, octx.seaweed
    rs = g.root_system

    def vec(c):
        return tuple(sum(ci * a[x] for ci, a in zip(c, rs.simple_roots))
                     for x in range(len(rs.simple_roots[0])))
    outside = [vec(c) for i, c in g.root_of.items()
               if i not in sw.nilradical and i not in g.cartan]
    out = []
    for tup in f.data:
        beta = vec([sum(col) for col in zip(
            *(g.root_of[sw.nilradical[t]] for t in tup))])
        if not any(beta):
            return None
        scalar = rs.pairing(beta, beta)
        for gamma in outside:
            if beta == gamma:
                scalar += rs.pairing(gamma, gamma)
            elif beta != tuple(-x for x in gamma):
                r, qq = rs.root_string(gamma, beta)
                scalar += rs.pairing(gamma, gamma) * r * (qq + 1) / 2
        out.append(scalar * kappa_ratio)
    return out


def reference_form_ratio(g):
    """(theta, theta)_B / 2 for a long root theta, B = form_scale * kappa:
    the ratio of the dual-basis form on roots to the normalized pairing,
    read off the Cartan block of the Killing matrix."""
    rs = g.root_system
    cartan = list(g.cartan)
    long_root = max(g.root_of, key=lambda i: rs.sq(g.root_of[i]))
    # theta as a functional on the Cartan basis, read off the adjoint action
    theta = {p: g.bracket(h, long_root).get(long_root, 0)
             for p, h in enumerate(cartan)}
    kappa = g.killing_matrix()
    block = Echelon(({p: g.form_scale * kappa[a][b]
                      for p, a in enumerate(cartan)} for b in cartan),
                    track=True)
    assert block.rank == len(cartan)
    t = block.coords(theta)
    return sum(theta[p] * c for p, c in t.items()) / rs.sq(g.root_of[long_root])


def test_predicted_scalars_match_ambient_reference():
    octxs = [o for t, r in [("A", 2), ("B", 2), ("G", 2)]
             for o in _sweep_octxs(t, r)]
    octxs += list(_a4_orbit_octxs())
    ratios = {}
    compared = 0
    for octx in octxs:
        g = octx.ambient
        if g not in ratios:
            ratios[g] = reference_form_ratio(g)
        for q in range(1, len(octx.seaweed.nilradical) + 1):
            for f in invariant_cocycles(octx, q):
                got = predicted_entry_scalars(octx, f)
                assert got == reference_entry_scalars(octx, f, ratios[g])
                compared += got is not None
    assert compared > 100


# dual Coxeter numbers h^v (Kac, Infinite-dimensional Lie algebras, Sec. 6)
DUAL_COXETER = {("A", 1): 2, ("A", 2): 3, ("A", 3): 4, ("A", 4): 5,
                ("B", 2): 3, ("B", 3): 5, ("B", 4): 7, ("C", 3): 4,
                ("C", 4): 5, ("D", 4): 6, ("D", 5): 8, ("E", 6): 12,
                ("E", 7): 18, ("E", 8): 30, ("F", 4): 9, ("G", 2): 4}


def _root_data_only(type_label, rank):
    """An object with root data and nothing else: no structure constant."""
    return SimpleNamespace(root_system=build(type_label, rank))


@pytest.mark.parametrize("type_label,rank", sorted(DUAL_COXETER))
def test_casimir_constant_is_twice_the_dual_coxeter_number(type_label, rank):
    g = _root_data_only(type_label, rank)
    assert _casimir_constant(g) == 2 * DUAL_COXETER[type_label, rank]
    assert _casimir_constant(g) is g._casimir_constant


@pytest.mark.parametrize("type_label,rank", sorted(DUAL_COXETER))
def test_casimir_constant_is_the_same_at_every_root(type_label, rank):
    g = _root_data_only(type_label, rank)
    rs = g.root_system
    assert {rs.sq(beta) + sum(_string_term(g, gamma, beta)
                              for gamma in rs.root_coeffs)
            for beta in rs.root_coeffs} == {_casimir_constant(g)}


@pytest.mark.parametrize("type_label,rank", sorted(DUAL_COXETER))
def test_casimir_constant_gives_the_killing_block_ratio(type_label, rank):
    # a fresh algebra, so no Killing matrix stays on the cached ambients
    g = construct(build(type_label, rank))
    assert F(1, g.form_scale * _casimir_constant(g)) == reference_form_ratio(g)


def test_casimir_constant_gives_the_killing_block_ratio_fixture(a2_fixture):
    ratio = 1 / (a2_fixture.form_scale * _casimir_constant(a2_fixture))
    assert ratio == reference_form_ratio(a2_fixture) == F(2, 3)


def test_operator_contexts_share_one_ambient_context(a2_fixture):
    g2 = _ambient("G", 2)
    cases = [(a2_fixture, ("A", 2, [], [1, 2])), (g2, ("G", 2, [1], [])),
             (_ambient("A", 4), ("A", 4, [1, 3], [2, 4])),
             (g2, ("G", 2, [], [1, 2])), (_ambient("B", 2), ("B", 2, [2], [1]))]
    for g, spec in cases:
        sw = build_seaweed(g, SeaweedSpec.make(*spec))
        octx, again = OperatorContext(sw), OperatorContext(sw)
        assert octx.gg is again.gg is full_context(g) and octx.gg.ambient is g
        # against a genuinely fresh C(g, g), not the one cached on g
        units = [{i: 1} for i in range(g.dim)]
        fresh = copy.copy(octx)
        fresh.gg = ComplexContext(g, units, units)
        assert fresh.gg is not octx.gg
        chains = 0
        for q in range(1, len(sw.nilradical) + 1):
            for f in invariant_cochains(octx.ns, q):
                got = restrict(octx, coboundary(homotopy(
                    octx, extend_by_zero(octx, f))))
                want = restrict(fresh, coboundary(homotopy(
                    fresh, extend_by_zero(fresh, f))))
                assert got == want and got.degree == want.degree
                chains += 1
        assert chains > 0, spec


# -- the certificate's coboundary in C(n, g), and the per-ambient tables ------


def gg_certificate_image(octx, f):
    """restrict(delta k psi f) with delta over the whole C(g, g), as the
    certificate computed it before the C(n, g) reduction, times the D of
    the integer homotopy table (`_certificate_image`'s scale)."""
    return restrict(octx, coboundary(casimir.homotopy(
        octx, extend_by_zero(octx, f)))).scale(
            casimir._dual_brackets(octx.ambient)[0])


def coded_certificate_image(octx, f):
    """`_certificate_image` of the codes of f, decoded."""
    return casimir._decoded(octx.ns, f.degree,
                            casimir._certificate_image(octx, f.coded()))


def outcome(fn, *args):
    """("ok", sorted items) of the result, or ("error", message); the
    image's entry order carries nothing (it is only eliminated and looked
    up)."""
    try:
        return "ok", sorted(fn(*args).items())
    except ValueError as exc:
        return "error", str(exc)


def _table1_octxs(a2_fixture):
    return [OperatorContext(build_seaweed(
        a2_fixture, SeaweedSpec.make("A", 2, [], pi2))) for pi2 in ([1, 2], [1])]


def test_certificate_image_in_ng_matches_gg(a2_fixture):
    # every invariant cochain, cocycle or not, of every degree
    octxs = _table1_octxs(a2_fixture) + list(_a4_orbit_octxs())
    octxs += [o for t, r in [("A", 2), ("B", 2), ("G", 2)]
              for o in _sweep_octxs(t, r)]
    compared = 0
    for octx in octxs:
        for q in range(1, len(octx.seaweed.nilradical) + 1):
            for f in invariant_cochains(octx.ns, q):
                got = outcome(coded_certificate_image, octx, f)
                assert got == outcome(gg_certificate_image, octx, f), \
                    (octx.seaweed.spec, q)
                compared += 1
    assert compared > 300


def reference_witness_ratios(f, image, D):
    """(entry scalars, proportional) of a witness as first computed: one
    Fraction per entry of the cocycle f against the Cochain image."""
    scalars, proportional = [], True
    for tup, vec in f.data.items():
        got = image.data.get(tup, {})
        ratios = [F(got.get(k, 0), c * D) for k, c in vec.items()]
        if len(set(ratios)) > 1 or set(got) - set(vec):
            proportional = False
        scalars.append(ratios[0])
    return scalars, proportional


def forged_images(f, image, ns):
    """(kind, image) variants of a cocycle's coded image in C(n, s): as
    computed; D f scaled by 2; that with one entry changed; with the first
    entry of f missing; and with an entry added at f's first tuple, off f."""
    first, c0 = next(iter(f.items()))
    m = ns._stride
    mask = first // m
    scaled = {code: 2 * c for code, c in f.items()}
    yield "real", image
    yield "scaled", scaled
    if len(f) > 1:
        yield "changed", {**scaled, list(f)[-1]: 3 * list(f.values())[-1]}
    yield "missing", {code: v for code, v in scaled.items() if code != first}
    free = [k for k in ns._mod_codes if mask * m + k not in f]
    if free:
        yield "extra", {**scaled, mask * m + free[0]: 1}


def test_witness_ratios_match_fraction_reference(a2_fixture):
    # the integer cross-multiplication of `_witness_ratios` against one
    # Fraction per entry, on the real images of every cocycle of the
    # sweeps and the A4 orbits and on forged ones (scaled cocycles, a
    # changed, a missing and an extra entry), and on a tuple of two entries
    octxs = _table1_octxs(a2_fixture) + list(_a4_orbit_octxs())
    octxs += [o for t, r in [("A", 2), ("B", 2), ("G", 2)]
              for o in _sweep_octxs(t, r)]
    seen, flags = Counter(), Counter()
    for octx in octxs:
        ns = octx.ns
        D = casimir._dual_brackets(octx.ambient)[0]
        for q in range(1, len(octx.seaweed.nilradical) + 1):
            for f in casimir._cocycle_codes(octx, q):
                image = casimir._certificate_image(octx, f)
                for kind, im in forged_images(f, image, ns):
                    ratios, prop = casimir._witness_ratios(f, im, ns._stride,
                                                           D)
                    want = reference_witness_ratios(
                        casimir._decoded(ns, q, f), casimir._decoded(ns, q, im),
                        D)
                    assert (list(ratios.values()), prop) == want, kind
                    assert list(ratios) == list(dict.fromkeys(
                        code // ns._stride for code in f))
                    seen[kind] += 1
                    flags[kind, prop] += 1
    assert min(seen.values()) > 20 and len(seen) == 5
    assert flags["scaled", True] and flags["extra", False]
    # a 0-cocycle of two entries on one tuple: A2 p(|1)
    sw = build_seaweed(_ambient("A", 2), SeaweedSpec.make("A", 2, [], [1]))
    octx = OperatorContext(sw)
    (f,) = casimir._cocycle_codes(octx, 0)
    code = octx.ns.code
    for im in ({0: 4, 1: 8, 2: 6}, {1: 8, 2: 16}, {1: 3, 2: 2}, {2: 2}):
        im = {code((), k): v for k, v in im.items()}
        ratios, prop = casimir._witness_ratios(f, im, octx.ns._stride, 2)
        assert (list(ratios.values()), prop) == reference_witness_ratios(
            casimir._decoded(octx.ns, 0, f), casimir._decoded(octx.ns, 0, im),
            2), im


def test_proven_ranks_match_elimination(monkeypatch):
    # two ranks the verifier takes from a proof instead of an elimination:
    # the invariant codes of C(n, s) are independent (each kernel relation
    # has its own dependent column), and the certificate images have the
    # rank of the map matrix M (images[j] = D sum_i M_ij f_i), so the
    # certificate is injective exactly when the images are independent;
    # every swept certificate is, so images forged dependent check the
    # other side
    octxs = [o for t, r in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]
             for o in _sweep_octxs(t, r)] + list(_a4_orbit_octxs())
    certificates = invariants = 0
    for octx in octxs:
        for q in range(len(octx.seaweed.nilradical) + 1):
            inv = casimir._invariant_entry(octx.ns, q)[0]
            assert sparse_rank(inv) == len(inv), (octx.seaweed.spec, q)
            invariants += len(inv)
            cocycles = casimir._cocycle_codes(octx, q) if q else []
            if not cocycles:
                continue
            D = casimir._dual_brackets(octx.ambient)[0]
            images = [casimir._certificate_image(octx, f) for f in cocycles]
            mat = casimir._map_matrix(cocycles, images, D)
            d = len(cocycles)
            dense_m = [[row.get(j, 0) for j in range(d)] for row in mat]
            assert sparse_rank(images) == dense.rank(dense_m)
            cert = rigidity_certificate(octx, q)
            assert cert.injective == (sparse_rank(images) == d)
            certificates += 1
    assert certificates > 100 and invariants > 500
    forged, real = 0, casimir._certificate_image
    for octx in octxs:
        for q in range(1, len(octx.seaweed.nilradical) + 1):
            cocycles = casimir._cocycle_codes(octx, q)
            images = [real(octx, f) for f in cocycles]
            if len(images) < 2:
                continue
            for fake in ([{}] * len(images), [images[0]] * len(images)):
                monkeypatch.setattr(casimir, "_certificate_image",
                                    lambda o, f, it=iter(fake): next(it))
                cert = rigidity_certificate(octx, q)
                assert cert.char_poly is not None and not cert.injective
                assert sparse_rank(fake) < len(cocycles)
                forged += 1
    assert forged > 10


def test_map_matrix_refuses_images_off_the_cocycles(a2_octx, monkeypatch):
    # an image on a code that no cocycle has leaves the cocycle space, and
    # one on their codes but off their span is no combination of them; the
    # certificate then fails with that message, and its injectivity is
    # read off an elimination of the images
    assert casimir._map_matrix([{1: 1, 2: 1}], [{1: 2, 2: 2}], 2) == [{0: 1}]
    for image, text in (({3: 1}, "leaves the invariant cocycle space"),
                        ({1: 1}, "is not a combination of the cocycle basis")):
        with pytest.raises(ValueError, match=text):
            casimir._map_matrix([{1: 1, 2: 1}], [image], 1)
    def refuse(*args):
        raise ValueError("forged")

    (f,) = casimir._cocycle_codes(a2_octx, 2)
    for image, injective in (({max(f) + 1: 1}, True), ({}, False)):
        monkeypatch.setattr(casimir, "_certificate_image",
                            lambda o, f, image=image: image)
        if not image:   # a zero image is in the span; refuse it by force
            monkeypatch.setattr(casimir, "_map_matrix", refuse)
        cert = rigidity_certificate(a2_octx, 2)
        assert not cert.success and not cert.positive_spectrum
        assert cert.injective == injective and cert.char_poly is None
        assert cert.failure == ("image leaves the invariant cocycle space"
                                if image else "forged")


def test_certificate_fields_match_unscaled_reference(a2_fixture):
    # the certificate divides D out of its entry scalars and map matrix;
    # against the first-coefficient-1 cocycles and the unscaled images
    # through C(g, g), the scalars agree and the characteristic polynomial
    # of the (similar) matrix agrees
    octxs = _table1_octxs(a2_fixture)
    octxs += [o for t, r in [("A", 2), ("B", 2), ("G", 2)]
              for o in _sweep_octxs(t, r)]
    compared = 0
    for octx in octxs:
        for q in range(1, len(octx.seaweed.nilradical) + 1):
            cert = rigidity_certificate(octx, q)
            ref = folded_invariant_cocycles(octx, q)
            images = [restrict(octx, coboundary(homotopy(
                octx, extend_by_zero(octx, f)))) for f in ref]
            scalars = [[F(im.data.get(tup, {}).get(k, 0)) / vec[k]
                        for tup, vec in f.data.items() for k in list(vec)[:1]]
                       for f, im in zip(ref, images)]
            assert [w.entry_scalars for w in cert.witnesses] == scalars
            if not ref:
                continue
            keys = sorted({key for f in ref for key, _ in f.items()})
            basis = [[dict(f.items()).get(key, 0) for f in ref] for key in keys]
            cols = [dense.solve(basis, [dict(im.items()).get(key, 0)
                                        for key in keys]) for im in images]
            matrix = [[cols[j][i] for j in range(len(ref))]
                      for i in range(len(ref))]
            assert cert.char_poly == dense_char_poly(matrix), \
                (octx.seaweed.spec, q)
            compared += 1
    assert compared > 20


def test_certificate_image_forged_escape_same_error(a2_fixture, monkeypatch):
    # a homotopy value forged outside s, the same in the C(g, g) reference
    # and in the codes of C(n, g) that `_certificate_image` differentiates:
    # both name the same tuple and components, and the certificate reports
    # that message; the forged k psi f that `homotopy` returns carries 1,
    # so the coded D k psi f carries D
    real, real_delta = casimir.homotopy, casimir._delta
    errors = 0
    for octx in _table1_octxs(a2_fixture):
        sw, dim = octx.seaweed, octx.ambient.dim
        D = casimir._dual_brackets(octx.ambient)[0]
        for q in range(1, len(sw.nilradical) + 1):
            for f in invariant_cocycles(octx, q):
                for tup in combinations(sw.nilradical, q - 1):
                    mask = sum(1 << i for i in tup)
                    for k in range(dim):
                        def forged(o, F, tup=tup, k=k):
                            extra = Cochain(o.gg, F.degree - 1, {tup: {k: 1}})
                            return real(o, F).add(extra)

                        def forged_delta(ctx, kf, key=mask * dim + k):
                            return real_delta(ctx, vec_add(dict(kf), {key: D}))
                        monkeypatch.setattr(casimir, "homotopy", forged)
                        monkeypatch.setattr(casimir, "_delta", forged_delta)
                        got = outcome(coded_certificate_image, octx, f)
                        assert got == outcome(gg_certificate_image, octx, f)
                        if got[0] == "error":
                            errors += 1
                            assert "lies outside s" in got[1]
                            cert = rigidity_certificate(octx, q)
                            assert not cert.success and cert.failure == got[1]
    monkeypatch.setattr(casimir, "homotopy", real)
    monkeypatch.setattr(casimir, "_delta", real_delta)
    assert errors > 5


def dense_char_poly(m):
    """det(xI - M) by the dense Faddeev-LeVerrier recurrence, as first
    written over a full list of rows."""
    d = len(m)
    coeffs = [F(1)]
    mk = [[F(int(i == j)) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        prod = [[sum((m[i][t] * mk[t][j] for t in range(d)), F(0))
                 for j in range(d)] for i in range(d)]
        c = -sum((prod[i][i] for i in range(d)), F(0)) / k
        coeffs.append(c)
        mk = [[prod[i][j] + (c if i == j else 0) for j in range(d)]
              for i in range(d)]
    return coeffs


def fraction_char_poly(rows):
    """det(xI - M) by the sparse Faddeev-LeVerrier recurrence in Fractions,
    as run before the integer-scaled one."""
    d = len(rows)
    coeffs = [F(1)]
    mk = [{i: 1} for i in range(d)]
    for k in range(1, d + 1):
        prod = []
        for row in rows:
            acc = {}
            for t, a in row.items():
                vec_add(acc, mk[t], a)
            prod.append(acc)
        c = -sum((prod[i].get(i, 0) for i in range(d)), F(0)) / k
        coeffs.append(c)
        for i, acc in enumerate(prod):
            vec_add(acc, {i: c})
        mk = prod
    return coeffs


def _sparse_rows(m):
    return [{j: x for j, x in enumerate(row) if x != 0} for row in m]


_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def square_matrices(draw):
    d = draw(st.integers(0, 5))
    shape = draw(st.sampled_from(["zero", "diagonal", "upper", "lower",
                                  "full"]))
    keep = {"zero": lambda i, j: False, "diagonal": lambda i, j: i == j,
            "upper": lambda i, j: i <= j, "lower": lambda i, j: i >= j,
            "full": lambda i, j: True}[shape]
    return [[draw(_fractions) if keep(i, j) else F(0) for j in range(d)]
            for i in range(d)]


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_sparse_char_poly_matches_dense(m):
    got = casimir._char_poly(_sparse_rows(m))
    assert got == dense_char_poly(m)
    assert got == fraction_char_poly(_sparse_rows(m))
    assert all(isinstance(c, F) for c in got)


def test_char_poly_of_diagonal_and_zero():
    assert casimir._char_poly([]) == [1]
    assert casimir._char_poly([{}, {}]) == [1, 0, 0]
    # (x - 2)(x - 1/3) = x^2 - 7/3 x + 2/3
    assert casimir._char_poly([{0: 2}, {1: F(1, 3)}]) == [1, F(-7, 3), F(2, 3)]


def test_char_poly_remainder_raises(monkeypatch):
    # the division by k is exact only for the true recurrence: with the
    # c_k I term dropped, M = diag(1, 0) gives tr(M M) / 2 = 1/2
    real = casimir.vec_add
    monkeypatch.setattr(casimir, "vec_add", lambda acc, other, scale=None:
                        acc if scale is None else real(acc, other, scale))
    with pytest.raises(InvariantError, match="c_2 of an integer matrix"):
        casimir._char_poly([{0: F(1)}, {}])


def test_char_poly_matches_fraction_recurrence_on_certificates():
    # the map matrices of the A4 orbit certificates: the integer-scaled
    # recurrence gives the Fraction recurrence's coefficients, types too
    seen = 0
    for octx in _a4_orbit_octxs():
        D = casimir._dual_brackets(octx.ambient)[0]
        for q in (1, 2):
            cocycles = casimir._cocycle_codes(octx, q)
            images = [casimir._certificate_image(octx, f) for f in cocycles]
            mat = casimir._map_matrix(cocycles, images, D)
            got, want = casimir._char_poly(mat), fraction_char_poly(mat)
            assert got == want and list(map(type, got)) == [F] * len(got)
            seen += bool(cocycles)
    assert seen > 50


TABLES = ("_dual_brackets", "_casimir_columns")


def reference_homotopy(octx, Fc):
    """homotopy as first written: [e^j, e_k] rebuilt for every entry."""
    amb, dual = octx.ambient, _dense_dual(octx.ambient)
    out = {}
    for tup, vec in Fc.data.items():
        for pos, j in enumerate(tup):
            rest = tup[:pos] + tup[pos + 1:]
            sign = -1 if pos % 2 else 1
            contrib = {}
            for k, c in vec.items():
                vec_add(contrib, amb.bracket_vec(dual[j], {k: 1}), sign * c)
            if contrib:
                vec_add(out.setdefault(rest, {}), contrib)
    return Cochain(octx.gg, Fc.degree - 1, out)


def reference_casimir_action(octx, Fc):
    """casimir_action as first written: two brackets per basis index."""
    amb, dual = octx.ambient, _dense_dual(octx.ambient)
    out = {}
    for tup, vec in Fc.data.items():
        acc = {}
        for j in range(amb.dim):
            inner = amb.bracket_vec({j: 1}, vec)
            if inner:
                vec_add(acc, amb.bracket_vec(dual[j], inner))
        if acc:
            out[tup] = acc
    return Cochain(octx.gg, Fc.degree, out)


def _dense_dual(g):
    return [{i: c for i, c in enumerate(col) if c != 0}
            for col in g.dual_basis()]


def test_operator_tables_built_per_ambient_on_first_use(a2_fixture):
    cases = [(a2_fixture, ("A", 2, [], [1, 2]))]
    for t, r, pi1, pi2 in [("A", 2, [1], [2]), ("B", 2, [2], [1]),
                           ("G", 2, [1], []), ("A", 4, [1, 3], [2, 4])]:
        g = _ambient.__wrapped__(t, r)      # a fresh algebra, not the cached one
        assert not any(hasattr(g, name) for name in TABLES), (t, r)
        octx = OperatorContext(build_seaweed(
            g, SeaweedSpec.make(t, r, pi1, pi2)))
        # each table appears with the first operator that reads it
        assert not any(hasattr(g, name) for name in TABLES), (t, r)
        homotopy(octx, random_gg_cochain(octx, 1, 0))
        assert [hasattr(g, name) for name in TABLES] == [True, False]
        casimir_action(octx, random_gg_cochain(octx, 1, 0))
        assert all(hasattr(g, name) for name in TABLES)
        cases.append((g, (t, r, pi1, pi2)))
    for g, spec in cases:
        octx = OperatorContext(build_seaweed(g, SeaweedSpec.make(*spec)))
        table = casimir._dual_brackets(g)
        D, rows = table
        want = [[g.bracket_vec(d, {k: 1}) for k in range(g.dim)]
                for d in _dense_dual(g)]
        # D [e^j, e_k] in ints, D the lcm of the denominators
        assert D == lcm(*(v.denominator for row in want for b in row
                          for v in b.values()))
        assert rows == [[{i: v * D for i, v in b.items()} for b in row]
                        for row in want]
        assert all(type(v) is int for row in rows for b in row
                   for v in b.values())
        cols = casimir._casimir_columns(g)
        unit = partial(basis_cochain, octx.gg)
        assert cols == [reference_casimir_action(octx, unit((0,), k)).data
                        .get((0,), {}) for k in range(g.dim)]
        OperatorContext(octx.seaweed)       # a second context rebuilds none
        assert casimir._dual_brackets(g) is table
        for q in (1, 2):
            for seed in range(3):
                f = random_gg_cochain(octx, q, seed)
                assert ordered_data(homotopy(octx, f)) == \
                    ordered_data(reference_homotopy(octx, f))
                assert casimir_action(octx, f) == \
                    reference_casimir_action(octx, f)


def all_of_r(sw):
    """Every basis vector of r, the generator list before the Levi one."""
    return [{i: 1} for i in sw.reductive]


def test_levi_generators_give_the_same_invariants(g2_fixture):
    # C(n, s) carries the Levi generators; a second C(n, s) on the same
    # bases carries all of r
    octxs = [o for t, r in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]
             for o in _sweep_octxs(t, r)]
    octxs += list(_a4_orbit_octxs())
    assert len(octxs) == 4 + 16 + 16 + 16 + 76
    shorter = compared = 0
    for octx in octxs:
        sw, ns = octx.seaweed, octx.ns
        gens, full = ns.levi, all_of_r(sw)
        wide = ComplexContext(sw.ambient, ns.domain, ns.module, levi=full)
        both = sw.spec.pi1 & sw.spec.pi2
        assert gens == reductive_generators(sw)
        assert len(gens) == len(sw.ambient.cartan) + len(both), sw.spec
        assert all(v in full for v in gens)
        shorter += len(gens) < len(full)
        for q in range(len(sw.nilradical) + 1):
            got = invariant_cochains(ns, q)
            want = invariant_cochains(wide, q)
            assert list(map(ordered_data, got)) == \
                list(map(ordered_data, want)), (sw.spec, q)
            assert invariant_coboundaries(ns, q).rank == \
                invariant_coboundaries(wide, q).rank
            compared += len(got)
    assert shorter > 10 and compared > 300
    # a seaweed without a spec keeps every basis vector of r
    from seaweedcoh.seaweed import seaweed_from_algebra
    sw = seaweed_from_algebra(g2_fixture)
    assert reductive_generators(sw) == nilradical_context(sw).levi == \
        all_of_r(sw)
