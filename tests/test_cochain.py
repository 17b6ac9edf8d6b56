import random
from bisect import insort
from collections import Counter
from copy import deepcopy
from functools import cached_property, partial
from fractions import Fraction as F
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from seaweedcoh import cochain, rootsystem
from seaweedcoh.chevalley import construct
from seaweedcoh.cli import _all_specs, _ambient, _degree_cap, verify_report
from seaweedcoh.cochain import (Cochain, ComplexContext, _acts_diagonally,
                                _bracket_coords, _coboundary_consistency,
                                _decoded, _int_units, _invariant_block,
                                _invariant_entry, _lie_columns, _pack,
                                _weights,
                                adjoint_context, coboundary, full_context,
                                invariant_coboundaries, invariant_cochains,
                                invariant_cohomology_dims,
                                nilradical_ambient_context,
                                nilradical_context, quotient_context,
                                reductive_generators)
from seaweedcoh.exactlin import (Echelon, InvariantError, SpanSolver,
                                 sparse_kernel_basis, sparse_rank, vec_add)
from seaweedcoh.gerstenhaber import _class_representatives, is_coboundary
from seaweedcoh.seaweed import (SeaweedSpec, _cached_build,
                                _classify_subdiagram,
                                build_seaweed, center, seaweed_from_algebra,
                                split_over_center)

import dense
from reference import basis_cochain, built, evaluate


def lie_derivative(x_vec, f):
    """(x . f)(x_1..x_q) = [x, f(..)] - sum_i f(.., [x, x_i], ..): the
    `_lie_columns` of f's basis cochains, extended linearly.  `x_vec` is an
    ambient coordinate vector whose action must close on the domain and the
    module."""
    ctx, coded = f.context, f.coded()
    acc = {}
    for col, c in zip(_lie_columns(ctx, coded, [action_tables(ctx, x_vec)]),
                      coded.values()):
        vec_add(acc, col, c)
    return _decoded(ctx, f.degree, acc)


def slow_coboundary(f):
    """Textbook differential through pointwise evaluation, on the tables of
    the complex built on f's bases; test oracle."""
    ctx = built(f.context)
    out = {}
    for s in combinations(range(ctx.n), f.degree + 1):
        acc = {}
        for i, x in enumerate(s):
            rest = s[:i] + s[i + 1:]
            val = evaluate(f, rest)
            sign = -1 if i % 2 else 1
            for k, c in val.items():
                for k2, v in ctx.act[x].get(k, {}).items():
                    acc[k2] = acc.get(k2, 0) + sign * c * v
        for i, j in combinations(range(len(s)), 2):
            rest = tuple(x for t, x in enumerate(s) if t not in (i, j))
            sign = -1 if (i + j) % 2 else 1
            br = ctx.dbr.get((s[i], s[j]), {})
            for u, c in br.items():
                val = evaluate(f, (u,) + rest)
                for k, v in val.items():
                    acc[k] = acc.get(k, 0) + sign * c * v
        acc = {k: v for k, v in acc.items() if v != 0}
        if acc:
            out[s] = acc
    return Cochain(f.context, f.degree + 1, out)


def random_cochain(ctx, q, seed, density=0.4):
    rng = random.Random(seed)
    data = {}
    for tup in combinations(range(ctx.n), q):
        if rng.random() < density:
            data[tup] = {rng.randrange(ctx.m): F(rng.randint(-3, 3))}
    return Cochain(ctx, q, data)


def delta_cells(ctx, tup, k):
    """delta of the basis cochain (tup, k), its row codes decoded: the
    coded `delta_column` as {(tup', k'): coeff}, item order included."""
    return {ctx.cell(r): c for r, c in ctx.delta_column(ctx.code(tup, k)).items()}


def fraction_weights(ctx):
    """Whether some weight of the context's grading is a Fraction: the
    diagonal entry of a diagonal element's action on the module."""
    ctx = built(ctx)
    return any(isinstance(ctx.act[i][k][k], F)
               for i in reference_grading(ctx)[0] for k in ctx.act[i])


@pytest.fixture(scope="module")
def a2_seaweed(a2_fixture):
    return build_seaweed(a2_fixture, SeaweedSpec.make("A", 2, [], [1, 2]))


def test_coboundary_matches_slow_oracle(a2_seaweed):
    ctx = adjoint_context(a2_seaweed)
    for q in (0, 1, 2, 3):
        for seed in range(3):
            f = random_cochain(ctx, q, seed)
            assert coboundary(f) == slow_coboundary(f)


def test_delta_squared_zero_all_contexts(a2_seaweed, g2_fixture):
    contexts = [adjoint_context(a2_seaweed), nilradical_context(a2_seaweed),
                adjoint_context(seaweed_from_algebra(g2_fixture))]
    for ctx in contexts:
        for q in range(0, min(ctx.n, 4)):
            for tup in combinations(range(ctx.n), q):
                for k in range(ctx.m):
                    f = basis_cochain(ctx, tup, k)
                    assert coboundary(coboundary(f)).is_zero()


def test_delta_column_matches_coboundary(a2_seaweed):
    ctx = adjoint_context(a2_seaweed)
    for q in (1, 2, 3):
        for tup in combinations(range(ctx.n), q):
            for k in range(ctx.m):
                col = delta_cells(ctx, tup, k)
                ref = {key: c for key, c in
                       coboundary(basis_cochain(ctx, tup, k)).items()}
                assert col == ref


def test_g2_cocycle_condition_coefficients(g2_fixture):
    # the displayed 3-argument expansion pins the sign convention:
    # (delta f)(e2,e13,e14) has e2-coefficient 6c(13,14)13 - 4c(13,14)14
    sw = seaweed_from_algebra(g2_fixture)
    ctx = adjoint_context(sw)
    f_13 = basis_cochain(ctx, (1, 2), 1)
    f_14 = basis_cochain(ctx, (1, 2), 2)
    assert dict(coboundary(f_13).data[(0, 1, 2)]) == {0: 6}
    assert dict(coboundary(f_14).data[(0, 1, 2)]) == {0: -4}
    # remaining displayed coefficients: -(4 c(2,13)13 + 6 c(2,14)13) e13 etc.
    d = coboundary(basis_cochain(ctx, (0, 1), 1)).data[(0, 1, 2)]
    assert d.get(1, 0) == -4
    d = coboundary(basis_cochain(ctx, (0, 2), 1)).data[(0, 1, 2)]
    assert d.get(1, 0) == -6


def test_degree_zero_coboundary(g2_fixture):
    sw = seaweed_from_algebra(g2_fixture)
    ctx = adjoint_context(sw)
    v = basis_cochain(ctx, (), 0)  # e2
    d = coboundary(v)
    assert d.data[(1,)] == {0: -6}  # (delta e2)(e13) = [e13, e2] = -6 e2


def test_lie_derivative_invariance(a2_seaweed):
    nctx = nilradical_context(a2_seaweed)
    f2 = Cochain(nctx, 2, {(0, 1): {2: F(1)}})
    for gen in reductive_generators(a2_seaweed):
        assert lie_derivative(gen, f2).is_zero()


def test_lie_derivative_center_acts_trivially(g2_fixture):
    sw = seaweed_from_algebra(g2_fixture)
    ctx = adjoint_context(sw)
    z = {1: F(2), 2: F(3)}
    for q in (0, 1, 2):
        for seed in range(2):
            f = random_cochain(ctx, q, seed)
            assert lie_derivative(z, f).is_zero()


def test_lie_derivative_degree0(g2_fixture):
    sw = seaweed_from_algebra(g2_fixture)
    ctx = adjoint_context(sw)
    v = basis_cochain(ctx, (), 0)
    out = lie_derivative({1: F(1)}, v)   # e13 . e2 = [e13, e2] = -6 e2
    assert out.data == {(): {0: -6}}


def test_lie_derivative_matches_slow(a2_seaweed):
    # cross-check the sparse assembly against pointwise evaluation
    ctx = adjoint_context(a2_seaweed)
    rng = random.Random(1)
    for q in (1, 2):
        for seed in range(3):
            f = random_cochain(ctx, q, seed)
            x = {rng.randrange(len(ctx.domain)): F(rng.randint(1, 3))}
            xa = {next(iter(ctx.domain[i])): c for i, c in x.items()}
            got = lie_derivative(xa, f)
            tables = built(ctx)
            for tup in combinations(range(ctx.n), q):
                mu = {}
                val = evaluate(f, tup)
                for k, c in val.items():
                    for i, ci in x.items():
                        for k2, v in tables.act[i].get(k, {}).items():
                            mu[k2] = mu.get(k2, 0) + ci * c * v
                for pos in range(q):
                    for i, ci in x.items():
                        a, b = sorted((i, tup[pos]))
                        br = tables.dbr.get((a, b), {})
                        sign = 1 if a == i else -1
                        for u, cu in br.items():
                            val2 = evaluate(
                                f, tup[:pos] + (u,) + tup[pos + 1:])
                            for k, v in val2.items():
                                mu[k] = mu.get(k, 0) - sign * ci * cu * v
                mu = {k: v for k, v in mu.items() if v != 0}
                assert evaluate(got, tup) == mu


def contract(f, x):
    """i_x f: plug the domain basis index x into the first slot."""
    ctx = f.context
    out = {}
    for tup, vec in f.data.items():
        if x not in tup:
            continue
        pos = tup.index(x)
        rest = tup[:pos] + tup[pos + 1:]
        sign = -1 if pos % 2 else 1
        acc = out.setdefault(rest, {})
        for k, v in vec.items():
            acc[k] = acc.get(k, 0) + sign * v
    return Cochain(ctx, f.degree - 1, out)


def test_lie_derivative_commutator_identity(a2_seaweed):
    # [L_x, L_y] = L_[x,y]: the sharpest sign check available
    ctx = adjoint_context(a2_seaweed)
    amb = a2_seaweed.ambient
    members = [next(iter(v)) for v in ctx.domain]
    rng = random.Random(11)
    for q in (1, 2):
        for _ in range(4):
            x = {members[rng.randrange(5)]: F(rng.randint(1, 3))}
            y = {members[rng.randrange(5)]: F(rng.randint(-3, -1))}
            f = random_cochain(ctx, q, rng.randrange(999))
            lhs = lie_derivative(x, lie_derivative(y, f)).add(
                lie_derivative(y, lie_derivative(x, f)), -1)
            bracket = amb.bracket_vec(x, y)
            rhs = (lie_derivative(bracket, f) if bracket
                   else Cochain(ctx, q, {}))
            assert lhs == rhs


def test_cartan_magic_formula(a2_seaweed):
    # L_x = i_x delta + delta i_x for x in the domain algebra
    ctx = adjoint_context(a2_seaweed)
    members = [next(iter(v)) for v in ctx.domain]
    rng = random.Random(13)
    for q in (1, 2, 3):
        for _ in range(3):
            pos = rng.randrange(5)
            f = random_cochain(ctx, q, rng.randrange(999))
            lhs = lie_derivative({members[pos]: F(1)}, f)
            rhs = contract(coboundary(f), pos).add(coboundary(contract(f, pos)))
            assert lhs == rhs


def test_coboundary_equivariance(a2_seaweed):
    # delta commutes with every domain Lie derivative
    ctx = adjoint_context(a2_seaweed)
    members = [next(iter(v)) for v in ctx.domain]
    rng = random.Random(17)
    for q in (0, 1, 2):
        for _ in range(3):
            x = {members[rng.randrange(5)]: F(rng.randint(1, 2))}
            f = random_cochain(ctx, q, rng.randrange(999))
            assert coboundary(lie_derivative(x, f)) == \
                lie_derivative(x, coboundary(f))


def test_invariant_cochains_examples(a2_seaweed):
    nctx = nilradical_context(a2_seaweed)
    inv1 = invariant_cochains(nctx, 1)
    assert len(inv1) == 3
    for f in inv1:
        for tup, vec in f.data.items():
            assert set(vec) == {tup[0]}   # diagonal: g(e_i) = c_i e_i
    inv2 = invariant_cochains(nctx, 2)
    assert len(inv2) == 1
    assert inv2[0].data == {(0, 1): {2: F(1)}}
    # with no generators every cochain is invariant
    bare = ComplexContext(nctx.ambient, nctx.domain, nctx.module, levi=[])
    assert len(invariant_cochains(bare, 1)) == nctx.dim_cochains(1)


def test_cohomology_dims_examples(a2_seaweed, g2_fixture):
    ctx = adjoint_context(a2_seaweed)
    for q in range(0, 6):
        assert ctx.cohomology_dims(q).cohomology == 0
    swg = seaweed_from_algebra(g2_fixture)
    gctx = adjoint_context(swg)
    assert gctx.cohomology_dims(2).cohomology == 1
    assert tuple(gctx.cohomology_dims(99)) == (0, 0, 0)
    assert tuple(gctx.cohomology_dims(2)) == (6, 5, 1)


def test_invariant_cohomology_examples(a2_seaweed, g2_fixture):
    nctx = nilradical_context(a2_seaweed)
    dims2 = invariant_cohomology_dims(nctx, 2)
    assert tuple(dims2) == (1, 1, 0)
    assert dims2.coboundaries_match_full
    dims0 = invariant_cohomology_dims(nctx, 0)
    assert dims0.cohomology == 0    # = dim Z(s) for this indecomposable

    swg = seaweed_from_algebra(g2_fixture)
    gctx = nilradical_context(swg)
    d0 = invariant_cohomology_dims(gctx, 0)
    assert d0.cohomology == 1       # = dim Z(s) for the decomposable example


def test_fixture_vs_canonical_dims_agree(a2_fixture):
    # cohomology dimensions are convention-independent: the published basis
    # and the canonical construction give the same tables
    spec = SeaweedSpec.make("A", 2, [], [1, 2])
    sw_f = build_seaweed(a2_fixture, spec)
    sw_c = build_seaweed(_ambient("A", 2), spec)
    for q in range(6):
        assert tuple(adjoint_context(sw_f).cohomology_dims(q)) == \
            tuple(adjoint_context(sw_c).cohomology_dims(q))
    for q in range(4):
        df = invariant_cohomology_dims(nilradical_context(sw_f), q)
        dc = invariant_cohomology_dims(nilradical_context(sw_c), q)
        assert tuple(df) == tuple(dc)


def test_basis_independence_rescaled(a2_fixture):
    sw = build_seaweed(a2_fixture, SeaweedSpec.make("A", 2, [], [1, 2]))
    dims = [tuple(adjoint_context(sw).cohomology_dims(q)) for q in range(6)]
    rng = random.Random(5)
    scalars = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(8)]
    L2 = a2_fixture.rescaled(scalars)
    sw2 = build_seaweed(L2, SeaweedSpec.make("A", 2, [], [1, 2]))
    dims2 = [tuple(adjoint_context(sw2).cohomology_dims(q)) for q in range(6)]
    assert dims == dims2


def test_action_closure_rejected(a2_fixture):
    # a module not closed under the domain action is refused
    with pytest.raises(ValueError):
        ComplexContext(a2_fixture, [{0: F(1)}], [{1: F(1)}])


def test_indecomposable_vanishing_sweep(sweep_reports):
    for (t, r), rows in sweep_reports.items():
        for spec, sw, rep in rows:
            if rep["indecomposable"]:
                assert all(row["cohomology"] == 0
                           for row in rep["cohomology"]), (t, r, spec)


EXPONENTS = {
    "A": lambda k: range(1, k + 1),
    "B": lambda k: range(1, 2 * k, 2),
    "C": lambda k: range(1, 2 * k, 2),
    "D": lambda k: list(range(1, 2 * k - 2, 2)) + [k - 1],
    "E": lambda k: {6: (1, 4, 5, 7, 8, 11), 7: (1, 5, 7, 9, 11, 13, 17),
                    8: (1, 7, 11, 13, 17, 19, 23, 29)}[k],
    "F": lambda k: (1, 5, 7, 11),
    "G": lambda k: (1, 5),
}


def reductive_betti(spec):
    """Betti numbers of r = h + the Levi factor of pi1 & pi2: the product
    of (1+t)^(rank - |pi1 & pi2|), for the center of r, and
    prod (1+t^(2m+1)) over the exponents m of each simple component."""
    rs = _cached_build(spec.type_label, spec.rank)
    both = spec.pi1 & spec.pi2
    edges = {(i + 1, j + 1) for i, j, _ in rootsystem.dynkin_edges(rs)}
    poly = [1]
    factors = [1] * (spec.rank - len(both))
    seen = set()
    for start in sorted(both):
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            v = stack.pop()
            if v not in comp:
                comp.add(v)
                stack.extend(w for w in both if (min(v, w), max(v, w)) in edges)
        seen |= comp
        type_label, _ = _classify_subdiagram(rs, sorted(comp))
        factors += [2 * m + 1 for m in EXPONENTS[type_label](len(comp))]
    for d in factors:               # multiply by 1 + t^d
        poly = [a + (poly[i - d] if i >= d else 0)
                for i, a in enumerate(poly + [0] * d)]
    return poly


def test_adjoint_cohomology_is_center_times_reductive_betti(sweep_reports):
    # H^q(s, s) = Z(s) (x) H^q(r): dim Z(s) * b_q(r) at every computed q
    nonzero = 0
    for (t, r), rows in sweep_reports.items():
        for spec, sw, rep in rows:
            betti = reductive_betti(spec)
            zdim = rep["dims"]["center"]
            # rank factors 1 + t^d, and the top degree is dim r
            assert sum(betti) == 2 ** spec.rank
            assert len(betti) == len(sw.reductive) + 1
            for row in rep["cohomology"]:
                q = row["q"]
                expect = zdim * (betti[q] if q < len(betti) else 0)
                assert row["cohomology"] == expect, (t, r, spec, q)
                nonzero += expect != 0
    assert nonzero > 100


def test_invariant_vanishing_sweep(sweep_reports):
    for (t, r), rows in sweep_reports.items():
        for spec, sw, rep in rows:
            for row in rep["invariant_cohomology"]:
                assert row["cohomology"] == 0, (t, r, spec, row)
            assert not any(d["code"] == "invariant_coboundary_mismatch"
                           for d in rep["discrepancies"])


# -- the Cartan-formula shortcut: nonzero weight blocks are acyclic ----------

def assert_dims_match_ungraded(ctx, max_degree):
    """cohomology_dims(q) equals (Z, B, H) eliminated over every delta
    column of C^q and C^(q-1), with no grading."""
    ranks = [sparse_rank([ctx.delta_column(ctx.code(tup, k))
                          for tup in combinations(range(ctx.n), q)
                          for k in range(ctx.m)])
             for q in range(max_degree + 1)]
    for q in range(max_degree + 1):
        z = ctx.dim_cochains(q) - ranks[q]
        b = ranks[q - 1] if q else 0
        assert tuple(ctx.cohomology_dims(q)) == (z, b, z - b), q


def test_only_weight_zero_is_eliminated(monkeypatch):
    eliminated = []
    delta_column = ComplexContext.delta_column

    def recording(self, code):
        eliminated.append((self, code))
        return delta_column(self, code)

    monkeypatch.setattr(ComplexContext, "delta_column", recording)
    # decomposable: the (Q,s) context differs from the adjoint one
    sw = build_seaweed(_ambient("A", 2), SeaweedSpec.make("A", 2, [1], [1]))
    contexts = {adjoint_context(sw), quotient_context(split_over_center(sw))}
    classes = 0
    for ctx in contexts:
        for q in range(ctx.n + 1):
            h = ctx.cohomology_dims(q).cohomology
            # the class representatives eliminate weight zero only, too
            classes += len(_class_representatives(ctx, q, h))
    monkeypatch.undo()
    assert classes > 0
    assert {ctx for ctx, _ in eliminated} == contexts
    for ctx, code in eliminated:
        tup, k = ctx.cell(code)
        assert code in ctx.basis_by_grade(len(tup)).get(0, ()), (tup, k)


def test_adjoint_rows_build_only_the_kept_columns(monkeypatch):
    # cohomology_dims builds delta once for each weight-zero cochain off the
    # pivot rows of the degree below, sum_q dim C^q_0 - rank delta_(q-1)|_0
    # columns, over the acceptance pool at verify's degrees
    built = Counter()
    delta_column = ComplexContext.delta_column
    monkeypatch.setattr(ComplexContext, "delta_column", lambda self, code:
                        built.update([code]) or delta_column(self, code))
    saved = 0
    for t, r in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
        for spec in _all_specs(t, r):
            if spec.rank != r:
                continue
            sw = build_seaweed(_ambient(t, r), spec)
            ctx, cap = adjoint_context(sw), _degree_cap(sw, None)
            built.clear()
            ctx.cohomology_dims(cap)
            ranks = [0] + [ctx._rank_cache[q][1] for q in range(cap + 1)]
            assert set(built.values()) == {1} and len(built) == sum(
                len(ctx.zero_basis(q)) - ranks[q] for q in range(cap + 1))
            saved += sum(ranks[:-1])
    assert saved > 500


@pytest.mark.parametrize("type_label,rank",
                         [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_derived_block_ranks_sweep(type_label, rank):
    # Z and B by rank-nullity from weight zero equal the ungraded elimination
    for spec in _all_specs(type_label, rank):
        if spec.rank != rank:
            continue
        sw = build_seaweed(_ambient(type_label, rank), spec)
        for ctx in (adjoint_context(sw),
                    quotient_context(split_over_center(sw))):
            # all degrees, except for the whole G2 algebra (dim 14, minutes
            # of elimination): there the degrees verify computes, q <= 3
            assert_dims_match_ungraded(ctx, ctx.n if ctx.n <= 10 else 3)


def test_derived_block_ranks_rescaled_fixture(a2_fixture):
    # Cartan elements rescaled by p/q: the weights are exact Fractions
    rng = random.Random(5)
    scalars = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(8)]
    sw = build_seaweed(a2_fixture.rescaled(scalars),
                       SeaweedSpec.make("A", 2, [], [1, 2]))
    ctx = adjoint_context(sw)
    assert fraction_weights(ctx)
    assert_dims_match_ungraded(ctx, ctx.n)


def test_impossible_zero_block_rank_raises():
    # a cached weight-zero rank that no complex has: 99 at q = 1 makes
    # H^1 < 0, -99 at q = 0 makes B^1 = dim C^0 - dim Z^0 < 0.  It is an
    # InvariantError, not an assert, so it fires under python -O too
    spec = SeaweedSpec.make("A", 2, [], [1, 2])
    for q, rank in ((1, 99), (0, -99)):
        ctx = adjoint_context(build_seaweed(_ambient("A", 2), spec))
        ctx._rank_cache[q] = (_invariant_block(ctx, q)[0], rank)
        with pytest.raises(InvariantError):
            ctx.cohomology_dims(1)


def test_cohomology_dims_memoized_per_degree(monkeypatch):
    # each degree of a context is counted, guarded and eliminated once,
    # from degree 0 up whatever degree is asked first, and asked again it
    # returns the same row; a fresh context asked degree by degree agrees
    calls, real = Counter(), cochain._cleared_echelon

    def counted(ctx, q):
        calls[ctx, q] += 1
        return real(ctx, q)

    monkeypatch.setattr(cochain, "_cleared_echelon", counted)
    rows = 0
    for t, r in (("A", 2), ("B", 2)):
        for spec in _all_specs(t, r):
            if spec.rank != r:
                continue
            sw = build_seaweed(_ambient(t, r), spec)
            ctx = adjoint_context(sw)
            fresh = ComplexContext(sw.ambient, ctx.domain, ctx.module)
            down = [ctx.cohomology_dims(q) for q in reversed(range(ctx.n + 1))]
            up = [fresh.cohomology_dims(q) for q in range(ctx.n + 1)]
            assert down[::-1] == up, spec
            assert all(ctx.cohomology_dims(q) is row
                       for q, row in enumerate(down[::-1]))
            for c in (ctx, fresh):
                assert {q: n for (i, q), n in calls.items() if i is c} \
                    == dict.fromkeys(range(ctx.n + 1), 1), spec
            rows += len(up)
    assert rows > 100


def test_impossible_invariant_rank_raises():
    # the guard on the Levi-invariant rows of C(n, s): a rank cached for
    # degree 2 above the number of invariant 2-cochains makes H^2 < 0.  It
    # is an InvariantError, not an assert, so it fires under python -O too
    spec = SeaweedSpec.make("A", 2, [], [1, 2])
    ctx = nilradical_context(build_seaweed(_ambient("A", 2), spec))
    cochains = _invariant_entry(ctx, 2)[0]
    assert len(cochains) == 1
    ctx._invariant_cache[2] = [cochains,
                               SimpleNamespace(rank=len(cochains) + 1)]
    with pytest.raises(InvariantError, match="negative invariant cohomology"):
        invariant_cohomology_dims(ctx, 2)


def test_impossible_cleared_pivot_rows_raise():
    # the weight-zero rank at q = 2 skips the cochains at the cached pivot
    # rows of delta_1.  delta keeps the weight, so a pivot row outside
    # zero_basis(2), or a row count other than the cached rank delta_1,
    # cannot happen; a forged cache raises an InvariantError, which fires
    # under python -O too
    spec = SeaweedSpec.make("A", 2, [], [1, 2])
    for forge in ("outside", "missing", "repeated"):
        ctx = adjoint_context(build_seaweed(_ambient("A", 2), spec))
        dim, rank = _invariant_block(ctx, 1)
        rows = list(ctx._rank_cache[1][2])
        assert len(rows) == rank > 1
        if forge == "outside":
            rows[0] = next(c for grade, cs in ctx.basis_by_grade(2).items()
                           if grade for c in cs)
        else:
            rows[0] = rows[1] if forge == "repeated" else rows.pop()
        ctx._rank_cache[1] = (dim, rank, rows)
        with pytest.raises(InvariantError, match="pivot rows of delta_1"):
            ctx.cohomology_dims(2)


def assert_block_cleared(ctx, q):
    """The weight-zero block of C^q, built after that of C^(q-1): its
    cleared cochains are the pivot rows of delta_(q-1), rank delta_(q-1) of
    them in zero_basis(q); each cleared column lies in the span of the kept
    ones, and the cleared rank is the rank of all the block's columns."""
    dim, rank = _invariant_block(ctx, q)
    basis = ctx.zero_basis(q)
    cols = list(map(ctx.delta_column, basis))
    cleared = set(ctx._rank_cache[q - 1][2]) if q else set()
    assert cleared <= set(basis), q
    assert len(cleared) == _invariant_block(ctx, q - 1)[1], q
    kept = Echelon(c for b, c in zip(basis, cols) if b not in cleared)
    assert not any(kept.add(c) for b, c in zip(basis, cols)
                   if b in cleared), q
    assert (dim, rank) == (len(basis), kept.rank) and rank == sparse_rank(
        cols), q


def test_clearing_is_sound_on_sweeps(a2_fixture):
    # every degree on the acceptance pool (whole B2 included) and the A3
    # sweep, except whole G2 and whole A3 (dim 14 and 15; whole A3 is the
    # test below), which take verify's degrees as the B3 and C3 sweeps do;
    # C^*(s, s) and C^*(Q, s) of each spec, and the rescaled A2 fixture
    contexts = 0
    for t, r in [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3),
                 ("B", 3), ("C", 3)]:
        for spec in _all_specs(t, r):
            if spec.rank != r:
                continue
            sw = build_seaweed(_ambient(t, r), spec)
            every = (t, r) not in {("B", 3), ("C", 3)} and sw.dim < 14
            for ctx in (adjoint_context(sw),
                        quotient_context(split_over_center(sw))):
                for q in range(ctx.n + 1 if every else
                               _degree_cap(sw, None) + 1):
                    assert_block_cleared(ctx, q)
                contexts += 1
    assert contexts == 2 * (4 + 3 * 16 + 3 * 64)
    rng = random.Random(5)
    scalars = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(8)]
    sw = build_seaweed(a2_fixture.rescaled(scalars),
                       SeaweedSpec.make("A", 2, [], [1, 2]))
    ctx = adjoint_context(sw)
    assert fraction_weights(ctx)
    for q in range(ctx.n + 1):
        assert_block_cleared(ctx, q)


@pytest.mark.parametrize("type_label,rank", [("B", 2), ("A", 3)])
def test_clearing_is_sound_whole_algebra(type_label, rank):
    # Whitehead: H^q(g, g) = 0, so rank delta_q|_0 = sum_{i<=q} (-1)^(q-i)
    # dim C^i_0 is the rank of all the block's columns; the cleared rank
    # equals it in every degree, which puts each cleared column in the span
    # of the kept ones.  Blocks below 1,000 columns are also eliminated
    # whole (whole A3's middle degrees take seconds each that way)
    nodes = range(1, rank + 1)
    ctx = adjoint_context(build_seaweed(
        _ambient(type_label, rank),
        SeaweedSpec.make(type_label, rank, nodes, nodes)))
    euler = 0
    for q in range(ctx.n + 1):
        dim, rank_q = _invariant_block(ctx, q)
        euler = dim - euler
        assert rank_q == euler, q
        assert len(ctx._rank_cache[q][2]) == rank_q, q
        if dim < 1000:
            assert_block_cleared(ctx, q)
    assert euler == 0


def levi_adjoint_context(sw):
    """C^*(s, s) carrying the Levi generators of sw, which `adjoint_context`
    does not: the Hochschild-Serre oracle for its weight-zero rows."""
    units = [{i: 1} for i in sw.member]
    return ComplexContext(sw.ambient, units, units,
                          levi=reductive_generators(sw))


def levi_block(ctx, q):
    """(dim, rank of delta_q) of the Levi invariants of ctx in degree q."""
    return len(invariant_cochains(ctx, q)), invariant_coboundaries(ctx, q).rank


@pytest.mark.parametrize("type_label,rank,max_degree",
                         [("B", 2, 10), ("A", 3, 4), ("G", 2, 5)])
def test_whitehead_whole_algebra(type_label, rank, max_degree):
    # Whitehead: H^q(g, g) = 0 in every degree for simple g.  Every block
    # is then acyclic, the weight-zero one and the Levi-invariant one of
    # the oracle context too, so the rank eliminated on each is
    # sum_{i<=q} (-1)^(q-i) dim I^i: an oracle for both past q = 3, where
    # verify stops for dim s > 8 (B2 here in every degree)
    nodes = range(1, rank + 1)
    sw = build_seaweed(_ambient(type_label, rank),
                       SeaweedSpec.make(type_label, rank, nodes, nodes))
    ctx, levi = adjoint_context(sw), levi_adjoint_context(sw)
    for q in range(max_degree + 1):
        assert ctx.cohomology_dims(q).cohomology == 0, q
        for block in (partial(_invariant_block, ctx),
                      partial(levi_block, levi)):
            dims = [block(i)[0] for i in range(q + 1)]
            euler = sum((-1) ** (q - i) * d for i, d in enumerate(dims))
            assert block(q) == (dims[q], euler), q
        assert dims[q] <= len(ctx.zero_basis(q)) == \
            _invariant_block(ctx, q)[0], q


def test_euler_characteristic_sweep(sweep_reports):
    # sum_q (-1)^q dim H^q(s,s) = sum_q (-1)^q dim C^q(s,s) = 0
    checked = 0
    for (t, r), rows in sweep_reports.items():
        for spec, sw, rep in rows:
            rows_h = rep["cohomology"]
            if [row["q"] for row in rows_h] != list(range(sw.dim + 1)):
                continue
            assert sum((-1) ** row["q"] * row["cohomology"]
                       for row in rows_h) == 0, (t, r, spec)
            checked += 1
    assert checked > 0


# -- the grading: one diagonal test and one weight extraction ------------------

def reference_grading(ctx):
    """(diagonal indices, domain weights, module weights) as first computed:
    a domain element is diagonal when every bracket with it stays on the
    line of the other factor, read off dbr entry by entry, and its weight on
    d_j is the d_j-coefficient of [d_i, d_j], negated when dbr stores
    [d_j, d_i]."""
    def exact(x):
        return int(x) if x.denominator == 1 else x

    diag = []
    for i in range(ctx.n):
        ok = all(not (a == i and set(vec) - {b}) and
                 not (b == i and set(vec) - {a})
                 for (a, b), vec in ctx.dbr.items())
        if ok and all(not set(vec) - {k} for k, vec in ctx.act[i].items()):
            diag.append(i)
    dom = []
    for j in range(ctx.n):
        w = []
        for i in diag:
            a, b = min(i, j), max(i, j)
            c = 0 if i == j else ctx.dbr.get((a, b), {}).get(j, 0)
            w.append(exact(c if a == i else -c))
        dom.append(tuple(w))
    mod = [tuple(exact(ctx.act[i].get(k, {}).get(k, 0)) for i in diag)
           for k in range(ctx.m)]
    return diag, dom, mod


def reference_basis_by_grade(ctx, q, grading):
    """basis_by_grade(q) as first computed: (tup, k) under the weight of k
    minus the weights summed over tup, in increasing (tup, k) order."""
    diag, dom, mod = grading
    out = {}
    for tup in combinations(range(ctx.n), q):
        dsum = [sum(dom[j][c] for j in tup) for c in range(len(diag))]
        for k, mw in enumerate(mod):
            grade = tuple(m - d for m, d in zip(mw, dsum))
            out.setdefault(grade, []).append((tup, k))
    return out


def same_pattern(codes, weights):
    """Whether the codes are equal exactly where the weights are."""
    return ([[a == b for b in codes] for a in codes]
            == [[a == b for b in weights] for a in weights])


def assert_grading_matches_reference(ctx):
    """The grading of ctx against the reference one of the complex built on
    its bases: its diagonal domain elements without levi, whose others'
    tables are `_general`, and the diagonally acting Levi generators with
    it.  A view grades by the torus of C(g, g) instead, with the same
    blocks."""
    if ctx.levi is None:
        ref = built(ctx)
        grading = reference_grading(ref)
        assert [a_mod for _, a_mod in ref._general] == \
            [ref.act[i] for i in range(ref.n) if i not in grading[0]]
    else:
        dom, mod, width = reference_levi_weights(ctx)
        grading = (range(width), dom, mod)
        assert len(ctx._general) == len(ctx.levi) - width
    diag, dom, mod = grading
    assert same_pattern(ctx._dom_weights + ctx._mod_weights, dom + mod)
    zero = (0,) * len(diag)
    for q in range(min(ctx.n, 3) + 1):
        got = ctx.basis_by_grade(q)
        ref = reference_basis_by_grade(ctx, q, grading)
        # the same blocks, in the order of the grades and within each block
        assert [list(map(ctx.cell, block)) for block in got.values()] == \
            list(ref.values()), q
        # the weight-zero block of cohomology_dims, in the same order
        assert ctx.zero_basis(q) == got.get(0, []), q
        assert list(map(ctx.cell, ctx.zero_basis(q))) == ref.get(zero, []), q


@pytest.mark.parametrize("type_label,rank",
                         [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_grading_matches_reference(type_label, rank):
    for spec in _all_specs(type_label, rank):
        if spec.rank != rank:
            continue
        sw = build_seaweed(_ambient(type_label, rank), spec)
        for ctx in (adjoint_context(sw), nilradical_context(sw),
                    quotient_context(split_over_center(sw))):
            assert_grading_matches_reference(ctx)


def test_grading_matches_reference_rescaled_fixture(a2_fixture):
    rng = random.Random(5)
    scalars = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(8)]
    L2 = a2_fixture.rescaled(scalars)
    for pi2 in ([1, 2], [1], []):
        sw = build_seaweed(L2, SeaweedSpec.make("A", 2, [], pi2))
        for ctx in (adjoint_context(sw), nilradical_context(sw),
                    quotient_context(split_over_center(sw))):
            assert_grading_matches_reference(ctx)
    ctx = adjoint_context(build_seaweed(L2, SeaweedSpec.make("A", 2, [], [1, 2])))
    assert fraction_weights(ctx)


# -- packed weights and the depth-first walk ----------------------------------

def reference_weight_matches(n, q, dom_weights, mod_weights, width):
    """`_weight_matches` before the packing: the (tup, k) over
    combinations(range(n), q), with the weight vectors of tup summed
    componentwise and looked up among the module weights."""
    mod_by_weight = {}
    for k, w in enumerate(mod_weights):
        mod_by_weight.setdefault(w, []).append(k)
    out = []
    for tup in combinations(range(n), q):
        total = (0,) * width
        for j in tup:
            total = tuple(a + b for a, b in zip(total, dom_weights[j]))
        out += [(tup, k) for k in mod_by_weight.get(total, ())]
    return out


def reference_levi_weights(ctx):
    """(domain weights, module weights, width) of the diagonally acting
    generators of ctx.levi, from the reference action tables."""
    diag = []
    for g in ctx.levi:
        a_dom, a_mod = reference_action_tables(ctx, g)
        if (all(set(col) == {u} for u, col in a_dom.items())
                and all(set(col) == {k} for k, col in a_mod.items())):
            diag.append((a_dom, a_mod))
    dom = [tuple(a_dom.get(u, {}).get(u, 0) for a_dom, _ in diag)
           for u in range(ctx.n)]
    mod = [tuple(a_mod.get(k, {}).get(k, 0) for _, a_mod in diag)
           for k in range(ctx.m)]
    return dom, mod, len(diag)


def assert_walk_matches_reference(sw, max_degree):
    """zero_basis of C(s, s) and the Levi candidates of C(n, s) equal the
    combinations walk over the reference weights, order included."""
    adj, nil = adjoint_context(sw), nilradical_context(sw)
    diag, dom, mod = reference_grading(built(adj))
    levi = reference_levi_weights(nil)
    for q in range(min(adj.n, max_degree) + 1):
        assert list(map(adj.cell, adj.zero_basis(q))) == \
            reference_weight_matches(adj.n, q, dom, mod, len(diag)), q
    for q in range(nil.n + 1):
        assert list(map(nil.cell, nil.zero_basis(q))) == \
            reference_weight_matches(nil.n, q, *levi), q


@pytest.mark.parametrize("type_label,rank",
                         [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                          ("C", 3), ("G", 2)])
def test_walk_matches_combinations_reference(type_label, rank):
    # every degree up to verify's cap (q <= 3 once dim s > 8) for C(s, s),
    # and every degree of C(n, s)
    for spec in _all_specs(type_label, rank):
        if spec.rank == rank:
            sw = build_seaweed(_ambient(type_label, rank), spec)
            assert_walk_matches_reference(sw, _degree_cap(sw, None))


def test_walk_matches_combinations_reference_rescaled_fixture(a2_fixture):
    rng = random.Random(5)
    scalars = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(8)]
    L2 = a2_fixture.rescaled(scalars)
    for pi1, pi2 in (([], [1, 2]), ([1], [1, 2]), ([], [1])):
        sw = build_seaweed(L2, SeaweedSpec.make("A", 2, pi1, pi2))
        assert fraction_weights(adjoint_context(sw))
        assert_walk_matches_reference(sw, sw.dim)


def diagonal_tables(dom, mod):
    """The (a_dom, a_mod) tables of diagonal elements with these weights:
    element c scales domain index u by dom[u][c], module index k by
    mod[k][c]."""
    return [({u: {u: w[c]} for u, w in enumerate(dom) if w[c]},
             {k: {k: w[c]} for k, w in enumerate(mod) if w[c]})
            for c in range(len(dom[0]))]


def test_packing_is_injective_at_the_bound():
    # components at +-M: M = n * 3 + 5 with n = 3 domain weights of
    # components up to 3 in size and module weights up to 5; all three
    # domain weights and the first module weight reach (M, -M, 1).  With
    # base 2M + 1 the codes of every module weight plus at most n domain
    # weights are equal exactly where the vectors are; base 2M is refused
    dom = [(3, -3, 3), (3, -3, -3), (3, -3, 1)]
    mod = [(5, -5, 0), (-5, 5, 2), (0, 0, -5), (5, 5, 5)]
    bound = len(dom) * 3 + 5
    ctx = SimpleNamespace(n=len(dom), m=len(mod))
    tables = diagonal_tables(dom, mod)
    dom_codes, mod_codes = _pack(ctx, tables, 1, 2 * bound + 1)
    sums = {}
    for q in range(len(dom) + 1):
        for tup in combinations(range(len(dom)), q):
            for k in range(len(mod)):
                vec = tuple(mod[k][c] + sum(dom[j][c] for j in tup)
                            for c in range(3))
                code = mod_codes[k] + sum(dom_codes[j] for j in tup)
                sums.setdefault(vec, set()).add(code)
    assert (bound, -bound, 1) in sums
    assert all(len(codes) == 1 for codes in sums.values())
    assert len({c for codes in sums.values() for c in codes}) == len(sums)
    with pytest.raises(InvariantError, match="weight base"):
        _pack(ctx, tables, 1, 2 * bound)
    # Fraction weights are scaled to ints first: halves, scale 2
    halves = [[F(x, 2) for x in w] for w in dom]
    assert _pack(ctx, diagonal_tables(halves, mod), 2, 2 * (2 * bound) + 1) \
        != _pack(ctx, tables, 1, 2 * bound + 1)
    with pytest.raises(InvariantError, match="weight base"):
        _pack(ctx, diagonal_tables(halves, mod), 2, 2 * bound)


def test_impossible_packing_base_raises():
    # forged weights, a million times the A2 ones, packed with the base
    # chosen for the real ones: sums of them could collide, so the bound
    # check raises an InvariantError, which fires under python -O too
    ctx = adjoint_context(build_seaweed(_ambient("A", 2),
                                        SeaweedSpec.make("A", 2, [1, 2],
                                                         [1, 2])))
    _, dom, mod = reference_grading(built(ctx))
    top = max(abs(x) for w in dom + mod for x in w)
    base = 1 << top.bit_length() + ctx.n.bit_length() + 1
    tables = diagonal_tables(dom, mod)
    assert _pack(ctx, tables, 1, base) == (ctx._dom_weights, ctx._mod_weights)
    forged = diagonal_tables([[x * 10 ** 6 for x in w] for w in dom], mod)
    with pytest.raises(InvariantError, match="weight base"):
        _pack(ctx, forged, 1, base)


# -- the invariant-cochain candidate filter ------------------------------------

def brute_force_candidates(ctx, q):
    """The filter as first written: per (tup, k) and diagonal generator of
    `ctx.levi`, the Fraction weight of k minus those summed over tup."""
    diag = []
    for g in ctx.levi:
        a_dom, a_mod = reference_action_tables(ctx, g)
        if (all(set(col) == {u} for u, col in a_dom.items())
                and all(set(col) == {k} for k, col in a_mod.items())):
            diag.append((a_dom, a_mod))
    out = []
    for tup in combinations(range(ctx.n), q):
        for k in range(ctx.m):
            if all(F(a_mod.get(k, {}).get(k, 0))
                   - sum((F(a_dom.get(t, {}).get(t, 0)) for t in tup), F(0)) == 0
                   for a_dom, a_mod in diag):
                out.append((tup, k))
    return out


@pytest.mark.parametrize("type_label,rank",
                         [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_invariant_candidates_match_brute_force(type_label, rank):
    for spec in _all_specs(type_label, rank):
        if spec.rank != rank:
            continue
        sw = build_seaweed(_ambient(type_label, rank), spec)
        for ctx in (nilradical_context(sw), levi_adjoint_context(sw)):
            assert ctx.levi == reductive_generators(sw)
            for q in range(min(3, ctx.n) + 1):
                got = list(map(ctx.cell, ctx.zero_basis(q)))
                assert got == brute_force_candidates(ctx, q), (spec, q)
            # the Cartan acts diagonally
            assert len(ctx._general) < len(ctx.levi)


def test_invariant_candidates_rescaled_fixture(a2_fixture):
    # Fraction weights: the grouped filter must compare them exactly
    rng = random.Random(5)
    scalars = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(8)]
    sw = build_seaweed(a2_fixture.rescaled(scalars),
                       SeaweedSpec.make("A", 2, [], [1, 2]))
    assert fraction_weights(adjoint_context(sw))
    for ctx in (nilradical_context(sw), levi_adjoint_context(sw)):
        for q in range(ctx.n + 1):
            assert list(map(ctx.cell, ctx.zero_basis(q))) == \
                brute_force_candidates(ctx, q), q


def _insert(tup, x):
    """(tup with x inserted in order, the position of x), as the
    differential and the L_x columns first placed indices."""
    lst = list(tup)
    insort(lst, x)
    return tuple(lst), lst.index(x)


def reference_lie_derivative(x_vec, f):
    """The Lie derivative as first written, a loop over the action tables
    and every domain index per argument slot."""
    ctx = f.context
    a_dom, a_mod = reference_action_tables(ctx, x_vec)
    out = {}
    for tup, vec in f.data.items():
        mu = {}
        for k, c in vec.items():
            if a_mod.get(k):
                vec_add(mu, a_mod[k], c)
        if mu:
            vec_add(out.setdefault(tup, {}), mu)
        for tpos, t in enumerate(tup):
            rest = tup[:tpos] + tup[tpos + 1:]
            for u in range(ctx.n):
                c = a_dom.get(u, {}).get(t, 0)
                if c == 0 or u in rest:
                    continue
                if u == t:
                    vec_add(out.setdefault(tup, {}), vec, -c)
                    continue
                s, pu = _insert(rest, u)
                sign = -1 if (tpos + pu) % 2 else 1
                vec_add(out.setdefault(s, {}), vec, -sign * c)
    return Cochain(ctx, f.degree, out)


def reference_lie_columns(ctx, candidates, generators):
    """The L_x columns as first built: the Lie derivative of each candidate
    basis cochain, stacked over the generators."""
    cols = []
    for tup, k in candidates:
        f = basis_cochain(ctx, tup, k)
        cols.append({(gi, t, k2): c for gi, g in enumerate(generators)
                     for (t, k2), c in reference_lie_derivative(g, f).items()})
    return cols


def decoded_lie_columns(ctx, cols):
    """Coded L_x columns with their rows decoded to (generator position,
    tup, k) and their zero entries dropped, in row order."""
    out = []
    for col in cols:
        rows = {}
        for key, c in col.items():
            gi, code = divmod(key, ctx._stride << ctx.base.n)
            if c != 0:
                rows[(gi, *ctx.cell(code))] = c
        out.append(rows)
    return out


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_lie_columns_match_lie_derivative(type_label, rank):
    # every basis cochain of C^q, q <= 2, under the Levi generators, all of
    # r and a non-unit generator: the same nonzero entries and value types
    # (zero entries may remain; they change no kernel relation)
    checked = 0
    for spec in _all_specs(type_label, rank):
        if spec.rank != rank:
            continue
        sw = build_seaweed(_ambient(type_label, rank), spec)
        mixed = {i: F(2 * j + 1, 3) for j, i in enumerate(sw.reductive)}
        gens = (list(reductive_generators(sw)) + [{i: 1} for i in sw.reductive]
                + [mixed])
        for ctx in (nilradical_context(sw), adjoint_context(sw)):
            for q in range(min(2, ctx.n) + 1):
                cells = [(tup, k) for tup in combinations(range(ctx.n), q)
                         for k in range(ctx.m)]
                tables = [action_tables(ctx, g) for g in gens]
                got = decoded_lie_columns(ctx, _lie_columns(
                    ctx, [ctx.code(*cell) for cell in cells], tables))
                want = reference_lie_columns(ctx, cells, gens)
                assert [sorted(c.items()) for c in got] == \
                    [sorted(c.items()) for c in want], (spec, q)
                assert [sorted(map(repr, c.values())) for c in got] == \
                    [sorted(map(repr, c.values())) for c in want]
                checked += sum(map(len, got))
                f = random_cochain(ctx, q, len(cells))
                for g in gens:
                    assert lie_derivative(g, f) == reference_lie_derivative(g, f)
    assert checked > 1000


@pytest.mark.parametrize("type_label,rank",
                         [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("A", 4)])
def test_coded_lie_columns_match_reference(type_label, rank):
    # the L_x columns that the invariants are the kernel of: the coded rows
    # of C(n, s)'s candidates under its non-diagonal Levi generators,
    # decoded, give the reference columns entry for entry, signs, value
    # types and row order included, in every degree (A4: its orbits)
    specs = (orbit_representatives("A", 4) if rank == 4 else
             [s for s in _all_specs(type_label, rank) if s.rank == rank])
    checked = 0
    for spec in specs:
        ctx = nilradical_context(build_seaweed(_ambient(type_label, rank),
                                               spec))
        general = [x for x in ctx.levi
                   if not _acts_diagonally(*action_tables(ctx, x))]
        assert len(general) == len(ctx._general)
        for q in range(ctx.n + 1):
            candidates = ctx.zero_basis(q)
            got = decoded_lie_columns(ctx, _lie_columns(
                ctx, candidates, ctx._general))
            want = reference_lie_columns(ctx, list(map(ctx.cell, candidates)),
                                         general)
            assert [list(c.items()) for c in got] == \
                [list(c.items()) for c in want], (spec, q)
            assert [list(map(type, c.values())) for c in got] == \
                [list(map(type, c.values())) for c in want]
            checked += sum(map(len, got))
    assert checked > 20


def levi_cohomology(ctx, cap):
    """dim H^q for q <= cap, counted on the Levi invariants of ctx."""
    blocks = [levi_block(ctx, q) for q in range(cap + 1)]
    return [dim - rank - (blocks[q - 1][1] if q else 0)
            for q, (dim, rank) in enumerate(blocks)]


# the ids keep a fourth field, the degrees that a size rule once sent to
# the Levi invariants, so that the test names stay the same
@pytest.mark.parametrize("type_label,rank,whole_only", [
    ("A", 1, False), ("A", 2, False), ("B", 2, False), ("G", 2, False),
    ("A", 3, False), ("B", 3, False), ("C", 3, False), ("A", 4, True),
    ("D", 4, True)], ids=["A-1-False-0", "A-2-False-0", "B-2-False-0",
                          "G-2-False-1", "A-3-False-1", "B-3-False-1",
                          "C-3-False-1", "A-4-True-2", "D-4-True-2"])
def test_levi_rows_match_weight_zero_rows(type_label, rank, whole_only):
    # H^*(s, s) = H^*(C^*(s, s)^r) (Hochschild-Serre): in every degree up
    # to the cap (q <= 3 for whole A4 and D4), the rows cohomology_dims
    # counts on weight zero equal those counted on the Levi invariants of a
    # C(s, s) built with the Levi generators of the same seaweed
    g = _ambient(type_label, rank)
    for spec in _all_specs(type_label, rank):
        if spec.rank != rank or whole_only and spec.pi1 & spec.pi2 != set(
                range(1, rank + 1)):
            continue
        sw = build_seaweed(g, spec)
        cap, ctx = _degree_cap(sw, None), adjoint_context(sw)
        assert ctx.levi is None
        rows = [ctx.cohomology_dims(q).cohomology for q in range(cap + 1)]
        assert rows == levi_cohomology(levi_adjoint_context(sw), cap), spec
    if type_label == "G":
        # a whole algebra without a spec gives the spec's rows
        bare = adjoint_context(seaweed_from_algebra(g))
        whole = adjoint_context(build_seaweed(
            g, SeaweedSpec.make("G", 2, [1, 2], [1, 2])))
        assert bare.levi is None and whole.levi is None
        assert [tuple(bare.cohomology_dims(q)) for q in range(4)] == \
            [tuple(whole.cohomology_dims(q)) for q in range(4)]


def test_invariant_api_needs_levi(a2_seaweed):
    # a complex built without levi carries no invariance algebra: the
    # invariant API refuses it in every degree with a ValueError, and its
    # own cohomology still counts on weight zero.  Mirrored, a complex
    # built with levi is graded by it, and cohomology_dims refuses it
    ns = nilradical_context(a2_seaweed)
    bare = ComplexContext(ns.ambient, ns.domain, ns.module)
    for ctx in (bare, nilradical_ambient_context(a2_seaweed)):
        assert ctx.levi is None
        for api in (invariant_cochains, invariant_coboundaries,
                    invariant_cohomology_dims):
            for q in (-1, 0, 1, ctx.n + 1):
                with pytest.raises(ValueError, match="without levi"):
                    api(ctx, q)
        assert ctx._invariant_cache == {} and ctx._zero_cache == {}
    for q in (-1, 0, 1, ns.n + 1):
        with pytest.raises(ValueError, match="graded by its levi"):
            ns.cohomology_dims(q)
    assert ns._dims == []
    # H^*(n, s) of the bare complex, against every delta column eliminated
    assert_dims_match_ungraded(bare, bare.n)


def test_levi_tables_built_twice_per_generator(monkeypatch):
    # a seaweed's complexes are views of C(g, g): building one brackets
    # nothing, and C(n, s) reads the base's rows of its non-diagonal Levi
    # generators once, on first use, over every degree and read of a
    # verify run.  With pi1 = pi2, n = 0 and no invariant row is asked, so
    # those rows are never read
    bracketed, reads = [], Counter()
    real_coords = cochain._bracket_coords
    monkeypatch.setattr(cochain, "_bracket_coords", lambda ctx, *args: (
        bracketed.append(ctx), real_coords(ctx, *args))[1])
    real = cochain.ComplexView._general.func

    def general(ctx):
        reads[id(ctx)] += 1
        return real(ctx)

    rows = cached_property(general)
    rows.__set_name__(cochain.ComplexView, "_general")
    monkeypatch.setattr(cochain.ComplexView, "_general", rows)
    seaweeds = [build_seaweed(_ambient(t, r), spec) for t, r in (("A", 2),
                ("G", 2)) for spec in _all_specs(t, r) if spec.rank == r]
    contexts = [f(sw) for sw in seaweeds for f in (
        adjoint_context, nilradical_context, nilradical_ambient_context)]
    assert not any(isinstance(ctx, cochain.ComplexView) for ctx in bracketed)
    assert not reads
    for sw in seaweeds:
        assert verify_report(sw, sw.spec)["ok"]
    assert not any(isinstance(ctx, cochain.ComplexView) for ctx in bracketed)
    graded = [ctx for ctx in contexts if id(ctx) in reads]
    assert set(reads.values()) == {1}
    # C(n, s) of the 12 specs of each type with pi1 != pi2, and no other
    nilradicals = [nilradical_context(sw) for sw in seaweeds
                   if sw.spec.pi1 != sw.spec.pi2]
    assert len(graded) == 2 * 12 and graded == nilradicals


# -- B^q cap invariants, spanned from weight zero ------------------------------

def full_span_coboundaries_in_invariants(ctx, q, inv_q):
    """dim(B^q cap span(inv_q)) as first computed, for invariants given
    by their codes: every delta column of C^(q-1) on the blocks of the
    context's own grading that inv_q touches (all of C^(q-1) in a
    nilradical context, which has no diagonal elements), and the rank of
    inv_q eliminated."""
    if not inv_q:
        return 0
    grade_of = {code: g for g, basis in ctx.basis_by_grade(q).items()
                for code in basis}
    grades = {grade_of[code] for f in inv_q for code in f}
    span = Echelon(ctx.delta_column(code) for g in sorted(grades)
                   for code in ctx.basis_by_grade(q - 1).get(g, []))
    r_b0 = span.rank
    for f in inv_q:
        span.add(f)
    return r_b0 + sparse_rank(inv_q) - span.rank


def orbit_representatives(type_label, rank):
    """The least spec of each orbit under (pi1|pi2) -> (pi2|pi1) and the
    type-A diagram flip i -> rank+1-i."""
    reps = {}
    for spec in _all_specs(type_label, rank):
        if spec.rank != rank:
            continue
        a, b = (tuple(sorted(pi)) for pi in (spec.pi1, spec.pi2))
        fa, fb = (tuple(sorted(rank + 1 - i for i in pi)) for pi in (a, b))
        reps.setdefault(min((a, b), (b, a), (fa, fb), (fb, fa)), spec)
    return list(reps.values())


def ordered_cells(ctx, f):
    """The items of a coded cochain with their codes decoded, in order."""
    return [(ctx.cell(code), c) for code, c in f.items()]


@pytest.mark.parametrize("type_label,rank",
                         [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 4)])
def test_weight_zero_coboundary_span(type_label, rank):
    # L_h commutes with delta and the invariants have weight zero, so
    # delta(C^(q-1)_0) meets them in all of B^q cap invariants; checked at
    # every q that verify computes, over the sweeps and A4's orbits
    if type_label == "A" and rank == 4:
        specs = orbit_representatives("A", 4)
        assert len(specs) == 76
    else:
        specs = [s for s in _all_specs(type_label, rank) if s.rank == rank]
    for spec in specs:
        sw = build_seaweed(_ambient(type_label, rank), spec)
        ctx = nilradical_context(sw)
        for q in range(1, ctx.n + 1):
            inv_q = _invariant_entry(ctx, q)[0]
            assert [ordered_cells(ctx, f) for f in inv_q] == \
                [list(f.items()) for f in invariant_cochains(ctx, q)]
            full = full_span_coboundaries_in_invariants(ctx, q, inv_q)
            assert _coboundary_consistency(ctx, q, inv_q, full), (spec, q)


@pytest.mark.parametrize("type_label,rank",
                         [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3),
                          ("C", 3)])
def test_candidate_span_is_cleared(type_label, rank):
    # _coboundary_consistency eliminates delta of the degree-(q-1)
    # candidates off the pivot rows of degree q-2's echelon; the cleared
    # rank equals the rank of every candidate column, in every degree
    cleared = 0
    for spec in _all_specs(type_label, rank):
        if spec.rank != rank:
            continue
        ctx = nilradical_context(build_seaweed(_ambient(type_label, rank),
                                               spec))
        for q in range(1, ctx.n + 1):
            invariant_cohomology_dims(ctx, q)
            if q - 1 in ctx._rank_cache:
                dim, rank_q, _ = ctx._rank_cache[q - 1]
                columns = list(map(ctx.delta_column, ctx.zero_basis(q - 1)))
                assert (dim, rank_q) == (len(columns),
                                         sparse_rank(columns)), (spec, q)
                cleared += ctx._rank_cache.get(q - 2, (0, 0))[1]
    assert cleared > 0


# -- tables read off the ambient's ad columns ----------------------------------

def reference_bracket_coords(ctx, x, vectors, where):
    """{p: coordinates of [x, vectors[p]]} as first computed: one
    `bracket_vec` and one `SpanSolver.coords` per pair."""
    solver = SpanSolver(ctx.domain if where == "domain" else ctx.module)
    out = {}
    for p, v in enumerate(vectors):
        b = ctx.ambient.bracket_vec(x, v)
        if b:
            c = solver.coords(b)
            if c is None:
                raise ValueError(f"the {where} is not closed under the bracket")
            if c:
                out[p] = c
    return out


def reference_action_tables(ctx, x):
    return (reference_bracket_coords(ctx, x, ctx.domain, "domain"),
            reference_bracket_coords(ctx, x, ctx.module, "module"))


def action_tables(ctx, x):
    """(a_dom, a_mod): the action tables of x that the complex built on
    ctx's bases makes, in the indices of ctx's codes (a view's are the
    ambient's), as `_lie_columns` reads them."""
    ref = built(ctx)
    tables = tuple(_bracket_coords(ref, x, w) for w in ("domain", "module"))
    if ref is ctx:
        return tables
    return tuple(in_base_indices(table, index) for table, index in
                 zip(tables, (list(ctx._dom_pos), ctx._mod_codes)))


def in_base_indices(table, index):
    """A {position: {position: c}} table with both positions mapped by
    `index`, key order kept."""
    return {index[p]: {index[t]: c for t, c in col.items()}
            for p, col in table.items()}


def reference_tables(ctx):
    """(dbr, act, pairs_hitting, (domain weights, module weights)) built
    from the reference brackets."""
    dbr = {}
    for i, x in enumerate(ctx.domain):
        for p, c in reference_bracket_coords(ctx, x, ctx.domain[i + 1:],
                                             "domain").items():
            dbr[(i, i + 1 + p)] = c
    act = [reference_bracket_coords(ctx, x, ctx.module, "module")
           for x in ctx.domain]
    hitting, ad = {}, [{} for _ in range(ctx.n)]
    for (a, b), vec in dbr.items():
        for t, c in vec.items():
            hitting.setdefault(1 << t, []).append(
                (1 << a | 1 << b, (1 << b) - (1 << a), c))
        ad[a][b] = vec
        ad[b][a] = {t: -c for t, c in vec.items()}
    # r = the levi, else the domain
    tables = ([(ad[i], act[i]) for i in range(ctx.n)] if ctx.levi is None
              else [reference_action_tables(ctx, x) for x in ctx.levi])
    return dbr, act, hitting, _weights(
        ctx, [pair for pair in tables if _acts_diagonally(*pair)])


def identical(a, b):
    """a == b with the same types and the same dict key order throughout."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(identical(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(identical, a, b))
    return a == b


def outcome(fn, *args):
    """fn(*args), or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_tables_match_reference(ctx, unit, generators):
    """The tables of ctx against the reference loop; for a view, its own
    position table `dbr` and the tables of the complex built on its bases,
    which read the ad columns as C(g, g) does."""
    ref = built(ctx)
    assert unit is None or ref._unit == unit
    dbr, act, hitting, weights = reference_tables(ref)
    assert identical(ctx.dbr, dbr) and identical(ref.dbr, dbr)
    assert identical(ref.act, act)
    assert identical(ref.pairs_hitting, hitting)
    assert identical((ref._dom_weights, ref._mod_weights), weights)
    # unit generators, and two that keep the general path
    dim = ctx.ambient.dim
    extra = [{0: 1, dim - 1: 1}, {dim - 1: 2}]
    for g in list(generators) + extra:
        assert identical(outcome(action_tables, ref, g),
                         outcome(reference_action_tables, ref, g)), g


def _primitive(vec):
    """A rational coordinate dict scaled to a primitive integer vector, as
    `seaweed` first made the center and its complement from the
    first-coefficient-1 kernel relations."""
    from math import gcd
    scale = 1
    for v in vec.values():
        if isinstance(v, F):
            scale = scale * v.denominator // gcd(scale, v.denominator)
    out = {k: int(v * scale) for k, v in vec.items() if v != 0}
    g = 0
    for v in out.values():
        g = gcd(g, v)
    if g > 1:
        out = {k: v // g for k, v in out.items()}
    return out


def reference_center(sw):
    """Z(s) as first computed: kernel columns from `bracket` on every pair
    of members."""
    cols = [{(j, k): v for j in sw.member
             for k, v in sw.ambient.bracket(i, j).items()} for i in sw.member]
    return [_primitive({sw.member[p]: c for p, c in rel.items()})
            for rel in sparse_kernel_basis(cols)]


def assert_seaweed_tables_match(sw, section=None):
    """The center, the tables of every context of sw and the split quotient
    against the replaced code."""
    assert identical(center(sw), reference_center(sw))
    gens = reductive_generators(sw)
    for ctx in (adjoint_context(sw), nilradical_context(sw),
                nilradical_ambient_context(sw)):
        assert_tables_match_reference(ctx, True, gens)
    split = split_over_center(sw, section_indices=section)
    # the complement is a unit basis only for some centers: either path
    assert_tables_match_reference(quotient_context(split), None, gens)
    ref = dense.subalgebra(sw.ambient, split.complement_basis, check=False)
    assert (split.quotient.dim, split.quotient.labels) == (ref.dim, ref.labels)
    assert identical(split.quotient.brackets, ref.brackets)


@pytest.mark.parametrize("type_label,rank",
                         [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 4)])
def test_ad_tables_match_reference(type_label, rank):
    g = _ambient(type_label, rank)
    if rank == 4:
        specs = orbit_representatives("A", 4)
    else:
        specs = [s for s in _all_specs(type_label, rank) if s.rank == rank]
    units = [{i: 1} for i in range(g.dim)]
    assert_tables_match_reference(full_context(g), True, units)
    for spec in specs:
        assert_seaweed_tables_match(build_seaweed(g, spec))


def test_ad_tables_match_reference_fixtures(a2_fixture, g2_fixture):
    sw = seaweed_from_algebra(g2_fixture)
    for section in (None, [0, 1]):      # degenerate Killing; published
        assert_seaweed_tables_match(sw, section)
    assert_tables_match_reference(full_context(g2_fixture), True,
                                  [{i: 1} for i in range(g2_fixture.dim)])
    rng = random.Random(5)
    scalars = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(8)]
    L2 = a2_fixture.rescaled(scalars)
    for spec in _all_specs("A", 2):
        if spec.rank == 2:
            assert_seaweed_tables_match(build_seaweed(L2, spec))
    assert_tables_match_reference(full_context(L2), True,
                                  [{i: 1} for i in range(L2.dim)])


def test_center_matches_reference_e6_sample():
    g = _ambient("E", 6)
    before = deepcopy([g.ad(i) for i in range(g.dim)])
    rng = random.Random(15)
    for _ in range(40):
        pis = [[i for i in range(1, 7) if rng.random() < 0.6] for _ in "12"]
        sw = build_seaweed(g, SeaweedSpec.make("E", 6, *pis))
        assert identical(center(sw), reference_center(sw))
    assert identical([g.ad(i) for i in range(g.dim)], before)


def test_unit_closure_errors_match_reference(a2_fixture):
    # int units read the ad columns; a bracket leaving the basis is refused
    # with the text of the bracket_vec path
    g = a2_fixture
    i, j = next((i, j) for i, j in combinations(range(g.dim), 2)
                if set(g.bracket(i, j)) - {i, j})
    for domain, module, where in (([{i: 1}, {j: 1}], [{i: 1}, {j: 1}], "domain"),
                                  ([{i: 1}], [{j: 1}], "module")):
        assert _int_units(domain) and _int_units(module)
        text = f"the {where} is not closed under the bracket"
        with pytest.raises(ValueError) as exc:
            ComplexContext(g, domain, module)
        assert str(exc.value) == text
        probe = SimpleNamespace(ambient=g, domain=domain, module=module)
        assert outcome(reference_tables, probe) == ("ValueError", text)
    # a generator that does not normalize the domain
    sw = build_seaweed(_ambient("A", 2), SeaweedSpec.make("A", 2, [], [1, 2]))
    ctx = nilradical_context(sw)
    x = {sw.dual_nilradical[0]: 1}
    assert outcome(action_tables, ctx, x) == (
        "ValueError", "the domain is not closed under the bracket")
    assert outcome(reference_action_tables, ctx, x) == outcome(
        action_tables, ctx, x)


@pytest.mark.parametrize("type_label,rank",
                         [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_sweep_leaves_ad_columns_unchanged(type_label, rank):
    # the ad columns hold the ambient's own bracket dicts and every table
    # is read off them; a whole verify sweep must alter neither
    g = construct(rootsystem.build(type_label, rank))
    before = deepcopy([g.ad(i) for i in range(g.dim)]), deepcopy(g.brackets)
    for spec in _all_specs(type_label, rank):
        if spec.rank == rank:
            assert verify_report(build_seaweed(g, spec), spec)["ok"]
    after = [g._ad_cache[i] for i in range(g.dim)], g.brackets
    assert identical(after, before)



def test_unit_brackets_do_not_rescan_the_bases(monkeypatch):
    # _int_units runs when a context is built, never per bracket: whether
    # x itself is an int unit is tested inline.  An int unit e_i reads the
    # ad columns; {i: Fraction(1)}, {i: 2}, {i: True} and two entries take
    # the bracket_vec loop, and every table equals the reference's
    sw = build_seaweed(_ambient("A", 2), SeaweedSpec.make("A", 2, [1], [1, 2]))
    contexts = [built(f(sw)) for f in (adjoint_context, nilradical_context,
                                       nilradical_ambient_context)]
    ns = nilradical_context(sw)
    tables = [action_tables(ns, x) for x in ns.levi]
    assert ns._general and identical(ns._general, [
        pair for pair in tables if not _acts_diagonally(*pair)])
    g = sw.ambient
    monkeypatch.setattr(cochain, "_int_units", None)    # a call would fail
    looped = []
    monkeypatch.setattr(g, "bracket_vec", lambda x, y: looped.append(x) or
                        type(g).bracket_vec(g, x, y))
    i, j = sw.reductive[0], sw.reductive[-1]
    for ctx in contexts:
        for x, ad in (({i: 1}, True), ({i: F(1)}, False), ({i: 2}, False),
                      ({i: True}, False), ({i: 1, j: 1}, False)):
            for where in ("domain", "module"):
                looped.clear()
                got = _bracket_coords(ctx, x, where)
                assert bool(looped) != ad, x
                basis = ctx.domain if where == "domain" else ctx.module
                assert identical(got, reference_bracket_coords(
                    ctx, x, basis, where)), (x, where)


# -- unit bases out of ambient order --------------------------------------------

def acceptance_and_a4_seaweeds():
    """The A1, A2, B2 and G2 sweeps and the A4 orbit representatives."""
    for t, r in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
        for spec in _all_specs(t, r):
            if spec.rank == r:
                yield build_seaweed(_ambient(t, r), spec)
    for spec in orbit_representatives("A", 4):
        yield build_seaweed(_ambient("A", 4), spec)


def test_default_split_is_coroots_and_root_vectors():
    # kappa(h_i, z) is proportional to alpha_i(z) = 0 on Z(s) for i in
    # pi1 u pi2, and the dimensions agree, so the Killing complement is
    # span{h_i}, listed in ambient order, and the quotient complex is a
    # view of C(g, g)
    decomposable = 0
    for sw in acceptance_and_a4_seaweeds():
        g, spec = sw.ambient, sw.spec
        split = split_over_center(sw)
        roots = [{i: 1} for i in sw.member if i not in g.cartan]
        coroots = [{g.cartan[i - 1]: 1} for i in sorted(spec.pi1 | spec.pi2)]
        if split.center_basis:
            decomposable += 1
            assert split.complement_basis == sorted(coroots + roots,
                                                    key=min), spec
        else:
            assert split.complement_basis == [{i: 1} for i in sw.member]
            assert sorted(map(min, coroots)) == list(g.cartan)
        ctx = quotient_context(split)
        assert ctx.base is full_context(g) and _int_units(ctx.domain), spec
    assert decomposable == 1 + 7 + 7 + 7 + 51


def same_in_order(a, b):
    """a == b with the same dict key order throughout; values compare by
    ==, so an int table may equal a Fraction one."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and list(a) == list(b)
                and all(same_in_order(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(map(same_in_order, a, b)))
    return a == b


def assert_unit_path_matches_bracket_path(g, domain, module):
    """The tables and the class representatives of int units in the given
    order against those of the same basis as Fraction(1) units, which
    brackets with `bracket_vec`."""
    fast = ComplexContext(g, [{i: 1} for i in domain], [{i: 1} for i in module])
    slow = ComplexContext(g, [{i: F(1)} for i in domain],
                          [{i: F(1)} for i in module])
    assert fast._unit == (list(domain) == sorted(domain) and
                          list(module) == sorted(module)) and not slow._unit
    for name in ("dbr", "act", "pairs_hitting", "_dom_weights", "_mod_weights"):
        assert same_in_order(getattr(fast, name), getattr(slow, name)), name
    for q in range(min(fast.n, 2) + 1):
        h = fast.cohomology_dims(q).cohomology
        assert h == slow.cohomology_dims(q).cohomology
        reps = [[f.data for f in _class_representatives(ctx, q, h)]
                for ctx in (fast, slow)]
        assert same_in_order(*reps), q


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_permuted_unit_basis_matches_bracket_path(type_label, rank):
    g = _ambient(type_label, rank)
    rng = random.Random(18)
    seen = 0
    for spec in _all_specs(type_label, rank):
        if spec.rank != rank:
            continue
        sw = build_seaweed(g, spec)
        split = split_over_center(sw)
        # the default complement of a decomposable seaweed, ambient order
        comp = [min(v) for v in split.complement_basis]
        assert_unit_path_matches_bracket_path(g, comp, sw.member)
        # s and n in a random order, acting on s in another
        for domain in (sw.member, sw.nilradical):
            domain, module = list(domain), list(sw.member)
            rng.shuffle(domain)
            rng.shuffle(module)
            assert_unit_path_matches_bracket_path(g, domain, module)
        seen += domain != sorted(domain)
    assert seen > 0


# -- contexts on C(s, s)'s rows ------------------------------------------------

def unit_sections(sw):
    """section_indices of s: the roots of s and each choice of its Cartan
    units that `split_over_center` accepts."""
    cartan = [i for i in sw.member if i in sw.ambient.cartan]
    roots = [i for i in sw.member if i not in cartan]
    for keep in combinations(cartan, len(cartan) - len(center(sw))):
        try:
            split_over_center(sw, section_indices=roots + list(keep))
        except ValueError:
            continue
        yield roots + list(keep)


def reference_delta_column(ctx, tup, k):
    """delta of a basis cochain as first written: a loop over every domain
    index, placed with `_insert`, and over the pairs (a, b) of `dbr` whose
    bracket hits each argument, in the order of `dbr`."""
    hitting = {}
    for (a, b), vec in ctx.dbr.items():
        for t, c in vec.items():
            hitting.setdefault(t, []).append((a, b, c))
    out = {}
    for mdx in range(ctx.n):
        acted = ctx.act[mdx].get(k)
        if mdx in tup or not acted:
            continue
        s, pos = _insert(tup, mdx)
        vec_add(out, {(s, k2): v for k2, v in acted.items()},
                -1 if pos % 2 else 1)
    for tpos, t in enumerate(tup):
        rest = tup[:tpos] + tup[tpos + 1:]
        for a, b, c in hitting.get(t, ()):
            if a not in rest and b not in rest:
                s, ia = _insert(rest, a)
                s, ib = _insert(s, b)
                sign = -1 if (tpos + ia + ib) % 2 else 1
                vec_add(out, {(s, k): sign * c})
    return out


def assert_view_matches_built(ctx):
    """A view of C(g, g) against the complex built on its bases: its
    differential on C^q, q <= 2, decoded, is the reference loop's on the
    built tables, item order and value types included."""
    assert ctx.base is full_context(ctx.ambient) is not ctx
    ref = built(ctx)
    for q in range(min(ctx.n, 2) + 1):
        for tup, k in product(combinations(range(ctx.n), q), range(ctx.m)):
            assert identical(delta_cells(ctx, tup, k),
                             reference_delta_column(ref, tup, k)), (tup, k)


def assert_slices_match_generic(sw, sections):
    """C(s, s), C(n, s), C(n, g) and each C(Q, s) of a unit section are
    views of C(g, g); each C(Q, s) against the generic path (the others
    are `test_views_match_built_contexts`)."""
    adj = adjoint_context(sw)
    for ctx in (adj, nilradical_context(sw), nilradical_ambient_context(sw)):
        assert ctx.base is full_context(sw.ambient) is not ctx
    quotients = 0
    for section in sections:
        ctx = quotient_context(split_over_center(sw, section_indices=section))
        if ctx is not adj:
            assert_view_matches_built(ctx)
            quotients += 1
    return quotients


def test_slices_match_generic_contexts(g2_fixture):
    # after a verify run, so the base's tables were read by every check;
    # the A4 orbits also differ in the section of their C(Q, s)
    quotients = 0
    for sw in acceptance_and_a4_seaweeds():
        cap = 1 if sw.spec.rank == 4 else None
        assert verify_report(sw, sw.spec, max_degree=cap)["ok"]
        quotients += assert_slices_match_generic(
            sw, [None] + list(unit_sections(sw)))
    assert quotients > 2 * (1 + 7 + 7 + 7 + 51)
    sw = seaweed_from_algebra(g2_fixture)
    verify_report(sw, None)
    assert assert_slices_match_generic(sw, (None, [0, 1])) == 2


def test_coded_columns_match_reference(a2_fixture, g2_fixture):
    # the decoded columns of C(s, s) equal the reference loop's, item
    # order and value types included: the A2, B2 and G2 sweeps in degrees
    # <= 2, whole B2 and whole G2 in degree 3, and both fixtures
    contexts = []
    for t, r in [("A", 2), ("B", 2), ("G", 2)]:
        for spec in _all_specs(t, r):
            if spec.rank == r:
                sw = build_seaweed(_ambient(t, r), spec)
                contexts.append((adjoint_context(sw),
                                 3 if spec.pi1 == spec.pi2 == set(
                                     range(1, r + 1)) else 2))
    rng = random.Random(5)
    scalars = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(8)]
    contexts.append((adjoint_context(build_seaweed(
        a2_fixture.rescaled(scalars), SeaweedSpec.make("A", 2, [], [1, 2]))),
        3))
    contexts.append((adjoint_context(seaweed_from_algebra(g2_fixture)), 3))
    checked = 0
    for ctx, degree in contexts:
        for q in range(min(ctx.n, degree) + 1):
            for tup, k in product(combinations(range(ctx.n), q),
                                  range(ctx.m)):
                assert identical(delta_cells(ctx, tup, k),
                                 reference_delta_column(built(ctx), tup, k)
                                 ), (tup, k)
                checked += 1
    assert checked > 10000


def test_sliced_contexts_share_the_module_solver(g2_fixture):
    # C(s, s), C(n, s), C(n, g) and C(Q, s) are views of the one C(g, g):
    # they hold no solver or table of their own, unit complements or not
    seaweeds = list(acceptance_and_a4_seaweeds())
    seaweeds.append(seaweed_from_algebra(g2_fixture))
    quotients = 0
    for sw in seaweeds:
        gg = full_context(sw.ambient)
        views = [adjoint_context(sw), nilradical_context(sw),
                 nilradical_ambient_context(sw)]
        sections = [None] + ([[0, 1]] if sw.spec is None else [])
        for section in sections:
            ctx = quotient_context(split_over_center(sw,
                                                     section_indices=section))
            quotients += ctx is not views[0]
            views.append(ctx)
        for ctx in views:
            assert ctx.base is gg is not ctx
            assert not {"_mod_solver", "_dom_solver", "act"} & set(vars(ctx))
    assert quotients > 50


def test_weights_built_once_per_generator_list(monkeypatch):
    # the weights are graded once per algebra, by C(g, g) over its torus;
    # a view grades nothing, and lists its weight-zero codes once for all
    # the degrees they are read in
    calls = []
    real = cochain._weights
    monkeypatch.setattr(cochain, "_weights", lambda ctx, tables: (
        calls.append(ctx), real(ctx, tables))[1])
    g = construct(rootsystem.build("A", 4))
    views = []
    for spec in orbit_representatives("A", 4):
        sw = build_seaweed(g, spec)
        assert verify_report(sw, spec, max_degree=1)["ok"]
        views += [adjoint_context(sw), nilradical_context(sw)]
    assert calls == [full_context(g)]
    graded = listed = 0
    for ctx in views:
        levi = ctx.levi is not None and ctx.n > 0
        graded += levi
        listed += levi and len(ctx._zero_cache)
        assert all(ctx.zero_basis(q) is codes
                   for q, codes in ctx._zero_cache.items())
    assert graded > 60 and listed > 4 * graded


# -- views of C(g, g) ------------------------------------------------------------

def view_seaweeds():
    """The A2, B2, G2 and A3 sweeps and the A4 orbit representatives."""
    for t, r in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        for spec in _all_specs(t, r):
            if spec.rank == r:
                yield build_seaweed(_ambient(t, r), spec)
    for spec in orbit_representatives("A", 4):
        yield build_seaweed(_ambient("A", 4), spec)


def test_views_match_built_contexts():
    # each view against the ComplexContext built with its own tables on the
    # same unit bases: its delta columns, decoded, item order and value
    # types included (q <= 2); its zero_basis order wherever weight zero is
    # read (every view but C(n, g), q <= 3); and C(n, s)'s Levi tables.  A
    # Cochain round-trips through code and cell
    columns = 0
    for sw in view_seaweeds():
        ng = nilradical_ambient_context(sw)
        views = dict.fromkeys([adjoint_context(sw), nilradical_context(sw), ng,
                               quotient_context(split_over_center(sw))])
        for ctx in views:
            ref = built(ctx)
            assert ctx.base is full_context(sw.ambient) and ref.base is ref
            for q in range(min(ctx.n, 2) + 1):
                for tup, k in product(combinations(range(ctx.n), q),
                                      range(ctx.m)):
                    assert ctx.cell(ctx.code(tup, k)) == (tup, k)
                    assert identical(delta_cells(ctx, tup, k),
                                     delta_cells(ref, tup, k)), (tup, k)
                    columns += 1
                f = random_cochain(ctx, q, columns)
                assert _decoded(ctx, q, f.coded()) == f
            if ctx is not ng:
                for q in range(min(ctx.n, 3) + 1):
                    assert list(map(ctx.cell, ctx.zero_basis(q))) == \
                        list(map(ref.cell, ref.zero_basis(q))), q
            if ctx.levi is not None:
                index = list(ctx._dom_pos), ctx._mod_codes
                assert identical(ctx._general, [tuple(map(
                    in_base_indices, pair, index)) for pair in ref._general])
    assert columns > 10 ** 5


def test_seaweed_builds_no_tables(monkeypatch):
    # verifying the A4 orbits builds the one C(g, g) of the algebra and no
    # other ComplexContext: every complex of a seaweed is a view of it
    made, init = [], ComplexContext.__init__
    monkeypatch.setattr(ComplexContext, "__init__", lambda self, *args, **kw: (
        made.append(self), init(self, *args, **kw))[1])
    g = construct(rootsystem.build("A", 4))
    for spec in orbit_representatives("A", 4):
        assert verify_report(build_seaweed(g, spec), spec, max_degree=1)["ok"]
    assert made == [full_context(g)]


def test_counting_refused_where_weight_zero_misses_h():
    # C(n, g) holds none of the grading torus of C(g, g), whose weights
    # grade it, so weight zero does not carry H^*: both counts refuse it,
    # naming the bare complex, which counts.  C(Q, s) holds only h cap Q
    # and still counts (the roots of s vanish on Z(s)): its rows are those
    # of the complex built on Q, over the decomposable specs of the sweeps
    sw = build_seaweed(_ambient("A", 2), SeaweedSpec.make("A", 2, [], [1, 2]))
    ng = nilradical_ambient_context(sw)
    for count in (ng.cohomology_dims, lambda q: is_coboundary(
            ng, Cochain(ng, q, {}))):
        for q in (-1, 0, 1, ng.n + 1):
            with pytest.raises(ValueError, match=r"grading torus .* use "
                               r"ComplexContext\(ambient, domain, module\)"):
                count(q)
    assert ng._dims == [] and ng._zero_cache == {}
    bare = ComplexContext(ng.ambient, ng.domain, ng.module)
    assert_dims_match_ungraded(bare, 2)
    partial = 0
    for t, r in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        for spec in _all_specs(t, r):
            if spec.rank != r:
                continue
            sw = build_seaweed(_ambient(t, r), spec)
            ctx = quotient_context(split_over_center(sw))
            partial += not set(sw.ambient.cartan) <= set(ctx._dom_pos)
            rows = [tuple(ctx.cohomology_dims(q)) for q in range(
                min(ctx.n, 3) + 1)]
            assert rows == [tuple(built(ctx).cohomology_dims(q))
                            for q in range(len(rows))], spec
    assert partial == 7 + 7 + 7 + 37     # every decomposable spec
