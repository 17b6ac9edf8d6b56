from fractions import Fraction as F
from itertools import combinations, permutations
from pathlib import Path

import pytest

from seaweedcoh import rootsystem, seaweed
from seaweedcoh.cli import _all_specs, _ambient, main, verify_report
from seaweedcoh.cochain import adjoint_context, quotient_context
from seaweedcoh.chevalley import load_fixture
from seaweedcoh.exactlin import Echelon, InvariantError, vec_add
from seaweedcoh.seaweed import (SeaweedSpec, build_seaweed, center,
                                is_indecomposable, quotient_components,
                                render_split_dynkin, seaweed_from_algebra,
                                split_over_center)

import dense

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def spec(t, r, p1, p2):
    return SeaweedSpec.make(t, r, p1, p2)


def test_build_a2_fixture_seaweed(a2_fixture):
    sw = build_seaweed(a2_fixture, spec("A", 2, [], [2, 1]))
    assert sw.dim == 5
    assert [a2_fixture.labels[i] for i in sw.nilradical] == ["e4", "e5", "e6"]
    assert [a2_fixture.labels[i] for i in sw.reductive] == ["e7", "e8"]
    assert [a2_fixture.labels[i] for i in sw.dual_nilradical] == ["e1", "e2", "e3"]
    assert sw.remainder == ()


def test_build_g2_canonical():
    g = _ambient("G", 2)
    sw = build_seaweed(g, spec("G", 2, [1], []))
    assert sw.dim == 3
    assert len(sw.nilradical) == 1
    assert len(sw.reductive) == 2


def test_build_full_algebra():
    for t, r in [("A", 2), ("B", 2)]:
        g = _ambient(t, r)
        sw = build_seaweed(g, spec(t, r, range(1, r + 1), range(1, r + 1)))
        assert sw.dim == g.dim
        assert sw.nilradical == ()


def test_missing_root_annotations():
    from seaweedcoh.chevalley import loads_fixture
    L = loads_fixture("dim 2\n")
    with pytest.raises(ValueError):
        build_seaweed(L, spec("A", 1, [1], [1]))


def test_is_indecomposable():
    assert is_indecomposable(spec("A", 2, [], [2, 1]))
    assert not is_indecomposable(spec("G", 2, [1], []))
    assert is_indecomposable(spec("B", 2, [1, 2], [1, 2]))


def test_center_examples(a2_fixture, g2_fixture):
    sw = build_seaweed(a2_fixture, spec("A", 2, [], [1, 2]))
    assert center(sw) == []

    swg = seaweed_from_algebra(g2_fixture)
    zs = center(swg)
    assert len(zs) == 1
    z = zs[0]
    assert z == {1: 2, 2: 3}  # 2 e13 + 3 e14 as a primitive integer vector

    whole = build_seaweed(_ambient("A", 2), spec("A", 2, [1, 2], [1, 2]))
    assert center(whole) == []


def test_split_g2_fixture_published_section(g2_fixture):
    sw = seaweed_from_algebra(g2_fixture)
    split = split_over_center(sw, section_indices=[0, 1])
    assert len(split.center_basis) == 1
    q = split.quotient
    assert q.dim == 2
    assert q.bracket(0, 1) == {0: 6}   # [e2-bar, e13-bar] = 6 e2-bar


def test_split_indecomposable_is_identity():
    sw = build_seaweed(_ambient("A", 2), spec("A", 2, [], [1, 2]))
    split = split_over_center(sw)
    assert split.center_basis == []
    assert len(split.complement_basis) == sw.dim


def test_split_cartan_only():
    sw = build_seaweed(_ambient("A", 2), spec("A", 2, [], []))
    split = split_over_center(sw)
    assert len(split.center_basis) == 2
    assert split.quotient.dim == 0


def test_build_seaweed_refuses_other_root_data(g2_fixture, a2_fixture):
    # the spec's (type, rank) must be the root system's; without one (the
    # G2 fixture) its rank must be the length of every root coefficient tuple
    a3 = _ambient("A", 3)
    for g, bad in [(a3, spec("B", 3, [1], [2])), (a3, spec("A", 2, [1], [2])),
                   (a2_fixture, spec("G", 2, [1], [])),
                   (g2_fixture, spec("A", 3, [1], []))]:
        with pytest.raises(ValueError, match=f"spec of type {bad.type_label}"
                           f"{bad.rank} does not fit the root data"):
            build_seaweed(g, bad)
    assert build_seaweed(g2_fixture, spec("G", 2, [1], [])).dim == 3


def test_split_quotient_built_on_first_use(g2_fixture):
    # split_over_center builds the quotient context, which checks that the
    # complement is closed, but not the quotient algebra; the first read
    # builds it from that context's domain brackets, once
    sws = [build_seaweed(_ambient("A", 2), s) for s in _all_specs("A", 2)
           if s.rank == 2]
    for sw in sws + [seaweed_from_algebra(g2_fixture)]:
        split = split_over_center(sw)
        assert "quotient" not in vars(split)
        q = split.quotient
        assert split.quotient is q
        ref = dense.subalgebra(sw.ambient, split.complement_basis, check=False)
        assert (q.dim, q.brackets) == (ref.dim, ref.brackets), sw.spec
    # a complement that is not closed is still refused by the split itself:
    # in p({1}|{1}) the roots of s with one Cartan unit complement Z(s),
    # and they are closed only with the coroot of alpha_1
    sw = build_seaweed(_ambient("A", 2), spec("A", 2, [1], [1]))
    cartan = [i for i in sw.member if i in sw.ambient.cartan]
    roots = [i for i in sw.member if i not in cartan]
    refused = []
    for h in cartan:
        try:
            split_over_center(sw, section_indices=roots + [h])
        except ValueError as exc:
            refused.append(str(exc))
    assert refused == ["the domain is not closed under the bracket"]


def test_split_algebra_off_s_raises_invariant_error(a2_cartan_mixed):
    # s rebuilt on center_basis + complement_basis, the algebra of C(Q, s)
    # when the complement is not a unit basis (p({2}|{2}) on the
    # mixed-Cartan fixture), has the brackets of s in that basis.  A forged
    # split whose basis misses e8 - e7, which [e2, e5] hits, raises an
    # InvariantError, which fires under python -O too
    sw = build_seaweed(a2_cartan_mixed, spec("A", 2, [2], [2]))
    split = split_over_center(sw)
    assert quotient_context(split).ambient is split.algebra
    basis = split.center_basis + split.complement_basis
    for (i, u), (j, v) in combinations(enumerate(basis), 2):
        rebuilt = {}
        for k, c in split.algebra.bracket(i, j).items():
            vec_add(rebuilt, basis[k], c)
        assert rebuilt == sw.ambient.bracket_vec(u, v), (i, j)
    roots = [{i: 1} for i in sw.member if i in sw.ambient.root_of]
    forged = seaweed.CenterSplit(sw, split.center_basis, roots, Echelon(
        split.center_basis + roots, track=True))
    with pytest.raises(InvariantError, match="s is not closed"):
        forged.algebra


def test_split_bracket_reconstruction(g2_fixture):
    sw = seaweed_from_algebra(g2_fixture)
    split = split_over_center(sw)
    g = sw.ambient
    for z in split.center_basis:
        for c in split.complement_basis:
            assert g.bracket_vec(z, c) == {}
    # complement is bracket-closed with the induced constants
    for i, u in enumerate(split.complement_basis):
        for j, v in enumerate(split.complement_basis):
            amb = g.bracket_vec(u, v)
            qc = split.quotient.bracket(i, j)
            rebuilt = {}
            for k, cf in qc.items():
                for a, va in split.complement_basis[k].items():
                    rebuilt[a] = rebuilt.get(a, 0) + cf * va
            assert {k: v for k, v in rebuilt.items() if v != 0} == amb


def test_quotient_components_examples():
    comps = quotient_components(spec("G", 2, [1], []))
    assert [(c.type_label, c.rank) for c in comps] == [("A", 1)]
    assert comps[0].pi1 == frozenset({1}) and comps[0].pi2 == frozenset()

    comps = quotient_components(spec("F", 4, [1, 2], [4]))
    assert sorted((c.type_label, c.rank) for c in comps) == [("A", 1), ("A", 2)]

    ind = spec("A", 3, [1, 3], [2])
    assert quotient_components(ind) == [ind]


def test_quotient_components_d4_severed():
    # cutting the branch node of D4 leaves three A1 components; cutting a
    # leg leaves an A3 (the rank-3 coincidence resolves toward type A)
    comps = quotient_components(spec("D", 4, [1, 3], [4]))
    assert sorted((c.type_label, c.rank) for c in comps) == [("A", 1)] * 3
    comps = quotient_components(spec("D", 4, [2, 3], [4]))
    assert [(c.type_label, c.rank) for c in comps] == [("A", 3)]


def test_quotient_components_bc_types():
    comps = quotient_components(spec("F", 4, [2, 3], [4]))   # omit node 1
    assert [(c.type_label, c.rank) for c in comps] == [("C", 3)]
    comps = quotient_components(spec("F", 4, [1, 2], [3]))   # omit node 4
    assert [(c.type_label, c.rank) for c in comps] == [("B", 3)]
    comps = quotient_components(spec("C", 3, [2, 3], [3, 2]))  # omit node 1
    assert [(c.type_label, c.rank) for c in comps] == [("B", 2)]


@pytest.mark.parametrize("t,r,omit,expected", [
    ("E", 6, 1, [("D", 5, {4, 5})]),
    ("E", 6, 4, [("A", 2, {1}), ("A", 1, {1}), ("A", 2, set())]),
    ("E", 7, 7, [("E", 6, {1, 2})]),
    ("E", 7, 1, [("D", 6, {5, 6})]),
    ("E", 8, 1, [("D", 7, {6, 7})]),
    ("E", 8, 2, [("A", 7, {1, 2})]),
    ("E", 8, 8, [("E", 7, {1, 2})]),
])
def test_quotient_components_e_types(t, r, omit, expected):
    # pi1 keeps every node but `omit`, pi2 the first two kept nodes; the
    # relabeling decides where pi2 lands in each component
    kept = [i for i in range(1, r + 1) if i != omit]
    comps = quotient_components(spec(t, r, kept, kept[:2]))
    assert [(c.type_label, c.rank, set(c.pi2)) for c in comps] == expected
    for c in comps:
        assert c.pi1 == frozenset(range(1, c.rank + 1))


def _permutation_search(rs, comp):
    """Reference classifier: every node order of every candidate type."""
    k = len(comp)
    full = rs.cartan_matrix()
    sub = [[full[a - 1][b - 1] for b in comp] for a in comp]
    for t, ok in rootsystem.VALID_RANKS.items():
        if not ok(k):
            continue
        cm = rootsystem.build(t, k).cartan_matrix()
        for perm in permutations(range(k)):
            if all(cm[p][q] == sub[perm[p]][perm[q]]
                   for p in range(k) for q in range(k)):
                return t, {comp[perm[p]]: p + 1 for p in range(k)}
    raise ValueError(f"cannot classify sub-diagram on nodes {comp}")


def _connected_subdiagrams(rs):
    adj = {i: set() for i in range(1, rs.rank + 1)}
    for i, j, _ in rootsystem.dynkin_edges(rs):
        adj[i + 1].add(j + 1)
        adj[j + 1].add(i + 1)
    for k in range(1, rs.rank + 1):
        for nodes in combinations(range(1, rs.rank + 1), k):
            seen, stack = {nodes[0]}, [nodes[0]]
            while stack:
                for w in adj[stack.pop()] & set(nodes) - seen:
                    seen.add(w)
                    stack.append(w)
            if len(seen) == k:
                yield list(nodes)


@pytest.mark.parametrize("t,r", [
    ("A", 5), ("B", 4), ("C", 4), ("D", 4), ("D", 5), ("D", 6),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
def test_classify_matches_permutation_search(t, r):
    # the pruned search must pick the same type and the same relabeling
    # (the first valid permutation) wherever automorphisms allow several
    rs = rootsystem.build(t, r)
    for comp in _connected_subdiagrams(rs):
        assert seaweed._classify_subdiagram(rs, comp) == \
            _permutation_search(rs, comp), comp


def test_render_split_dynkin_golden():
    assert render_split_dynkin(spec("A", 2, [], [1, 2])) == "o---o\n*---*"
    assert render_split_dynkin(spec("G", 2, [1], [])) == "*<3=o\no<3=o"
    assert render_split_dynkin(spec("A", 1, [1], [1])) == "*\n*"
    d4 = render_split_dynkin(spec("D", 4, [1], [2]))
    assert d4.endswith("branches: 2-4")


def dense_projection(split, vec):
    """Quotient coordinates by one dense solve over the ambient basis."""
    full = split.center_basis + split.complement_basis
    dim = split.seaweed.ambient.dim
    sol = dense.solve([[v.get(i, 0) for v in full] for i in range(dim)],
                      [vec.get(i, 0) for i in range(dim)])
    if sol is None:
        return None
    z = len(split.center_basis)
    return {i: c for i, c in enumerate(sol[z:]) if c != 0}


def dense_center_functional(split, which, vector=None):
    basis = list(split.center_basis)
    if vector is not None:
        basis[which] = vector
    full = basis + split.complement_basis
    dim = split.seaweed.ambient.dim
    return dense.solve([[v.get(i, 0) for i in range(dim)] for v in full],
                       [1 if k == which else 0 for k in range(len(full))])


def decomposable_splits():
    for t, r in [("A", 2), ("B", 2), ("G", 2)]:
        for sp in _all_specs(t, r):
            if sp.rank == r and not is_indecomposable(sp):
                yield build_seaweed(_ambient(t, r), sp), None
    g2 = seaweed_from_algebra(load_fixture(FIXTURES / "g2_seaweed"))
    yield g2, None          # the degenerate-Killing fallback
    yield g2, [0, 1]        # the published section


def test_center_split_solves_match_dense():
    count = 0
    for sw, section in decomposable_splits():
        split = split_over_center(sw, section_indices=section)
        dim = sw.ambient.dim
        member = set(sw.member)
        mixed = {i: F(k + 1, 2) for k, i in enumerate(sw.member)}
        for vec in [{i: 1} for i in range(dim)] + [mixed]:
            ref = dense_projection(split, vec)
            if set(vec) <= member:
                got = split.project_to_quotient(vec)
                assert got == ref and list(got) == sorted(got)
            else:
                assert ref is None
                with pytest.raises(ValueError, match="vector outside s"):
                    split.project_to_quotient(vec)
        for which, z in enumerate(split.center_basis):
            assert (split.center_functional(which)
                    == dense_center_functional(split, which))
            double = {i: 2 * c for i, c in z.items()}
            assert (split.center_functional(which, vector=double)
                    == dense_center_functional(split, which, double))
        count += 1
    assert count == 23   # 7 specs per type, and the fixture twice


SWEPT = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2)]


@pytest.mark.parametrize("t,r", SWEPT)
def test_center_decomposability_sweep(t, r):
    g = _ambient(t, r)
    for sp in _all_specs(t, r):
        if sp.rank != r:
            continue
        sw = build_seaweed(g, sp)
        zs = center(sw)
        assert (len(zs) == 0) == is_indecomposable(sp)
        assert len(zs) == r - len(sp.pi1 | sp.pi2)
        comps = quotient_components(sp)
        assert sum(c.rank for c in comps) + len(zs) == r


def test_component_dims_add_up():
    # direct sum of component dimensions + center dim = dim s
    for t, r in [("A", 2), ("A", 3), ("G", 2)]:
        g = _ambient(t, r)
        for sp in _all_specs(t, r):
            if sp.rank != r:
                continue
            sw = build_seaweed(g, sp)
            zdim = len(center(sw))
            total = 0
            for c in quotient_components(sp):
                sub = build_seaweed(_ambient(c.type_label, c.rank), c)
                total += sub.dim
            assert total + zdim == sw.dim


def test_h0_equals_center(g2_fixture):
    sw = seaweed_from_algebra(g2_fixture)
    ctx = adjoint_context(sw)
    assert ctx.cohomology_dims(0).cohomology == len(center(sw))


def test_broken_invariant_raises_and_exits_2(monkeypatch, capsys):
    # a kernel engine that returns a root-vector direction as "central"
    g = _ambient("A", 2)
    sw = build_seaweed(g, spec("A", 2, [1], []))
    pos = next(p for p, i in enumerate(sw.member) if i not in g.cartan)
    monkeypatch.setattr(seaweed, "sparse_kernel_basis",
                        lambda cols, primitive: [{pos: 1}])
    with pytest.raises(InvariantError, match="outside the Cartan"):
        center(sw)
    assert main(["info", "--type", "A", "--rank", "2", "--pi1", "1"]) == 2
    assert "outside the Cartan" in capsys.readouterr().err


def test_center_computed_once_per_seaweed(monkeypatch):
    # info and the center split share one elimination of the ad-kernel of s
    # (the only kernel with dim s columns: the split's has one per Cartan
    # element); each call still gets a list of its own
    sizes = []
    kernel = seaweed.sparse_kernel_basis
    monkeypatch.setattr(seaweed, "sparse_kernel_basis",
                        lambda cols, primitive: sizes.append(len(cols))
                        or kernel(cols, primitive))
    sw = build_seaweed(_ambient("A", 3), spec("A", 3, [1], [3]))
    zs = center(sw)
    assert len(zs) == 1 and sizes == [sw.dim]
    zs.append({0: 1})
    assert center(sw) == zs[:1] and sizes == [sw.dim]
    report = verify_report(sw, sw.spec)
    assert report["ok"] and report["dims"]["center"] == 1
    assert sizes.count(sw.dim) == 1
    assert split_over_center(sw).center_basis == zs[:1]


def test_non_closed_section_rejected():
    # s = h + g_(+/-alpha_1) in A2: the section e, f, h_2 complements the
    # center but misses [e, f] = h_1, so the split is refused, as
    # `subalgebra` refuses that span
    g = _ambient("A", 2)
    sw = build_seaweed(g, spec("A", 2, [1], [1]))
    roots = [i for i in sw.member if i not in g.cartan]
    section = roots + [g.cartan[1]]
    assert set(g.bracket(*roots)) == {g.cartan[0]}
    with pytest.raises(ValueError, match="the domain is not closed"):
        split_over_center(sw, section_indices=section)
    with pytest.raises(ValueError):
        dense.subalgebra(g, [{i: 1} for i in sorted(section)], check=False)


def test_section_outside_s_rejected():
    # the opposite Borel is bracket-closed and has dim s independent
    # vectors, all the rank check sees, but it lies outside s: it does not
    # act on s, so the split is refused
    g = _ambient("A", 2)
    sw = build_seaweed(g, spec("A", 2, [], [1, 2]))
    opposite = sorted(set(range(g.dim)) - set(sw.member) | set(g.cartan))
    assert len(opposite) == sw.dim and not center(sw)
    with pytest.raises(ValueError, match="the module is not closed"):
        split_over_center(sw, section_indices=opposite)


def test_algebra_matches_subalgebra_reference(a2_fixture, g2_fixture):
    # s as a standalone algebra is C(s, s)'s bracket table: the structure
    # constants of the Fraction(1) units of s, key order and types included
    pool = [(_ambient(t, r), s) for t, r in [("A", 1), ("A", 2), ("A", 3),
                                             ("B", 2), ("C", 3), ("G", 2)]
            for s in _all_specs(t, r) if s.rank == r]
    seaweeds = [build_seaweed(g, s) for g, s in pool + [
        (a2_fixture, s) for s in _all_specs("A", 2) if s.rank == 2]]
    seaweeds += [seaweed_from_algebra(L) for L in (a2_fixture, g2_fixture)]
    assert len(seaweeds) == 198
    for sw in seaweeds:
        ref = dense.subalgebra(sw.ambient, [{i: F(1)} for i in sw.member],
                               [sw.ambient.labels[i] for i in sw.member], False)
        assert repr(vars(sw.algebra())) == repr(vars(ref)), sw.spec
