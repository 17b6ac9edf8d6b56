"""Seaweed (biparabolic) subalgebras and their structure.

A seaweed is cut out of a simple algebra by two subsets pi1, pi2 of simple
roots.  The realization here puts the (empty, full) seaweed on the negative
root side, matching the published A2 example; the opposite convention is
related by the Chevalley involution and gives the same dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import rootsystem
from .chevalley import LieAlgebra
from .cochain import adjoint_context, quotient_context
from .exactlin import Echelon, InvariantError, sparse_kernel_basis


@lru_cache(maxsize=None)
def _cached_build(type_label, rank):
    """One root system per type per process; `rootsystem.build` is read at
    call time, so a wrapper installed on it sees every build."""
    return rootsystem.build(type_label, rank)


@dataclass(frozen=True)
class SeaweedSpec:
    """The pair (pi1 | pi2), simple-root indices 1-based."""
    type_label: str
    rank: int
    pi1: frozenset
    pi2: frozenset

    def __post_init__(self):
        for pi in (self.pi1, self.pi2):
            bad = [i for i in pi if not 1 <= i <= self.rank]
            if bad:
                raise ValueError(f"simple-root index out of range: {bad}")

    @classmethod
    def make(cls, type_label, rank, pi1, pi2):
        return cls(type_label, rank, frozenset(pi1), frozenset(pi2))


def is_indecomposable(spec: SeaweedSpec) -> bool:
    return spec.pi1 | spec.pi2 == set(range(1, spec.rank + 1))


@dataclass
class Seaweed:
    ambient: LieAlgebra
    spec: SeaweedSpec | None
    member: tuple          # basis indices of s inside the ambient algebra
    reductive: tuple       # r: Cartan indices plus paired root vectors
    nilradical: tuple      # n: root vectors whose opposite is outside s
    dual_nilradical: tuple # indices of the Killing-dual partners of n
    remainder: tuple       # everything else

    @property
    def dim(self):
        return len(self.member)

    def algebra(self):
        """s as a standalone algebra in its member basis (cached): the
        bracket table of C(s, s)."""
        if not hasattr(self, "_algebra"):
            self._algebra = LieAlgebra(
                self.dim, adjoint_context(self).dbr,
                [self.ambient.labels[i] for i in self.member], check=False)
        return self._algebra


def _support(coeffs):
    return {i + 1 for i, c in enumerate(coeffs) if c != 0}


def build_seaweed(g: LieAlgebra, spec: SeaweedSpec) -> Seaweed:
    """Realize p(pi1 | pi2) inside g; g needs root annotations of the
    spec's type and rank (its rank alone when g has no root system)."""
    if not g.root_of:
        raise ValueError("ambient algebra has no root annotations")
    rs = g.root_system
    fits = ((rs.type_label, rs.rank) == (spec.type_label, spec.rank) if rs
            else all(len(c) == spec.rank for c in g.root_of.values()))
    if not fits:
        raise ValueError(f"spec of type {spec.type_label}{spec.rank} does not "
                         f"fit the root data of the ambient algebra")
    member = list(g.cartan)
    for i, coeffs in sorted(g.root_of.items()):
        positive = all(c >= 0 for c in coeffs)
        supp = _support(coeffs)
        if positive and supp <= spec.pi1:
            member.append(i)
        elif not positive and supp <= spec.pi2:
            member.append(i)
    member = tuple(sorted(member))
    return _partition(g, spec, member)


def seaweed_from_algebra(L: LieAlgebra) -> Seaweed:
    """Wrap a standalone algebra (e.g. a fixture that is itself a seaweed)."""
    return _partition(L, None, tuple(range(L.dim)))


def _partition(g, spec, member):
    member_set = set(member)
    nil, red = [], []
    for i in member:
        if i in g.cartan or i not in g.root_of:
            red.append(i)
            continue
        opp = g.opposite_index(i)
        if opp is not None and opp in member_set:
            red.append(i)
        else:
            nil.append(i)
    dual = []
    for i in nil:
        opp = g.opposite_index(i)
        if opp is not None:
            dual.append(opp)
    rest = tuple(sorted(set(range(g.dim)) - member_set - set(dual)))
    sw = Seaweed(g, spec, member, tuple(red), tuple(nil), tuple(dual), rest)
    if set(dual) & member_set:
        raise InvariantError("a dual partner of n lies inside s")
    return sw


def center(sw: Seaweed):
    """Basis of Z(s) as ambient vectors inside the Cartan (cached per seaweed;
    each call gets a fresh list)."""
    if not hasattr(sw, "_center"):
        # column per member index i: rows (j, k) give coeff of e_k in
        # [e_i, e_j], read off the ambient's cached ad(e_i) restricted to s
        # (its keys and the members both increase)
        member = set(sw.member)
        cols = [{(j, k): v for j, b in sw.ambient.ad(i).items() if j in member
                 for k, v in b.items()} for i in sw.member]
        cartan_like = set(sw.ambient.cartan) | (member - set(sw.ambient.root_of))
        out = []
        for rel in sparse_kernel_basis(cols, primitive=True):
            vec = {sw.member[p]: c for p, c in rel.items()}
            if not set(vec) <= cartan_like:
                raise InvariantError("central vector outside the Cartan")
            out.append(vec)
        sw._center = out
    return list(sw._center)


@dataclass
class CenterSplit:
    seaweed: Seaweed
    center_basis: list      # ambient coordinate dicts
    complement_basis: list  # ambient coordinate dicts, bracket-closed
    echelon: Echelon        # tracked, over center_basis + complement_basis

    @cached_property
    def quotient(self) -> LieAlgebra:
        """The complement's structure constants, built on first use."""
        return LieAlgebra(len(self.complement_basis),
                          quotient_context(self).dbr, check=False)

    def project_to_quotient(self, vec):
        """Quotient coordinates of the projection along the center."""
        sol = self.echelon.coords(vec)
        if sol is None:
            raise ValueError("vector outside s")
        z = len(self.center_basis)
        return {i - z: c for i, c in sol.items() if i >= z}

    def center_functional(self, which=0, vector=None):
        """z* with z*(z) = 1 and z* = 0 on the complement.

        `z` is center_basis[which], or `vector` (any vector spanning the same
        center direction, e.g. a published normalization of it).
        ValueError unless 0 <= which < dim Z.
        """
        if not 0 <= which < len(self.center_basis):
            raise ValueError(f"no center basis vector {which}")
        basis = list(self.center_basis)
        if vector is not None:
            basis[which] = dict(vector)
        dim = self.seaweed.ambient.dim
        # column i holds coordinate i of every basis vector: solving for
        # {which: 1} gives the values of z* on the ambient basis
        cols = [{} for _ in range(dim)]
        for k, v in enumerate(basis + self.complement_basis):
            for i, c in v.items():
                cols[i][k] = c
        sol = Echelon(cols, track=True).coords({which: 1})
        if sol is None:
            raise ValueError("center functional does not extend")
        return [sol.get(i, Fraction(0)) for i in range(dim)]


def split_over_center(sw: Seaweed, section_indices=None) -> CenterSplit:
    """Split s = Z(s) (+) s' with s' bracket-closed.

    The Cartan part of s' defaults to the Killing-orthogonal complement of the
    center inside the Cartan of s (which contains [s,s] cap h); a coordinate
    complement is used when the restricted Killing form cannot separate, and
    `section_indices` picks an explicit complement basis instead.  For a spec
    it is span{h_i : i in pi1 u pi2} in unit vectors: the column of h_i
    vanishes, as kappa(h_i, z) is proportional to alpha_i(z) = 0 on Z(s),
    and the other dim Z(s) columns have rank dim Z(s), so each kernel
    relation is the unit of a zero column.  The complement is listed by
    least ambient index, so a unit one is in ambient order, as a view of
    C(g, g) takes it (`cochain.quotient_context`).
    """
    g = sw.ambient
    zs = center(sw)
    cartan_like = sorted(set(sw.member) & (set(g.cartan) | (set(sw.member) - set(g.root_of))))
    roots_in_s = [i for i in sw.member if i not in cartan_like]

    if section_indices is not None:
        comp = [{i: 1} for i in sorted(section_indices)]
    elif not zs:
        comp = [{i: 1} for i in sw.member]
    else:
        kappa = g.killing_matrix()
        pair = [{k: sum(z.get(i, 0) * kappa[i][h] for i in z)
                 for k, z in enumerate(zs)} for h in cartan_like]
        hbasis = [{cartan_like[p]: c for p, c in rel.items()}
                  for rel in sparse_kernel_basis(pair, primitive=True)]
        if len(hbasis) != len(cartan_like) - len(zs):
            # Killing form too degenerate here: fall back to dropping the
            # pivot coordinates of the center vectors.
            zech = Echelon()
            hbasis = [{h: 1} for h in cartan_like
                      if not zech.add({k: z.get(h, 0) for k, z in enumerate(zs)})]
        comp = sorted(hbasis + [{i: 1} for i in roots_in_s], key=min)

    full = zs + comp
    ech = Echelon(full, track=True)
    if len(full) != sw.dim or ech.rank != sw.dim:
        raise ValueError("complement does not complement the center in s")
    split = CenterSplit(sw, zs, comp, ech)
    quotient_context(split)     # checks that the complement is closed
    for z in zs:
        for c in comp:
            if g.bracket_vec(z, c):
                raise ValueError("center does not commute with the complement")
    return split


def quotient_components(spec: SeaweedSpec):
    """Indecomposable seaweed specs of the summands of s/Z(s)."""
    rs = _cached_build(spec.type_label, spec.rank)
    kept = sorted(spec.pi1 | spec.pi2)
    edges = {(i + 1, j + 1) for i, j, _ in rootsystem.dynkin_edges(rs)}
    adj = {k: set() for k in kept}
    for a in kept:
        for b in kept:
            if (min(a, b), max(a, b)) in edges:
                adj[a].add(b)
    comps = []
    seen = set()
    for start in kept:
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))

    out = []
    for comp in comps:
        type_label, relabel = _classify_subdiagram(rs, comp)
        pi1 = frozenset(relabel[i] for i in spec.pi1 if i in relabel)
        pi2 = frozenset(relabel[i] for i in spec.pi2 if i in relabel)
        out.append(SeaweedSpec(type_label, len(comp), pi1, pi2))
    for sub in out:
        if not is_indecomposable(sub):
            raise InvariantError(f"component {sub} is not indecomposable")
    return out


def _classify_subdiagram(rs, comp):
    """Type label and relabeling {ambient node -> canonical 1-based index}.

    Matches the severed diagram's Cartan matrix against the canonical one of
    each candidate type; searching types in A..G order resolves the B2/C2 and
    A3/D3 coincidences toward the smaller family.  Within a type the relabeling
    is the lexicographically first node order that matches (see
    `_first_embedding`), which fixes the choice among diagram automorphisms
    (the A_n and E6 flips, D4 triality).
    """
    k = len(comp)
    full = rs.cartan_matrix()
    sub = [[full[a - 1][b - 1] for b in comp] for a in comp]
    for t, ok in rootsystem.VALID_RANKS.items():
        if not ok(k):
            continue
        perm = _first_embedding(rootsystem.canonical_cartan(t, k), sub)
        if perm is not None:
            return t, {comp[perm[p]]: p + 1 for p in range(k)}
    raise ValueError(f"cannot classify sub-diagram on nodes {comp}")


def _first_embedding(cm, sub):
    """Lexicographically first perm with cm[p][q] == sub[perm[p]][perm[q]]
    for all p, q, or None.

    Depth-first: canonical positions are filled in order 0..k-1, each with
    the unused nodes in increasing order, and a branch is cut at the first
    entry against an already-placed position that disagrees.  Trying
    candidates in increasing order visits complete assignments in lex order,
    and a cut branch has no valid completion, so the first complete
    assignment is the first valid permutation in `itertools.permutations`
    order.
    """
    k = len(cm)
    perm = []

    def extend(p):
        if p == k:
            return True
        row = cm[p]
        for c in range(k):
            if c in perm or sub[c][c] != row[p]:
                continue
            if all(row[q] == sub[c][perm[q]] and cm[q][p] == sub[perm[q]][c]
                   for q in range(p)):
                perm.append(c)
                if extend(p + 1):
                    return True
                perm.pop()
        return False

    return perm if extend(0) else None


def render_split_dynkin(spec: SeaweedSpec) -> str:
    """Two-row text diagram; a filled node (*) means the root is in the set."""
    rs = _cached_build(spec.type_label, spec.rank)
    edges = {}
    for i, j, m in rootsystem.dynkin_edges(rs):
        edges[(i + 1, j + 1)] = m

    def edge_symbol(a, b):
        m = edges.get((a, b))
        if m is None:
            return "   "
        if m == 1:
            return "---"
        longer = rs.gram[a - 1][a - 1] > rs.gram[b - 1][b - 1]
        return f"={m}>" if longer else f"<{m}="

    def row(pi):
        parts = []
        for i in range(1, spec.rank + 1):
            parts.append("*" if i in pi else "o")
            if i < spec.rank:
                parts.append(edge_symbol(i, i + 1))
        return "".join(parts)

    lines = [row(spec.pi1), row(spec.pi2)]
    extra = [(a, b) for (a, b) in edges if b != a + 1]
    if extra:
        lines.append("branches: " + ", ".join(f"{a}-{b}" for a, b in sorted(extra)))
    return "\n".join(lines)
