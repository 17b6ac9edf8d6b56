"""Homotopy and Casimir operators, and the rigidity certificate.

The homotopy operator is (kF)(x_1..x_{q-1}) = sum_j [e^j, F(e_j, x_1, ...)],
summing over the whole ambient basis with its dual partners.  The Casimir
operator acts through the full cochain module structure (value and arguments);
that reading reproduces the published operator chain and satisfies
Gamma = delta k + k delta, which the test suite checks coefficient-wise.

What depends on the ambient algebra alone is computed once per algebra and
kept on it, on first use (never while the algebra is constructed): the
complex C^*(g, g) (`cochain.full_context`), the brackets [e^j, e_k] that
`homotopy` reads, the Casimir columns sum_j [e^j, [e_j, e_k]] that
`casimir_action` reads, the Casimir constant 2h^v and the string terms of
the predicted entry scalars per pair of simple-root coefficient tuples,
whose squared lengths and root strings the `RootSystem` answers.  Per
seaweed, the predicted scalar of each root is computed once.

The certificate takes its coboundary in C(n, g), not C(g, g): psi f is
supported on n-tuples, so k psi f is too, and n is closed under the bracket;
on an n-tuple both terms of delta(k psi f) then read k psi f only on
n-tuples and brackets inside n, which is the differential of C(n, g) (n the
domain, all of g the module): the restriction lemma of `cochain`, delta of
C(g, g) with insertions limited to n.  `restrict` keeps only n-tuples, so
the image is the same cochain (`_certificate_image`).  C(n, s) and C(n, g)
are views of C(g, g) and share its codes, so the certificate runs on one
code space from the cocycles to the restricted image, with nothing
re-indexed: psi, restriction and the membership of a value in s read the
code itself.  `homotopy`, `restrict` and the other operators keep Cochains
for callers.

The brackets are kept as D [e^j, e_k] in ints, D the lcm of their
denominators (3 for the published A2 table), so the certificate works on
D delta k psi f of the primitive int cocycles of Z^q(n, s)^r in integer
arithmetic; the entry scalars and the map matrix divide by D once.  No
certificate field changes under a positive rescaling of a cocycle (the
matrix changes by a similarity).  Integral coefficients stay plain ints;
every division has a Fraction operand, so no result becomes a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .chevalley import LieAlgebra
from .cochain import (Cochain, _decoded, _delta, _invariant_entry, coboundary,
                      full_context, invariant_coboundaries,
                      nilradical_ambient_context, nilradical_context)
from .exactlin import Echelon, InvariantError, sparse_rank, vec_add
from .rootsystem import pack

CASIMIR_READING = "value_action"


class OperatorContext:
    """A seaweed with its ambient semisimple algebra, whose invariant form
    must be nondegenerate (`DegenerateFormError` otherwise)."""

    def __init__(self, sw):
        sw.ambient.dual_basis()
        self.ambient = sw.ambient
        self.seaweed = sw
        self.gg = full_context(sw.ambient)
        self.ns = nilradical_context(sw)


def _dual_brackets(g: LieAlgebra):
    """(D, D [e^j, e_k] per j and k as ints), D the lcm of the denominators
    of the brackets [e^j, e_k]; built once per algebra; callers must not
    mutate them."""
    if not hasattr(g, "_dual_brackets"):
        table = [[g.bracket_vec(d, {k: 1}) for k in range(g.dim)]
                 for d in ({i: c for i, c in enumerate(col) if c}
                           for col in g.dual_basis())]
        D = lcm(*(v.denominator
                  for row in table for b in row for v in b.values()))
        g._dual_brackets = D, [[{i: int(v * D) for i, v in b.items()}
                                for b in row] for row in table]
    return g._dual_brackets


def _casimir_columns(g: LieAlgebra):
    """sum_j [e^j, [e_j, e_k]] per k, built once per algebra from the
    brackets [e^j, e_i]; callers must not mutate them."""
    if not hasattr(g, "_casimir_columns"):
        D, table = _dual_brackets(g)
        cols = []
        for k in range(g.dim):
            acc = {}
            for j in range(g.dim):
                for i, c in g.bracket(j, k).items():
                    vec_add(acc, table[j][i], c)
            cols.append({i: Fraction(v, D) for i, v in acc.items()})
        g._casimir_columns = cols
    return g._casimir_columns


def extend_by_zero(octx: OperatorContext, f: Cochain) -> Cochain:
    """Continuation with zero: C^q(n, s) -> C^q(g, g), through the codes that
    C(n, s) shares with C(g, g)."""
    ctx, ns = f.context, octx.ns
    if ctx is not ns and (ctx.domain != ns.domain or ctx.module != ns.module):
        raise ValueError("cochain is not over (n, s)")
    codes = {ns.code(tup, k): c for (tup, k), c in f.items()}
    return _decoded(octx.gg, f.degree, codes)


def restrict(octx: OperatorContext, F: Cochain) -> Cochain:
    """Coordinate restriction C^q(g, g) -> C^q(n, s), through the codes that
    they share.

    Rejects the input (naming the offending tuple) when some value on an
    n-tuple escapes the seaweed.  Tuples are checked in increasing order,
    so the tuple named does not depend on how F was computed.
    """
    ns, gg = octx.ns, octx.gg
    codes = {}
    for tup in sorted(F.data):
        if not all(i in ns._dom_pos for i in tup):
            continue
        vec = F.data[tup]
        outside = [k for k in vec if k not in ns._mod_pos]
        if outside:
            labels = [octx.ambient.labels[i] for i in tup]
            raise ValueError(
                f"value on ({', '.join(labels)}) lies outside s "
                f"(components {sorted(outside)})")
        codes.update((gg.code(tup, k), c) for k, c in vec.items())
    return _decoded(ns, F.degree, codes)


def homotopy(octx: OperatorContext, F: Cochain) -> Cochain:
    """(kF)(x_1..x_{q-1}) = sum_j [e^j, F(e_j, x_1, .., x_{q-1})], read off
    the integer table D [e^j, e_k] of `_dual_brackets`."""
    if F.degree < 1:
        raise ValueError("homotopy needs degree >= 1")
    D, table = _dual_brackets(octx.ambient)
    out = {}
    for tup, vec in F.data.items():
        for pos, j in enumerate(tup):
            contrib = {}
            for k, c in vec.items():
                vec_add(contrib, table[j][k], Fraction(-c if pos % 2 else c, D))
            if contrib:
                vec_add(out.setdefault(tup[:pos] + tup[pos + 1:], {}), contrib)
    return Cochain(octx.gg, F.degree - 1, out)


def casimir_action(octx: OperatorContext, F: Cochain) -> Cochain:
    """Gamma F: the Casimir element acting on the values of F.

    (Gamma F)(args) = sum_j [e^j, [e_j, F(args)]], read off the per-algebra
    Casimir columns.  Of the two readings the published computation admits,
    this one reproduces its numbers and makes Gamma = delta k + k delta an
    identity; iterating the full Lie derivative instead gives a different
    operator (twice this one on the adjoint), so that reading is rejected.
    See CASIMIR_READING.
    """
    cols = _casimir_columns(octx.ambient)
    out = {}
    for tup, vec in F.data.items():
        acc = {}
        for k, c in vec.items():
            vec_add(acc, cols[k], c)
        if acc:
            out[tup] = acc
    return Cochain(octx.gg, F.degree, out)


def modified_casimir(octx: OperatorContext, F: Cochain) -> Cochain:
    """(Gamma - k delta) F, which equals delta k F by the Casimir identity."""
    return casimir_action(octx, F).add(homotopy(octx, coboundary(F)), -1)


# -- certificate -------------------------------------------------------------


@dataclass
class CocycleWitness:
    index: int
    entry_scalars: list            # per-entry ratio of delta k psi(f) to f
    proportional: bool             # single scalar across all entries
    eigenvalue: Fraction | None    # that scalar, when proportional
    positive: bool
    in_invariant_coboundaries: bool
    predicted_scalars: list | None = None
    prediction_matches: bool | None = None


@dataclass
class RigidityCertificate:
    degree: int
    invariant_cocycle_dim: int
    injective: bool
    vacuous: bool
    witnesses: list
    success: bool
    casimir_reading: str = CASIMIR_READING
    form_scale: str = "1"
    failure: str | None = None
    positive_spectrum: bool = True
    char_poly: list | None = None

    def as_dict(self):
        return {
            "degree": self.degree,
            "invariant_cocycle_dim": self.invariant_cocycle_dim,
            "injective": self.injective,
            "vacuous": self.vacuous,
            "success": self.success,
            "casimir_reading": self.casimir_reading,
            "form_scale": self.form_scale,
            "failure": self.failure,
            "positive_spectrum": self.positive_spectrum,
            "char_poly": (None if self.char_poly is None
                          else [str(c) for c in self.char_poly]),
            "witnesses": [
                {
                    "index": w.index,
                    "entry_scalars": [str(s) for s in w.entry_scalars],
                    "proportional": w.proportional,
                    "eigenvalue": None if w.eigenvalue is None else str(w.eigenvalue),
                    "positive": w.positive,
                    "in_invariant_coboundaries": w.in_invariant_coboundaries,
                    "prediction_matches": w.prediction_matches,
                }
                for w in self.witnesses
            ],
        }


def _cocycle_codes(octx, q):
    """Z^q(n, s)^r as {code: coefficient}: the invariant codes combined by
    the primitive kernel relations of their coboundaries, the codes of a
    tuple together."""
    ns = octx.ns
    inv, m = _invariant_entry(ns, q)[0], ns._stride
    cocycles = []
    for rel in invariant_coboundaries(ns, q).kernel(primitive=True):
        # a tuple that cancels is dropped after its term: the tuple order
        # (reported by entry_scalars) of adding the terms with Cochain.add
        data = {}       # mask -> {k: coefficient}
        for p, c in rel.items():
            for code, v in inv[p].items():
                vec_add(data.setdefault(code // m, {}), {code % m: v}, c)
            data = {mask: vec for mask, vec in data.items() if vec}
        cocycles.append({mask * m + k: v for mask, vec in data.items()
                         for k, v in vec.items()})
    return cocycles


def rigidity_certificate(octx: OperatorContext, q) -> RigidityCertificate:
    """Replay the injection Z^q(n,s)^r -> B^q(n,s)^r through delta k psi.

    For each basis cocycle f the certificate records the entrywise scaling of
    restrict(delta k psi(f)) against f, its positivity, and membership in the
    invariant coboundaries; success means the composite map is injective.
    When the images lie in the span of the cocycles, images[j] =
    D sum_i M_ij f_i over the independent f_i, so rank(images) = rank M,
    full exactly when det M = +/- char_poly[-1] is nonzero; only otherwise
    are the images eliminated.
    """
    cocycles = _cocycle_codes(octx, q)
    cert = RigidityCertificate(q, len(cocycles), True, not cocycles, [],
                               True, form_scale=str(octx.ambient.form_scale))
    if not cocycles:
        return cert

    b_span = invariant_coboundaries(octx.ns, q - 1)

    D = _dual_brackets(octx.ambient)[0]     # images are D delta k psi f
    images = []
    for idx, f in enumerate(cocycles):
        try:
            image = _certificate_image(octx, f)
        except ValueError as exc:
            cert.success = False
            cert.injective = False
            cert.failure = str(exc)
            return cert
        images.append(image)
        ratios, proportional = _witness_ratios(f, image, octx.ns._stride, D)
        scalars = list(ratios.values())
        uniform = proportional and len(set(scalars)) <= 1
        eigenvalue = scalars[0] if uniform and scalars else None
        positive = all(s > 0 for s in scalars)
        in_b = b_span.contains(image)
        predicted = _predicted_scalars(octx, ratios)
        matches = predicted is not None and predicted == scalars
        cert.witnesses.append(CocycleWitness(
            idx, scalars, proportional, eigenvalue, positive, in_b,
            predicted, matches))
        if not in_b:
            cert.success = False
    # the actual matrix of delta k psi on Z^q(n,s)^r, and its spectrum sign
    try:
        mat = _map_matrix(cocycles, images, D)
    except ValueError as exc:
        cert.injective = sparse_rank(images) == len(cocycles)
        cert.success = False
        cert.positive_spectrum = False
        cert.failure = str(exc)
        return cert
    cert.char_poly = _char_poly(mat)
    cert.injective = cert.char_poly[-1] != 0
    cert.positive_spectrum = _alternating_signs(cert.char_poly)
    cert.success = cert.success and cert.injective and cert.positive_spectrum
    return cert


def _witness_ratios(f, image, m, D):
    """({mask: ratio of image to D f at its first entry} over the tuples of
    f, in f's order, and whether all of a tuple scales by it, with no image
    entry off f there), by integer cross-multiplication; the codes of a
    tuple of f are together."""
    got = {}
    for code, v in image.items():
        got.setdefault(code // m, {})[code % m] = v
    ratios, proportional = {}, True
    for code, c in f.items():
        mask, k = divmod(code, m)
        at = got.get(mask, {})
        if mask not in ratios:
            c0, g0 = c, at.get(k, 0)
            ratios[mask] = Fraction(g0, c0 * D)
            proportional = proportional and all(mask * m + j in f for j in at)
        elif at.get(k, 0) * c0 != g0 * c:
            proportional = False
    return ratios, proportional


def _certificate_image(octx: OperatorContext, f):
    """D restrict(delta k psi f) for the codes {code: coefficient} of a
    q-cochain f of C(n, s), q >= 1, as codes of C(n, s), with delta taken in
    C(n, g), for the D of `_dual_brackets`.

    psi f is supported on n-tuples, so k psi f(x_1..x_{q-1}) =
    sum_j [e^j, psi f(e_j, x_1, ..)] is supported on n-tuples too, and n is
    closed under the bracket.  On a q-tuple of n, both terms of
    delta(k psi f) therefore read k psi f only on n-tuples and brackets
    inside n: that is the differential of C(n, g), with n the domain and all
    of g the module.  `restrict` keeps only n-tuples, so this is D times the
    cochain restrict(coboundary(homotopy(octx, extend_by_zero(octx, f)))),
    with no tuple of C(g, g) outside n computed.  C(n, s), C(n, g) and
    C(g, g) share one code space, so nothing is re-indexed.
    """
    ns, dim = octx.ns, octx.ambient.dim
    table = _dual_brackets(octx.ambient)[1]
    kf = {}
    for code, c in f.items():
        mask, k = divmod(code, dim)
        if not mask:
            raise ValueError("homotopy needs degree >= 1")
        tpos, bits = 0, mask
        while bits:
            t = bits & -bits        # the bits of the mask, increasing
            bits ^= t
            row, sc = (mask ^ t) * dim, -c if tpos & 1 else c
            for i, v in table[t.bit_length() - 1][k].items():
                kf[row + i] = kf.get(row + i, 0) + sc * v
            tpos += 1
    dkf = _delta(nilradical_ambient_context(octx.seaweed), kf)
    if not all(code % dim in ns._mod_pos for code in dkf):
        # a value outside s: `restrict` raises, naming the least n-tuple
        restrict(octx, _decoded(octx.gg, None, dkf))
    return dkf


def _map_matrix(basis, images, scale):
    """Sparse rows {column: entry} of the matrix whose column j holds the
    coordinates of images[j] / scale in the basis, all given as codes."""
    keys = set().union(*basis)
    ech = Echelon(basis, track=True)
    rows = [{} for _ in basis]
    for j, im in enumerate(images):
        if not keys.issuperset(im):
            raise ValueError("image leaves the invariant cocycle space")
        sol = ech.coords(im)
        if sol is None:
            raise ValueError("image is not a combination of the cocycle basis")
        for i, c in sol.items():
            if c != 0:
                rows[i][j] = c / scale
    return rows


def _char_poly(rows):
    """Coefficients of det(xI - M), leading first, for the square matrix M
    given by its sparse rows {column: entry}.

    The Faddeev-LeVerrier recurrence M_k = M M_(k-1) + c_k I,
    c_k = -tr(M M_(k-1)) / k, on sparse rows: it skips only zero terms of
    exact sums, so the coefficients are those of the dense recurrence.  It
    runs in ints on N = L M, L the lcm of the entries' denominators:
    det(xI - M) = L^-d det(LxI - N) gives c_k(M) = c_k(N) / L^k, and N has
    an integer characteristic polynomial, so each division by k is exact.
    """
    d = len(rows)
    L = lcm(*(a.denominator for row in rows for a in row.values()))
    rows = [{t: int(a * L) for t, a in row.items()} for row in rows]
    coeffs = [Fraction(1)]
    mk = [{i: 1} for i in range(d)]
    for k in range(1, d + 1):
        prod = []
        for row in rows:
            acc = {}
            for t, a in row.items():
                vec_add(acc, mk[t], a)
            prod.append(acc)
        c, rem = divmod(-sum(prod[i].get(i, 0) for i in range(d)), k)
        if rem:
            raise InvariantError(f"c_{k} of an integer matrix is not integral")
        coeffs.append(Fraction(c, L ** k))
        for i, acc in enumerate(prod):
            vec_add(acc, {i: c})
        mk = prod
    return coeffs


def _alternating_signs(coeffs):
    """All roots positive (given a real spectrum) iff signs alternate."""
    for k, c in enumerate(coeffs):
        if k == 0:
            continue
        expected = -1 if k % 2 else 1
        if c == 0 or (c > 0) != (expected > 0):
            return False
    return True


def _predicted_scalars(octx, masks):
    """Entry scalars of the modified Casimir predicted from root strings,
    for the entries on the n-tuples with these bit masks.

    Each entry of an invariant cocycle takes its value in the root space of
    beta = sum of the argument roots; its scalar is (beta, beta) plus the
    string terms T(gamma, beta) of `_string_term` over the roots gamma
    outside n, in the invariant form the dual basis uses.  On g the Casimir
    element of the normalized form acts by C = 2h^v (Kac, *Infinite-
    dimensional Lie algebras*, Sec. 6), so (beta, beta) plus T(gamma, beta)
    summed over every root gamma is C for every root beta, and the Killing
    form is 1/C times the normalized one.  With B = form_scale * kappa the
    scalar is therefore (C - sum over gamma in n of T(gamma, beta)) /
    (form_scale * C): root data and the declared scale alone.  The scalar
    of each beta is computed once per seaweed.  Returns None when root data
    is missing.
    """
    g = octx.ambient
    if g.root_system is None or not g.root_of:
        return None
    C = _casimir_constant(g)
    sw = octx.seaweed
    if not hasattr(sw, "_entry_scalars"):
        sw._entry_scalars = {}      # beta -> predicted scalar
    memo = sw._entry_scalars
    out = []
    for mask in masks:
        beta = tuple(map(sum, zip(*(g.root_of[t] for t in
                                    range(mask.bit_length()) if mask >> t & 1))))
        if not any(beta):
            return None  # value in the Cartan: the string formula does not apply
        scalar = memo.get(beta)
        if scalar is None:
            scalar = memo[beta] = (C - sum(
                _string_term(g, g.root_of[i], beta) for i in sw.nilradical)
            ) / (g.form_scale * C)
        out.append(scalar)
    return out


def _casimir_constant(g: LieAlgebra):
    """C = (beta, beta) + sum of `_string_term`(gamma, beta) over every root
    gamma, the same for every root beta (`_predicted_scalars`); summed once
    per algebra at the first simple root."""
    if not hasattr(g, "_casimir_constant"):
        rs = g.root_system
        beta = (1,) + (0,) * (rs.rank - 1)
        g._casimir_constant = _sq_length(rs, beta) + sum(
            _string_term(g, gamma, beta) for gamma in rs.root_coeffs)
    return g._casimir_constant


def _string_term(g: LieAlgebra, gamma, beta):
    """What the root vectors of +/-gamma add to the scalar at beta:
    (gamma, gamma) when beta = gamma, 0 when beta = -gamma, and otherwise
    (gamma, gamma) r (q+1)/2 for the gamma-string beta-r*gamma .. beta+q*gamma."""
    if not hasattr(g, "_string_terms"):
        g._string_terms = {}
    val = g._string_terms.get((gamma, beta))
    if val is None:
        rs = g.root_system
        if beta == gamma:
            val = _sq_length(rs, gamma)
        elif beta == tuple(-x for x in gamma):
            val = Fraction(0)
        else:
            r, q = rs.string(gamma, beta)
            val = _sq_length(rs, gamma) * r * (q + 1) / 2
        g._string_terms[(gamma, beta)] = val
    return val


def _sq_length(rs, c):
    """(gamma, gamma) for the root gamma with coefficient tuple c: its int
    `lengths` entry c^T G c times form_scale / den^2, as `gram` is G."""
    den = rs._int_gram[0]
    return rs.lengths[pack(c)] * rs.form_scale / (den * den)
