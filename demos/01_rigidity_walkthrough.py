"""Walk through the rigidity machinery on the 8-dimensional type-A2 algebra.

Loads the shipped structure-constant table, builds the seaweed with
pi1 = {} and pi2 = {a2, a1}, and replays the whole operator chain that
exhibits the invariant 2-cocycle as a coboundary: dual basis, continuation
by zero, homotopy operator, Casimir, and the rigidity certificate.

Run from the repository root:  python demos/01_rigidity_walkthrough.py
"""

from pathlib import Path

from seaweedcoh.casimir import (OperatorContext, casimir_action,
                                extend_by_zero, homotopy, modified_casimir,
                                restrict, rigidity_certificate)
from seaweedcoh.chevalley import load_fixture
from seaweedcoh.cochain import adjoint_context, coboundary, invariant_cochains
from seaweedcoh.seaweed import SeaweedSpec, build_seaweed

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def show(label, cochain, algebra):
    rows = []
    for tup, vec in sorted(cochain.data.items()):
        args = ",".join(algebra.labels[i] for i in tup)
        val = " + ".join(f"{c}*{algebra.labels[k]}" for k, c in sorted(vec.items()))
        rows.append(f"({args}) -> {val}")
    print(f"  {label}: " + ("; ".join(rows) if rows else "0"))


L = load_fixture(FIXTURES / "a2_table1")
print(f"ambient algebra: dim {L.dim}, Jacobi verified on load")

print("\ndual basis (inverts the declared invariant form):")
for j, col in enumerate(L.dual_basis()):
    terms = " + ".join(f"{c}*{L.labels[i]}" for i, c in enumerate(col) if c)
    print(f"  {L.labels[j]}^ = {terms}")

spec = SeaweedSpec.make("A", 2, [], [2, 1])
sw = build_seaweed(L, spec)
print(f"\nseaweed (pi1={{}}, pi2={{a2,a1}}): dim {sw.dim}")
print("  nilradical:", [L.labels[i] for i in sw.nilradical])
print("  reductive: ", [L.labels[i] for i in sw.reductive])

ctx = adjoint_context(sw)
print("\nadjoint cohomology of s (absolute rigidity):")
for q in range(6):
    z, b, h = ctx.cohomology_dims(q)
    print(f"  q={q}: dim Z={z:3d} dim B={b:3d} dim H={h}")

octx = OperatorContext(sw)
f2 = invariant_cochains(octx.ns, 2)[0]
print("\nthe invariant 2-cocycle on the nilradical:")
show("f2", f2, sw.algebra())

fbar = extend_by_zero(octx, f2)
kf = homotopy(octx, fbar)
show("k f2", kf, L)
dk = coboundary(kf)
print("  (d k f2)(e4,e5) =", dict(dk.data[(3, 4)]), "-> 4/3 * f2")
kd = homotopy(octx, coboundary(fbar))
print("  (k d f2)(e4,e5) =", dict(kd.data[(3, 4)]))
gamma = casimir_action(octx, fbar)
print("  (Gamma f2)(e4,e5) =", dict(gamma.data[(3, 4)]))
gbar = modified_casimir(octx, fbar)
assert gbar == dk
print("  modified Casimir equals d k f2: the cocycle is a coboundary,")
print("  scaled by", dict(restrict(octx, dk).data[(0, 1)])[2])

cert = rigidity_certificate(octx, 2)
print("\nrigidity certificate at q=2:")
print(" ", cert.as_dict())
