"""The decomposable side: center, splitting, the degree-wise formula, and an
unobstructed deformation of the 3-dimensional G2 seaweed.

Run from the repository root:  python demos/02_decomposable_walkthrough.py
"""

from fractions import Fraction
from pathlib import Path

from seaweedcoh.chevalley import load_fixture
from seaweedcoh.cochain import Cochain, adjoint_context
from seaweedcoh.deform import deform, invariant_profile, jacobi_in_t
from seaweedcoh.gerstenhaber import (cg_dims, cohomologous, cup_with_center,
                                     h2_report, h3_report,
                                     quotient_cohomology)
from seaweedcoh.seaweed import center, seaweed_from_algebra, split_over_center

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

L = load_fixture(FIXTURES / "g2_seaweed")
sw = seaweed_from_algebra(L)
print(f"seaweed s: dim {sw.dim}, basis {list(L.labels)}")

z = center(sw)[0]
print("center: spanned by", " + ".join(f"{c}*{L.labels[i]}" for i, c in z.items()))

split = split_over_center(sw, section_indices=[0, 1])
q = split.quotient
print("splitting s = Z(s) (+) Q with section span{e2, e13}:")
print(f"  Q is {q.dim}-dimensional with [q1, q2] = {dict(q.bracket(0, 1))}")

ctx = adjoint_context(sw)
print("\ndirect adjoint cohomology of s:")
for n in range(4):
    print(f"  dim H^{n}(s,s) = {ctx.cohomology_dims(n).cohomology}")

h1, reps = quotient_cohomology(sw, 1, split=split)
print(f"\nquotient cohomology: dim H^1(Q,s) = {h1}")
rep = cg_dims(sw, 2, split=split)
print(f"degree-2 formula: terms {rep.term_dims} -> total {rep.formula_total}, "
      f"direct {rep.direct_total}, match={rep.match}")
print(f"h2 components (central, mixed): {tuple(h2_report(sw, split=split))}")
print(f"h3 components: {tuple(h3_report(sw, split=split))}")

f1 = reps[0].scale(Fraction(2) / reps[0].data[(1,)][1])
zstar = split.center_functional(0, vector=z)
phi = cup_with_center(split, f1, z_functional=zstar)
print("\ncup product z* with f1:")
print("  phi(e13, e14) =", {L.labels[k]: str(v) for k, v in phi.data[(1, 2)].items()})

gen = Cochain(ctx, 2, {(1, 2): {1: Fraction(2), 2: Fraction(3)}})
print("  -3 phi is cohomologous to the direct generator:",
      cohomologous(ctx, phi.scale(-3), gen))

print("\ndeforming along the generator:")
print("  Jacobi in t (linear, quadratic coefficients vanish):",
      jacobi_in_t(sw, gen))
for t in (1, Fraction(5, 3)):
    alg = deform(sw, gen, t).algebra
    alg.check_jacobi()
    print(f"  t={t}: [e13,e14]_t =",
          {L.labels[k]: str(v) for k, v in alg.bracket(1, 2).items()})
prof0 = invariant_profile(sw.algebra())
prof1 = invariant_profile(deform(sw, gen, 1).algebra)
print(f"  invariant profile t=0: {prof0.as_dict()}")
print(f"  invariant profile t=1: {prof1.as_dict()}  (center has vanished)")
