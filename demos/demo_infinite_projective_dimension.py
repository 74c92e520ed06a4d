"""The flagship computation: a principal ideal of infinite projective
dimension, detected and certified by a periodic resolution.

Over R = GF(2)[x]/(x^2) the element x squares to zero and is its own
annihilator, so the ideal (x) resolves as ... -> R -> R -> (x) -> 0 with
every map multiplication by x, forever.

Run with: python demos/demo_infinite_projective_dimension.py
"""

from gproj import (
    GF,
    FPModule,
    PolyRing,
    annihilator_of_element,
    free_resolution,
    infinite_pd_detector,
    pd_bounded,
)

R = PolyRing(GF(2), ("x",)).quotient(["x^2"])
x = R.poly("x")

print("ring:", R)
print("x^2 =", R.mul(x, x))
print("annihilator of x:", "(" + ", ".join(map(str, annihilator_of_element(x, R))) + ")")

print()
print("== the detector ==")
cert = infinite_pd_detector(R, x)
print("accepted:", cert.accepted)
print("pd verdict:", cert.verdict)
print("super-finitely-presented dimension of the ring is infinite:",
      cert.accepted)

print()
print("== the periodic resolution, spelled out ==")
I = FPModule(R, 1, [(x,)])
res = free_resolution(I, 6)
for line in res.report_lines():
    print(" ", line)

print()
print("== contrast: a finite projective dimension over QQ[x] ==")
from gproj import QQ, polynomial_ring

Qx = polynomial_ring(QQ, ("x",))
k = FPModule(Qx, 1, [(Qx.poly("x"),)])
print("pd of QQ[x]/(x):", pd_bounded(k, 4))
print("pd of the free module:", pd_bounded(FPModule.free(Qx, 2), 4))

print()
print("== a rejected input ==")
R3 = PolyRing(GF(2), ("x",)).quotient(["x^3"])
cert2 = infinite_pd_detector(R3, R3.poly("x"))
print("x in GF(2)[x]/(x^3):", "accepted" if cert2.accepted else
      f"rejected ({'; '.join(cert2.failures)})")
