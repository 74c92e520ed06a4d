"""Grothendieck-group computations: Smith normal form, class decomposition,
the Euler map, and the pushdown/extension round trip.

Run with: python demos/demo_grothendieck_groups.py
"""

from gproj import (
    GF,
    QQ,
    FPModule,
    PolyRing,
    catalog_for,
    class_decompose,
    euler_class,
    euler_map_report,
    group_from_relations,
    polynomial_extension,
    polynomial_ring,
    pushdown_class,
    smith_normal_form,
)
from gproj.errors import PdInfiniteOrUnresolved

print("== Smith normal form ==")
result = smith_normal_form([[2, 0], [0, 3]])
print("diag(2,3) has invariant factors", list(result.diagonal))
print("S =", [list(r) for r in result.S])

print()
print("== a finitely presented abelian group ==")
g = group_from_relations(["[R]", "[k]"], [[1, -2]])
print("generators [R], [k] with relation [R] = 2[k]:", g,
      f"(free rank {g.free_rank})")

print()
print("== class decomposition over catalog rings ==")
R = PolyRing(GF(2), ("x",)).quotient(["x^2"])
M = FPModule.from_strings(R, 2, [["0"], ["x"]])
print("R + R/(x) over the chain ring:", class_decompose(M))

Qx = polynomial_ring(QQ, ("x",))
N = FPModule.from_strings(Qx, 2, [["1", "0"], ["0", "x^2"]])
print("coker(diag(1, x^2)) over QQ[x]:", class_decompose(N))

print()
print("== the Euler class ==")
print("free rank 3:", euler_class(FPModule.free(Qx, 3)))
print("QQ[x]/(x):", euler_class(FPModule(Qx, 1, [(Qx.poly("x"),)])))
I = FPModule(R, 1, [(R.poly("x"),)])
try:
    euler_class(I)
except PdInfiniteOrUnresolved as exc:
    print("(x) over the chain ring: rejected,", exc)

print()
print("== pushdown after extension is the identity ==")
for field, name in ((GF(2), "GF(2)"), (GF(3), "GF(3)"), (QQ, "QQ")):
    base = polynomial_ring(field, ())
    cat = catalog_for(base)
    Mod = cat.module_for_label("[k]")
    ext = polynomial_extension(Mod, "x")
    print(f"{name}: pushdown(extension([k])) =", pushdown_class(ext))

print()
print("== the Euler map report ==")
rep = euler_map_report(catalog_for(Qx), [])
print("QQ[x]:", rep.status, "| free classes round-trip:", rep.free_roundtrip_ok)
rep2 = euler_map_report(catalog_for(R), [])
print("chain ring:", rep2.status, "| offending generator:",
      rep2.offending_generator)
