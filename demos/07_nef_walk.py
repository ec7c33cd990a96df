"""Fibration witnesses and the reflection walk into the nef chamber.

Two independent tools: the canonical form pulls a primitive isotropic class
orthogonal to any Kaehler-type class out of the second hyperbolic block,
and the reflection walk moves an isotropic class until no root on the
Kaehler side pairs negatively with it. Each step scans the root levels
delta.omega = 1, 2, ... and reflects in the first root that pairs
negatively, so only the levels up to that one are enumerated. The strictly
decreasing pairing trace is the termination certificate.
"""
from k3lag import (
    direct_sum,
    from_diagonal,
    hyperbolic_plane,
    inner,
    k3_lattice,
    make_nef,
    norm,
    root_slice,
    syz_witness,
)

# The walk on U + <-2>: omega = (3,2,1), start at ell = (1,1,-1). No root at
# level delta.omega = 1 pairs negatively with the start, so the first step
# reflects in a level-2 root; the second step reuses the level-1 listing the
# first one fetched and finds its root there.
host = direct_sum(hyperbolic_plane(), from_diagonal([-2]))
omega = (3, 2, 1)
result = make_nef(host, omega, (1, 1, -1))
print("nef class:", result.nef_class)
print("reflections used:", result.reflections)
print("pairing trace:", result.pairing_trace, "(strictly decreasing)")

# The final certificate is exhaustive, not sampled: the remaining slice
# 0 < delta.omega < ell.omega is finite and every member pairs >= 0 with the
# result. This is the whole slice the last step of the walk scanned, level
# by level, without finding a negative root.
bound = inner(host, result.nef_class, omega)
leftover = root_slice(host, omega, bound)
print("remaining slice:", leftover)
print("all pair non-negatively:",
      all(inner(host, d, result.nef_class) >= 0 for d in leftover))

# Isotropic witnesses in the rank-22 lattice: every Kaehler-type class has
# one, which is the lattice-level statement behind fibration existence.
K3 = k3_lattice()
for w in [(1, 1) + (0,) * 20, (2, 3) + (0,) * 20, (1, 1, 1, 1) + (0,) * 18]:
    ell, report = syz_witness(K3, w)
    print(f"\nw = {w[:4]}..., square {norm(K3, w)}:")
    print("  ell =", ell[:6], "...  ell.ell =", norm(K3, ell),
          " ell.w =", inner(K3, ell, w))
