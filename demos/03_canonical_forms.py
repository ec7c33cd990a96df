"""Transvections and the canonical form for primitive vectors.

Any primitive w with w.w = 2d >= 0 in the rank-22 lattice can be carried
onto e1 + d*f1 in the first hyperbolic block by an explicit integer
isometry. Everything returned is re-verifiable: g^T G g = G holds exactly
and g(w) is literally the target vector.
"""
import random

from k3lag import canonical_form, k3_lattice, norm, orth_witnesses, transvection
from k3lag.lattice import direct_sum, hyperbolic_plane

K3 = k3_lattice()


def vec(*coords):
    return tuple(coords) + (0,) * (22 - len(coords))


# A transvection is the basic move: for isotropic u and a orthogonal to u,
# x -> x + (x.a)u - (x.u)a - (a.a/2)(x.u)u.
UU = direct_sum(hyperbolic_plane(), hyperbolic_plane())
t = transvection(UU, (1, 0, 0, 0), (0, 0, 1, 0))
print("transvection E(e1, e2) on U+U:")
print("  f2 ->", t.apply((0, 0, 0, 1)))
print("  f1 ->", t.apply((0, 1, 0, 0)))
print("  preserves the form:", t.preserves(UU))

# Canonical form: w = e1 + f1 + e2 + f2 has square 4, so d = 2.
w = vec(1, 1, 1, 1)
res = canonical_form(K3, w)
print(f"\nw = e1+f1+e2+f2 (square {norm(K3, w)}): d = {res.d}")
print("g(w) =", res.g.apply(w)[:4], "... (target e1 + 2 f1)")
print("isometry check:", res.g.preserves(K3))

# A random messy primitive vector lands on the same kind of target.
rng = random.Random(1)
while True:
    cand = tuple(rng.randint(-3, 3) for _ in range(6)) + tuple(
        rng.randint(-1, 1) for _ in range(16)
    )
    if any(cand) and norm(K3, cand) >= 0:
        from k3lag.intlinalg import primitivize

        w2 = primitivize(cand)
        break
res2 = canonical_form(K3, w2)
print(f"\nrandom w with square {norm(K3, w2)}: moved to e1 + {res2.d} f1,",
      "verified:", res2.g.apply(w2) == res2.target)

# Orthogonal witnesses: a square-2 vector and a primitive isotropic vector,
# both orthogonal to w, pulled back from the second hyperbolic block.
v, ell = orth_witnesses(K3, vec(1, 1))
print("\nwitnesses for w = e1+f1: v =", v[:4], " ell =", ell[:4])
v, ell = orth_witnesses(K3, w2)
print("witnesses for the random w: v.v =", norm(K3, v), " ell.ell =", norm(K3, ell))
