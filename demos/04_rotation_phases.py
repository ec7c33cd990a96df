"""Rotation-phase arithmetic on exact period data.

theta is stored by exact rational real/imaginary parts; the unit phase zeta
with zeta^2 = conj(c)/c is irrational in general and never materialized.
Only zeta^2 and sign functionals in which |c| cancels are computed, so the
whole pipeline stays in Q.
"""
from k3lag import (
    PeriodData,
    direct_sum,
    hyperbolic_plane,
    kahler_sign,
    phase_square,
    rotated_picard,
    validate_period,
)

U = hyperbolic_plane()
U3 = direct_sum(U, U, U)


def v(*coords):
    return tuple(coords) + (0,) * (6 - len(coords))


# theta = (e1+f1) + i(e2+f2), omega = e3+f3: all identities hold exactly.
period = PeriodData(U3, v(1, 1), v(0, 0, 1, 1), v(0, 0, 0, 0, 1, 1))
print("period identities:", validate_period(period))

for gamma, label in [(v(1, 0), "e1"), (v(0, 0, 1, 0), "e2"), (v(1, 0, 1, 0), "e1+e2")]:
    ph = phase_square(period, gamma)
    print(f"gamma = {label}: c = {ph.c.re}+{ph.c.im}i, "
          f"zeta^2 = {ph.zeta_squared.re}+{ph.zeta_squared.im}i")

# The rotated Picard lattice: integral classes that become type (1,1) after
# the rotation aligning gamma. The defining cut is rational because the
# irrational modulus |c| drops out of Im(conj(c)(x.theta)) = 0.
rp = rotated_picard(period, v(1, 0))
print("\nrotated Picard lattice for gamma = e1 (rank", rp.rank, "):")
for row in rp.basis:
    print("  ", row)
print("contains gamma:", rp.contains(v(1, 0)))

# Kaehler signs for the rotated form, exact, flipping with the root choice.
x = v(1, 0)
print("\nsign of x.omega_rotated for x = e1, root +:",
      kahler_sign(period, v(1, 0), x, 1))
print("same with root -:", kahler_sign(period, v(1, 0), x, -1))
print("x = e2 - f2 pairs to zero:", kahler_sign(period, v(1, 0), v(0, 0, 1, -1), 1))
