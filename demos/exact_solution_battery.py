"""Residual battery on the one closed-form solution.

At exponent q = 7 the profile u(r) = sqrt(a + r^2) with a = 15^(-1/2)
satisfies the fourth-order equation exactly, so every verification route
can be exercised against it with known answers: the pointwise equation
residual, the integral-identity residual with a fitted additive offset,
and the density integral beta = (1/8 pi) int u^-7, which equals 1.
"""

import numpy as np

from biharm import (GridSpec, Profile, QuadraticPolynomial, compute_beta,
                    exact_q7_profile, exact_q7_value, integral_residual,
                    pde_residual)

ZERO = QuadraticPolynomial((0.0, 0.0, 0.0), c=0.0)


def main() -> None:
    grid = GridSpec("radial", 2000, 100.0).build()
    prof = exact_q7_profile(grid)
    print(f"u(0) = {prof.values[0]:.12f}  (15^-1/4 = {15.0 ** -0.25:.12f})")

    pde = pde_residual(prof, 7.0)
    print(f"equation residual   max {pde.max_rel:.3e} on r in "
          f"[{pde.window[0]:.2f}, {pde.window[1]:.2f}]")

    integ = integral_residual(prof, 7.0, ZERO, seed=0)
    print(f"integral residual   max {integ.max_rel:.3e}, "
          f"fitted offset {integ.gamma:.3e}")

    beta, note = compute_beta(prof, 7.0)
    print(f"density integral    beta = {beta:.9f}  (exact value 1)")
    if note:
        print(f"                    {note}")

    # the linear slope at infinity equals beta for a profile with u ~ r
    mid = grid.r[grid.r > 10.0]
    slope = np.polyfit(mid, exact_q7_value(mid), 1)[0]
    print(f"tail slope          {slope:.6f} -> 1 as the window moves out")


if __name__ == "__main__":
    main()
