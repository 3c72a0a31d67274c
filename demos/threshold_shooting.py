"""Threshold trajectories of the radial initial value problem.

For each u(0) there is a critical initial Laplacian w_crit separating
profiles that touch zero from profiles that grow.  The trajectory at the
threshold has a universal growth law depending only on q:

  1 < q < 3   u ~ C(q) r^(4/(q+1)) with an explicit constant
      q = 3   u ~ 2^(1/4) r (log r)^(1/4)
      q > 3   u ~ b r with a nonuniversal slope

The demo locates the threshold for q = 2, 3, 5 and compares the fitted
plateau against the predicted law.
"""

import math

from biharm import (bisect_growth_threshold, borderline_exponent,
                    threshold_growth_diagnostics, universal_coefficient)


def main() -> None:
    for q in (2.0, 3.0, 5.0):
        res = bisect_growth_threshold(q, 1.0, 1e4)
        diag = threshold_growth_diagnostics(res.trajectory, q)
        model, s = borderline_exponent(q)
        print(f"q = {q}:  w_crit = {res.w_crit:.8f} "
              f"({len(res.history)} shots)")
        print(f"  law {model}, target exponent {s:.6f}, "
              f"fitted {diag['exponent']:.6f}")
        if 1.0 < q < 3.0:
            want = universal_coefficient(q)
            print(f"  coefficient {diag['coeff']:.6f} vs universal "
                  f"{want:.6f} ({abs(diag['coeff'] - want) / want:.2%} off)")
        elif q == 3.0:
            want = 2.0 ** 0.25
            print(f"  compensated plateau {diag['coeff']:.6f} vs 2^(1/4) = "
                  f"{want:.6f} ({abs(diag['coeff'] - want) / want:.2%} off,"
                  " drifting up)")
        else:
            print(f"  slope {diag['coeff']:.6f} (problem dependent)")
        print()

    # a large origin value makes the density negligible, so even w0 = 0
    # survives and there is nothing to bracket against
    print("q = 5 with u(0) = 100 has no bracket:")
    try:
        bisect_growth_threshold(5.0, 100.0, 50.0)
    except Exception as exc:
        print(f"  {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()
