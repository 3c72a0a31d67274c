"""Growth that is quadratic in two directions and bounded in the third.

At q = 8 over P = 1 + x2^2 + x3^2 the polynomial carries no growth along
the x1 axis, which is only admissible through a limit: solve with
P_eps = P + eps x1^2 for shrinking eps and watch the origin values stay
uniformly bounded while the eps-directions flatten out.  A uniform a
priori bound u_eps(0) <= 2/c_8 = 28 guarantees the limit is nontrivial.
"""

from biharm import Profile, SolveConfig, continuation_eps_to_zero, fit_growth, ray_values

CONFIG = {
    "q": 8.0,
    "poly": {"a": [0.0, 1.0, 1.0], "c": 1.0, "eps_quartic": 0.0},
    "kernel_variant": "unshifted",
    "grid": {"kind": "axisymmetric", "n_r": 192, "n_angle": 96,
             "r_max": 80.0, "grading": 2.0},
    "damping": 1.0,
    "tol_fixed_point": 1e-10,
    "max_iters": 300,
    "seed": 0,
    "continuation": {"eps_sequence": [0.1, 0.03, 0.01, 0.003, 0.001, 0.0003],
                     "eps_param": "axis1"},
}


def main() -> None:
    cfg = SolveConfig.from_dict(CONFIG)
    cont = continuation_eps_to_zero(cfg)

    print("stage     eps      iters   u_eps(0)    bound 28 holds")
    for eps, rep in zip(cont.eps_values, cont.reports):
        print(f"  {eps:9.4f}  {rep.iters:4d}    {rep.u_origin:.8f}   "
              f"{rep.u_origin < 28.0}")

    prof = cont.final_profile
    g = prof.grid
    u = prof.values + g.poly_values(cfg.limit_poly)
    up = Profile(grid=g, values=u)

    r, axis = ray_values(up, 1.0)
    fit_axis = fit_growth(r, axis, "linear")
    r, perp = ray_values(up, 0.0)
    fit_perp = fit_growth(r, perp, "quadratic")
    print(f"\nalong x1:  slope {fit_axis.params['slope']:.6f} "
          "(linear growth from the iterate itself, P is flat here)")
    print(f"across:    curvature {fit_perp.params['curvature']:.6f} "
          "(the polynomial's 1.0)")


if __name__ == "__main__":
    main()
