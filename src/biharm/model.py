"""Core data types: polynomial data, quadrature grids, profiles, configs, reports.

Everything here is plain numpy plus frozen dataclasses.  Both grid kinds
share one node interface: values have the layout grid.shape, grid.r_nodes
is the radius broadcast to it, grid.t the polar cosine of each node column,
and grid.reduction (one SphericalReduction per grid, built once) maps node
values to even Legendre modes (n_r, n_modes) and back.  A radial grid is the
one-column case: its node column t = 1 with Gauss weight 2 carries the one
mode l = 0, which holds on every ray.  Every field is even in x1 (P is, and
the operator keeps it so), so an axisymmetric grid stores only its t > 0
polar nodes, with doubled weights, and the profile CSV holds only those
too.  Grids also own their quadrature (grid.integrate) and
what else depends only on the nodes, each written once for both kinds:
grid.l_values, the angular mean grid.mode0, the truncated moments
(1/8 pi) int |y|^k g (grid.moment), the norm |v|_X (grid.x_norm), the
mode convolution of both kernel variants (grid.convolution, made once per
grid, with tables for the band of modes its densities carry), and P and
its Pohozaev weight (grid.poly_values, grid.pohozaev_weight).  What differs by kind, the
grid answers: the rays a fit reads (grid.rays) and the even quadratics of
its symmetry class (grid.even_quadratics).  Only the profile CSV reader and
writer ask for the kind itself, for the one header a radial file names
`value` instead of its one polar cosine.
Configuration objects round-trip through JSON with fixed field names; a
SolveConfig is checked when it is made, so one that exists is valid.
Report serialization is deterministic (floats rounded to 12 significant
digits) so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .kernels import ModeConvolution

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


class ConfigError(ValueError):
    """Raised for structurally invalid configurations."""


class NonFiniteError(ArithmeticError):
    """Raised when an operator evaluation produces non-finite values."""


class NotIntegrableError(ArithmeticError):
    """Raised when a requested integral provably diverges for the given growth."""


class InsufficientTailError(ValueError):
    """Raised when a fit window cannot be used (analysis.fit_growth says why)."""


# ---------------------------------------------------------------------------
# polynomial data


@dataclass(frozen=True)
class QuadraticPolynomial:
    """P(x) = c + sum_i a_i x_i^2 + eps_quartic |x|^4, even in every x_i.

    The quartic term is an optional regularizer that restores integrability of
    P^-q when the quadratic part alone decays too slowly.
    """

    a: tuple[float, float, float]
    c: float = 1.0
    eps_quartic: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "eps_quartic", float(self.eps_quartic))
        if len(self.a) != 3:
            raise ConfigError("polynomial coefficient vector a must have length 3")

    # -- evaluation ---------------------------------------------------------

    def angular_factor(self, t) -> np.ndarray:
        """a1 t^2 + a2 (1 - t^2), P's quadratic part over r^2 on the ray with
        polar cosine t (axially symmetric P only: a2 == a3)."""
        if not self.is_axisymmetric():
            raise ConfigError("P on spheres (r, t) requires a2 == a3")
        t = np.asarray(t, dtype=float)
        return self.a[0] * t * t + self.a[1] * (1.0 - t * t)

    def value_rt(self, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Evaluate on spheres: radius r, polar cosine t against the x1 axis
        (axisymmetric P only, as angular_factor)."""
        ang = self.angular_factor(t)
        r2 = np.square(r, dtype=float)
        return self.c + r2 * ang + self.eps_quartic * r2 * r2

    def pohozaev_weight_rt(self, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        """2 (x . grad P) - P, the dilation weight entering the integral identity."""
        ang = self.angular_factor(t)
        r2 = np.square(r, dtype=float)
        return 3.0 * r2 * ang + 7.0 * self.eps_quartic * r2 * r2 - self.c

    # -- structure ----------------------------------------------------------

    def is_axisymmetric(self) -> bool:
        return self.a[1] == self.a[2]

    def leading_term(self) -> tuple[int, float]:
        """(m, lead): P ~ lead |x|^m at infinity in every direction.

        A quartic term dominates all directions, (4, eps_quartic); otherwise
        growth is quadratic only when every axis coefficient is positive,
        (2, min a); else P has no growth along some axis, (0, 0.0).
        """
        if self.eps_quartic > 0.0:
            return 4, self.eps_quartic
        if min(self.a) > 0.0:
            return 2, min(self.a)
        return 0, 0.0

    def with_eps(self, param: str, eps: float) -> "QuadraticPolynomial":
        """Return a copy with the continuation knob `param` set to `eps`."""
        if param == "quartic":
            return replace(self, eps_quartic=eps)
        if param == "axis1":
            return replace(self, a=(eps, *self.a[1:]))
        raise ConfigError(f"unknown continuation parameter {param!r}")

    def to_dict(self) -> dict:
        return {"a": list(self.a), "c": self.c, "eps_quartic": self.eps_quartic}

    @classmethod
    def from_dict(cls, d: dict) -> "QuadraticPolynomial":
        """The polynomial of a config's "poly" object (_read_fields); its "b",
        which configs written before P lost its linear part name, must be zeros."""
        if isinstance(d, dict) and "b" in d:
            d, b = {k: v for k, v in d.items() if k != "b"}, d["b"]
            if not (isinstance(b, list) and len(b) == 3 and all(
                    x == 0 and type(x) is not bool for x in b)):
                raise ConfigError(f"iteration requires an even polynomial, got b = {b}")
        return _read_fields(cls, d, "polynomial spec", a=_floats, c=_number,
                            eps_quartic=_number)


# ---------------------------------------------------------------------------
# grids


def _graded_nodes(n: int, r_max: float, grading: float):
    """Graded radial nodes r_k = r_max (k/n)^grading, k = 1..n, plus line weights.

    Line weights w_k approximate int_0^r_max f(r) dr = sum w_k f(r_k) via the
    trapezoid rule in the uniform index variable; for grading > 1 the index-0
    endpoint contributes exactly zero, and for grading = 1 the dropped origin
    cell is O((r_1)^3) under the r^2 measure every caller uses.
    """
    k = np.arange(0, n + 1, dtype=float)
    r_all = r_max * (k / n) ** grading
    dr = r_max * grading * k ** (grading - 1.0) / n**grading
    w = dr.copy()
    w[-1] *= 0.5
    # k = 0 endpoint: weight dr(0), zero for grading > 1
    return r_all[1:], w[1:]


def _grid_error(kind: str, n_r: int, r_max: float, grading: float,
                n_angle: int = 0) -> Optional[str]:
    """Why a grid of this kind cannot be built from these arguments, or None.

    The one home of the grid argument checks: the grid constructors raise
    the message, and SolveConfig raises it without building the grid.
    """
    if kind == "radial":
        if n_r < 8:
            return "radial grid needs at least 8 nodes"
    elif kind == "axisymmetric":
        if n_r < 8:
            return "axisymmetric grid needs at least 8 radii"
        if n_angle < 4 or n_angle % 2 != 0:
            return "axisymmetric grid needs an even n_angle >= 4"
    else:
        return f"unknown grid kind {kind!r}"
    if not (0.0 < r_max < math.inf and 1.0 <= grading < math.inf):  # NaN too
        return f"{kind} grid needs finite r_max > 0 and grading >= 1"
    return None


def _refuse(errors) -> None:
    """ConfigError naming each of errors that is not None, joined by "; "."""
    errors = [e for e in errors if e is not None]
    if errors:
        raise ConfigError("; ".join(errors))


class _NodeGrid:
    """What both grid kinds define through weights and reduction."""

    def integrate(self, values: np.ndarray) -> float:
        return float(np.sum(self.weights * values))

    @property
    def l_values(self) -> list:
        """Even Legendre modes a node field carries."""
        return self.reduction.l_values

    def mode0(self, values: np.ndarray) -> np.ndarray:
        """Angular mean of node values at each radius (the l = 0 Legendre mode)."""
        return self.reduction.analyze(values)[:, 0]

    def moment(self, k: int, g0: np.ndarray) -> float:
        """(1/8 pi) int_{|y| <= r_max} |y|^k g(y) dy, k = 0 or 1, from the
        angular mean g0 of g."""
        return float((0.5 * self.r ** (k + 2) * self.line_w) @ g0)

    def x_norm(self, values: np.ndarray) -> float:
        """Weighted sup norm |v|_X = sup |v(x)| / (1 + |x|) of node values:
        the largest |v| at each radius, divided once by 1 + r, which is bit
        for bit the largest quotient, since rounding is monotone."""
        rows = np.abs(values).reshape(self.r.size, -1)
        if rows.shape[1] > 1:  # reduceat takes short rows faster than max(axis=1)
            rows = np.maximum.reduceat(rows, [0], axis=1)
        return float(np.max(rows[:, 0] / (1.0 + self.r)))

    @cached_property
    def convolution(self):
        """The kernels.ModeConvolution of the grid's modes (it serves both
        kernel variants), made on first use and kept.  It cuts the radii
        into its blocks, from the grid's top mode, but builds no table: the
        first density convolved builds the source and weight tables of its
        band (reduction.chop's), eight floats per radius and mode, and it
        then holds only the widest band of leading modes asked of it so
        far, not every mode."""
        return ModeConvolution(self, self.l_values)

    def poly_values(self, poly: QuadraticPolynomial) -> np.ndarray:
        """P at the nodes."""
        return poly.value_rt(self.r_nodes, self.t)

    def pohozaev_weight(self, poly: QuadraticPolynomial) -> np.ndarray:
        """2 (x . grad P) - P at the nodes."""
        return poly.pohozaev_weight_rt(self.r_nodes, self.t)

    @cached_property
    def reduction(self) -> "SphericalReduction":
        """The grid's Legendre transform pair, built on first use and kept."""
        return SphericalReduction(self)


@dataclass(frozen=True)
class RadialGrid(_NodeGrid):
    """Strictly increasing radii with weights for int_{R^3} f = 4 pi int f r^2 dr."""

    r: np.ndarray
    line_w: np.ndarray
    r_max: float
    grading: float

    @classmethod
    def graded(cls, n: int, r_max: float, grading: float = 2.0) -> "RadialGrid":
        _refuse([_grid_error("radial", n, r_max, grading)])
        r, w = _graded_nodes(n, float(r_max), float(grading))
        return cls(r=r, line_w=w, r_max=float(r_max), grading=float(grading))

    @property
    def spec(self) -> "GridSpec":
        """The grid spec that builds this grid."""
        return GridSpec("radial", self.r.size, self.r_max, self.grading)

    @property
    def shape(self) -> tuple:
        """Layout of node values: one value per radius."""
        return (self.r.size,)

    @property
    def r_nodes(self) -> np.ndarray:
        """Radius of every node, in the node layout."""
        return self.r

    # one node column, the x1 axis t = 1 with the one-node Gauss weight 2:
    # its one mode is l = 0, and P on a radial grid is radial, so its value
    # there (where the angular factor is exactly a[0]) holds on every ray
    t = np.ones(1)
    wt = np.full(1, 2.0)

    @property
    def weights(self) -> np.ndarray:
        """Quadrature weights for integration over R^3 of radial integrands."""
        return FOUR_PI * self.r * self.r * self.line_w

    def rays(self, ts) -> list:
        """(polar cosine, direction) of each ray to read: whatever the
        cosines ts, the one ray of a radial field, which has no direction."""
        return [(1.0, None)]

    def even_quadratics(self):
        """The even quadratics of the radial class beyond the constant, [r^2],
        and for each axis of P's a the index of the one that sets it."""
        return [self.r * self.r], (0, 0, 0)


@dataclass(frozen=True)
class AxisymmetricGrid(_NodeGrid):
    """Product grid: graded radii x the t > 0 half of Gauss-Legendre polar cosines.

    The n_angle Gauss-Legendre nodes are made symmetric about t = 0 bit for
    bit, and only the n_angle // 2 nodes t > 0 are stored, each with twice
    its weight: every field on the grid is even in x1, so the node -t holds
    the value of the node t.  Nodes are (x1, rho) = (r t, r sqrt(1 - t^2)),
    x1 > 0; weights reproduce, for f even in x1,
    int_{R^3} f = 2 pi int int f(x1, rho) rho drho dx1 = 2 pi int int f r^2 dr dt.
    """

    r: np.ndarray
    line_w: np.ndarray
    t: np.ndarray
    wt: np.ndarray
    r_max: float
    grading: float

    @classmethod
    def build(cls, n_r: int, n_angle: int, r_max: float, grading: float = 2.0) -> "AxisymmetricGrid":
        _refuse([_grid_error("axisymmetric", n_r, r_max, grading, n_angle)])
        r, w = _graded_nodes(n_r, float(r_max), float(grading))
        t, wt = np.polynomial.legendre.leggauss(n_angle)
        # enforce bit-exact antisymmetry of the nodes about t = 0, then keep
        # the t > 0 half with the weight of both mirror nodes
        h = n_angle // 2
        t = 0.5 * (t - t[::-1])
        wt = 0.5 * (wt + wt[::-1])
        return cls(r=r, line_w=w, t=t[h:], wt=2.0 * wt[h:], r_max=float(r_max),
                   grading=float(grading))

    @property
    def n_angle(self) -> int:
        """Polar nodes over the whole circle, both mirror halves."""
        return 2 * self.t.size

    @property
    def spec(self) -> "GridSpec":
        """The grid spec that builds this grid."""
        return GridSpec("axisymmetric", self.r.size, self.r_max, self.grading,
                        self.n_angle)

    @property
    def shape(self) -> tuple:
        """Layout of node values: radii by the t > 0 polar cosines."""
        return (self.r.size, self.t.size)

    @property
    def r_nodes(self) -> np.ndarray:
        """Radius of every node, broadcastable against the node layout."""
        return self.r[:, None]

    @property
    def x1(self) -> np.ndarray:
        return np.outer(self.r, self.t)

    @property
    def rho(self) -> np.ndarray:
        return np.outer(self.r, np.sqrt(np.maximum(1.0 - self.t * self.t, 0.0)))

    @property
    def weights(self) -> np.ndarray:
        return TWO_PI * np.outer(self.r * self.r * self.line_w, self.wt)

    def rays(self, ts) -> list:
        """(polar cosine, direction) of each ray to read: the rays with the
        polar cosines ts, each its own direction."""
        return [(t, t) for t in ts]

    def even_quadratics(self):
        """The even quadratics of the axisymmetric class beyond the constant,
        [x1^2, rho^2], and for each axis of P's a the index of the one that
        sets it."""
        x1 = self.x1
        return [x1 * x1, self.rho**2], (0, 1, 1)


# The chop tolerance: the unit roundoff u.  A density mode below the
# roundoff bound n u (2l + 1) g_0 of its own analysis is noise of the
# analysis (SphericalReduction.chop).
CHOP_TOL = 2.0 ** -53


class SphericalReduction:
    """Even-mode Legendre transform pair of a grid's node columns.

    analyze() projects node values onto the even Legendre modes of
    t = cos theta, l = 0, 2, ..., 2 n_t - 2 for the grid's n_t node columns
    (exact for the grid's angular band: the stored t > 0 half-nodes with
    doubled weights are the full Gauss-Legendre rule on even integrands);
    synthesize() evaluates the sum of the leading modes it is given back at
    the nodes, which is the field on both mirror halves.  t holds the polar
    cosines of the node columns and pl the modes' Legendre values there,
    P_l(t) (n_t, n_modes), a square table.  A radial grid's one column, t = 1 with weight 2, gives
    the one mode l = 0 and the tables [[1.0]], through which every value
    keeps its bits (a -0.0 comes back as 0.0).  Use grid.reduction, which
    builds it once per grid.
    """

    def __init__(self, grid):
        self.t = grid.t  # no reference to the grid, which holds this object
        self.shape = grid.shape
        self.l_values = list(range(0, 2 * grid.t.size, 2))
        vander = np.polynomial.legendre.legvander(grid.t, self.l_values[-1])
        self.pl = vander[:, self.l_values]  # (n_t, n_modes)
        scale = np.array([(2 * l + 1) / 2.0 for l in self.l_values])
        self.forward = (self.pl * grid.wt[:, None]).T * scale[:, None]  # (n_modes, n_t)
        self.floor = CHOP_TOL * grid.t.size * (2.0 * scale)  # n u (2l + 1)

    def analyze(self, values: np.ndarray) -> np.ndarray:
        return values.reshape(self.shape[0], -1) @ self.forward.T  # (n_r, n_modes)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """The field at the nodes of the leading modes coeffs (n_r, band)."""
        return (coeffs @ self.pl[:, :coeffs.shape[1]].T).reshape(self.shape)

    def chop(self, modes: np.ndarray) -> tuple:
        """(band, resolved): how many leading modes of a density's analysis
        carry more than the analysis' roundoff, and whether the rest reach
        a roundoff plateau.

        Mode l at radius r is a dot product over the n node columns, so its
        rounding error is at most about n u (2l + 1) |g|_0(r) (Higham,
        Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.1,
        with |P_l| <= 1 and weights summing to 2), u = CHOP_TOL the unit
        roundoff and |g|_0 the angular mean of |density|, which is g_0 for
        the positive densities the solver convolves.  The plateau is the
        run of trailing modes that stay below that bound at every radius;
        the band ends where it starts, and l = 0 is always kept.  When the
        last mode is above its bound there is no plateau: the band is every
        mode and the density is not resolved by the grid (a radial grid's
        one mode counts as resolved).

        What dropping the plateau costs: |K_l| <= 4 K_0 / ((2l-1)(2l+3))
        for l >= 2 (kernels.legendre_mode_kernel), and kernel_row divides
        mode l by 2l + 1, so a mode below its bound adds at most
        4 n u / ((2l-1)(2l+3)) times the unshifted l = 0 field of g_0;
        the sum over every dropped l >= l* telescopes to n u / (2l* - 1)
        of it.  The rounding of g_0 itself already puts up to n u of that
        field into every computed field, so the dropped modes change it by
        less than its own roundoff.  On thm1's grid (n = 128) the modes
        past the band stay within 7e-14 to 3e-12 of g_0, under bounds of
        9e-13 (l = 32) to 7e-12 (l = 254), and the band is 16 to 19 modes;
        thm2's last mode (l = 126) is still 2e-10 of g_0 on its first stage
        and 5 g_0 on its last, so it keeps all 64.  The test reads the last
        mode first, and the others only when it is below its bound.
        """
        n = modes.shape[1]
        g0 = np.abs(modes[:, 0])
        if n > 1 and (np.abs(modes[:, -1]) > self.floor[-1] * g0).any():
            return n, False
        above = (np.abs(modes) > self.floor * g0[:, None]).any(axis=0).nonzero()[0]
        return (int(above[-1]) + 1 if above.size else 1), True

    def legendre_row(self, t: float) -> np.ndarray:
        """P_l(t) for the grid's modes l (any t in [-1, 1])."""
        l_max = self.l_values[-1]
        return np.polynomial.legendre.legvander(np.array([t]), l_max)[0, self.l_values]

    def synthesize_at(self, coeffs: np.ndarray, t: float) -> np.ndarray:
        """Mode sum along the ray with polar cosine t (any t in [-1, 1])."""
        return coeffs @ self.legendre_row(t)


Grid = RadialGrid | AxisymmetricGrid


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class Profile:
    """Sampled scalar field on a grid; values has the layout grid.shape."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != self.grid.shape:
            raise ConfigError(
                f"profile shape {v.shape} != grid node layout {self.grid.shape}")


# ---------------------------------------------------------------------------
# profile CSV serialization


def save_profile_csv(profile: Profile, path) -> None:
    """The profile as its own (n_r, n_t) table, one row per radius.

    The header is `r` and then the repr of each stored polar cosine grid.t,
    `value` on a radial grid (its one column); each row is the repr of r
    and of u at each t, f"{r!r},{u_1!r},...,{u_n_t!r}".  Only the t > 0
    half is written: every field is even in x1, so the file holds each
    stored node once and reads back bit for bit.
    """
    g = profile.grid
    names = ["value"] if isinstance(g, RadialGrid) else map(repr, g.t.tolist())
    rows = profile.values.reshape(g.r.size, -1)
    with open(path, "w") as f:  # one row of Python floats at a time
        f.write(",".join(["r", *names]) + "\n")
        f.writelines(f"{r!r},{','.join(map(repr, u.tolist()))}\n"
                     for r, u in zip(g.r.tolist(), rows))


def load_profile_csv(path, grid: Grid) -> Profile:
    """Load a profile written by save_profile_csv onto a matching grid.

    The body is parsed in one np.loadtxt pass, so a number in another form
    of the same float (a hand-edited 1.50 for 1.5) still loads.  ConfigError
    for a header other than the writer's, an unreadable row, a table other
    than (n_r, n_t + 1), or radii or header polar cosines off the grid's by
    more than 1e-9 (1 + r) and 1e-9 (the bound on x1 = r t as r grows).
    """
    radial = isinstance(grid, RadialGrid)
    n_r, n_t = grid.r.size, grid.t.size
    with open(path) as f:
        names = tuple(f.readline().strip().split(","))
        try:
            if names[0] != "r" or radial and names[1:] != ("value",):
                raise ValueError
            t = grid.t if radial else np.array(names[1:], dtype=float)
        except ValueError:
            want = ("r,value" if radial else
                    f"r,t_1,...,t_{n_t} (the grid's polar cosines t > 0)")
            raise ConfigError(f"expected header {want}, got {names}") from None
        with warnings.catch_warnings():  # no rows: the shape check reports it
            warnings.simplefilter("ignore", UserWarning)
            try:
                rows = np.loadtxt(f, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ConfigError(f"unreadable profile row: {exc}") from exc
    if rows.shape != (n_r, n_t + 1):
        k, c = rows.shape if rows.size else (0, len(names))
        raise ConfigError(f"profile has {k} rows of {c} fields, grid needs {n_r} of {n_t + 1}")
    if not (t.shape == grid.t.shape and np.all(np.abs(t - grid.t) <= 1e-9)
            and np.all(np.abs(rows[:, 0] - grid.r) <= 1e-9 * (1.0 + grid.r))):
        raise ConfigError("profile coordinates do not match the configured grid")
    return Profile(grid=grid, values=rows[:, 1:].reshape(grid.shape))


# ---------------------------------------------------------------------------
# solver configuration


def _integer(value) -> int:
    """64, 64.0 and "64" read as 64; a bool or a fractional number is refused."""
    number = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, str)) and number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _number(value) -> float:
    """float(value), but a bool is refused: float() reads true as 1.0."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _floats(values) -> tuple:
    return tuple(_number(v) for v in values)


def refuse_unknown_keys(d: dict, what: str, names) -> None:
    """ConfigError "malformed <what>: unknown key ..." for the first key of
    the JSON object d that is not one of names."""
    unknown = [key for key in d if key not in names]
    if unknown:
        raise ConfigError(f"malformed {what}: unknown key {unknown[0]!r}; its "
                          f"keys are {', '.join(names)}")


def _read_fields(cls, d: dict, what: str, **read):
    """The config dataclass cls from its JSON object d: each field d names,
    through its read[name] conversion if any; a field left out keeps its
    dataclass default.  ConfigError "malformed <what>: ..." for a key that
    names no field, then for a required field left out or a value its
    conversion refuses (a nested object's reader raises its own); cls is
    made after that, so its own checks raise their own."""
    if not isinstance(d, dict):
        raise ConfigError(f"malformed {what}: {type(d).__name__} is not an object")
    refuse_unknown_keys(d, what, [f.name for f in fields(cls)])
    values = {}
    for f in fields(cls):
        try:
            if f.name in d:
                values[f.name] = read.get(f.name, lambda v: v)(d[f.name])
            elif f.default is MISSING:
                raise ValueError("required field is missing")
        except ConfigError:
            raise  # a nested object's reader, which names its own object
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed {what}: {f.name}: {exc}") from exc
    return cls(**values)


@dataclass(frozen=True)
class GridSpec:
    kind: str  # "radial" | "axisymmetric"
    n_r: int
    r_max: float
    grading: float = 2.0
    n_angle: int = 64

    def error(self) -> Optional[str]:
        """The ConfigError message build() would raise, or None."""
        return _grid_error(self.kind, self.n_r, self.r_max, self.grading,
                          self.n_angle)

    def build(self) -> Grid:
        if self.kind == "radial":
            return RadialGrid.graded(self.n_r, self.r_max, self.grading)
        if self.kind == "axisymmetric":
            return AxisymmetricGrid.build(self.n_r, self.n_angle, self.r_max, self.grading)
        raise ConfigError(self.error())

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "n_r": self.n_r, "r_max": self.r_max, "grading": self.grading}
        if self.kind == "axisymmetric":
            d["n_angle"] = self.n_angle
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        """The grid spec of a config's "grid" object (_read_fields)."""
        return _read_fields(cls, d, "grid spec", n_r=_integer, r_max=_number,
                            grading=_number, n_angle=_integer)


@dataclass(frozen=True)
class ContinuationSpec:
    eps_sequence: tuple[float, ...]
    eps_param: str = "quartic"  # "quartic" | "axis1"

    def to_dict(self) -> dict:
        return {"eps_sequence": list(self.eps_sequence), "eps_param": self.eps_param}

    @classmethod
    def from_dict(cls, d: dict) -> "ContinuationSpec":
        """The continuation of a config's "continuation" object (_read_fields)."""
        return _read_fields(cls, d, "continuation spec", eps_sequence=_floats)


@dataclass(frozen=True)
class ExactQ7Thresholds:
    """The pass thresholds of the exact-q7 battery: a verify preset's
    "thresholds" object, with each default where it names none."""

    pde: float = 1e-3
    integral: float = 1e-3
    gamma: float = 1e-2

    def __post_init__(self):
        _refuse(_nonfinite(asdict(self), "thresholds."))

    @classmethod
    def from_dict(cls, d: dict) -> "ExactQ7Thresholds":
        """The thresholds of a "thresholds" object (_read_fields)."""
        return _read_fields(cls, d, "exact-q7 thresholds", pde=_number,
                            integral=_number, gamma=_number)


def _seed_error(seed: int) -> Optional[str]:
    """Why seed cannot seed a run, or None: the seed drives the Halton draw
    of verify.integral_residual through numpy's default_rng, which refuses
    a negative one with a traceback."""
    return f"seed must be a non-negative integer, got {seed}" if seed < 0 else None


def check_seed(seed: int) -> int:
    """seed, or ConfigError when it is negative."""
    _refuse([_seed_error(seed)])
    return seed


def _nonfinite(d: dict, prefix: str = ""):
    """"<name> must be finite, got <x>" for each float x of a config dict
    that is not finite (JSON reads NaN and Infinity, and no rule of a config
    can judge them), named by its path in d: "q", "grid.r_max", "poly.a[0]"."""
    for key, value in d.items():
        if isinstance(value, list):
            value = {f"{key}[{i}]": x for i, x in enumerate(value)}
            yield from _nonfinite(value, prefix)
        elif isinstance(value, dict):
            yield from _nonfinite(value, f"{prefix}{key}.")
        elif isinstance(value, float) and not math.isfinite(value):
            yield f"{prefix}{key} must be finite, got {value}"


@dataclass(frozen=True)
class SolveConfig:
    """Everything needed for one fixed-point solve (plus optional continuation).

    A SolveConfig that exists is valid: construction checks every
    structural rule, and then each continuation stage, and raises one
    ConfigError naming each broken rule in a fixed order, joined by "; ".
    Every number must be finite: that rule goes first and alone (JSON reads NaN).
    So from_dict, replace, replace_poly and stages only return valid
    configs.  P (even by construction) must have a_i >= 0, eps_quartic >= 0 and
    c > 0, which makes P >= c > 0 everywhere.  Whether a solution can exist
    at all is the integrability gate, validate_config.
    """

    q: float
    poly: QuadraticPolynomial
    kernel_variant: str  # "shifted" | "unshifted"
    grid: GridSpec
    damping: float = 1.0
    tol_fixed_point: float = 1e-8
    max_iters: int = 200
    seed: int = 0
    continuation: Optional[ContinuationSpec] = None

    def __post_init__(self):
        _refuse(_nonfinite(self.to_dict()))
        p, cont = self.poly, self.continuation
        errors = [_seed_error(self.seed)]
        if not (self.q > 0.0):
            errors.append(f"q must be positive, got {self.q}")
        if self.kernel_variant not in ("shifted", "unshifted"):
            errors.append(f"unknown kernel_variant {self.kernel_variant!r}")
        if not (0.0 < self.damping <= 1.0):
            errors.append(f"damping must lie in (0, 1], got {self.damping}")
        if not (self.tol_fixed_point > 0.0):
            errors.append(f"tol_fixed_point must be positive, got "
                          f"{self.tol_fixed_point}")
        if self.max_iters < 1:
            errors.append(f"max_iters must be >= 1, got {self.max_iters}")
        errors.append(self.grid.error())
        if p.eps_quartic < 0.0:
            errors.append(f"eps_quartic must be >= 0, got {p.eps_quartic}")
        if min(p.a) < 0.0:
            errors.append(f"quadratic coefficients must be >= 0, got a = {p.a}")
        if p.c <= 0.0:
            errors.append(f"constant term must be positive, got c = {p.c} "
                          f"(P(0) = {p.c} <= 0)")
        if self.grid.kind == "radial" and len(set(p.a)) > 1:
            errors.append("radial grid requires a radial polynomial (equal a_i)")
        if self.grid.kind == "axisymmetric" and not p.is_axisymmetric():
            errors.append("axisymmetric grid requires a2 == a3")
        if cont is not None:
            seq = cont.eps_sequence
            if len(seq) == 0 or any(e <= 0 for e in seq) or any(
                    seq[i] <= seq[i + 1] for i in range(len(seq) - 1)):
                errors.append("eps_sequence must be strictly decreasing and positive")
            if cont.eps_param not in ("quartic", "axis1"):
                errors.append(f"unknown eps_param {cont.eps_param!r}")
        _refuse(errors)
        self.stages()  # each stage is made, and so checked

    def to_dict(self) -> dict:
        d = {
            "q": self.q,
            "poly": self.poly.to_dict(),
            "kernel_variant": self.kernel_variant,
            "grid": self.grid.to_dict(),
            "damping": self.damping,
            "tol_fixed_point": self.tol_fixed_point,
            "max_iters": self.max_iters,
            "seed": self.seed,
        }
        if self.continuation is not None:
            d["continuation"] = self.continuation.to_dict()
        return d

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as f:
                f.write(text + "\n")
        return text

    @classmethod
    def from_dict(cls, d: dict) -> "SolveConfig":
        """The config of a solve config object (_read_fields); an empty
        "continuation" is none."""
        return _read_fields(
            cls, d, "config", q=_number, poly=QuadraticPolynomial.from_dict,
            grid=GridSpec.from_dict, damping=_number, tol_fixed_point=_number,
            max_iters=_integer, seed=_integer,
            continuation=lambda c: ContinuationSpec.from_dict(c) if c else None)

    def replace_poly(self, poly: QuadraticPolynomial) -> "SolveConfig":
        """This config with another polynomial and no continuation."""
        return replace(self, poly=poly, continuation=None)

    @property
    def limit_poly(self) -> QuadraticPolynomial:
        """P of the limit problem: poly with the continuation's parameter at 0."""
        cont = self.continuation
        return self.poly if cont is None else self.poly.with_eps(cont.eps_param, 0.0)

    def stages(self) -> list:
        """The configs solved in turn: one per continuation eps, else [self].

        Each stage has its eps set on the continuation parameter and no
        continuation of its own.
        """
        if self.continuation is None:
            return [self]
        cont = self.continuation
        return [self.replace_poly(self.poly.with_eps(cont.eps_param, eps))
                for eps in cont.eps_sequence]


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationResult:
    """Outcome of the integrability gate (validate_config).

    gate_failures: why no solution can be found (q in the nonexistence
    regime, or kernel mass of P^-q divergent for the chosen variant);
    warnings: advisory notes, e.g. a constant P whose convergence relies on
    the iterate's own linear growth.  ok: no gate failure.
    """

    ok: bool
    gate_failures: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def validate_config(cfg: SolveConfig) -> ValidationResult:
    """The integrability gate of a config, which is structurally valid
    because it exists (SolveConfig): q > 1, then m q > 4 for P's growth
    order m, or q > 3 (shifted) / q > 4 (unshifted) for a P with no growth
    along some direction.  It reads the first stage's P.leading_term().
    """
    gates, warns = [], []
    # with continuation the gate applies to the stage polynomials (all of
    # which share the first stage's growth order), not the limit
    m = cfg.stages()[0].poly.leading_term()[0]
    if not (cfg.q > 1.0):
        gates.append(
            f"integrability gate: q = {cfg.q:g} <= 1 is the nonexistence "
            f"regime; no positive entire solution with polynomial growth "
            f"exists there and the iteration cannot converge to one")
    elif m == 0:
        # P bounded along at least one direction: the iterate itself must
        # supply linear growth, making the density decay like r^-q there;
        # the shifted kernel needs the zeroth moment (q > 3), the
        # unshifted also the first (q > 4)
        need = 3.0 if cfg.kernel_variant == "shifted" else 4.0
        if cfg.q > need:
            warns.append(
                f"P has no growth along at least one direction; "
                f"convergence relies on the iterate's own linear growth "
                f"(density ~ r^-{cfg.q:g}, q > {need:g} holds)")
        else:
            gates.append(
                f"integrability gate: P has no growth and q = {cfg.q:g} <= "
                f"{need:g}, so the kernel mass of the density diverges even "
                f"with a linearly growing iterate")
    elif cfg.q * m <= 4.0:
        gates.append(
            f"integrability gate: int |x| P^-q diverges "
            f"(growth order {m} times q = {cfg.q * m:g} <= 4); raise the "
            f"decay with a quartic term and pass to the limit instead")

    return ValidationResult(ok=not gates, gate_failures=gates, warnings=warns)


# ---------------------------------------------------------------------------
# reports


_SIG_DIGITS = 12  # significant digits of every float in a report


def _round_floats(obj):
    """Recursively round floats to _SIG_DIGITS significant digits for stable output."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(f"{obj:.{_SIG_DIGITS}g}")
    if isinstance(obj, (np.floating,)):
        return _round_floats(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_round_floats(v) for v in obj.tolist()]
    return obj


def report_json(d: dict, path=None) -> str:
    """Deterministic JSON for report dictionaries."""
    text = json.dumps(_round_floats(d), indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as f:
            f.write(text + "\n")
    return text


@dataclass
class SolutionReport:
    """Summary of a fixed-point solve plus the verification battery."""

    converged: bool
    iters: int
    final_residual: float
    damping_final: float
    q: float
    kernel_variant: str
    diverged_reason: Optional[str] = None
    alpha: float = math.nan
    beta: Optional[float] = None
    beta_note: str = ""
    v_origin: float = math.nan
    u_origin: float = math.nan
    x_norm_v: float = math.nan
    iterate_bound: float = math.nan
    tail_bound: float = math.nan
    growth_fits: list = field(default_factory=list)
    decomposition: Optional[dict] = None
    diff_history: list = field(default_factory=list)
    alpha_history: list = field(default_factory=list)
    # max_r |g_l| / max_r |g_0| at the last mode of the returned iterate's
    # density when its modes reach no roundoff plateau (SphericalReduction
    # .chop), else None; solve writes it as a warning, not as a result
    density_tail: Optional[float] = None

    def to_dict(self) -> dict:
        d = asdict(self)
        del d["density_tail"]
        return d
