"""Core data types: polynomial data, quadrature grids, profiles, configs, reports.

Everything here is plain numpy plus frozen dataclasses.  Both grid kinds
share one node interface: values have the layout grid.shape, grid.r_nodes
and grid.t_nodes are the radius and polar cosine broadcast to it, and
grid.reduction (built once per grid) maps node values to even Legendre modes
(n_r, n_modes) and back; a radial grid is the one-mode case l = 0, with
t = 1 standing for every ray.  Grids also own their quadrature
(grid.integrate) and what else depends only on the nodes, each written once
for both kinds: grid.l_values, the angular mean grid.mode0, the truncated
moments (1/8 pi) int |y|^k g (grid.moment), the mode convolution of both
kernel variants (grid.convolution, built once per grid), and P and its
Pohozaev weight (grid.poly_values, grid.pohozaev_weight).
Configuration objects round-trip through JSON with fixed field names, and
report serialization is deterministic (floats rounded to 12 significant
digits) so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


class ConfigError(ValueError):
    """Raised for structurally invalid configurations."""


class NonFiniteError(ArithmeticError):
    """Raised when an operator evaluation produces non-finite values."""


class NotIntegrableError(ArithmeticError):
    """Raised when a requested integral provably diverges for the given growth."""


class InsufficientTailError(ValueError):
    """Raised when a tail fit window has too few nodes or spans a radius factor below 3."""


# ---------------------------------------------------------------------------
# polynomial data


@dataclass(frozen=True)
class QuadraticPolynomial:
    """P(x) = c + sum_i a_i x_i^2 + sum_i b_i x_i + eps_quartic |x|^4.

    The quartic term is an optional regularizer that restores integrability of
    P^-q when the quadratic part alone decays too slowly.
    """

    a: tuple[float, float, float]
    b: tuple[float, float, float] = (0.0, 0.0, 0.0)
    c: float = 1.0
    eps_quartic: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "eps_quartic", float(self.eps_quartic))
        if len(self.a) != 3 or len(self.b) != 3:
            raise ConfigError("polynomial coefficient vectors must have length 3")

    # -- evaluation ---------------------------------------------------------

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (..., 3) array of Cartesian points."""
        pts = np.asarray(points, dtype=float)
        a = np.array(self.a)
        b = np.array(self.b)
        r2 = np.sum(pts * pts, axis=-1)
        return (
            self.c
            + np.sum(a * pts * pts, axis=-1)
            + np.sum(b * pts, axis=-1)
            + self.eps_quartic * r2 * r2
        )

    def value_rt(self, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Evaluate on spheres: radius r, polar cosine t against the x1 axis.

        Valid only for axially symmetric even data (a2 == a3, b == 0).
        """
        if not self.is_axisymmetric():
            raise ConfigError("value_rt requires a2 == a3 and b == 0")
        r = np.asarray(r, dtype=float)
        t = np.asarray(t, dtype=float)
        r2 = r * r
        ang = self.a[0] * t * t + self.a[1] * (1.0 - t * t)
        return self.c + r2 * ang + self.eps_quartic * r2 * r2

    def pohozaev_weight_rt(self, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        """2 (x . grad P) - P, the dilation weight entering the integral identity."""
        if not self.is_axisymmetric():
            raise ConfigError("pohozaev_weight_rt requires a2 == a3 and b == 0")
        r = np.asarray(r, dtype=float)
        t = np.asarray(t, dtype=float)
        r2 = r * r
        ang = self.a[0] * t * t + self.a[1] * (1.0 - t * t)
        return 3.0 * r2 * ang + 7.0 * self.eps_quartic * r2 * r2 - self.c

    def laplacian_origin(self) -> float:
        return 2.0 * (self.a[0] + self.a[1] + self.a[2])

    # -- structure ----------------------------------------------------------

    def is_even(self) -> bool:
        return all(v == 0.0 for v in self.b)

    def is_axisymmetric(self) -> bool:
        return self.is_even() and self.a[1] == self.a[2]

    def is_radial(self) -> bool:
        return self.is_even() and self.a[0] == self.a[1] == self.a[2]

    def growth_order(self) -> int:
        """Power of |x| governing P at infinity in every direction (0, 2, or 4).

        A quartic term dominates all directions; otherwise growth is quadratic
        only when every axis coefficient is positive.
        """
        if self.eps_quartic > 0.0:
            return 4
        return 2 if min(self.a) > 0.0 else 0

    def tail_leading_coeff(self) -> float:
        """Coefficient of the leading term at infinity, for tail bounds."""
        if self.eps_quartic > 0.0:
            return self.eps_quartic
        if min(self.a) > 0.0:
            return min(self.a)
        return 0.0

    def positivity_margin(self) -> float:
        """inf P over R^3 when a_i >= 0 (else -inf); positive means P > 0."""
        if min(self.a) < 0.0:
            return -math.inf
        margin = self.c
        for ai, bi in zip(self.a, self.b):
            if bi != 0.0:
                if ai == 0.0:
                    return -math.inf
                margin -= bi * bi / (4.0 * ai)
        return margin

    def with_eps(self, param: str, eps: float) -> "QuadraticPolynomial":
        """Return a copy with the continuation knob `param` set to `eps`."""
        if param == "quartic":
            return QuadraticPolynomial(self.a, self.b, self.c, eps)
        if param == "axis1":
            return QuadraticPolynomial((eps, self.a[1], self.a[2]), self.b, self.c, self.eps_quartic)
        if param == "isotropic":
            return QuadraticPolynomial((eps, eps, eps), self.b, self.c, self.eps_quartic)
        raise ConfigError(f"unknown continuation parameter {param!r}")

    def to_dict(self) -> dict:
        return {"a": list(self.a), "b": list(self.b), "c": self.c, "eps_quartic": self.eps_quartic}

    @classmethod
    def from_dict(cls, d: dict) -> "QuadraticPolynomial":
        try:
            return cls(tuple(d["a"]), tuple(d.get("b", (0.0, 0.0, 0.0))),
                       float(d.get("c", 1.0)), float(d.get("eps_quartic", 0.0)))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed polynomial spec: {exc}") from exc


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
    the message, validate_config reports it without building the grid.
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
    if r_max <= 0 or grading < 1.0:
        return f"{kind} grid needs r_max > 0 and grading >= 1"
    return None


def _raise_grid_error(*args) -> None:
    error = _grid_error(*args)
    if error is not None:
        raise ConfigError(error)


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

    @cached_property
    def convolution(self):
        """The kernels.ModeConvolution of the grid's modes (it serves both
        kernel variants), built on first use and kept."""
        from .kernels import ModeConvolution  # kernels builds on this module

        return ModeConvolution(self, self.l_values)

    def poly_values(self, poly: QuadraticPolynomial) -> np.ndarray:
        """P at the nodes."""
        return poly.value_rt(self.r_nodes, self.t_nodes)

    def pohozaev_weight(self, poly: QuadraticPolynomial) -> np.ndarray:
        """2 (x . grad P) - P at the nodes."""
        return poly.pohozaev_weight_rt(self.r_nodes, self.t_nodes)


@dataclass(frozen=True)
class RadialGrid(_NodeGrid):
    """Strictly increasing radii with weights for int_{R^3} f = 4 pi int f r^2 dr."""

    r: np.ndarray
    line_w: np.ndarray
    r_max: float
    grading: float

    @classmethod
    def graded(cls, n: int, r_max: float, grading: float = 2.0) -> "RadialGrid":
        _raise_grid_error("radial", n, r_max, grading)
        r, w = _graded_nodes(n, float(r_max), float(grading))
        return cls(r=r, line_w=w, r_max=float(r_max), grading=float(grading))

    @property
    def n(self) -> int:
        return self.r.size

    @property
    def shape(self) -> tuple:
        """Layout of node values: one value per radius."""
        return (self.r.size,)

    @property
    def r_nodes(self) -> np.ndarray:
        """Radius of every node, in the node layout."""
        return self.r

    # P on a radial grid is radial, so its value on the x1 axis (polar
    # cosine 1, where the angular factor is exactly a[0]) holds on every ray
    t_nodes = 1.0

    @property
    def weights(self) -> np.ndarray:
        """Quadrature weights for integration over R^3 of radial integrands."""
        return FOUR_PI * self.r * self.r * self.line_w

    @cached_property
    def reduction(self) -> "RadialReduction":
        """The one-mode (l = 0) transform, built on first use and kept."""
        return RadialReduction()


@dataclass(frozen=True)
class AxisymmetricGrid(_NodeGrid):
    """Product grid: graded radii x Gauss-Legendre polar cosines.

    Nodes are (x1, rho) = (r t, r sqrt(1 - t^2)); the t nodes are symmetric
    about 0 so mirror symmetry in x1 is represented exactly (node i mirrors to
    node n_angle - 1 - i).  Weights reproduce
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
        _raise_grid_error("axisymmetric", n_r, r_max, grading, n_angle)
        r, w = _graded_nodes(n_r, float(r_max), float(grading))
        t, wt = np.polynomial.legendre.leggauss(n_angle)
        # enforce bit-exact antisymmetry of the nodes about t = 0
        t = 0.5 * (t - t[::-1])
        wt = 0.5 * (wt + wt[::-1])
        return cls(r=r, line_w=w, t=t, wt=wt, r_max=float(r_max), grading=float(grading))

    @property
    def n_r(self) -> int:
        return self.r.size

    @property
    def n_angle(self) -> int:
        return self.t.size

    @property
    def shape(self) -> tuple:
        """Layout of node values: radii by polar cosines."""
        return (self.r.size, self.t.size)

    @property
    def r_nodes(self) -> np.ndarray:
        """Radius of every node, broadcastable against the node layout."""
        return self.r[:, None]

    @property
    def t_nodes(self) -> np.ndarray:
        """Polar cosine of every node, broadcastable against the node layout."""
        return self.t

    @property
    def x1(self) -> np.ndarray:
        return np.outer(self.r, self.t)

    @property
    def rho(self) -> np.ndarray:
        return np.outer(self.r, np.sqrt(np.maximum(1.0 - self.t * self.t, 0.0)))

    @property
    def weights(self) -> np.ndarray:
        return TWO_PI * np.outer(self.r * self.r * self.line_w, self.wt)

    @cached_property
    def reduction(self) -> SphericalReduction:
        """The grid's Legendre transform pair, built on first use and kept."""
        return SphericalReduction(self)


class SphericalReduction:
    """Even-mode Legendre transform pair for an axisymmetric grid.

    analyze() projects node values onto even Legendre modes of t = cos theta
    (exact for the grid's angular band); synthesize() evaluates the mode sum
    back at the nodes, computing the t > 0 half and mirroring it so evenness
    in x1 holds bit-for-bit.  t holds the polar cosines of the node columns
    and pl the modes' Legendre values there, P_l(t) (n_angle, n_modes).
    Use grid.reduction, which builds it once per grid.
    """

    def __init__(self, grid: AxisymmetricGrid):
        L = grid.n_angle
        self.half = L // 2  # no reference to the grid, which holds this object
        self.t = grid.t
        self.l_values = list(range(0, L, 2))
        vander = np.polynomial.legendre.legvander(grid.t, L - 1)
        self.pl = vander[:, self.l_values]  # (L, n_modes)
        scale = np.array([(2 * l + 1) / 2.0 for l in self.l_values])
        self.forward = (self.pl * grid.wt[:, None]).T * scale[:, None]  # (n_modes, L)

    def analyze(self, values: np.ndarray) -> np.ndarray:
        return values @ self.forward.T  # (n_r, n_modes)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        upper = coeffs @ self.pl[self.half:, :].T  # t > 0 half
        return np.concatenate([upper[:, ::-1], upper], axis=1)

    def legendre_row(self, t: float) -> np.ndarray:
        """P_l(t) for the grid's modes l (any t in [-1, 1])."""
        if t is None:
            raise ValueError("axisymmetric profiles need a ray direction t")
        l_max = self.l_values[-1]
        return np.polynomial.legendre.legvander(np.array([t]), l_max)[0, self.l_values]

    def synthesize_at(self, coeffs: np.ndarray, t: float) -> np.ndarray:
        """Mode sum along the ray with polar cosine t (any t in [-1, 1])."""
        return coeffs @ self.legendre_row(t)


class RadialReduction:
    """SphericalReduction's one-mode case: a radial field is its own l = 0 mode.

    P_0 = 1, so every ray (any t, or None) sees the same values; the single
    node column has no polar cosine (t is None) and the one-mode table pl.
    """

    l_values = [0]
    t = (None,)
    pl = np.ones((1, 1))  # P_0 at the one node column

    def analyze(self, values: np.ndarray) -> np.ndarray:
        return values[:, None]

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs[:, 0]

    def legendre_row(self, t=None) -> np.ndarray:
        return np.ones(1)

    synthesize_at = SphericalReduction.synthesize_at


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


def x_norm(profile: Profile) -> float:
    """Weighted sup norm sup |v(x)| / (1 + |x|)."""
    return float(np.max(np.abs(profile.values) / (1.0 + profile.grid.r_nodes)))


# ---------------------------------------------------------------------------
# profile CSV serialization


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64)


def save_profile_csv(profile: Profile, path) -> None:
    """Radial profiles as `r,value`; axisymmetric as `x1,rho,value` (row-major).

    Every row is the repr of its floats, f"{x1!r},{rho!r},{value!r}".  On an
    axisymmetric grid node j mirrors node n_angle - 1 - j: the polar cosines
    are built antisymmetric, so x1 is negated and rho kept bit for bit.  Each
    radius therefore formats its t > 0 half, and writes a t < 0 row as "-"
    plus its mirror's row when the two values are bit-identical (bits, not
    ==, so 0.0 and -0.0 stay distinct) and so are its coordinates, with the
    mirror's x1 positive; any other row is formatted itself.
    """
    g = profile.grid
    v = profile.values
    with open(path, "w") as f:
        if isinstance(g, RadialGrid):
            f.write("r,value\n")
            f.writelines(f"{r!r},{w!r}\n"
                         for r, w in zip(g.r.tolist(), v.tolist()))
            return
        f.write("x1,rho,value\n")
        x1, rho = g.x1, g.rho
        half = g.n_angle // 2
        lo = np.arange(half)  # node j < half mirrors node n_angle - 1 - j
        hi = g.n_angle - 1 - lo
        mirrored = ((_bits(v[:, lo]) == _bits(v[:, hi]))
                    & (_bits(x1[:, lo]) == _bits(-x1[:, hi]))
                    & (x1[:, hi] > 0.0)
                    & (_bits(rho[:, lo]) == _bits(rho[:, hi])))
        for i, same in enumerate(mirrored.tolist()):
            xs, ys, ws = x1[i].tolist(), rho[i].tolist(), v[i].tolist()
            rows = [f"{xs[j]!r},{ys[j]!r},{ws[j]!r}\n"
                    for j in range(half, g.n_angle)]  # rows[-1 - j] mirrors j
            f.writelines("-" + rows[-1 - j] if same[j]
                         else f"{xs[j]!r},{ys[j]!r},{ws[j]!r}\n"
                         for j in range(half))
            f.writelines(rows)


def load_profile_csv(path, grid: Grid) -> Profile:
    """Load a profile written by save_profile_csv onto a matching grid."""
    radial = isinstance(grid, RadialGrid)
    expect = ("r", "value") if radial else ("x1", "rho", "value")
    with open(path) as f:
        names = tuple(f.readline().strip().split(","))
        if names != expect:
            raise ConfigError(f"expected header {','.join(expect)}, got {names}")
        try:
            with warnings.catch_warnings():  # no rows: reported below
                warnings.simplefilter("ignore", UserWarning)
                cols = np.loadtxt(f, delimiter=",", ndmin=2,
                                  usecols=range(len(expect))).T
        except ValueError as exc:
            raise ConfigError(f"unreadable profile row: {exc}") from exc
    n = math.prod(grid.shape)
    if cols.shape[1] != n:
        raise ConfigError(f"profile has {cols.shape[1]} rows, grid has {n} nodes")
    if radial:
        r, v = cols
        if not np.allclose(r, grid.r, rtol=1e-9, atol=1e-12):
            raise ConfigError("profile radii do not match the configured grid")
        return Profile(grid=grid, values=v)
    x1, rho, v = cols
    x1 = x1.reshape(grid.shape)
    rho = rho.reshape(grid.shape)
    scale = 1.0 + grid.r[:, None]
    if (np.max(np.abs(x1 - grid.x1) / scale) > 1e-9
            or np.max(np.abs(rho - grid.rho) / scale) > 1e-9):
        raise ConfigError("profile coordinates do not match the configured grid")
    return Profile(grid=grid, values=v.reshape(grid.shape))


# ---------------------------------------------------------------------------
# solver configuration


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
        try:
            return cls(kind=d["kind"], n_r=int(d["n_r"]), r_max=float(d["r_max"]),
                       grading=float(d.get("grading", 2.0)), n_angle=int(d.get("n_angle", 64)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed grid spec: {exc}") from exc


@dataclass(frozen=True)
class ContinuationSpec:
    eps_sequence: tuple[float, ...]
    eps_param: str = "quartic"  # "quartic" | "axis1" | "isotropic"

    def to_dict(self) -> dict:
        return {"eps_sequence": list(self.eps_sequence), "eps_param": self.eps_param}

    @classmethod
    def from_dict(cls, d: dict) -> "ContinuationSpec":
        try:
            return cls(tuple(float(e) for e in d["eps_sequence"]),
                       d.get("eps_param", "quartic"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed continuation spec: {exc}") from exc


@dataclass(frozen=True)
class SolveConfig:
    """Everything needed for one fixed-point solve (plus optional continuation)."""

    q: float
    poly: QuadraticPolynomial
    kernel_variant: str  # "shifted" | "unshifted"
    grid: GridSpec
    damping: float = 1.0
    tol_fixed_point: float = 1e-8
    max_iters: int = 200
    seed: int = 0
    continuation: Optional[ContinuationSpec] = None

    def build_grid(self) -> Grid:
        return self.grid.build()

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
        try:
            cont = d.get("continuation")
            return cls(
                q=float(d["q"]),
                poly=QuadraticPolynomial.from_dict(d["poly"]),
                kernel_variant=d["kernel_variant"],
                grid=GridSpec.from_dict(d["grid"]),
                damping=float(d.get("damping", 1.0)),
                tol_fixed_point=float(d.get("tol_fixed_point", 1e-8)),
                max_iters=int(d.get("max_iters", 200)),
                seed=int(d.get("seed", 0)),
                continuation=ContinuationSpec.from_dict(cont) if cont else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc

    def replace_poly(self, poly: QuadraticPolynomial) -> "SolveConfig":
        """This config with another polynomial and no continuation."""
        return replace(self, poly=poly, continuation=None)

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
    """Outcome of config validation.

    hard_errors: structural problems (bad grid, non-positive or odd polynomial);
    gate_failures: the analytic integrability gate (q in the nonexistence
    regime, or kernel mass of P^-q divergent for the chosen variant);
    warnings: advisory notes, e.g. a constant P whose convergence relies on
    the iterate's own linear growth.
    """

    ok: bool
    hard_errors: list = field(default_factory=list)
    gate_failures: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def nonexistence_regime(self) -> bool:
        return not self.hard_errors and bool(self.gate_failures)


def validate_config(cfg: SolveConfig) -> ValidationResult:
    hard, gates, warns = [], [], []

    if not (cfg.q > 0.0) or not math.isfinite(cfg.q):
        hard.append(f"q must be positive and finite, got {cfg.q}")
    if cfg.kernel_variant not in ("shifted", "unshifted"):
        hard.append(f"unknown kernel_variant {cfg.kernel_variant!r}")
    if not (0.0 < cfg.damping <= 1.0):
        hard.append(f"damping must lie in (0, 1], got {cfg.damping}")
    if not (cfg.tol_fixed_point > 0.0):
        hard.append(f"tol_fixed_point must be positive, got {cfg.tol_fixed_point}")
    if cfg.max_iters < 1:
        hard.append(f"max_iters must be >= 1, got {cfg.max_iters}")

    grid_problem = cfg.grid.error()
    if grid_problem is not None:
        hard.append(grid_problem)

    p = cfg.poly
    if p.eps_quartic < 0.0:
        hard.append(f"eps_quartic must be >= 0, got {p.eps_quartic}")
    if min(p.a) < 0.0:
        hard.append(f"quadratic coefficients must be >= 0, got a = {p.a}")
    if p.c <= 0.0:
        hard.append(f"constant term must be positive, got c = {p.c} (P(0) = {p.c} <= 0)")
    for i, (ai, bi) in enumerate(zip(p.a, p.b)):
        if bi != 0.0 and ai == 0.0:
            hard.append(f"b[{i}] != 0 with a[{i}] = 0 makes P unbounded below")
    margin = p.positivity_margin()
    if math.isfinite(margin) and margin <= 0.0 and p.c > 0.0:
        hard.append(f"polynomial minimum {margin} <= 0 (c - sum b_i^2/(4 a_i))")
    if not p.is_even():
        hard.append(f"iteration requires an even polynomial, got b = {p.b}")
    if cfg.grid.kind == "radial" and not p.is_radial():
        hard.append("radial grid requires a radial polynomial (equal a_i, b = 0)")
    if cfg.grid.kind == "axisymmetric" and not p.is_axisymmetric():
        hard.append("axisymmetric grid requires a2 == a3 and b = 0")

    if cfg.continuation is not None:
        seq = cfg.continuation.eps_sequence
        if len(seq) == 0 or any(e <= 0 for e in seq) or any(
                seq[i] <= seq[i + 1] for i in range(len(seq) - 1)):
            hard.append("eps_sequence must be strictly decreasing and positive")
        if cfg.continuation.eps_param not in ("quartic", "axis1", "isotropic"):
            hard.append(f"unknown eps_param {cfg.continuation.eps_param!r}")

    if not hard:
        # with continuation the gate applies to the stage polynomials (all of
        # which share the first stage's growth order), not the limit
        m = cfg.stages()[0].poly.growth_order()
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

    return ValidationResult(ok=not hard and not gates, hard_errors=hard,
                            gate_failures=gates, warnings=warns)


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

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, path=None) -> str:
        return report_json(self.to_dict(), path)
