"""Special functions, quadrature, and real spherical-harmonic calculus on S^2.

Conventions fixed here and used everywhere else in the package:

* Real orthonormal spherical harmonics.  For m = 0, Y_l0 = Pbar_l0(cos theta);
  for m > 0 the cosine branch is sqrt(2) Pbar_lm cos(m phi) stored at +m and
  the sine branch sqrt(2) Pbar_lm sin(m phi) stored at -m.  Pbar_lm is the
  fully normalised associated Legendre function without the Condon-Shortley
  phase, so all basis functions integrate to 1 against themselves over the
  sphere.
* The Laplace-Beltrami operator is negative semidefinite: Delta Y_lm =
  -l(l+1) Y_lm.  The composite operators (Delta + 2) and Delta(Delta + 2)
  used by the embedding solve inherit this sign choice.
* The first-degree eigenfunctions z1, z2, z3 are the restrictions of the
  ambient coordinates to the sphere.  The default frame binds z1 = cos(theta)
  (polar axis toward the surface's center), z2 = sin(theta) cos(phi),
  z3 = sin(theta) sin(phi).  The pipeline binds this DEFAULT_FRAME;
  ``coordinate_fields`` and ``rotate_frame`` take any other frame.
* Grids pair Gauss-Legendre colatitude nodes (poles excluded) with a uniform
  longitude grid; transforms are direct matrix contractions, exact for
  band-limited fields whenever n_theta >= l_max + 1 and n_phi >= 2 l_max + 1.
  Nonlinear products should be formed on a grid sized for twice the band
  limit (``SphereGrid.for_band_limit(2 * l_max)``) to avoid aliasing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BandLimitError, DomainError

__all__ = [
    "DEFAULT_FRAME",
    "GridField",
    "HarmonicField",
    "SphereDerivatives",
    "SphereGrid",
    "analyze",
    "apply_operator",
    "c_theta",
    "coordinate_fields",
    "evaluate",
    "gauss_legendre",
    "integrate",
    "grad_hess",
    "legendre_p",
    "legendre_p_dtheta",
    "rotate_frame",
    "synthesize",
]

# Rows are the ambient directions bound to (z1, z2, z3); right-handed.
DEFAULT_FRAME = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending, in (-1, 1)) and weights of the n-point Gauss rule.

    Newton's method on the three-term recurrence from Tricomi's guesses (Hale
    & Townsend, SIAM J. Sci. Comput. 35, A652 (2013)) for the nonnegative
    nodes, mirrored; weights 2 / ((1 - x^2) P_n'(x)^2), scaled to sum to 2.
    """
    if n < 1:
        raise DomainError(f"need at least one node, got n={n}")
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for ell in range(2, n + 1):
            p_prev, p = p, ((2 * ell - 1) * x * p - (ell - 1) * p_prev) / ell
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    x[n // 2:] = 0.0  # an odd n's middle node, zero by parity
    weights = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
    lo = slice(n // 2)  # the positive nodes
    nodes = np.concatenate((-x[lo], x[n // 2:], x[lo][::-1]))
    weights = np.concatenate((weights, weights[lo][::-1]))
    return nodes, weights * (2.0 / weights.sum())


# for SphereGrid, which copies what it takes: a sweep builds each grid once per d
_grid_rule = functools.lru_cache(maxsize=64)(gauss_legendre)


def _legendre_p_derivs(ell: int, x: np.ndarray, n_deriv: int) -> list[np.ndarray]:
    """[P, P', P'', ...](x) up to order ``n_deriv``; internal, no domain check.

    Uses P'_l = (2l-1) P_{l-1} + P'_{l-2} and its x-derivatives; pure
    summations, stable and pole-safe (no division by 1 - x^2).
    """
    x = np.asarray(x, dtype=float)
    p_vals = [np.ones_like(x), x.copy()]
    for l in range(2, ell + 1):
        p_vals.append(((2 * l - 1) * x * p_vals[l - 1] - (l - 1) * p_vals[l - 2]) / l)
    out = [p_vals[ell] if ell >= 1 else p_vals[0]]
    prev_order = p_vals  # derivatives of order k-1, all degrees up to ell
    for k in range(1, n_deriv + 1):
        cur = [np.zeros_like(x), np.ones_like(x) if k == 1 else np.zeros_like(x)]
        for l in range(2, ell + 1):
            cur.append((2 * l - 1) * prev_order[l - 1] + cur[l - 2])
        out.append(cur[ell] if ell >= 1 else cur[0])
        prev_order = cur
    return out


def legendre_p(ell: int, x) -> np.ndarray | float:
    """Legendre polynomial P_ell(x) by the three-term recurrence."""
    if ell < 0:
        raise DomainError(f"degree must be nonnegative, got {ell}")
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-14):
        raise DomainError("argument outside [-1, 1]")
    val = _legendre_p_derivs(ell, np.clip(arr, -1.0, 1.0), 0)[0]
    return float(val) if np.isscalar(x) else val


def legendre_p_dtheta(ell: int, theta) -> np.ndarray | float:
    """d P_ell(cos theta) / d theta."""
    th = np.asarray(theta, dtype=float)
    x = np.cos(th)
    dp = _legendre_p_derivs(ell, x, 1)[1]
    val = -np.sin(th) * dp
    return float(val) if np.isscalar(theta) else val


def c_theta(ell: int, theta) -> np.ndarray | float:
    """sin(theta) d/dtheta [ (1/sin theta) dP_ell(cos theta)/dtheta ].

    Evaluated through the pole-safe closed form
    2 cos(theta) P'_ell(cos) - ell(ell+1) P_ell(cos), which follows from the
    Legendre equation; vanishes identically at both poles.
    """
    if ell < 2:
        raise DomainError(f"defined for degree >= 2, got {ell}")
    th = np.asarray(theta, dtype=float)
    x = np.cos(th)
    p, dp = _legendre_p_derivs(ell, x, 1)
    val = 2.0 * x * dp - ell * (ell + 1) * p
    return float(val) if np.isscalar(theta) else val


def _harmonic_tables(
    l_max: int, theta: np.ndarray, n_deriv: int = 2
) -> tuple[np.ndarray, ...]:
    """Real-harmonic theta factors Ybar_lm and theta-derivatives, shape (L+1, L+1, n).

    Ybar_l0 = Pbar_l0 and Ybar_lm = sqrt(2) Pbar_lm for m > 0, where Pbar_lm is
    the orthonormal associated Legendre function of cos(theta) without the
    Condon-Shortley phase.  Recurrences, each step over all m at once:
        Pbar_00 = sqrt(1/4pi)
        Pbar_ll = sqrt((2l+1)/(2l)) sin(theta) Pbar_{l-1,l-1}
        Pbar_{l,l-1} = sqrt(2l+1) cos(theta) Pbar_{l-1,l-1}
        Pbar_lm = a_lm [cos(theta) Pbar_{l-1,m} - b_lm Pbar_{l-2,m}]
    First derivative from the same-m relation, second from the ALP equation.
    Entries with m > l are exactly zero.
    """
    theta = np.asarray(theta, dtype=float)
    x, s = np.cos(theta), np.sin(theta)
    L = l_max
    pbar = np.zeros((L + 1, L + 1, theta.size))
    pbar[0, 0] = np.sqrt(1.0 / (4.0 * np.pi))
    for l in range(1, L + 1):
        pbar[l, l] = np.sqrt((2 * l + 1) / (2.0 * l)) * s * pbar[l - 1, l - 1]
        pbar[l, l - 1] = np.sqrt(2 * l + 1.0) * x * pbar[l - 1, l - 1]
        m = np.arange(l - 1)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None]
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))[:, None]
        pbar[l, : l - 1] = a * (x * pbar[l - 1, : l - 1] - b * pbar[l - 2, : l - 1])
    tables = [pbar]
    ell = np.arange(L + 1)[:, None, None]
    m = np.arange(L + 1)[None, :, None]
    upper = (ell < m)[..., 0]
    if n_deriv >= 1:
        c = np.sqrt(np.maximum(ell * ell - m * m, 0) * (2.0 * ell + 1.0) / (2.0 * ell - 1.0))
        dpbar = ell * x * pbar
        dpbar[1:] -= c[1:] * pbar[:-1]
        dpbar /= s
        dpbar[0] = 0.0
        dpbar[upper] = 0.0
        tables.append(dpbar)
    if n_deriv >= 2:
        d2pbar = -(x / s) * dpbar
        d2pbar -= (ell * (ell + 1.0) - (m * m) / (s * s)) * pbar
        d2pbar[upper] = 0.0
        tables.append(d2pbar)
    for table in tables:
        table[:, 1:] *= np.sqrt(2.0)
    return tuple(tables)


class SphereGrid:
    """Gauss-Legendre x uniform-longitude product grid with transform tables.

    Immutable after construction; all transform tables are precomputed, so
    instances can be shared freely between threads.
    """

    def __init__(self, n_theta: int, n_phi: int, l_max: int):
        if l_max < 0:
            raise DomainError(f"band limit must be nonnegative, got {l_max}")
        if n_theta < l_max + 1 or n_phi < 2 * l_max + 1:
            raise BandLimitError(
                f"grid ({n_theta} x {n_phi}) too coarse for l_max={l_max}; "
                f"need n_theta >= {l_max + 1} and n_phi >= {2 * l_max + 1}"
            )
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        self.l_max = int(l_max)
        x, w = _grid_rule(n_theta)
        # ascending colatitude <=> descending cos(theta)
        self.cos_theta = x[::-1].copy()
        self.weights = w[::-1].copy()
        self.nodes = np.arccos(self.cos_theta)
        self.sin_theta = np.sin(self.nodes)
        self.phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        self._dphi = 2.0 * np.pi / n_phi

        self._ybar, self._dybar, self._d2ybar = _harmonic_tables(l_max, self.nodes, 2)
        m = np.arange(l_max + 1)[:, None]
        self._cosm = np.cos(m * self.phi[None, :])
        self._sinm = np.sin(m * self.phi[None, :])

    @classmethod
    def for_band_limit(cls, l_max: int) -> "SphereGrid":
        """Smallest grid with exact transforms up to ``l_max``."""
        return cls(l_max + 1, 2 * l_max + 1, l_max)

    def theta_grid(self) -> np.ndarray:
        return np.broadcast_to(self.nodes[:, None], (self.n_theta, self.n_phi))

    def phi_grid(self) -> np.ndarray:
        return np.broadcast_to(self.phi[None, :], (self.n_theta, self.n_phi))

    def __repr__(self) -> str:
        return f"SphereGrid(n_theta={self.n_theta}, n_phi={self.n_phi}, l_max={self.l_max})"


@dataclass(frozen=True)
class GridField:
    """Real scalar samples on a SphereGrid, shape (n_theta, n_phi)."""

    values: np.ndarray
    grid: SphereGrid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_theta, self.grid.n_phi):
            raise DomainError(
                f"value shape {v.shape} does not match grid "
                f"({self.grid.n_theta}, {self.grid.n_phi})"
            )
        object.__setattr__(self, "values", v)

    def _binary(self, other, op):
        if isinstance(other, GridField):
            if other.grid is not self.grid and (
                other.grid.n_theta != self.grid.n_theta
                or other.grid.n_phi != self.grid.n_phi
            ):
                raise DomainError("grid mismatch in field arithmetic")
            other = other.values
        return GridField(op(self.values, other), self.grid)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return GridField(-self.values, self.grid)


@dataclass(frozen=True)
class HarmonicField:
    """Real spherical-harmonic coefficients a_lm, 0 <= l <= l_max, |m| <= l.

    ``coeffs[l, l_max + m]`` holds the coefficient of the orthonormal real
    harmonic; m > 0 is the cosine branch, m < 0 the sine branch.
    """

    l_max: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.l_max + 1, 2 * self.l_max + 1):
            raise DomainError(
                f"coefficient shape {c.shape} incompatible with l_max={self.l_max}"
            )
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zeros(cls, l_max: int) -> "HarmonicField":
        return cls(l_max, np.zeros((l_max + 1, 2 * l_max + 1)))

    def coefficient(self, l: int, m: int) -> float:
        if not (0 <= l <= self.l_max and abs(m) <= l):
            raise DomainError(f"(l={l}, m={m}) outside stored range")
        return float(self.coeffs[l, self.l_max + m])

    def norm(self) -> float:
        """L2 norm over the sphere (Parseval)."""
        return float(np.sqrt(np.sum(self.coeffs**2)))

    def degree_norm(self, l: int) -> float:
        """L2 norm of the degree-l block."""
        return float(np.sqrt(np.sum(self.coeffs[l] ** 2)))

    def __add__(self, other: "HarmonicField") -> "HarmonicField":
        if other.l_max != self.l_max:
            raise DomainError("band-limit mismatch in coefficient arithmetic")
        return HarmonicField(self.l_max, self.coeffs + other.coeffs)

    def __sub__(self, other: "HarmonicField") -> "HarmonicField":
        if other.l_max != self.l_max:
            raise DomainError("band-limit mismatch in coefficient arithmetic")
        return HarmonicField(self.l_max, self.coeffs - other.coeffs)


@functools.lru_cache(maxsize=None)
def _block_index(l_max: int):
    """(l, m) of the cosine (m >= 0) and sine (m > 0) entries of the [l, m] blocks."""
    l, m = np.tril_indices(l_max + 1)
    sine = m > 0
    index = (l, m, l[sine], m[sine])
    for a in index:
        a.flags.writeable = False  # shared by every caller of the cache
    return index[:2], index[2:]


def analyze(field: GridField, l_max: int | None = None) -> HarmonicField:
    """Forward transform; exact for fields band-limited at the grid's l_max."""
    grid = field.grid
    if l_max is None:
        l_max = grid.l_max
    if l_max > grid.l_max:
        raise BandLimitError(
            f"grid supports l_max={grid.l_max}, requested {l_max}"
        )
    fc = np.einsum("jk,mk->jm", field.values, grid._cosm) * grid._dphi
    fs = np.einsum("jk,mk->jm", field.values, grid._sinm) * grid._dphi
    yw = grid._ybar * grid.weights[None, None, :]
    ac = np.einsum("lmj,jm->lm", yw, fc)
    as_ = np.einsum("lmj,jm->lm", yw, fs)
    coeffs = np.zeros((l_max + 1, 2 * l_max + 1))
    (lc, mc), (ls, ms) = _block_index(l_max)
    coeffs[lc, l_max + mc] = ac[lc, mc]
    coeffs[ls, l_max - ms] = as_[ls, ms]
    return HarmonicField(l_max, coeffs)


def _theta_sums(h: HarmonicField, theta_table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_l a_lm T_lm(theta) for the cosine and sine coefficients, each (L+1, n)."""
    L = h.l_max
    ac = np.zeros((L + 1, L + 1))
    as_ = np.zeros((L + 1, L + 1))
    (lc, mc), (ls, ms) = _block_index(L)
    ac[lc, mc] = h.coeffs[lc, L + mc]
    as_[ls, ms] = h.coeffs[ls, L - ms]
    tab = theta_table[: L + 1, : L + 1, :]
    return np.einsum("lmj,lm->mj", tab, ac), np.einsum("lmj,lm->mj", tab, as_)


def _synthesize_from_tables(
    h: HarmonicField,
    grid: SphereGrid,
    theta_table: np.ndarray,
    phi_deriv: int,
) -> np.ndarray:
    """Evaluate sum a_lm * T_lm(theta) * trig(m phi) with optional d/dphi's."""
    if h.l_max > grid.l_max:
        raise BandLimitError(
            f"grid supports l_max={grid.l_max}, field has {h.l_max}"
        )
    L = h.l_max
    gc, gs = _theta_sums(h, theta_table)
    m = np.arange(L + 1, dtype=float)[:, None]
    cosm, sinm = grid._cosm[: L + 1], grid._sinm[: L + 1]
    if phi_deriv == 0:
        return np.einsum("mj,mk->jk", gc, cosm) + np.einsum("mj,mk->jk", gs, sinm)
    if phi_deriv == 1:
        return np.einsum("mj,mk->jk", -m * gc, sinm) + np.einsum(
            "mj,mk->jk", m * gs, cosm
        )
    if phi_deriv == 2:
        return np.einsum("mj,mk->jk", -(m**2) * gc, cosm) + np.einsum(
            "mj,mk->jk", -(m**2) * gs, sinm
        )
    raise DomainError(f"unsupported phi derivative order {phi_deriv}")


def synthesize(h: HarmonicField, grid: SphereGrid) -> GridField:
    """Inverse transform onto the grid."""
    return GridField(_synthesize_from_tables(h, grid, grid._ybar, 0), grid)


def evaluate(h: HarmonicField, theta, phi) -> np.ndarray:
    """Evaluate the harmonic sum at arbitrary points (vectorized).

    The theta factors are built once per distinct colatitude and gathered back
    per point, so a coordinate circle costs one Legendre table.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    nodes, inverse = np.unique(theta, return_inverse=True)
    gc, gs = _theta_sums(h, _harmonic_tables(h.l_max, nodes, 0)[0])
    gc, gs = gc[:, inverse], gs[:, inverse]
    m = np.arange(h.l_max + 1, dtype=float)[:, None]
    return np.einsum("mp,mp->p", gc, np.cos(m * phi[None, :])) + np.einsum(
        "mp,mp->p", gs, np.sin(m * phi[None, :])
    )


_OPERATORS = {
    "laplacian": lambda L: -L,
    "laplacian_plus_2": lambda L: 2.0 - L,
    "laplacian_laplacian_plus_2": lambda L: L * (L - 2.0),
}


def apply_operator(h: HarmonicField, op: str) -> HarmonicField:
    """Apply Delta, (Delta+2), or Delta(Delta+2) by eigenvalue multiplication.

    Eigenvalues per degree l (with L = l(l+1)): -L, 2-L, and L(L-2).
    """
    try:
        eig_of = _OPERATORS[op]
    except KeyError:
        raise DomainError(f"unknown operator {op!r}; choose from {sorted(_OPERATORS)}")
    ls = np.arange(h.l_max + 1, dtype=float)
    eig = eig_of(ls * (ls + 1.0))
    return HarmonicField(h.l_max, h.coeffs * eig[:, None])


@dataclass(frozen=True)
class SphereDerivatives:
    """Pointwise covariant derivatives of a scalar on the round unit sphere.

    Gradient and Hessian components are in the orthonormal frame
    (e_theta, e_phi); ``hess_sq`` is the full contraction |Hess f|^2 and
    ``laplacian`` the trace.
    """

    grad_theta: GridField
    grad_phi: GridField
    hess_tt: GridField
    hess_tp: GridField
    hess_pp: GridField
    grad_sq: GridField
    hess_sq: GridField
    laplacian: GridField


def grad_hess(field: GridField, l_max: int | None = None) -> SphereDerivatives:
    """Gradient, covariant Hessian, |grad f|^2, |Hess f|^2 and Delta f.

    The field is analyzed at the grid band limit and all derivatives are
    synthesized from the analytic theta/phi derivatives of the harmonics, so
    results are exact at grid points for band-limited input.
    """
    return _harmonic_derivatives(analyze(field, l_max), field.grid)


def _harmonic_derivatives(h: HarmonicField, grid: SphereGrid) -> SphereDerivatives:
    """``grad_hess`` of the field with coefficients ``h``, on ``grid``."""
    ft = _synthesize_from_tables(h, grid, grid._dybar, 0)
    fp = _synthesize_from_tables(h, grid, grid._ybar, 1)
    ftt = _synthesize_from_tables(h, grid, grid._d2ybar, 0)
    ftp = _synthesize_from_tables(h, grid, grid._dybar, 1)
    fpp = _synthesize_from_tables(h, grid, grid._ybar, 2)
    s = grid.sin_theta[:, None]
    c = grid.cos_theta[:, None]
    grad_theta = ft
    grad_phi = fp / s
    hess_tt = ftt
    hess_tp = (ftp - (c / s) * fp) / s
    hess_pp = fpp / (s * s) + (c / s) * ft
    g = lambda v: GridField(v, grid)
    return SphereDerivatives(
        grad_theta=g(grad_theta),
        grad_phi=g(grad_phi),
        hess_tt=g(hess_tt),
        hess_tp=g(hess_tp),
        hess_pp=g(hess_pp),
        grad_sq=g(grad_theta**2 + grad_phi**2),
        hess_sq=g(hess_tt**2 + 2.0 * hess_tp**2 + hess_pp**2),
        laplacian=g(hess_tt + hess_pp),
    )


def integrate(field: GridField) -> float:
    """Sphere integral by the product quadrature; exact for band-limited input."""
    grid = field.grid
    return float(np.einsum("j,jk->", grid.weights, field.values) * grid._dphi)


def coordinate_fields(
    grid: SphereGrid, frame: np.ndarray | None = None
) -> tuple[GridField, GridField, GridField]:
    """The three first-degree eigenfunctions z_i = frame[i] . n(theta, phi).

    ``frame`` rows are ambient unit vectors; the default binds z1 to the
    polar axis and (z2, z3) to a right-handed completion.
    """
    if frame is None:
        frame = DEFAULT_FRAME
    frame = np.asarray(frame, dtype=float)
    th = grid.theta_grid()
    ph = grid.phi_grid()
    n_hat = np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1
    )
    z = np.einsum("ic,jkc->ijk", frame, n_hat)
    return tuple(GridField(z[i], grid) for i in range(3))


def rotate_frame(frame: np.ndarray, angle: float) -> np.ndarray:
    """Rotate (z2, z3) about the z1 axis by ``angle``; z1 row unchanged."""
    frame = np.asarray(frame, dtype=float)
    c, s = np.cos(angle), np.sin(angle)
    out = frame.copy()
    out[1] = c * frame[1] + s * frame[2]
    out[2] = -s * frame[1] + c * frame[2]
    return out
