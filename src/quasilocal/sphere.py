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
  ambient coordinates to the sphere, in one fixed frame: z1 = cos(theta)
  (polar axis toward the surface's center), z2 = sin(theta) cos(phi),
  z3 = sin(theta) sin(phi).  ``coordinate_fields`` returns them, so z1 is
  constant along each colatitude row.
* Grids pair Gauss-Legendre colatitude nodes (poles excluded) with a uniform
  longitude grid; transforms are direct matrix contractions, exact for
  band-limited fields whenever n_theta >= l_max + 1 and n_phi >= 2 l_max + 1.
  A grid builds every table when it is made and never writes one after, so
  threads may share it.  The pipeline builds none: its fields live in one
  azimuthal order, taken from the Gauss rows alone (``embedding``).
  Nonlinear products should be formed on a grid sized for twice the band
  limit (``SphereGrid.for_band_limit(2 * l_max)``) to avoid aliasing.
* The derivatives' theta tables (d/dtheta, d2/dtheta2, m/sin(theta) and its
  d/dtheta) come from ladder relations between neighbouring orders: nothing
  divides by sin(theta), so they hold at a colatitude of 1e-8 as on the
  equator.  One builder serves a grid's rows and arbitrary points alike;
  at points it builds only the orders the fields hold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BandLimitError, DomainError

__all__ = [
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
    "synthesize",
]


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


# for SphereGrid, which copies what it takes, and the theta sums of the sources
# and the energy stage, which read their rules once per surface
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


def _legendre_table(l_max: int, theta: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Pbar_lm(cos theta) without the sqrt(2) of the real harmonics, shape (L+1, hi-lo+1, n).

    Pbar_lm is the orthonormal associated Legendre function of cos(theta)
    without the Condon-Shortley phase, at the orders m = lo..hi (all by
    default); entries with m > l are exactly zero.  Recurrences, each step
    over all the orders at once:
        Pbar_00 = sqrt(1/4pi)
        Pbar_ll = sqrt((2l+1)/(2l)) sin(theta) Pbar_{l-1,l-1}
        Pbar_{l,l-1} = sqrt(2l+1) cos(theta) Pbar_{l-1,l-1}
        Pbar_lm = a_lm [cos(theta) Pbar_{l-1,m} - b_lm Pbar_{l-2,m}]
    The coefficients are built as whole arrays; the sectoral diagonal is a
    running product over l, its neighbour one product, and only the m <= l-2
    recurrence steps over l, on rows flattened over (order, colatitude) so each
    step is a few one-dimensional ufunc calls.  An entry's operations do not
    depend on the orders asked for, so it is bitwise the full table's.
    """
    L, hi = l_max, l_max if hi is None else hi
    x, l1, M = np.cos(theta), np.arange(1.0, hi + 1)[:, None], hi - lo + 1
    diag = np.empty((hi + 1, theta.size))
    diag[0] = np.sqrt(1.0 / (4.0 * np.pi))
    diag[1:] = np.sqrt((2.0 * l1 + 1.0) / (2.0 * l1)) * np.sin(theta)
    diag = np.cumprod(diag, axis=0)  # Pbar_ll for l = 0..hi
    pbar = np.zeros((L + 1, M, theta.size))
    cells = pbar.reshape((L + 1) * M, theta.size)  # Pbar_lm in row l M + m - lo
    cells[lo * M :: M + 1][:M] = diag[lo:]
    n = min(hi, L - 1) - lo + 1  # the orders lo..lo + n - 1 have a neighbour Pbar_{m+1,m}
    cells[(lo + 1) * M :: M + 1][:n] = np.sqrt(2.0 * np.arange(lo, lo + n)[:, None] + 3.0) * x * diag[lo : lo + n]
    ell, m = np.arange(L + 1.0)[:, None, None], np.arange(lo, hi + 1.0)[:, None]
    ab = np.empty((2, L + 1, M, theta.size))  # a_lm and b_lm, repeated along the colatitudes
    with np.errstate(divide="ignore", invalid="ignore"):  # at m > l - 2, unused
        ab[0] = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
        ab[1] = np.sqrt(((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0))
    rows, (a, b), x = pbar.reshape(L + 1, M * theta.size), ab.reshape(2, L + 1, M * theta.size), np.tile(x, M)

    def step(x, p1, p2, a, b, row):  # Pbar_l from Pbar_{l-1} and Pbar_{l-2}
        np.multiply(x, p1, out=row)
        row -= b * p2
        row *= a

    for l in range(lo + 2, min(hi + 2, L + 1)):  # reaching the orders lo..l - 2 only
        k = (l - 1 - lo) * theta.size
        step(x[:k], rows[l - 1, :k], rows[l - 2, :k], a[l, :k], b[l, :k], rows[l, :k])
    for p1, p2, al, bl, row in zip(rows[hi + 1 :], rows[hi:], a[hi + 2 :], b[hi + 2 :], rows[hi + 2 :]):
        step(x, p1, p2, al, bl, row)  # reaching every order
    return pbar


def _real_scaled(table: np.ndarray, lo: int = 0) -> np.ndarray:
    """The m > 0 entries times sqrt(2), in place: Pbar -> Ybar; the table's orders start at ``lo``."""
    table[:, max(0, 1 - lo):] *= np.sqrt(2.0)
    return table


def _ladder_tables(pbar: np.ndarray, lo: int = 0) -> tuple[np.ndarray, ...]:
    """d/dtheta, d2/dtheta2, m/sin(theta) and d/dtheta (m/sin(theta)) of Ybar,
    each shaped like ``pbar``, from the unscaled table ``pbar`` of the orders
    lo, lo + 1, ...

    Ladder relations between neighbouring orders (DLMF 14.10), with P = Pbar:
        d/dtheta P_l0 = -sqrt(l(l+1)) P_l1
        d/dtheta P_lm = [sqrt((l+m)(l-m+1)) P_l,m-1 - sqrt((l-m)(l+m+1)) P_l,m+1] / 2
        (m/sin) P_lm = sqrt((2l+1)/(2l-1)) [sqrt((l+m)(l+m-1)) P_l-1,m-1
                                           + sqrt((l-m)(l-m-1)) P_l-1,m+1] / 2
    for m >= 1; (m/sin) P_l0 = 0.  The second derivative is the first relation
    applied twice, d/dtheta (m/sin) P the third applied to the first
    derivative.  No step divides by sin(theta), so the tables hold up to the
    poles; entries with m > l are zero.  An edge order of ``pbar`` other than
    0 or L lacks a neighbour: the first-derivative tables are exact one order
    inside such an edge, the second-derivative ones two.
    """
    L = pbar.shape[0] - 1
    ell = np.arange(L + 1.0)[:, None, None]
    m = np.arange(lo, lo + pbar.shape[1], dtype=float)[None, :, None]
    down = np.sqrt(np.maximum((ell + m) * (ell - m + 1.0), 0.0)) / 2.0  # weight of m - 1
    up = np.sqrt(np.maximum((ell - m) * (ell + m + 1.0), 0.0)) / 2.0  # weight of m + 1
    if lo == 0:
        down[:, 0], up[:, 0] = 0.0, 2.0 * up[:, 0]
    gain = np.sqrt((2.0 * ell[1:] + 1.0) / (2.0 * ell[1:] - 1.0)) / 2.0
    from_below = gain * np.sqrt((ell[1:] + m) * (ell[1:] + m - 1.0))  # weight of l - 1, m - 1
    from_above = gain * np.sqrt((ell[1:] - m) * (ell[1:] - m - 1.0))  # weight of l - 1, m + 1

    def d_theta(table):
        out = np.zeros_like(table)
        out[:, 1:] = down[:, 1:] * table[:, :-1]
        out[:, :-1] -= up[:, :-1] * table[:, 1:]
        return out

    def m_over_sin(table):
        out = np.zeros_like(table)
        out[1:, 1:] = from_below[:, 1:] * table[:-1, :-1]
        out[1:, 1:-1] += from_above[:, 1:-1] * table[:-1, 2:]
        return out

    d1 = d_theta(pbar)
    return tuple(_real_scaled(t, lo) for t in (d1, d_theta(d1), m_over_sin(pbar), m_over_sin(d1)))


class SphereGrid:
    """Gauss-Legendre x uniform-longitude product grid with transform tables.

    The quadrature rule, coordinates, Ybar, its four theta-derivative tables
    and the longitude tables are built with the grid from one Legendre table;
    nothing is written after, so instances can be shared freely between
    threads.
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
        pbar = _legendre_table(self.l_max, self.nodes)
        self._ladder = _ladder_tables(pbar)  # reads the unscaled table
        self._ybar = _real_scaled(pbar)
        mphi = np.arange(self.l_max + 1)[:, None] * self.phi[None, :]
        self._cosm, self._sinm = np.cos(mphi), np.sin(mphi)

    @classmethod
    def for_band_limit(cls, l_max: int) -> "SphereGrid":
        """Smallest grid with exact transforms up to ``l_max``."""
        return cls(l_max + 1, 2 * l_max + 1, l_max)

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


@dataclass(frozen=True)
class HarmonicField:
    """Real spherical-harmonic coefficients a_lm, 0 <= l <= l_max, |m| <= l.

    ``coeffs[l, l_max + m]`` holds the coefficient of the orthonormal real
    harmonic; m > 0 is the cosine branch, m < 0 the sine branch.  With L =
    l_max, the [l, m] blocks are slices: cosine (m >= 0) ``coeffs[:, L:]``,
    sine (m = 1..L) ``coeffs[:, :L]`` read right to left.
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


def analyze(field: GridField) -> HarmonicField:
    """Forward transform at the grid's band limit; exact for band-limited fields.

    Each block is written masked to l >= m, so every slot with |m| > l holds +0.0.
    """
    grid = field.grid
    L = grid.l_max
    fc = np.einsum("jk,mk->jm", field.values, grid._cosm) * grid._dphi
    fs = np.einsum("jk,mk->jm", field.values, grid._sinm) * grid._dphi
    yw = grid._ybar * grid.weights[None, None, :]
    coeffs = np.zeros((L + 1, 2 * L + 1))
    coeffs[:, L:] = np.tril(np.einsum("lmj,jm->lm", yw, fc))
    coeffs[:, :L] = np.tril(np.einsum("lmj,jm->lm", yw, fs))[:, :0:-1]
    return HarmonicField(L, coeffs)


def _blocks(h: HarmonicField, l_max: int) -> np.ndarray:
    """The blocks [l, 0, m] = a_lm and [l, 1, m] = a_l,-m of ``h``, shape (l_max+1, 2, l_max+1);
    +0.0 where m > l, at the sine block's m = 0 and above ``h.l_max``."""
    L = h.l_max
    out = np.zeros((l_max + 1, 2, l_max + 1))
    out[: L + 1, 0, : L + 1] = np.tril(h.coeffs[:, L:])
    out[: L + 1, 1, 1 : L + 1] = np.tril(h.coeffs[:, L::-1])[:, 1:]
    return out


def _theta_sums(blocks: np.ndarray, theta_table: np.ndarray) -> np.ndarray:
    """sum_l a_lm T_lm(theta) of the cosine and sine blocks, shape (2, orders, n), from the table's leading entries."""
    return np.einsum("lmj,lsm->smj", theta_table[: blocks.shape[0], : blocks.shape[2]], blocks)


def _check_band(h: HarmonicField, grid: SphereGrid) -> None:
    if h.l_max > grid.l_max:
        raise BandLimitError(f"grid supports l_max={grid.l_max}, field has {h.l_max}")


def _phi_stage(gc: np.ndarray, gs: np.ndarray, grid: SphereGrid) -> np.ndarray:
    """sum_m [gc_m cos(m phi) + gs_m sin(m phi)] on the grid longitudes; leading axes of gc, gs are kept."""
    n = gc.shape[-2]
    return np.einsum("...mj,mk->...jk", gc, grid._cosm[:n]) + np.einsum("...mj,mk->...jk", gs, grid._sinm[:n])


def synthesize(h: HarmonicField, grid: SphereGrid) -> GridField:
    """Inverse transform onto the grid."""
    _check_band(h, grid)
    return GridField(_phi_stage(*_theta_sums(_blocks(h, h.l_max), grid._ybar), grid), grid)


def _points(hs, theta, phi, ladder: bool):
    """(the fields' ``_blocks``, Ybar and with ``ladder`` its ``_ladder_tables``
    at the distinct colatitudes, the stage summing theta sums gathered back per
    point against cos(m phi), sin(m phi)), all at the orders lo..hi from the
    lowest to the highest nonzero in any field (m = 0 if none); the ladder reads
    Pbar at lo - 2..hi + 2.  The skipped orders add exact zeros, so every sum is
    bitwise the all-order one at two or more points, and at one for a field
    holding one order (numpy groups a one-point sum over orders in SIMD lanes)."""
    l_max = max(h.l_max for h in hs)
    blocks = [_blocks(h, l_max) for h in hs]
    held = np.flatnonzero(np.any([b != 0.0 for b in blocks], axis=(0, 1, 2)))
    lo, hi = (int(held[0]), int(held[-1])) if held.size else (0, 0)
    theta, phi = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (theta, phi))
    nodes, inverse = np.unique(theta, return_inverse=True)
    m = np.arange(lo, hi + 1, dtype=float)[:, None]
    cosm, sinm = np.cos(m * phi[None, :]), np.sin(m * phi[None, :])

    def stage(gc: np.ndarray, gs: np.ndarray) -> np.ndarray:
        terms = "...mp,mp->...p"
        return np.einsum(terms, gc[..., inverse], cosm) + np.einsum(terms, gs[..., inverse], sinm)

    first, last = (max(0, lo - 2), min(l_max, hi + 2)) if ladder else (lo, hi)
    pbar = _legendre_table(l_max, nodes, first, last)
    own = slice(lo - first, hi - first + 1)
    tables = (_real_scaled(pbar[:, own].copy(), lo),)
    if ladder:
        tables += tuple(t[:, own] for t in _ladder_tables(pbar, first))
    return [b[:, :, lo : hi + 1] for b in blocks], tables, stage


def evaluate(h: HarmonicField, theta, phi) -> np.ndarray:
    """Evaluate the harmonic sum at arbitrary points (vectorized).

    The theta factors are built once per distinct colatitude and gathered back
    per point, both only at the orders the field holds (``_points``), so a
    coordinate circle costs one Legendre table column per order.
    """
    (blocks,), (ybar,), stage = _points((h,), theta, phi, ladder=False)
    return stage(*_theta_sums(blocks, ybar))


_OPERATORS = {
    "laplacian": lambda L: -L,
    "laplacian_plus_2": lambda L: 2.0 - L,
    "laplacian_laplacian_plus_2": lambda L: L * (L - 2.0),
}


def _eigenvalues(op: str, l_max: int) -> np.ndarray:
    """Eigenvalues -L, 2-L or L(L-2) of ``op`` per degree l <= l_max, with L = l(l+1)."""
    try:
        eig_of = _OPERATORS[op]
    except KeyError:
        raise DomainError(f"unknown operator {op!r}; choose from {sorted(_OPERATORS)}")
    ls = np.arange(l_max + 1, dtype=float)
    return eig_of(ls * (ls + 1.0))


def _quadratic_form(h: HarmonicField, op: str) -> float:
    """int h op(h) over the sphere by Parseval: sum_l lambda_l sum_m c_lm^2."""
    return float(np.sum(_eigenvalues(op, h.l_max)[:, None] * h.coeffs**2))


def apply_operator(h: HarmonicField, op: str) -> HarmonicField:
    """Apply Delta, (Delta+2), or Delta(Delta+2) by eigenvalue multiplication."""
    return HarmonicField(h.l_max, h.coeffs * _eigenvalues(op, h.l_max)[:, None])


@dataclass(frozen=True)
class SphereDerivatives:
    """Pointwise covariant derivatives of a scalar on the round unit sphere.

    The gradient is in the orthonormal frame (e_theta, e_phi); of the Hessian
    only ``hess_sq`` = |Hess f|^2 and its trace ``laplacian`` are kept.
    """

    grad_theta: GridField
    grad_phi: GridField
    grad_sq: GridField
    hess_sq: GridField
    laplacian: GridField


def grad_hess(field: GridField) -> SphereDerivatives:
    """Gradient, covariant Hessian, |grad f|^2, |Hess f|^2 and Delta f.

    The field is analyzed at the grid band limit and all derivatives are
    synthesized from the analytic theta/phi derivatives of the harmonics, so
    results are exact at grid points for band-limited input.
    """
    return _harmonic_derivatives(analyze(field), field.grid)


def _derivatives(blocks: np.ndarray, tables, stage) -> dict[str, np.ndarray]:
    """The value, gradient, |grad f|^2, |Hess f|^2 and Delta f of the field with ``_blocks`` ``blocks``.

    ``tables`` are Ybar and its ``_ladder_tables`` at the colatitudes and at
    the blocks' degrees and orders, and ``stage(gc, gs)`` sums theta sums over
    the longitudes.  With the m/sin tables the orthonormal-frame terms need no
    division:
        grad_phi = f_phi / sin,  Hess_tp = d/dtheta (f_phi / sin),
    and Legendre's equation gives Hess_pp = Delta f - Hess_tt, with Delta f
    from the coefficients times -l(l+1).
    """
    (c0, s0), (c1, s1), (c2, s2), (cq, sq), (cdq, sdq) = (_theta_sums(blocks, t) for t in tables)
    cl, sl = _theta_sums(blocks * _eigenvalues("laplacian", blocks.shape[0] - 1)[:, None, None], tables[0])
    # d/dphi takes (gc, gs) to m (gs, -gc); the m/sin tables carry the m
    value, grad_theta, grad_phi, hess_tt, hess_tp, laplacian = stage(
        np.stack((c0, c1, sq, c2, sdq, cl)), np.stack((s0, s1, -cq, s2, -cdq, sl))
    )
    hess_pp = laplacian - hess_tt
    return {"value": value, "grad_theta": grad_theta, "grad_phi": grad_phi, "laplacian": laplacian,
            "grad_sq": grad_theta**2 + grad_phi**2, "hess_sq": hess_tt**2 + 2.0 * hess_tp**2 + hess_pp**2}


def _harmonic_derivatives(h: HarmonicField, grid: SphereGrid) -> SphereDerivatives:
    """``grad_hess`` of the field with coefficients ``h``, on ``grid``."""
    _check_band(h, grid)
    d = _derivatives(_blocks(h, h.l_max), (grid._ybar, *grid._ladder), lambda gc, gs: _phi_stage(gc, gs, grid))
    return SphereDerivatives(**{k: GridField(v, grid) for k, v in d.items() if k != "value"})


def _point_derivatives(hs, theta, phi) -> list[dict[str, np.ndarray]]:
    """``_derivatives`` of each field of ``hs`` at the points (theta, phi).

    The fields share one set of theta tables, built once per distinct
    colatitude, and one set of longitude factors, both only at the orders the
    fields hold (``_points``).
    """
    blocks, tables, stage = _points(hs, theta, phi, ladder=True)
    return [_derivatives(b, tables, stage) for b in blocks]


def integrate(field: GridField) -> float:
    """Sphere integral by the product quadrature; exact for band-limited input."""
    grid = field.grid
    return float(np.einsum("j,jk->", grid.weights, field.values) * grid._dphi)


def coordinate_fields(grid: SphereGrid) -> tuple[GridField, GridField, GridField]:
    """The first-degree eigenfunctions z1 = cos(theta), z2 = sin(theta) cos(phi)
    and z3 = sin(theta) sin(phi) on the grid; z1 is constant along each row."""
    # cos of the nodes, not the Gauss abscissae grid.cos_theta, whose last bits differ
    z1 = np.repeat(np.cos(grid.nodes)[:, None], grid.n_phi, axis=1)
    sin_th = grid.sin_theta[:, None]
    z2, z3 = sin_th * np.cos(grid.phi), sin_th * np.sin(grid.phi)
    return GridField(z1, grid), GridField(z2, grid), GridField(z3, grid)
