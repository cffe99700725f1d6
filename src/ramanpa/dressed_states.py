"""Dressed-state band structure of Raman-coupled spin-1 atoms.

Single-particle Hamiltonian in the bare basis
|m_f=-1, q+2>, |m_f=0, q>, |m_f=+1, q-2> (quasimomentum in k_r, energy in E_r):

    H(q) = [[(q+2)^2 - delta,  w,              0             ],
            [w,                q^2 - eps_q,    w             ],
            [0,                w,              (q-2)^2 + delta]]

with w = Omega_R / 2. The lowest-band eigenvector at the band minimum is the
spin-momentum superposition (C_-1, C_0, C_+1) consumed by the interference and
kinetics modules. Sign convention: C_0 >= 0; if C_0 = 0 then C_+1 >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import EPSILON_Q_ER, RECOIL_ENERGY_HZ
from .tables import write_csv

__all__ = [
    "RamanParams",
    "DressedState",
    "BandCurve",
    "build_hamiltonian",
    "band_curve",
    "find_band_minimum",
    "coefficients_vs_delta",
    "band_minima",
    "write_band_csv",
]

# search window in k_r. For q1 < q2 <= -2 every diagonal entry of H falls from
# q1 to q2 while w does not depend on q, so H(q2) - H(q1) is negative definite
# and (Weyl) the lowest band falls strictly up to q = -2; mirrored, it rises
# strictly beyond +2. The global minimum over any wider window lies in [-2, 2].
Q_WINDOW = (-2.0, 2.0)
# scan step in k_r for every caller: wells are about 1 k_r wide and Newton
# refines each grid well that can win (a 0.2 step already misses the odd well)
SCAN_STEP = 0.1
# cap on Newton iterations per candidate: from one scan step (<= 0.1 k_r) away
# they reach the 1e-13 k_r level of the dense reference
_NEWTON_STEPS = 6
# a row stops iterating after an accepted Newton step s_k this small (in k_r):
# quadratic convergence leaves it about 1e-18 k_r from the root. It also stops
# once s_k^3 / s_{k-1}^2 <= _NEWTON_LEFT (in k_r), both steps Newton steps. In
# the quadratic regime e_k = C e_{k-1}^2 and s_k = e_{k-1}, so C = s_k / s_{k-1}^2
# and the error left, C s_k^2, is that ratio. At 1e-14 k_r, q* moves the
# coefficients by about 1e-14 and E by about 1e-28, far inside the 1e-10 dense
# reference. After a start or a bisection s_{k-1} counts as 0, so the estimate is
# infinite and a row in linear convergence never stops early by it.
_NEWTON_DONE = 1e-9
_NEWTON_LEFT = 1e-14
_CHUNK_CELLS = 1 << 17  # rows x scan points per chunk: a few MB per temporary
# bound on |omega_r|, |delta| and |epsilon_q| in E_r: far above the paper's
# <= 12 E_r, and far below the scale (~1e12) where rounding flattens the band
# and alone decides q*
DRESSING_LIMIT_ER = 1e6
_MAX_BAND_POINTS = 100_000  # band_curve n_points cap: it holds n x 3 x 3 arrays
_MAX_BAND_Q = math.sqrt(DRESSING_LIMIT_ER)  # band_curve |q| bound: q^2 <= 1e6 E_r
# the coarse scan runs in float32 while step^2 >= this times the row scale
# max(1, |omega|, |delta|, |eps_q|): float32 rounding (~6e-8 x scale) then sits
# far below the energy change across one grid step (~step^2)
_F32_SCAN_MARGIN = 1e-5


@dataclass(frozen=True)
class RamanParams:
    """Dressing parameters in recoil units.

    omega_r : Raman coupling Omega_R in E_r
    delta : two-photon detuning in E_r
    epsilon_q : quadratic Zeeman shift of m_f=0 in E_r
    recoil_energy_hz : E_r/h in Hz, metadata that no computation reads
        (DEFAULT_CROSS_WEIGHT converts E_r to kHz with RECOIL_ENERGY_HZ)
    """

    omega_r: float
    delta: float = 0.0
    epsilon_q: float = EPSILON_Q_ER
    recoil_energy_hz: float = RECOIL_ENERGY_HZ

    def __post_init__(self):
        if not (math.isfinite(self.recoil_energy_hz) and all(
                abs(v) <= DRESSING_LIMIT_ER for v in (self.omega_r, self.delta, self.epsilon_q))):
            raise ValueError(f"dressing parameters must be finite, with |omega_r|, |delta| "
                             f"and |epsilon_q| <= {DRESSING_LIMIT_ER:g} E_r")
        if self.omega_r < 0:
            raise ValueError("omega_r must be >= 0")
        if self.epsilon_q < 0:
            raise ValueError("epsilon_q must be >= 0")
        if self.recoil_energy_hz <= 0:
            raise ValueError("recoil_energy_hz must be > 0")


@dataclass(frozen=True)
class DressedState:
    """Lowest-band state at one quasimomentum: q (k_r), energy (E_r), (C_-1, C_0, C_+1)."""

    q: float
    energy: float
    coeffs: tuple[float, float, float]

    def __post_init__(self):
        norm = sum(c * c for c in self.coeffs)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"coefficients not normalized: |c|^2 = {norm!r}")

    @property
    def weights(self) -> tuple[float, float, float]:
        """Spin populations (|C_-1|^2, |C_0|^2, |C_+1|^2)."""
        return tuple(c * c for c in self.coeffs)


@dataclass
class BandCurve:
    """Three dressed bands on a q grid.

    energies[i, b] is band b at q_grid[i], sorted ascending in b;
    spin_weights[i, b, m] is the population of component m (-1, 0, +1).
    """

    q_grid: np.ndarray
    energies: np.ndarray
    spin_weights: np.ndarray


def _diagonal(q, delta, epsilon_q):
    """Bare-state energies (H_00, H_11, H_22) at quasimomentum q, broadcasting."""
    return (q + 2.0) ** 2 - delta, q * q - epsilon_q, (q - 2.0) ** 2 + delta


def _hamiltonians(q, omega, delta, epsilon_q) -> np.ndarray:
    """H(q) over broadcast array arguments, shape (..., 3, 3)."""
    a, b, c = _diagonal(q, delta, epsilon_q)
    w = 0.5 * np.asarray(omega, dtype=float)
    h = np.zeros(np.broadcast(a, b, c, w).shape + (3, 3))
    h[..., 0, 0], h[..., 1, 1], h[..., 2, 2] = a, b, c
    h[..., 0, 1] = h[..., 1, 0] = h[..., 1, 2] = h[..., 2, 1] = w
    return h


def build_hamiltonian(q: float, params: RamanParams) -> np.ndarray:
    """Return the 3x3 Hamiltonian at quasimomentum q (k_r), in E_r units."""
    return _hamiltonians(q, params.omega_r, params.delta, params.epsilon_q)


def band_curve(params: RamanParams, q_min: float, q_max: float, n_points: int) -> BandCurve:
    """Sample all three dressed bands on a uniform q grid; ValueError, before
    allocating, unless 2 <= n_points <= _MAX_BAND_POINTS and |q| <= _MAX_BAND_Q."""
    if not (2 <= n_points <= _MAX_BAND_POINTS
            and -_MAX_BAND_Q <= q_min < q_max <= _MAX_BAND_Q):
        raise ValueError(f"need q_min < q_max within +-{_MAX_BAND_Q:g} k_r and "
                         f"2 <= n_points <= {_MAX_BAND_POINTS}")
    qs = np.linspace(q_min, q_max, n_points)
    vals, vecs = np.linalg.eigh(_hamiltonians(qs, params.omega_r, params.delta, params.epsilon_q))
    weights = np.swapaxes(vecs, 1, 2) ** 2  # [i, band, component]
    return BandCurve(q_grid=qs, energies=vals, spin_weights=weights)


def _root(xx, h, w2, out=None):
    """Lowest root of the trace-free H at x^2 = xx, as (r, 2p) with r = -mu.

    Trace-free form of the closed-form root (Smith 1961, Commun. ACM 4:168).
    Less its mean diagonal q^2 + s, s = (8 - eps_q)/3, H has the diagonal
    (h + x, -2h, h - x) with h = (4 + eps_q)/3 and x = 4q - delta, and w2 =
    w^2 off it, so (2p)^2 = 4x^2/3 + 4h^2 + 8w^2/3 and
    -det/(2p^3) = 8h (h^2 + w^2 - x^2)/(2p)^3. The lowest root is
    mu = -2p cos(arccos(-det/(2p^3))/3). Only xx mixes q with the other
    arguments, so on a (grid x rows) scan block each pass is one in-place
    ufunc on one of three buffers: xx, which is overwritten, and r and 2p,
    written into out = (r, 2p) when it is given and fresh arrays otherwise.
    """
    r, two_p = (np.empty_like(xx), np.empty_like(xx)) if out is None else out
    np.subtract(h * h + w2, xx, out=r)
    r *= 8.0 * h
    xx *= 4.0 / 3.0
    xx += 4.0 * h * h + (8.0 / 3.0) * w2  # (2p)^2
    np.sqrt(xx, out=two_p)
    xx *= two_p  # (2p)^3
    with np.errstate(divide="ignore", invalid="ignore"):
        r /= xx
    _cos_third(r)
    r *= two_p
    return r, two_p


def _lowest_eigenvalue(q, omega, delta, epsilon_q, out=None):
    """Lowest eigenvalue q^2 + s + mu of H(q) (_root), broadcasting. It computes
    in the dtype of its arguments: float32 when every array among them is
    float32 (the coarse scan of _minima_chunk), float64 when one is float64 or
    all are numbers. out = (xx, r, 2p), three arrays of the broadcast shape in
    that dtype, holds _root's buffers in place of fresh ones; the energy is
    returned in r."""
    if out is None:
        xx = np.empty(np.broadcast_shapes(*map(np.shape, (q, omega, delta, epsilon_q))),
                      dtype=np.result_type(q, omega, delta, epsilon_q, 1.0))
        out = xx, np.empty_like(xx), np.empty_like(xx)
    xx, e, two_p = out
    np.subtract(4.0 * q, delta, out=xx)
    xx *= xx
    _root(xx, (4.0 + epsilon_q) / 3.0, 0.25 * omega * omega, out=(e, two_p))
    np.subtract(q * q, e, out=e)
    e += (8.0 - epsilon_q) / 3.0
    return e


def _cos_third(z):
    """cos(arccos(z) / 3) in place. fmin/fmax send the 0/0 of p = 0 to 1,
    where the lowest root is the mean diagonal itself."""
    np.fmin(z, 1.0, out=z)
    np.fmax(z, -1.0, out=z)
    np.arccos(z, out=z)
    z /= 3.0
    np.cos(z, out=z)
    return z


def _apply_sign_convention(vec):
    """C_0 >= 0; if C_0 = 0 then C_+1 >= 0; if both vanish, C_-1 >= 0."""
    cm, c0, cp = vec[..., 0], vec[..., 1], vec[..., 2]
    flip = (c0 < 0) | ((c0 == 0) & ((cp < 0) | ((cp == 0) & (cm < 0))))
    return np.where(flip[..., None], -vec, vec)


def _slope(q, omega, delta, epsilon_q):
    """Slope E' = dE/dq and curvature E'' of the lowest band at q, in float64.

    E = q^2 + s + mu(x), with x = 4q - delta and mu the lowest root of the
    trace-free H (_root), whose diagonal is (h + x, -2h, h - x). With
    u = h - mu and v = u - 3h, mu solves P = (u^2 - x^2) v - 2 w^2 u = 0, and
    implicit differentiation (P_x = -2xv, P_xx = -2v, P_x,mu = 2x,
    P_mu,mu = 2v + 4u = -6 mu) gives
        mu' = 2xv / P_mu,  mu'' = (2v - 4x mu' - (2v + 4u) mu'^2) / P_mu,
    so E' = 2q + 4 mu' and E'' = 2 + 16 mu''. P_mu = S - 3 mu^2, with
    S = x^2 + 3h^2 + 2w^2 = 3p^2 half the trace of the trace-free H squared,
    is 3 (p - r)(p + r) <= 0 with r = -mu, zero where the two lowest bands
    meet; there E' and E'' are not finite and Newton bisects. q and the
    parameters are arrays of one shape, and each pass is one ufunc on a
    buffer of it: about 50 passes, against 77 for the characteristic-polynomial
    slope with its separate root.
    """
    x = np.multiply(q, 4.0)
    x -= delta
    h = np.add(epsilon_q, 4.0)
    h /= 3.0
    w2 = np.multiply(omega, omega)
    w2 *= 0.25
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r, p = _root(x * x, h, w2)
        p *= 0.5
        d = np.subtract(p, r, out=w2)
        p += r
        d *= p  # P_mu / 3
        k = np.divide(8.0 / 3.0, d, out=d)  # 8 / P_mu
        v = h
        v *= -2.0
        v += r
        g1 = np.multiply(x, v, out=p)
        g1 *= k  # 4 mu'
        r *= g1
        r *= 0.75
        r += x
        r += x
        r *= g1  # 4 mu' (2x + 3 r mu')
        v *= 4.0
        v -= r
        v *= k
        v += 2.0  # E'' = 2 + 16 mu''
        np.add(q, q, out=x)
        x += g1  # E' = 2q + 4 mu'
    return x, v


def _parabolic_start(qs, step, energy, rows, cols, row_scale):
    """Newton start of each well (rows, cols) of the scan block energy.

    An interior well starts at the vertex of the parabola through its scanned
    energy and its two grid neighbours where their difference exceeds the
    row's own float32 rounding, eps_32 x row_scale (band_minima); every other
    well starts on its grid point. The gate is row-local, since the chunk's
    scale would tie a row's start to the rows solved with it, and it keeps an
    exact q* = 0 on an even band, where the neighbours differ by rounding
    alone. A grid well's neighbours lie at or above it, so a resolved
    difference implies a positive curvature at least as large, and the vertex
    lies within half a grid step of the well, inside its Newton bracket.
    """
    start = qs[cols]
    inner = np.flatnonzero((cols > 0) & (cols < qs.size - 1))
    left, mid, right = (energy[cols[inner] + k, rows[inner]].astype(float) for k in (-1, 0, 1))
    tilt = left - right
    sure = np.abs(tilt) > np.finfo(np.float32).eps * row_scale[rows[inner]]
    start[inner[sure]] += (0.5 * step * tilt[sure]
                           / (left[sure] - 2.0 * mid[sure] + right[sure]))
    return start


def _scan_dtype(step, scale):
    """The coarse scan's dtype at grid step `step` for rows of row scale at most
    `scale`: float32 while step^2 >= _F32_SCAN_MARGIN x scale, else float64."""
    return np.float32 if step * step >= _F32_SCAN_MARGIN * scale else np.float64


def _minima_chunk(qs, om, de, ep, row_scale, scratch):
    """band_minima on one chunk of 1-D rows over the scan grid qs, with
    row_scale = max(1, |omega|, |delta|, |eps_q|) per row.

    The scan block is grid-major, (grid, rows), so each pass of the closed form
    runs over contiguous rows; wells come off its mask's transpose, sorted by
    row. qs holds both window ends and one bracketed Newton loop refines each
    well that can win, so a window that cuts the band returns its lowest point,
    edges included. The scan only proposes wells, so it runs in float32 (arccos
    and cos are 5-10x cheaper) where its rounding, about 2^-24 x scale, the
    chunk's largest row_scale, sits far below the energy change across one
    grid step, about step^2 (_scan_dtype). The grid's first cell sets step;
    linspace's cells agree with it to rounding. Newton, winner and state are
    float64.

    The scan writes its three buffers, _lowest_eigenvalue's xx, r and 2p, into
    scratch, the block that band_minima allocates once a call for its largest
    chunk and that every chunk reuses, viewed in the chunk's scan dtype. The
    scanned energy is one of them; the chunk is done with it before it
    returns, so the next chunk may overwrite it.

    Wells that can win: E(q) = q^2 + mu(q), mu = min over unit v of v.(A + qB)v
    with B = diag(4, 0, -4), is concave, so E'' <= 2 and E(q) <= E(x) + (q - x)^2
    about a stationary x. Newton keeps a well q_c between its grid neighbours,
    which lie at or above E(q_c), so it ends at or above E(q_c) - step^2;
    the row's lowest grid well ends at or below its grid energy. Wells scanned
    over step^2 + sqrt(eps) x scale + 1e-12 above it land in a higher 1e-12 bin
    and skip Newton; sqrt(eps) of the scan dtype covers the rounding of two
    scanned and two refined energies (< 2^8 ulps of scale at grid wells).

    Newton on E' and E'' (_slope) starts each well at its parabolic vertex
    (_parabolic_start) and stops a row once an accepted step s_k is at most
    _NEWTON_DONE or the quadratic-regime estimate of the error left,
    s_k^3 / s_{k-1}^2, is at most _NEWTON_LEFT. Start and stop read only the
    row's own values, so they do not tie a row to the rows solved with it.

    The state at q* needs no eigensolver. The closed-form root lam is good to
    rounding there, so the unit eigenvector is the longest cross product of
    two rows of the tridiagonal H - lam I (Kopp 2008, Int. J. Mod. Phys. C
    19:523), and the energy is its Rayleigh quotient, exact on decoupled rows.
    """
    step = qs[1] - qs[0]
    scale = float(row_scale.max())
    dt = _scan_dtype(step, scale)
    buffers = scratch.view(dt)[:3 * qs.size * om.size].reshape(3, qs.size, om.size)
    energy = _lowest_eigenvalue(*(v.astype(dt, copy=False) for v in (qs[:, None], om, de, ep)),
                                out=buffers)
    is_min = np.ones(energy.shape, dtype=bool)
    is_min[1:] = energy[1:] <= energy[:-1]
    is_min[:-1] &= energy[:-1] <= energy[1:]
    # rows come out sorted, and each finite row has a well: its grid argmin
    rows, cols = np.divmod(np.flatnonzero(is_min.T), qs.size)
    slack = step * step + math.sqrt(np.finfo(dt).eps) * scale + 1e-12
    keep = energy[cols, rows] - energy.min(axis=0)[rows] <= slack  # wells that can win
    rows, cols = rows[keep], cols[keep]
    om_c, de_c, ep_c = om[rows], de[rows], ep[rows]
    blo = qs[np.maximum(cols - 1, 0)]
    bhi = qs[np.minimum(cols + 1, qs.size - 1)]
    xl = _parabolic_start(qs, step, energy, rows, cols, row_scale)
    # safeguarded Newton on the live rows only; a row leaves the set with its
    # final x after an accepted Newton step s of at most _NEWTON_DONE, or with
    # s^3 <= _NEWTON_LEFT x (the previous Newton step)^2; an edge well where
    # the band rises inward gets blo = bhi = the edge and stays put
    x = np.empty_like(xl)
    live = np.arange(xl.size)
    prev = np.zeros_like(xl)  # the last step if it was Newton's, else 0
    om_l, de_l, ep_l = om_c, de_c, ep_c
    for _ in range(_NEWTON_STEPS):
        # in place on the slope's buffers: g becomes the Newton iterate, dg the
        # step taken, and xl the next point
        g, dg = _slope(xl, om_l, de_l, ep_l)
        np.copyto(bhi, xl, where=g >= 0.0)
        np.copyto(blo, xl, where=g <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            g /= dg
        np.subtract(xl, g, out=g)
        # inclusive test: a converged row sits on a bracket end and must stay put
        ok = (dg > 0.0) & (blo <= g) & (g <= bhi)
        s = np.abs(np.subtract(g, xl, out=dg), out=dg)
        s[~ok] = 0.0  # 0 after a bisection
        done = ok & ((s <= _NEWTON_DONE) | (s ** 3 <= _NEWTON_LEFT * prev * prev))
        np.add(blo, bhi, out=xl)
        xl *= 0.5
        np.copyto(xl, g, where=ok)
        prev = s
        if done.any():
            x[live[done]] = xl[done]
            keep = np.flatnonzero(~done)  # eight gathers by one index, not eight mask scans
            live, xl, prev, blo, bhi, om_l, de_l, ep_l = (
                v[keep] for v in (live, xl, prev, blo, bhi, om_l, de_l, ep_l))
            if not live.size:
                break
    x[live] = xl

    # winner per row: energy (1e-12 bins), then |q| (1e-9), then q >= 0, where contested
    lam = _lowest_eigenvalue(x, om_c, de_c, ep_c)
    win = np.flatnonzero(np.diff(rows, prepend=-1))  # first well of each row
    wells = np.diff(win, append=rows.size)
    tied = np.flatnonzero(np.repeat(wells > 1, wells))
    order = np.lexsort((x[tied] < 0.0, np.round(np.abs(x[tied]) * 1e9),
                        np.round(lam[tied] * 1e12), rows[tied]))
    win[wells > 1] = tied[order[np.flatnonzero(np.diff(rows[tied], prepend=-1))]]
    q_star, lam = x[win], lam[win]

    a, b, c = _diagonal(q_star, de, ep)
    w = 0.5 * om
    a_, b_, c_, w2 = a - lam, b - lam, c - lam, w * w
    cross = ((w * c_, -a_ * c_, a_ * w),  # r0 x r2
             (w2, -a_ * w, a_ * b_ - w2),  # r0 x r1
             (b_ * c_ - w2, -w * c_, w2))  # r1 x r2
    n02, n01, n12 = (x * x + y * y + z * z for x, y, z in cross)
    # the longest, the first of equal norms winning (argmax's rule)
    second = n01 > n02
    norm2 = np.where(second, n01, n02)
    third = n12 > norm2
    norm = np.sqrt(np.where(third, n12, norm2))
    vec = np.empty((q_star.size, 3))
    for k, (u02, u01, u12) in enumerate(zip(*cross)):
        np.divide(np.where(third, u12, np.where(second, u01, u02)), norm, out=vec[:, k])
    v0, v1, v2 = vec.T
    e = a * v0 * v0 + b * v1 * v1 + c * v2 * v2 + 2.0 * w * v1 * (v0 + v2)
    # + 0.0 turns the -0.0 of a flipped zero component into 0.0
    return q_star, e, _apply_sign_convention(vec) + 0.0


def band_minima(omega, delta, epsilon_q=EPSILON_Q_ER, scan_step=SCAN_STEP, q_window=Q_WINDOW):
    """Global lowest-band minima over broadcast (omega, delta, epsilon_q) arrays.

    Vectorized core of every band-minimum caller. A grid-major scan of the
    closed-form root (_lowest_eigenvalue) at scan_step across q_window finds
    every grid well of every row (SCAN_STEP finds every well, a finer step is a
    dense reference; Q_WINDOW holds the global minimum of any wider window).
    Wells over step^2 + sqrt(eps) x scale + 1e-12 above their row's grid minimum
    cannot win (E'' <= 2, see _minima_chunk); safeguarded float64 Newton on
    the closed-form slope and curvature of the trace-free root refines the
    rest from the vertex of the parabola through each well's scanned energies,
    bisecting whenever a step would leave the well's bracket, its two grid
    neighbours. A row stops once an accepted step s_k is at most 1e-9 k_r or
    s_k^3 / s_{k-1}^2, the error left in the quadratic regime, is at most
    1e-14 k_r. The lowest refined energy wins, and exactly degenerate minima
    resolve to smallest |q|, preferring q >= 0. An edge well where the band
    rises inward stays on its edge, so a window that cuts the band returns its
    lowest point, edges included. The scan runs in float32 where float32
    resolves the grid (step^2 >= 1e-5 x max(1, |omega|, |delta|, |eps_q|), the
    row scale: the default step up to 1000 E_r). The state at q* needs no
    eigensolver (see _minima_chunk). Rows are solved in chunks of about 2^17
    grid cells, so the scan temporaries stay bounded for any row count and step.
    The scan's three buffers of at most 2^17 cells each live in one block
    that the call allocates once, in the widest scan dtype of its chunks, and
    every chunk reuses.

    Returns (q_star, energy, coeffs) with shapes (n,), (n,), (n, 3).
    Raises ValueError if any omega, delta or epsilon_q is not finite or exceeds
    DRESSING_LIMIT_ER in magnitude, or unless scan_step is finite and > 0 and
    q_window is finite, with q_lo < q_hi and at most 2^17 steps wide.
    """
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    de = np.atleast_1d(np.asarray(delta, dtype=float))
    ep = np.atleast_1d(np.asarray(epsilon_q, dtype=float))
    om, de, ep = np.broadcast_arrays(om, de, ep)
    n = om.shape[0]
    q_star, energy, coeffs = np.empty(n), np.empty(n), np.empty((n, 3))
    # max(1, |omega|, |delta|, |eps_q|), NaN kept, in the energy buffer: each
    # chunk reads its rows' scale before their energies overwrite it
    row_scale = np.maximum(np.abs(om), 1.0, out=energy)
    for v in (de, ep):
        np.maximum(row_scale, np.abs(v), out=row_scale)
    if not np.all(row_scale <= DRESSING_LIMIT_ER):
        raise ValueError(f"omega, delta and epsilon_q must be finite, with magnitude "
                         f"<= {DRESSING_LIMIT_ER:g} E_r")
    q_lo, q_hi, step = float(q_window[0]), float(q_window[1]), float(scan_step)
    if not (0.0 < step < math.inf and -math.inf < q_lo < q_hi < math.inf
            and q_hi - q_lo <= _CHUNK_CELLS * step):
        raise ValueError(f"need a finite scan_step > 0 and a finite q_window with q_lo < q_hi "
                         f"spanning at most {_CHUNK_CELLS} steps")
    qs = np.linspace(q_lo, q_hi, max(1, round((q_hi - q_lo) / step)) + 1)

    rows = max(1, _CHUNK_CELLS // qs.size)
    # one block holds the scan buffers of every chunk (_minima_chunk), so a
    # call pages them in once and not once a chunk. It takes the widest scan
    # dtype of any chunk, since no chunk's row scale exceeds the call's.
    scratch = np.empty(3 * qs.size * min(rows, n),
                       dtype=_scan_dtype(qs[1] - qs[0], row_scale.max(initial=1.0)))
    for start in range(0, n, rows):
        part = slice(start, start + rows)
        q_star[part], energy[part], coeffs[part] = _minima_chunk(
            qs, om[part], de[part], ep[part], row_scale[part], scratch)
    return q_star, energy, coeffs


def find_band_minimum(params: RamanParams) -> DressedState:
    """Global minimum of the lowest band over all q (searched in [-2, 2] k_r).

    Grid scan at SCAN_STEP (0.1 k_r) plus safeguarded Newton refinement of each
    grid well that can win, from the vertex of the parabola through its scanned
    energies until a step is at most 1e-9 k_r or the error it leaves is
    estimated at most 1e-14 k_r, brings |dE/dq| below 1e-8 E_r/k_r at the
    returned point.
    """
    q, e, c = band_minima(params.omega_r, params.delta, params.epsilon_q)
    return _state(q[0], e[0], c[0])


def _state(q, energy, coeffs) -> DressedState:
    return DressedState(q=float(q), energy=float(energy), coeffs=tuple(float(x) for x in coeffs))


def coefficients_vs_delta(params: RamanParams, delta_list: Sequence[float]) -> list[DressedState]:
    """Band-minimum dressed states for each detuning in delta_list, in one solve."""
    if len(delta_list) == 0:
        raise ValueError("delta_list must be non-empty")
    deltas = np.array([float(d) for d in delta_list])
    q, e, c = band_minima(params.omega_r, deltas, params.epsilon_q)
    return [_state(*row) for row in zip(q, e, c)]


def write_band_csv(path, curve: BandCurve) -> None:
    """Write a band curve as CSV, one row per grid point.

    Columns: q, the three band energies, then the three spin weights per band.
    """
    header = ["q_kr", "E1_Er", "E2_Er", "E3_Er"]
    header += [f"w{b}_m{m}" for b in (1, 2, 3) for m in ("-1", "0", "+1")]
    write_csv(path, header, [curve.q_grid, *curve.energies.T,
                             *curve.spin_weights.reshape(len(curve.q_grid), 9).T])
