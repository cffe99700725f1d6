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
    "eigensystem",
    "band_curve",
    "find_band_minimum",
    "coefficients_vs_delta",
    "band_minima",
    "write_band_csv",
]

Q_WINDOW = (-3.0, 3.0)  # search window in k_r; all physical minima sit inside |q| <= 2
# Newton iterations per candidate: from one scan step (<= 0.1 k_r) away they
# reach the 1e-13 k_r level of the dense reference
_NEWTON_STEPS = 6
_CHUNK_CELLS = 1 << 18  # rows x scan points per chunk: a few MB per temporary
# bound on |omega_r|, |delta| and |epsilon_q| in E_r: far above the paper's
# <= 12 E_r, and far below the scale (~1e12) where rounding flattens the band
# and alone decides q*
DRESSING_LIMIT_ER = 1e6
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
    recoil_energy_hz : E_r/h in Hz, used only for unit conversions
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


def _fix_vector_sign(vec: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Flip the global sign so the first component with |x| > tol is positive."""
    for x in vec:
        if abs(x) > tol:
            return vec if x > 0 else -vec
    return vec


def eigensystem(h) -> list[tuple[float, np.ndarray]]:
    """Diagonalize a real symmetric 3x3 matrix.

    Returns three (eigenvalue, unit eigenvector) pairs sorted by ascending
    eigenvalue. Eigenvectors are sign-fixed (first non-negligible component
    positive); degenerate pairs are ordered deterministically by descending
    lexicographic comparison of the sign-fixed vectors.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    scale = max(1.0, float(np.max(np.abs(h))))
    if np.max(np.abs(h - h.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12")
    vals, vecs = np.linalg.eigh(h)
    pairs = [(float(vals[k]), _fix_vector_sign(vecs[:, k].copy())) for k in range(3)]
    # deterministic order inside degenerate groups
    out: list[tuple[float, np.ndarray]] = []
    k = 0
    while k < 3:
        j = k + 1
        while j < 3 and abs(pairs[j][0] - pairs[k][0]) <= 1e-12 * scale:
            j += 1
        group = sorted(pairs[k:j], key=lambda p: tuple(np.round(p[1], 10)), reverse=True)
        out.extend(group)
        k = j
    return out


def band_curve(params: RamanParams, q_min: float, q_max: float, n_points: int) -> BandCurve:
    """Sample all three dressed bands on a uniform q grid."""
    if not q_min < q_max:
        raise ValueError("require q_min < q_max")
    if n_points < 2:
        raise ValueError("require n_points >= 2")
    qs = np.linspace(q_min, q_max, n_points)
    vals, vecs = np.linalg.eigh(_hamiltonians(qs, params.omega_r, params.delta, params.epsilon_q))
    weights = np.swapaxes(vecs, 1, 2) ** 2  # [i, band, component]
    return BandCurve(q_grid=qs, energies=vals, spin_weights=weights)


def _lowest_eigenvalue(q, omega, delta, epsilon_q):
    """Lowest eigenvalue of H(q), broadcasting over array arguments.

    Trace-free form of the closed-form root (Smith 1961, Commun. ACM 4:168).
    Less its mean diagonal q^2 + s, s = (8 - eps_q)/3, H has the diagonal
    (h + x, -2h, h - x) with h = (4 + eps_q)/3 and x = 4q - delta, so
    (2p)^2 = 4x^2/3 + 4h^2 + 8w^2/3 and -det/(2p^3) = 8h (h^2 + w^2 - x^2)/(2p)^3.
    The lowest root is mean - 2p cos(arccos(-det/(2p^3))/3). Only x mixes q
    with the other arguments, so on a (rows x grid) scan block each pass is
    one in-place ufunc on one of two buffers. It computes in the dtype of its
    arguments: float32 when every array among them is float32 (the coarse
    scan of _minima_chunk), float64 when one is float64 or all are numbers.
    """
    h = (4.0 + epsilon_q) / 3.0
    w2 = 0.25 * omega * omega
    t = np.empty(np.broadcast_shapes(*map(np.shape, (q, omega, delta, epsilon_q))),
                 dtype=np.result_type(q, omega, delta, epsilon_q, 1.0))
    np.subtract(4.0 * q, delta, out=t)
    t *= t  # x^2
    cos_arg = np.subtract(h * h + w2, t, out=np.empty_like(t))
    cos_arg *= 8.0 * h
    t *= 4.0 / 3.0
    t += 4.0 * h * h + (8.0 / 3.0) * w2  # (2p)^2
    two_p = np.sqrt(t)
    t *= two_p  # (2p)^3
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_arg /= t
    # fmin/fmax send the 0/0 of p = 0 to 1, where the root is the mean itself
    np.fmin(cos_arg, 1.0, out=cos_arg)
    np.fmax(cos_arg, -1.0, out=cos_arg)
    np.arccos(cos_arg, out=cos_arg)
    cos_arg /= 3.0
    np.cos(cos_arg, out=cos_arg)
    cos_arg *= two_p
    np.subtract(q * q, cos_arg, out=cos_arg)
    cos_arg += (8.0 - epsilon_q) / 3.0
    return cos_arg


def _apply_sign_convention(vec):
    """C_0 >= 0; if C_0 = 0 then C_+1 >= 0; if both vanish, C_-1 >= 0."""
    cm, c0, cp = vec[..., 0], vec[..., 1], vec[..., 2]
    flip = (c0 < 0) | ((c0 == 0) & ((cp < 0) | ((cp == 0) & (cm < 0))))
    return np.where(flip[..., None], -vec, vec)


def _slope(q, omega, delta, epsilon_q):
    """Sign-equivalent slope g of the lowest band and its total derivative dg/dq.

    Implicit differentiation of the characteristic polynomial
    p(lam, q) = a*b*c - w^2*(a + c), with (a, b, c) the diagonal of H - lam*I,
    gives dE/dq = -p_q/p_lam. p_lam < 0 at the lowest root, so g = p_q carries
    the sign of the slope and vanishes with it. Along the band lam moves with q,
    so dg/dq = g_q + g_lam * dE/dq.
    """
    lam = _lowest_eigenvalue(q, omega, delta, epsilon_q)
    a, b, c = _diagonal(q, delta, epsilon_q)
    a, b, c = a - lam, b - lam, c - lam
    aq, bq, cq = 2.0 * (q + 2.0), 2.0 * q, 2.0 * (q - 2.0)
    w = 0.5 * omega
    w2 = w * w
    pa = b * c - w2
    pb = a * c
    pc = a * b - w2
    g = pa * aq + pb * bq + pc * cq
    p_sum = pa + pb + pc  # -p_lam
    g_q = 2.0 * (aq * bq * c + aq * b * cq + a * bq * cq + p_sum)
    g_lam = -((b + c) * aq + (a + c) * bq + (a + b) * cq)
    with np.errstate(divide="ignore", invalid="ignore"):
        return g, g_q + g_lam * g / p_sum


def _minima_chunk(qs, om, de, ep, scan_step):
    """band_minima on one chunk of 1-D rows over the scan grid qs.

    The coarse scan only proposes grid wells, so it runs in float32 (arccos
    and cos are 5-10x cheaper) wherever float32 resolves the grid: its
    rounding, about 2^-24 x max(1, |omega|, |delta|, |eps_q|) over the chunk,
    must sit far below the energy change across one step, about step^2.
    Otherwise, as for every step <= 1e-3 k_r, the scan runs in float64. The
    Newton refinement, the winner and the state are always float64.

    The state at q* needs no eigensolver. The closed-form root lam is good to
    rounding there, so the unit eigenvector is the longest cross product of
    two rows of the tridiagonal H - lam I (Kopp 2008, Int. J. Mod. Phys. C
    19:523), and the energy is its Rayleigh quotient, exact on decoupled rows.
    """
    q_lo, q_hi = qs[0], qs[-1]
    scale = max(1.0, *(float(np.max(np.abs(v))) for v in (om, de, ep)))
    dt = np.float32 if scan_step * scan_step >= _F32_SCAN_MARGIN * scale else np.float64
    energy = _lowest_eigenvalue(*(v.astype(dt, copy=False) for v in (
        qs, om[:, None], de[:, None], ep[:, None])))
    is_min = np.ones(energy.shape, dtype=bool)
    is_min[:, 1:] = energy[:, 1:] <= energy[:, :-1]
    is_min[:, :-1] &= energy[:, :-1] <= energy[:, 1:]
    # rows come out sorted, and each finite row has a well: its grid argmin
    rows, cols = np.nonzero(is_min)
    qc = qs[cols]
    om_c, de_c, ep_c = om[rows], de[rows], ep[rows]
    lo = np.clip(qc - scan_step, q_lo, q_hi)
    hi = np.clip(qc + scan_step, q_lo, q_hi)
    blo, bhi, x = lo, hi, qc
    for _ in range(_NEWTON_STEPS):
        g, dg = _slope(x, om_c, de_c, ep_c)
        bhi = np.where(g >= 0.0, x, bhi)
        blo = np.where(g <= 0.0, x, blo)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - g / dg
        # inclusive test: a converged row sits on a bracket end and must stay put
        ok = (dg > 0.0) & (blo <= newton) & (newton <= bhi)
        x = np.where(ok, newton, 0.5 * (blo + bhi))
    # only a well in the first or last grid column can be unbracketed: rising
    # at the left edge or falling at the right edge of the window means the
    # extremum is the edge itself
    edge = np.flatnonzero((cols == 0) | (cols == qs.size - 1))
    g_lo, _ = _slope(lo[edge], om_c[edge], de_c[edge], ep_c[edge])
    g_hi, _ = _slope(hi[edge], om_c[edge], de_c[edge], ep_c[edge])
    x[edge] = np.where(g_hi < 0.0, hi[edge], np.where(g_lo > 0.0, lo[edge], x[edge]))

    # winner per row: energy (1e-12 bins), then |q| (1e-9 bins), then q >= 0;
    # with one well per row it is that well
    lam = _lowest_eigenvalue(x, om_c, de_c, ep_c)
    q_star = x
    if rows.size > om.size:
        order = np.lexsort((x < 0.0, np.round(np.abs(x) * 1e9), np.round(lam * 1e12), rows))
        win = order[np.flatnonzero(np.diff(rows, prepend=-1))]
        q_star, lam = x[win], lam[win]

    a, b, c = _diagonal(q_star, de, ep)
    w = 0.5 * om
    a_, b_, c_, w2 = a - lam, b - lam, c - lam, w * w
    cross = np.stack([np.stack([w * c_, -a_ * c_, a_ * w], axis=-1),  # r0 x r2
                      np.stack([w2, -a_ * w, a_ * b_ - w2], axis=-1),  # r0 x r1
                      np.stack([b_ * c_ - w2, -w * c_, w2], axis=-1)])  # r1 x r2
    norm2 = (cross * cross).sum(axis=-1)
    best = np.argmax(norm2, axis=0)
    pick = np.arange(q_star.size)
    vec = cross[best, pick] / np.sqrt(norm2[best, pick])[:, None]
    v0, v1, v2 = vec.T
    e = a * v0 * v0 + b * v1 * v1 + c * v2 * v2 + 2.0 * w * v1 * (v0 + v2)
    # + 0.0 turns the -0.0 of a flipped zero component into 0.0
    return q_star, e, _apply_sign_convention(vec) + 0.0


def band_minima(omega, delta, epsilon_q=EPSILON_Q_ER, scan_step=1e-3, q_window=Q_WINDOW):
    """Global lowest-band minima over broadcast (omega, delta, epsilon_q) arrays.

    Vectorized core of find_band_minimum: a shared grid scan of the
    trace-free closed-form root (_lowest_eigenvalue) locates every discrete
    local minimum of every row; all of them are refined, as one flat batch, by
    float64 safeguarded Newton iteration on the characteristic-polynomial
    slope (bisection whenever a step would leave the bracket), and the lowest
    refined energy wins. The scan runs in float32 on a chunk whose grid
    float32 resolves (step^2 >= 1e-5 x max(1, |omega|, |delta|, |eps_q|):
    coarse Monte Carlo steps such as 0.1 k_r at magnitudes up to 1000 E_r),
    and in float64 otherwise. Exactly degenerate minima resolve to smallest
    |q|, preferring q >= 0. The state at q* comes without an eigensolver: the
    closed-form eigenvector (longest cross product of two rows of H - E I)
    and its Rayleigh-quotient energy. Rows are solved in chunks of about 2^18
    grid cells, so the scan temporaries stay bounded for any row count and
    step; a step of 0.1 k_r still finds every well (they are ~1 k_r wide).

    Returns (q_star, energy, coeffs) with shapes (n,), (n,), (n, 3).
    Raises ValueError if any omega, delta or epsilon_q is not finite or
    exceeds DRESSING_LIMIT_ER in magnitude.
    """
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    de = np.atleast_1d(np.asarray(delta, dtype=float))
    ep = np.atleast_1d(np.asarray(epsilon_q, dtype=float))
    om, de, ep = np.broadcast_arrays(om, de, ep)
    if not all(np.all(np.abs(v) <= DRESSING_LIMIT_ER) for v in (om, de, ep)):
        raise ValueError(f"omega, delta and epsilon_q must be finite, with magnitude "
                         f"<= {DRESSING_LIMIT_ER:g} E_r")
    q_lo, q_hi = float(q_window[0]), float(q_window[1])
    qs = np.linspace(q_lo, q_hi, int(round((q_hi - q_lo) / scan_step)) + 1)

    n = om.shape[0]
    q_star, energy, coeffs = np.empty(n), np.empty(n), np.empty((n, 3))
    rows = max(1, _CHUNK_CELLS // qs.size)
    for start in range(0, n, rows):
        part = slice(start, start + rows)
        q_star[part], energy[part], coeffs[part] = _minima_chunk(
            qs, om[part], de[part], ep[part], scan_step)
    return q_star, energy, coeffs


def find_band_minimum(params: RamanParams, scan_step: float = 1e-3) -> DressedState:
    """Global minimum of the lowest band over q in [-3, 3] k_r.

    Dense grid scan (step <= 0.001 k_r) plus safeguarded Newton refinement
    brings |dE/dq| below 1e-8 E_r/k_r at the returned point.
    """
    if scan_step > 1e-3:
        raise ValueError("scan_step must be <= 1e-3 k_r")
    q, e, c = band_minima(params.omega_r, params.delta, params.epsilon_q, scan_step)
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
