"""Derived quantities: intensity, noise ellipses, spectra, correlations.

Frequencies in the public API are expressed in units of w0 = 2/x0 (twice the
inverse pulse width), the unit used for all spectral plots; internally the
phase factors exp(i omega x) need omega in inverse pulse-width units, a
factor 2 larger.

All spectral quantities are built from three correlation kernels of the
cell-pair cumulants (the creator-first kernel also absorbs the ordering
correction, which makes every result independent of the ordering parameter):

    K_F[j,k] = <<u u'>> + <<v v'>> + (s-1)/2 delta + i(<<u v'>> - <<v u'>>)
    K_G[j,k] = <<u u'>> - <<v v'>> + i(<<u v'>> + <<v u'>>)

and their complex conjugates for the local-oscillator-weighted versions
(there the annihilator stands first, flipping the sign of the antisymmetric
part).  The conjugate-pair relationship is cross-checked against direct
density-matrix computations in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import finite, positive
from .state import CumulantState, GridSpec, _local_noise

OMEGA_UNIT = 2.0  # one w0 in inverse pulse-width units

__all__ = [
    "LOPulse",
    "SpectrumResult",
    "CorrelationResult",
    "UnphysicalStateError",
    "intensity",
    "ellipse_arrays",
    "nr_arrays",
    "squeezing_spectrum",
    "photon_correlation",
    "frequency_grid",
    "min_delta_omega",
]


class UnphysicalStateError(ValueError):
    """Raised when local noise violates the uncertainty floor."""


@dataclass(frozen=True)
class LOPulse:
    """Local-oscillator amplitudes per cell (same phase convention as the
    signal mean field: a = u + i v)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = finite("amplitudes", np.asarray(self.amplitudes, dtype=complex))
        if amps.ndim != 1:
            raise ValueError("LO amplitudes must be a vector")
        if not np.any(amps):
            raise ValueError("local oscillator must not vanish identically")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def soliton(cls, grid: GridSpec, n0: float) -> "LOPulse":
        """The initial fundamental-soliton profile, the default LO choice."""
        return cls(math.sqrt(positive("n0", n0)) / np.cosh(grid.positions()))


@dataclass(frozen=True)
class SpectrumResult:
    """Homodyne noise spectrum samples (shot-noise level = 0, floor = -1)."""

    omega: np.ndarray       # [w0 units]
    s: np.ndarray           # S at the requested phase
    s_min: np.ndarray       # phase-optimized minimum
    phi_opt: np.ndarray     # optimal phase per frequency
    i0: float               # normalization (LO + signal photon flux)


@dataclass(frozen=True)
class CorrelationResult:
    """Normalized spectral photon-number correlations.

    ``eta[a, b]`` correlates the photon numbers in windows of width
    delta_omega around omega[a] and omega[b]; diagonal entries are the
    normalized normally-ordered variance (negative = sub-Poissonian).
    Entries with vanishing variance are NaN.
    """

    omega: np.ndarray          # [w0 units]
    eta: np.ndarray
    mean_photon: np.ndarray    # <N(omega)> per window
    delta_omega: float         # [w0 units]
    n_undefined: int = 0


# -- local (single-cell) observables ----------------------------------------

def intensity(state: CumulantState) -> np.ndarray:
    """Mean photon number per cell; independent of the ordering parameter."""
    return (
        state.cu ** 2 + state.cv ** 2
        + np.diag(state.cuu) + np.diag(state.cvv)
        + 0.5 * (state.s - 1.0)
    )


def ellipse_arrays(state: CumulantState):
    """Local noise ellipse (B, b, phi) of every cell: the principal variances
    B >= b of the same-cell covariance and the major-axis angle phi, with
    tan 2 phi = 2 Duv / (Duu - Dvv)."""
    duu, dvv, duv, big, small, _, _ = _local_noise(state)
    return big, small, 0.5 * np.arctan2(2.0 * duv, duu - dvv)


def nr_arrays(state: CumulantState):
    """(n, r, theta, margin) of the squeezed-thermal decomposition, all cells.

    n, r, theta parametrize the local state; ``margin`` is (2n+1) e^{-2r},
    below 1 exactly when the minor variance b drops under the vacuum level
    (1-s)/4.
    """
    duu, dvv, duv, _, _, bq, sq = _local_noise(state)
    if np.any(bq <= 0) or np.any(sq <= 0):
        raise UnphysicalStateError(
            "noise ellipse axis at or below zero; no squeezed-thermal decomposition")
    n = 2.0 * np.sqrt(bq * sq) - 0.5
    r = 0.25 * np.log(bq / sq)
    theta = np.arctan2(-2.0 * duv, dvv - duu)
    margin = (2.0 * n + 1.0) * np.exp(-2.0 * r)
    return n, r, theta, margin


# -- spectral observables -----------------------------------------------------

def frequency_grid(grid: GridSpec) -> np.ndarray:
    """Default symmetric frequency grid in w0 units.

    Spacing is the minimal resolvable difference 2 pi / (m dx); the extent is
    the sampling bound pi / dx.
    """
    d_omega = 2.0 * math.pi / (grid.m * grid.dx)
    omega_max = math.pi / grid.dx
    k_max = int(math.floor(omega_max / d_omega + 1e-9))
    ks = np.arange(-k_max, k_max + 1)
    return ks * d_omega / OMEGA_UNIT


def min_delta_omega(grid: GridSpec) -> float:
    """Minimal resolvable frequency window, in w0 units."""
    return 2.0 * math.pi / (grid.m * grid.dx) / OMEGA_UNIT


def _eta_window(grid: GridSpec, delta_omega: float | None, name: str) -> float:
    """The photon-correlation window: the minimal resolvable one by default,
    never below it (to 1e-9 relative)."""
    d_min = min_delta_omega(grid)
    if delta_omega is None:
        return d_min
    if not finite(name, delta_omega) >= d_min * (1.0 - 1e-9):
        raise ValueError(f"{name} = {delta_omega:g} is below the minimal "
                         f"resolvable window {d_min:g} (w0 units)")
    return float(delta_omega)


def _omega_internal(grid: GridSpec, omega_w0) -> np.ndarray:
    omega = finite("omega_w0", np.atleast_1d(np.asarray(omega_w0, dtype=float))) * OMEGA_UNIT
    bound = math.pi / grid.dx
    if not np.all(np.abs(omega) <= bound * (1.0 + 1e-12)):
        raise ValueError(f"frequency beyond the sampling bound {bound / OMEGA_UNIT:g} w0")
    return omega


def _kernels(state: CumulantState):
    m = state.grid.m
    sym = state.cuu + state.cvv + 0.5 * (state.s - 1.0) * np.eye(m)
    diff = state.cuu - state.cvv
    anti = state.cuv - state.cuv.T
    cross = state.cuv + state.cuv.T
    k_f = sym + 1j * anti
    k_g = diff + 1j * cross
    return k_f, k_g


def squeezing_spectrum(state: CumulantState, lo: LOPulse, omega_w0,
                       phase="optimal") -> SpectrumResult:
    """Balanced-homodyne noise spectrum against the given local oscillator.

    S(omega) = 2 Re[ F_L(-omega, omega) + e^{2 i phi} G_L(-omega, omega) ] / I0
    with the LO-weighted kernels; ``phase`` is either a fixed LO phase in
    radians or "optimal", which selects the phase minimizing S at every
    frequency.  Zero for vacuum and coherent states at any ordering.

    For spatially symmetric signal/LO configurations (every soliton scenario)
    this equals the measured spectrum pointwise; for asymmetric states the
    measurable, even-in-frequency spectrum is the average of S(omega) and
    S(-omega).  Verified against direct density-matrix evolution in the
    test suite.
    """
    if lo.amplitudes.shape != (state.grid.m,):
        raise ValueError("LO length must match the grid")
    optimal = phase == "optimal"
    if not optimal:  # a string other than "optimal" raises TypeError here
        finite("phase", phase)
    omega = _omega_internal(state.grid, omega_w0)
    x = state.grid.positions()
    k_fl, k_gl = _kernels(state)  # fresh arrays: conjugated in place
    np.conjugate(k_fl, out=k_fl)
    np.conjugate(k_gl, out=k_gl)

    phases = np.exp(1j * np.outer(omega, x))
    w = phases * lo.amplitudes[None, :]
    u = np.conj(phases) * lo.amplitudes[None, :]
    f_l = np.einsum("kj,jl,kl->k", np.conj(w), k_fl, w, optimize=True) / (2.0 * math.pi)
    g_l = np.einsum("kj,jl,kl->k", u, k_gl, w, optimize=True) / (2.0 * math.pi)

    i0 = (np.sum(np.abs(lo.amplitudes) ** 2) + np.sum(intensity(state))) / (2.0 * math.pi)
    if i0 <= 0:
        raise ValueError("normalization I0 must be positive")

    s_min = 2.0 * (np.real(f_l) - np.abs(g_l)) / i0
    phi_opt = np.where(np.abs(g_l) > 0.0,
                       0.5 * (math.pi - np.angle(g_l)), 0.0)
    if optimal:
        s = s_min.copy()
    else:
        s = 2.0 * np.real(f_l + np.exp(2j * float(phase)) * g_l) / i0
    return SpectrumResult(
        omega=np.atleast_1d(np.asarray(omega_w0, dtype=float)),
        s=s, s_min=s_min, phi_opt=phi_opt, i0=float(i0),
    )


def photon_correlation(state: CumulantState, omega_w0,
                       delta_omega: float | None = None) -> CorrelationResult:
    """Correlation matrix of photon numbers in narrow spectral windows.

    The window width defaults to the minimal resolvable value and may not be
    chosen below it.  The normally-ordered covariance forms the numerator of
    eta; the denominators carry the shot-noise term <N> on coinciding
    windows.
    """
    grid = state.grid
    delta_omega = _eta_window(grid, delta_omega, "delta_omega")
    omega = _omega_internal(grid, omega_w0)
    d_omega_int = delta_omega * OMEGA_UNIT
    x = grid.positions()
    k_f, k_g = _kernels(state)

    pref = grid.dx * d_omega_int / (2.0 * math.pi)
    phases = np.exp(1j * np.outer(omega, x))
    f_minus = pref * (np.conj(phases) @ k_f @ phases.T)   # F(-w_a, w_b)
    g_mat = pref * (phases @ k_g @ phases.T)              # G(w_a, w_b)
    e_vec = math.sqrt(pref) * (phases @ (state.cu + 1j * state.cv))

    n_mean = np.real(np.diag(f_minus)) + np.abs(e_vec) ** 2
    ee = e_vec[:, None] * np.conj(e_vec)[None, :]
    ee_star = np.conj(e_vec)[:, None] * np.conj(e_vec)[None, :]
    cov_normal = (
        np.abs(f_minus) ** 2 + np.abs(g_mat) ** 2
        + 2.0 * np.real(f_minus * ee + g_mat * ee_star)
    )
    variance = np.diag(cov_normal) + n_mean  # shot noise on coinciding windows
    denom = np.sqrt(np.outer(variance, variance))
    with np.errstate(invalid="ignore", divide="ignore"):
        eta = np.where(denom > 0.0, cov_normal / denom, np.nan)
    return CorrelationResult(
        omega=np.atleast_1d(np.asarray(omega_w0, dtype=float)),
        eta=eta,
        mean_photon=n_mean,
        delta_omega=delta_omega,
        n_undefined=int(np.sum(~np.isfinite(eta))),
    )
