"""Laboratory inputs and their reduction to dimensionless couplings.

Everything the dynamics needs boils down to a handful of dimensionless
numbers: the damping per dispersion time gamma_t, the signs of the dispersion
and Kerr coefficients, the per-cell photon scale n0, the reservoir occupation
and an optional frequency offset.  This module performs that reduction from
fiber-lab quantities (pulse width, dispersion parameter D, loss in dB/km,
wavelength, temperature) and packages the result for the RHS evaluation.

Unit conventions: the dispersion parameter is accepted in ps nm^-1 km^-1 and
the loss in dB km^-1, as usual in fiber optics; everything else is SI.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from ._checks import finite, non_negative, positive
from .dynamics import RHSCoefficients
from .state import GridSpec

C_LIGHT = 299792458.0          # m / s
HBAR = 1.054571817e-34         # J s
K_BOLTZMANN = 1.380649e-23     # J / K

__all__ = [
    "PhysicalInputs",
    "ScaledInputs",
    "ScaledParams",
    "thermal_occupation",
    "derive_scales",
    "rhs_coefficients",
    "gaussian_validity_ratio",
]


def _check_signs(**signs) -> None:
    """The sign rule of both parameter classes."""
    for name, value in signs.items():
        if value not in (-1, 1):
            raise ValueError(f"{name} must be +1 or -1, got {name}={value}")


@dataclass(frozen=True)
class PhysicalInputs:
    """Fiber and pulse parameters as set in the laboratory.

    t0           temporal pulse width [s]
    D            fiber dispersive parameter [ps nm^-1 km^-1]
    Gamma        power loss [dB km^-1]
    lambda_c     carrier wavelength [m]
    T            reservoir temperature [K]
    nbar         peak photon-number scale of the pulse [dimensionless]
    sign_chi     sign of the Kerr coefficient
    sign_omega2  sign of the group-velocity-dispersion coefficient
    delta_omega  frequency offset of the rotating frame [1/s]
    """

    t0: float
    D: float
    Gamma: float
    lambda_c: float = 1.5e-6
    T: float = 300.0
    nbar: float = 1e9
    sign_chi: int = 1
    sign_omega2: int = -1
    delta_omega: float = 0.0

    def __post_init__(self):
        positive("t0", self.t0)
        if finite("D", self.D) == 0:
            raise ValueError("dispersive parameter D = 0 gives an infinite dispersion length")
        non_negative("Gamma", self.Gamma)
        positive("lambda_c", self.lambda_c)
        non_negative("T", self.T)
        positive("nbar", self.nbar)
        _check_signs(sign_chi=self.sign_chi, sign_omega2=self.sign_omega2)
        finite("delta_omega", self.delta_omega)
        if self.sign_chi * self.sign_omega2 >= 0:
            warnings.warn(
                "sign(chi) * sign(omega2) >= 0: dispersion and self-phase modulation "
                "do not balance, no soliton regime",
                stacklevel=2,
            )


@dataclass(frozen=True)
class ScaledInputs:
    """The scaled route: damping per dispersion time, photon-number scale,
    rotating-frame offset in dispersion-time units, and the signs of
    ``PhysicalInputs``."""

    gamma_t: float
    nbar: float
    delta_omega_t: float = 0.0
    sign_chi: int = 1
    sign_omega2: int = -1

    def __post_init__(self):
        non_negative("gamma_t", self.gamma_t)
        positive("nbar", self.nbar)
        finite("delta_omega_t", self.delta_omega_t)
        _check_signs(sign_chi=self.sign_chi, sign_omega2=self.sign_omega2)


@dataclass(frozen=True)
class ScaledParams:
    """Dimensionless coefficients plus provenance scales.

    Only gamma_t, the signs, n0, n_th and delta_omega_t enter the dynamics.
    x_d is the dispersion length in meters; t_d is the dispersion time
    estimated with the vacuum speed of light standing in for the group
    velocity (provenance only, never used numerically; NaN when the
    parameters were given in scaled form).
    """

    gamma_t: float
    disp_sign: int
    chi_sign: int
    n0: float
    nbar: float
    n_th: float
    delta_omega_t: float
    t_d: float
    x_d: float

    def __post_init__(self):
        non_negative("gamma_t", self.gamma_t)
        _check_signs(disp_sign=self.disp_sign, chi_sign=self.chi_sign)
        positive("n0", self.n0)
        positive("nbar", self.nbar)
        non_negative("n_th", self.n_th)
        finite("delta_omega_t", self.delta_omega_t)


def thermal_occupation(lambda_c: float, T: float) -> float:
    """Bose-Einstein occupation of the reservoir at the carrier frequency.

    N_th = 1 / (exp(hbar * omega_c / (k_B T)) - 1) with omega_c = 2 pi c / lambda_c.
    The T = 0 limit returns exactly 0, and so does a temperature so small
    that lambda_c * k_B * T underflows; an occupation that overflows raises
    ValueError.
    """
    positive("lambda_c", lambda_c)
    lam_kt = lambda_c * K_BOLTZMANN * non_negative("T", T)
    if lam_kt == 0.0:
        return 0.0
    x = HBAR * 2.0 * math.pi * C_LIGHT / lam_kt
    if x > 700.0:  # exp would overflow; occupation is numerically zero
        return 0.0
    occupation = 1.0 / math.expm1(x) if x > 0.0 else math.inf
    if occupation == math.inf:  # x = 0 (the product overflowed), or 1 / x overflows
        raise ValueError(f"thermal occupation overflows at lambda_c={lambda_c}, T={T}")
    return occupation


def derive_scales(inputs: PhysicalInputs | ScaledInputs, grid: GridSpec, *,
                  n_th: float | None = None) -> ScaledParams:
    """Reduce either route's inputs to the dimensionless parameter set.

    k2 = 2 pi c D / omega_c^2 (magnitude), x_d = t0^2 / |k2|,
    gamma_t = 0.05 ln(10) * Gamma[dB/km] * x_d[km], n0 = nbar * dx.
    ``n_th`` overrides the occupation computed from (lambda_c, T); headline
    configurations pin it directly.  Scaled inputs need it, and leave t_d
    and x_d NaN.
    """
    if isinstance(inputs, ScaledInputs):
        if n_th is None:
            raise ValueError("scaled mode requires an explicit 'n_th'")
        return ScaledParams(
            gamma_t=float(inputs.gamma_t),
            disp_sign=int(inputs.sign_omega2),
            chi_sign=int(inputs.sign_chi),
            n0=float(inputs.nbar) * grid.dx,
            nbar=float(inputs.nbar),
            n_th=float(n_th),
            delta_omega_t=float(inputs.delta_omega_t),
            t_d=math.nan,
            x_d=math.nan,
        )
    try:
        d_si = inputs.D * 1e-6  # ps nm^-1 km^-1  ->  s m^-2
        omega_c = 2.0 * math.pi * C_LIGHT / inputs.lambda_c
        k2 = 2.0 * math.pi * C_LIGHT * abs(d_si) / omega_c ** 2  # s^2 / m
        x_d = inputs.t0 ** 2 / k2
    except (ZeroDivisionError, OverflowError):
        x_d = math.nan
    gamma_t = 0.05 * math.log(10.0) * inputs.Gamma * (x_d / 1000.0)
    t_d = x_d / C_LIGHT
    if not 0.0 < t_d < math.inf or (gamma_t == 0.0 and inputs.Gamma > 0):  # underflow
        raise ValueError(f"scales leave the float range at t0={inputs.t0}, D={inputs.D}, "
                         f"lambda_c={inputs.lambda_c}, Gamma={inputs.Gamma}")
    occupation = thermal_occupation(inputs.lambda_c, inputs.T) if n_th is None else n_th
    return ScaledParams(
        gamma_t=gamma_t,
        disp_sign=inputs.sign_omega2,
        chi_sign=inputs.sign_chi,
        n0=inputs.nbar * grid.dx,
        nbar=inputs.nbar,
        n_th=occupation,
        delta_omega_t=inputs.delta_omega * t_d,
        t_d=t_d,
        x_d=x_d,
    )


def rhs_coefficients(scaled: ScaledParams, grid: GridSpec) -> RHSCoefficients:
    """Couplings of the cumulant equations in dispersion-time units.

    d2 = sign(omega2) / (2 dx^2) and chi_t = sign(chi) / n0, so that
    chi_t * n0 reproduces the Kerr sign identically.
    """
    return RHSCoefficients(
        d2=scaled.disp_sign / (2.0 * grid.dx ** 2),
        chi_t=scaled.chi_sign / scaled.n0,
        gamma_t=scaled.gamma_t,
        delta_omega_t=scaled.delta_omega_t,
        n_th=scaled.n_th,
    )


def gaussian_validity_ratio(scaled: ScaledParams) -> float:
    """gamma_t * nbar^(1/4): >= 1 means damping is strong enough for the
    second-order closure to hold at all times; below 1 it is trustworthy only
    up to scaled times of order nbar^(1/4)."""
    return scaled.gamma_t * scaled.nbar ** 0.25
