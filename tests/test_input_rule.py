"""Every float or complex argument of the public API rejects NaN and +-inf.

``VALID`` holds one valid call of each public name of ``qsolsim`` and
``qsolsim.fock``; every argument whose valid value is a float or complex
number, or an array or list of them, is replaced in turn by one holding NaN,
+inf or -inf, and the call must raise ``ValueError``.  The exemptions are
the cumulant blocks of ``CumulantState`` (checked by ``validate``) and the
provenance scales ``t_d``/``x_d`` of ``ScaledParams`` (NaN in scaled mode).
Names that take no float, and the result containers, are listed in
``NO_FLOATS`` with the reason.  A public name in neither table fails.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import qsolsim
from qsolsim import fock

GRID = qsolsim.GridSpec(m=3, dx=0.5)
FOCK = fock.FockConfig(modes=1, cutoff=10, chi_t=0.1, gamma_t=0.1, d2=0.5, n_th=0.05)


def decay(t, y, out):
    np.negative(y, out=out)


def thermal():
    return qsolsim.thermal_state(GRID, 0.1, 0.0)


def coherent_rho():
    return fock.initial_density(FOCK, "coherent", alphas=[0.3])


# name -> (callable, keyword arguments of one valid call)
VALID = {
    "CumulantState": (qsolsim.CumulantState, lambda: dict(
        grid=GRID, s=0.2, t=0.5, cu=np.ones(3), cv=np.zeros(3),
        cuu=0.5 * np.eye(3), cuv=np.zeros((3, 3)), cvv=0.5 * np.eye(3))),
    "GridSpec": (qsolsim.GridSpec, lambda: dict(m=3, dx=0.5)),
    "LOPulse": (qsolsim.LOPulse, lambda: dict(amplitudes=np.array([1.0 + 0.5j, 2.0, 1.0]))),
    "LOPulse.soliton": (qsolsim.LOPulse.soliton, lambda: dict(grid=GRID, n0=100.0)),
    "PhysicalInputs": (qsolsim.PhysicalInputs, lambda: dict(
        t0=2e-12, D=20.0, Gamma=0.3, lambda_c=1.5e-6, T=300.0, nbar=1e9, delta_omega=0.0)),
    "RHSCoefficients": (qsolsim.RHSCoefficients, lambda: dict(
        d2=-1.0, chi_t=0.01, gamma_t=0.1, delta_omega_t=0.2, n_th=0.1)),
    "ScaledInputs": (qsolsim.ScaledInputs, lambda: dict(
        gamma_t=0.1, nbar=1e9, delta_omega_t=0.2, sign_chi=1, sign_omega2=-1)),
    "ScaledParams": (qsolsim.ScaledParams, lambda: dict(
        gamma_t=0.1, disp_sign=-1, chi_sign=1, n0=1e8, nbar=1e9, n_th=0.0,
        delta_omega_t=0.0, t_d=math.nan, x_d=math.nan)),
    "StepControl": (qsolsim.StepControl, lambda: dict(atol=1e-9, rtol=1e-9)),
    "Tableau": (qsolsim.Tableau, lambda: {
        f.name: getattr(qsolsim.DORMAND_PRINCE_853, f.name)
        for f in dataclasses.fields(qsolsim.Tableau)}),
    "derive_scales": (qsolsim.derive_scales, lambda: dict(
        inputs=qsolsim.PhysicalInputs(t0=2e-12, D=20.0, Gamma=0.3), grid=GRID, n_th=0.0)),
    "derive_scales (scaled route)": (qsolsim.derive_scales, lambda: dict(
        inputs=qsolsim.ScaledInputs(gamma_t=0.1, nbar=1e9), grid=GRID, n_th=0.0)),
    "fundamental_soliton": (qsolsim.fundamental_soliton, lambda: dict(
        grid=GRID, n0=100.0, n_th=0.1, s=0.0)),
    "integrate": (qsolsim.integrate, lambda: dict(
        fun=decay, y0=np.array([1.0, 2.0]), t0=0.0, output_times=[0.25, 0.5],
        observer=lambda t, y: None)),
    "integrate_fixed": (qsolsim.integrate_fixed, lambda: dict(
        fun=decay, y0=np.array([1.0, 2.0]), t0=0.0, t_end=0.5, n_steps=2)),
    "photon_correlation": (qsolsim.photon_correlation, lambda: dict(
        state=thermal(), omega_w0=np.array([0.0, 0.5]), delta_omega=3.0)),
    "propagate": (qsolsim.propagate, lambda: dict(
        state=thermal(), coeffs=qsolsim.RHSCoefficients(-1.0, 0.01, 0.1, 0.0, 0.1),
        output_times=[0.005, 0.01])),
    "reorder_s": (qsolsim.reorder_s, lambda: dict(state=thermal(), s_new=0.5)),
    "squeezing_spectrum": (qsolsim.squeezing_spectrum, lambda: dict(
        state=thermal(), lo=qsolsim.LOPulse(np.ones(3)), omega_w0=np.array([0.0, 0.5]),
        phase=0.3)),
    "thermal_occupation": (qsolsim.thermal_occupation, lambda: dict(lambda_c=1.5e-6, T=300.0)),
    "thermal_state": (qsolsim.thermal_state, lambda: dict(grid=GRID, n_th=0.1, s=0.0)),
    "FockConfig": (fock.FockConfig, lambda: dict(
        modes=1, cutoff=4, chi_t=0.1, gamma_t=0.1, delta_omega_t=0.2, d2=0.5, n_th=0.1,
        s=0.0, dx=1.0)),
    "coherent_vector": (fock.coherent_vector, lambda: dict(cutoff=6, alpha=0.5 + 0.2j)),
    "displacement_operator": (fock.displacement_operator, lambda: dict(
        cutoff=6, alpha=0.5 + 0.2j)),
    "squeeze_operator": (fock.squeeze_operator, lambda: dict(cutoff=6, zeta=0.1 + 0.1j)),
    "thermal_density": (fock.thermal_density, lambda: dict(cutoff=6, n=0.2)),
    "initial_density": (fock.initial_density, lambda: dict(
        config=FOCK, kind="displaced-thermal", alphas=[0.3 + 0.1j], n=0.05)),
    "evolve_density": (fock.evolve_density, lambda: dict(
        config=FOCK, rho0=coherent_rho(), t_grid=[0.01])),
    "cumulants_from_density": (fock.cumulants_from_density, lambda: dict(
        config=FOCK, rho=coherent_rho(), s=0.0, t=0.0)),
    "matching_initial_state": (fock.matching_initial_state, lambda: dict(
        config=FOCK, kind="displaced-thermal", alphas=[0.3 + 0.1j], n=0.05)),
    "closure_gap": (fock.closure_gap, lambda: dict(
        config=FOCK, kind="displaced-thermal", t_grid=[0.01], alphas=[0.3], n=0.05)),
    "damped_mean": (fock.damped_mean, lambda: dict(
        alpha=0.5 + 0.1j, gamma_t=0.1, delta_omega_t=0.2, t=0.5)),
    "kerr_mean": (fock.kerr_mean, lambda: dict(alpha=0.5 + 0.1j, chi_t=0.1, t=0.5)),
}

NO_FLOATS = {
    "__version__": "a string",
    "DORMAND_PRINCE_54": "a constant",
    "DORMAND_PRINCE_853": "a constant",
    "frequency_grid": "takes a grid only",
    "gaussian_validity_ratio": "takes checked ScaledParams only",
    "rhs_coefficients": "takes checked ScaledParams and a grid only",
    "intensity": "takes a state only",
    "validate": "takes a state only and reports on its blocks",
    "photon_balance_residual": "takes a state, a derivative and checked couplings",
    "rhs": "its float arrays out and scratch are buffers it writes",
    "CutoffOverflowError": "an exception",
    "destroy": "takes an integer cutoff",
    "mode_operators": "takes a checked FockConfig only",
    "hamiltonian": "takes a checked FockConfig only",
    "CorrelationResult": "a result container",
    "CumulantDerivative": "a result container",
    "SpectrumResult": "a result container",
    "GapReport": "a result container",
}

EXEMPT = {
    "CumulantState": {"cu", "cv", "cuu", "cuv", "cvv"},
    "ScaledParams": {"t_d", "x_d"},
}


def is_float_argument(value) -> bool:
    if isinstance(value, (float, complex)):
        return True
    return isinstance(value, (list, np.ndarray)) and np.asarray(value).dtype.kind in "fc"


def poisoned(value, bad: float):
    """``value`` with its last entry (or itself) set to ``bad``; a complex
    value gets ``bad`` as its imaginary part."""
    if isinstance(value, complex):
        return complex(value.real, bad)
    if isinstance(value, float):
        return bad
    arr = np.array(value)
    arr.flat[-1] = complex(arr.flat[-1].real, bad) if arr.dtype.kind == "c" else bad
    return arr if isinstance(value, np.ndarray) else arr.tolist()


def float_arguments(name: str) -> list[str]:
    _, valid = VALID[name]
    return [key for key, value in valid().items()
            if is_float_argument(value) and key not in EXEMPT.get(name, ())]


CASES = [(name, key, bad) for name in VALID for key in float_arguments(name)
         for bad in (math.nan, math.inf, -math.inf)]


def test_every_public_name_is_in_a_table():
    public = set(qsolsim.__all__) | set(fock.__all__)
    assert public - set(VALID) - set(NO_FLOATS) == set()
    assert set(NO_FLOATS) <= public


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_call_covers_every_float_parameter(name):
    func, valid = VALID[name]
    args = valid()
    func(**args)
    annotated = {key for key, par in inspect.signature(func).parameters.items()
                 if "float" in str(par.annotation) or "complex" in str(par.annotation)}
    assert annotated - set(args) == set(), "float parameters left at their defaults"


@pytest.mark.parametrize("name, key, bad", CASES)
def test_non_finite_argument_raises_value_error(name, key, bad):
    func, valid = VALID[name]
    args = valid()
    args[key] = poisoned(args[key], bad)
    with pytest.raises(ValueError, match=rf"\b{key}\b"):
        func(**args)


@pytest.mark.parametrize("times", [[], [-0.1, 0.01]], ids=["empty", "before-start"])
@pytest.mark.parametrize("name, key", [("integrate", "output_times"),
                                       ("propagate", "output_times"),
                                       ("evolve_density", "t_grid"),
                                       ("closure_gap", "t_grid")])
def test_no_time_or_one_before_the_start_names_the_times(name, key, times):
    func, valid = VALID[name]
    args = valid()
    args[key] = times
    with pytest.raises(ValueError, match=rf"\b{key} must be a non-empty list of times >="):
        func(**args)


def test_negative_soliton_lo_photon_number_names_n0():
    # the square root would otherwise fail with "math domain error"
    with pytest.raises(ValueError, match=r"\bn0\b"):
        qsolsim.LOPulse.soliton(GRID, -1.0)


def test_evolve_density_takes_a_one_shot_iterable_of_times():
    # the finiteness check sees the converted list, not the caller's iterable
    times = [0.005, 0.01]
    listed = fock.evolve_density(FOCK, coherent_rho(), times)
    once = fock.evolve_density(FOCK, coherent_rho(), (t for t in times))
    assert all(np.array_equal(a, b) for a, b in zip(listed, once, strict=True))
