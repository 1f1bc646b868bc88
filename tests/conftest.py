"""Shared fixtures: production-scale trajectories are expensive, so every
scenario the acceptance suite needs is integrated once per session and cached
for all consumers."""

import pytest

from qsolsim.dynamics import RHSCoefficients, propagate
from qsolsim.integrator import StepControl
from qsolsim.observables import ellipse_arrays
from qsolsim.state import GridSpec, fundamental_soliton

PAPER_NTH = 1e-16
PAPER_NBAR = 1e9


def paper_setup(m=200, dx=0.1, gamma_t=0.0, boundary="absorbing",
                chi_on=True, delta_omega_t=0.0, n_th=PAPER_NTH):
    """Grid, photon scale and couplings of the reference soliton runs."""
    grid = GridSpec(m=m, dx=dx, boundary=boundary)
    n0 = PAPER_NBAR * dx
    coeffs = RHSCoefficients(
        d2=-1.0 / (2.0 * dx * dx),
        chi_t=(1.0 / n0) if chi_on else 0.0,
        gamma_t=gamma_t,
        delta_omega_t=delta_omega_t,
        n_th=n_th,
    )
    return grid, n0, coeffs


class Copies(list):
    """A ``propagate`` observer that keeps a copy of the state at each output
    time (the states it is handed are views of the integrator's work vector)."""

    def __call__(self, state):
        self.append(state.with_flat(state.flatten(), state.t))


def soliton_run(m, gamma_t, s, output_times, tol=1e-9, track_center=False):
    """Integrate a fundamental-soliton initial state to its last output time
    and record the center-cell ellipse history; ``track_center`` runs keep
    only that history, not the full states."""
    grid, n0, coeffs = paper_setup(m=m, gamma_t=gamma_t)
    state0 = fundamental_soliton(grid, n0, PAPER_NTH, s)
    control = StepControl(atol=tol, rtol=tol)
    j = m // 2
    states, center_series = Copies(), []

    def observe(st):
        big, small, _ = ellipse_arrays(st)
        center_series.append((st.t, float(big[j]), float(small[j]),
                              complex(st.cu[j] + 1j * st.cv[j])))
        if not track_center:
            states(st)

    stats = propagate(state0, coeffs, output_times, observe, control=control)
    return {
        "grid": grid, "n0": n0, "coeffs": coeffs, "states": states,
        "stats": stats, "center": center_series, "s": s, "gamma_t": gamma_t,
    }


def grid_times(t_end, step):
    return [round(k * step, 10) for k in range(int(round(t_end / step)) + 1)]


@pytest.fixture(scope="session")
def run_g0():
    """Lossless reference run; full states on a 0.1-spaced time grid."""
    return soliton_run(200, 0.0, 0.0, grid_times(5.0, 0.1))


@pytest.fixture(scope="session")
def run_gweak():
    """Weak damping (2 ps fiber), full states at the comparison times."""
    return soliton_run(200, 5.8e-3, 0.0, [1.0, 2.5, 5.0])


@pytest.fixture(scope="session")
def center_series_by_gamma(run_g0):
    """Center-cell ellipse histories for the damping sweep."""
    out = {0.0: run_g0["center"]}
    for gamma in (0.05, 0.1):
        run = soliton_run(200, gamma, 0.0, grid_times(5.0, 0.1),
                          track_center=True)
        out[gamma] = run["center"]
    return out


@pytest.fixture(scope="session")
def run_spair():
    """The ordering-consistency pair: identical physics at s = 0 and 0.85,
    integrated tightly so trajectory error stays below the comparison bar."""
    times = [1.0, 2.5, 5.0]
    a = soliton_run(200, 5.8e-3, 0.0, times, tol=1e-12)
    b = soliton_run(200, 5.8e-3, 0.85, times, tol=1e-12)
    return a, b


@pytest.fixture(scope="session")
def run_eta():
    """Symmetric-grid run (odd cell count) for the correlation structure."""
    return soliton_run(201, 0.0, 0.0, [2.5])


@pytest.fixture(scope="session")
def run_phase():
    """Long lossless run tracking the center amplitude through a full
    nonlinear phase revolution (reduced domain keeps it affordable)."""
    return soliton_run(120, 0.0, 0.0, grid_times(13.5, 0.25),
                       track_center=True)


@pytest.fixture(scope="session")
def run_balance():
    """Periodic, Kerr-free, damped run for the photon-balance law."""
    grid, _, coeffs = paper_setup(m=100, gamma_t=0.05, boundary="periodic",
                                  chi_on=False, n_th=0.25)
    n0 = 1e4  # modest scale; the balance identity is scale-free
    state0 = fundamental_soliton(grid, n0, 0.25, 0.0)
    states = Copies()
    propagate(state0, coeffs, grid_times(5.0, 0.5), states)
    return {"grid": grid, "coeffs": coeffs, "states": states, "n0": n0}
