"""Certify the cumulant RHS against a symbolic derivation from the
phase-space generator.

The master equation maps to a phase-space evolution operator (drift terms
from the coherent dynamics and damping, diffusion from the thermal coupling,
plus the ordering-dependent Kerr noise terms).  Writing the characteristic
function as exp(Phi) with a quadratic (Gaussian) Phi, each generator term

    A * d^n ( q^k P )      acts as      A * (-i q_)^n (-i d/dq_)^k  on exp(Phi)

and the Taylor coefficients of d(Phi)/dt give the time derivatives of every
first- and second-order cumulant directly.  This re-derives the closed
equations by machine, with no shared code with the production RHS, and the
two must agree to round-off on random states.  Runs on a 3-cell chain, which
exercises interior and boundary stencils.
"""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
sp = sympy

from qsolsim.dynamics import RHSCoefficients, rhs
from qsolsim.state import CumulantState, GridSpec

M = 3


def _derive_symbolic():
    pu = [sp.Symbol(f"pu{j}") for j in range(M)]
    pv = [sp.Symbol(f"pv{j}") for j in range(M)]
    allq = pu + pv

    cu = [sp.Symbol(f"cu{j}") for j in range(M)]
    cv = [sp.Symbol(f"cv{j}") for j in range(M)]
    cuu = [[None] * M for _ in range(M)]
    cvv = [[None] * M for _ in range(M)]
    cuv = [[None] * M for _ in range(M)]
    for a in range(M):
        for b in range(M):
            if a <= b:
                cuu[a][b] = sp.Symbol(f"Cuu_{a}{b}")
                cvv[a][b] = sp.Symbol(f"Cvv_{a}{b}")
            else:
                cuu[a][b] = cuu[b][a]
                cvv[a][b] = cvv[b][a]
            cuv[a][b] = sp.Symbol(f"Cuv_{a}{b}")

    gam, dw, w2d, chib, s, nth = sp.symbols("gam dw w2d chib s nth")
    i = sp.I

    phi = sp.Integer(0)
    for j in range(M):
        phi += i * (cu[j] * pu[j] + cv[j] * pv[j])
    for a in range(M):
        for b in range(M):
            phi += -(cuu[a][b] * pu[a] * pu[b] + cvv[a][b] * pv[a] * pv[b]) / 2
            phi += -cuv[a][b] * pu[a] * pv[b]
    phi = sp.expand(phi)
    dphi = {q: sp.expand(sp.diff(phi, q)) for q in allq}

    def term(coeff, derivs, monos):
        g = sp.Integer(1)
        for q in monos:
            g = sp.expand(sp.diff(g, q) + g * dphi[q])
        g = g * (-i) ** len(monos)
        for q in derivs:
            g = g * (-i * q)
        return sp.expand(coeff * g)

    def neighbors(j):
        return [k for k in (j - 1, j + 1) if 0 <= k < M]

    terms = []
    for j in range(M):
        # frame rotation
        terms.append((-dw, [pu[j]], [pv[j]]))
        terms.append((dw, [pv[j]], [pu[j]]))
        # dispersion stencil
        terms.append((-2 * w2d, [pu[j]], [pv[j]]))
        terms.append((2 * w2d, [pv[j]], [pu[j]]))
        for k in neighbors(j):
            terms.append((w2d, [pu[j]], [pv[k]]))
            terms.append((-w2d, [pv[j]], [pu[k]]))
        # Kerr drift (1 - s - |a|^2 factor expanded)
        terms.append((chib * (1 - s), [pu[j]], [pv[j]]))
        terms.append((-chib, [pu[j]], [pv[j], pu[j], pu[j]]))
        terms.append((-chib, [pu[j]], [pv[j], pv[j], pv[j]]))
        terms.append((-chib * (1 - s), [pv[j]], [pu[j]]))
        terms.append((chib, [pv[j]], [pu[j], pu[j], pu[j]]))
        terms.append((chib, [pv[j]], [pu[j], pv[j], pv[j]]))
        # amplitude damping drift
        terms.append((gam, [pu[j]], [pu[j]]))
        terms.append((gam, [pv[j]], [pv[j]]))
        # third-order Kerr noise
        c3 = chib * (1 - s ** 2) / 16
        terms.append((c3, [pu[j]] * 3, [pv[j]]))
        terms.append((-c3, [pu[j], pu[j], pv[j]], [pu[j]]))
        terms.append((c3, [pv[j], pv[j], pu[j]], [pv[j]]))
        terms.append((-c3, [pv[j]] * 3, [pu[j]]))
        # ordering-dependent Kerr diffusion
        c2 = chib * s / 2
        terms.append((c2, [pu[j]] * 2, [pu[j], pv[j]]))
        terms.append((-c2, [pv[j]] * 2, [pu[j], pv[j]]))
        terms.append((-c2, [pu[j], pv[j]], [pu[j], pu[j]]))
        terms.append((c2, [pu[j], pv[j]], [pv[j], pv[j]]))
        # thermal diffusion
        cd = gam / 2 * (nth + (1 - s) / 2)
        terms.append((cd, [pu[j]] * 2, []))
        terms.append((cd, [pv[j]] * 2, []))

    total = sp.Integer(0)
    for c, d, k in terms:
        total += term(c, d, k)
    poly = sp.Poly(sp.expand(total), *allq)

    lin, quad = {}, {}
    for monom, coeff in poly.terms():
        deg = sum(monom)
        if deg == 1:
            lin[allq[monom.index(1)]] = coeff
        elif deg == 2:
            nz = [idx for idx, e in enumerate(monom) if e]
            if len(nz) == 1:
                quad[(allq[nz[0]], allq[nz[0]])] = coeff
            else:
                quad[(allq[nz[0]], allq[nz[1]])] = coeff

    def second(qa, qb):
        coeff = quad.get((qa, qb), quad.get((qb, qa), sp.Integer(0)))
        return sp.expand(-2 * coeff if qa == qb else -coeff)

    dcu = [sp.expand(-i * lin.get(pu[j], 0)) for j in range(M)]
    dcv = [sp.expand(-i * lin.get(pv[j], 0)) for j in range(M)]
    duu = [[second(pu[a], pu[b]) for b in range(M)] for a in range(M)]
    duv = [[second(pu[a], pv[b]) for b in range(M)] for a in range(M)]
    dvv = [[second(pv[a], pv[b]) for b in range(M)] for a in range(M)]

    symbols = ([gam, dw, w2d, chib, s, nth] + cu + cv
               + [cuu[a][b] for a in range(M) for b in range(a, M)]
               + [cvv[a][b] for a in range(M) for b in range(a, M)]
               + [cuv[a][b] for a in range(M) for b in range(M)])
    flat = dcu + dcv
    for block in (duu, duv, dvv):
        flat.extend(block[a][b] for a in range(M) for b in range(M))
    return sp.lambdify(symbols, flat, modules="numpy")


@pytest.fixture(scope="module")
def derived_rhs():
    return _derive_symbolic()


def test_rhs_matches_generator_derivation(derived_rhs):
    rng = np.random.default_rng(42)
    grid = GridSpec(m=M, dx=0.37)  # absorbing chain, matches the open stencil
    for trial in range(4):
        cuu = rng.normal(size=(M, M))
        cvv = rng.normal(size=(M, M))
        state = CumulantState(
            grid, float(rng.uniform(-1, 1)), 0.0,
            rng.normal(size=M), rng.normal(size=M),
            0.5 * (cuu + cuu.T), rng.normal(size=(M, M)), 0.5 * (cvv + cvv.T),
        )
        coeffs = RHSCoefficients(
            d2=float(rng.normal()), chi_t=float(rng.normal()),
            gamma_t=float(rng.uniform(0, 0.5)), delta_omega_t=float(rng.normal()),
            n_th=float(rng.uniform(0, 1)),
        )
        args = ([coeffs.gamma_t, coeffs.delta_omega_t, coeffs.d2, coeffs.chi_t,
                 state.s, coeffs.n_th]
                + list(state.cu) + list(state.cv)
                + [state.cuu[a, b] for a in range(M) for b in range(a, M)]
                + [state.cvv[a, b] for a in range(M) for b in range(a, M)]
                + [state.cuv[a, b] for a in range(M) for b in range(M)])
        expected = np.array(derived_rhs(*args), dtype=float)

        deriv = rhs(state, coeffs)
        got = np.concatenate([
            deriv.cu, deriv.cv, deriv.cuu.ravel(), deriv.cuv.ravel(), deriv.cvv.ravel(),
        ])
        scale = max(np.max(np.abs(expected)), 1.0)
        assert np.max(np.abs(got - expected)) / scale < 1e-12, f"trial {trial}"
