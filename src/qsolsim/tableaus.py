"""Embedded explicit Runge-Kutta pairs.

Two tableaus ship with the package:

* ``DORMAND_PRINCE_853`` -- the 13-stage order-8 method of Dormand, Prince
  and Hairer with its damped 5th/3rd-order error estimate (the classic
  "8(5,3)" scheme, coefficients as published in Hairer, Norsett & Wanner).
  This is the default integrator of the simulator.
* ``DORMAND_PRINCE_54`` -- the 7-stage 5(4) pair, a cheaper alternative for
  loose tolerances.

Both store the error estimate as weight vectors over the stage derivatives
including the first-same-as-last evaluation at the accepted point, so a step
costs 12 (respectively 6) fresh derivative evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import finite

__all__ = ["Tableau", "DORMAND_PRINCE_853", "DORMAND_PRINCE_54", "TABLEAUS"]


@dataclass(frozen=True)
class Tableau:
    """Butcher tableau of an embedded explicit pair.

    ``error_weights`` (and the optional ``error_weights_low`` of a damped
    two-estimate scheme) have length n_stages + 1; the last entry weights the
    derivative at the accepted point.  ``error_order`` is the order of the
    error estimator used in the step-size controller exponent.
    """

    name: str
    error_order: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    error_weights: np.ndarray
    error_weights_low: np.ndarray | None = None

    def __post_init__(self):
        names = ("a", "b", "c", "error_weights")
        a, b, c, e = (finite(n, np.asarray(getattr(self, n), dtype=float)) for n in names)
        ns = b.size
        if a.shape != (ns, ns):
            raise ValueError("stage matrix must be square and match b")
        if np.any(np.triu(a) != 0.0):
            raise ValueError("tableau must be explicit (strictly lower-triangular a)")
        if abs(b.sum() - 1.0) > 1e-13:
            raise ValueError("quadrature weights must sum to 1")
        if not np.allclose(a.sum(axis=1), c, rtol=0, atol=1e-13):
            raise ValueError("stage times must equal row sums of a")
        if e.shape != (ns + 1,):
            raise ValueError("error weights must cover all stages plus the new point")
        if self.error_weights_low is not None:
            elow = finite("error_weights_low", np.asarray(self.error_weights_low, dtype=float))
            if elow.shape != (ns + 1,):
                raise ValueError("low-order error weights must match error weights")
            object.__setattr__(self, "error_weights_low", elow)
        for name, arr in zip(names, (a, b, c, e)):
            object.__setattr__(self, name, arr)

    @property
    def n_stages(self) -> int:
        return self.b.size


DORMAND_PRINCE_54 = Tableau(
    name="dp54",
    error_order=4,
    a=np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
        [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    ]),
    b=np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
    c=np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0]),
    error_weights=np.array([
        71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
    ]),
)


DORMAND_PRINCE_853 = Tableau(
    name="dp853",
    error_order=7,
    a=np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.05260015195876773, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0197250569845379, 0.0591751709536137, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.02958758547680685, 0.0, 0.08876275643042054, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402, 0.008273789163814023, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671, 20.154067550477894, -43.48988418106996, 0.0, 0.0, 0.0, 0.0],
        [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627, 0.0, 0.0, 0.0],
        [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196, 0.0, 0.0],
        [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303, 0.6433927460157636, 0.0],
    ]),
    b=np.array([
        0.054293734116568765, 0.0, 0.0, 0.0,
        0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
        0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
    ]),
    c=np.array([
        0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
        0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
        0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
    ]),
    # order-5 difference weights; damped against the order-3 companion below
    error_weights=np.array([
        0.01312004499419488, 0.0, 0.0, 0.0,
        0.0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
        -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
        0.0,
    ]),
    error_weights_low=np.array([
        -0.18980075407240762, 0.0, 0.0, 0.0,
        0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
        -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082,
        0.0,
    ]),
)


TABLEAUS = {
    "dp853": DORMAND_PRINCE_853,
    "dp54": DORMAND_PRINCE_54,
}
