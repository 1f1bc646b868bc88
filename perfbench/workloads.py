"""The four benchmark workloads: a canned scenario plus ``--override`` specs.

Every workload is what a user would type::

    qsolsim run --scenario NAME --override key=value ... --out DIR

Seed 0 is the canonical input set, whose outputs are compared against the
stored references in ``reference/``.  Any other seed draws the physical
inputs that leave the cost of a run unchanged (photon scale ``nbar`` within
+-25 %, damping ``gamma_t`` within +-10 % where the scenario is lossy); at
those inputs the adaptive integrator takes the same number of steps to within
a few percent, so every seed times the same amount of work.  Other seeds are
checked by physical invariants only.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "build_config"]


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    overrides: dict

    def seed_overrides(self, seed: int, base_gamma: float) -> dict:
        """Seed-dependent physical inputs; seed 0 keeps the scenario's values."""
        if seed == 0:
            return {}
        rng = random.Random(f"{self.name}:{seed}")
        out = {"scaled.nbar": round(1e9 * 10.0 ** rng.uniform(-0.1, 0.1), 3)}
        if base_gamma > 0:
            out["scaled.gamma_t"] = round(base_gamma * rng.uniform(0.9, 1.1), 12)
        return out

    def override_specs(self, seed: int) -> list[str]:
        """The ``--override`` arguments of this workload at ``seed``."""
        from qsolsim.scenarios import scenario_config

        base_gamma = float(scenario_config(self.scenario)["scaled"]["gamma_t"])
        merged = {**self.overrides, **self.seed_overrides(seed, base_gamma)}
        return [f"{key}={json.dumps(value)}" for key, value in merged.items()]

    def cli_args(self, seed: int, out_dir: str) -> list[str]:
        """Arguments of ``qsolsim`` (after the program name) for one run."""
        args = ["run", "--scenario", self.scenario, "--out", out_dir]
        for spec in self.override_specs(seed):
            args += ["--override", spec]
        return args


# Why each workload exists is recorded in BENCHMARK.json.  t_end values size
# each run to roughly 3.5-4.5 s with one BLAS thread, so a 30 s measurement
# holds about six runs of any workload and its median rejects the slow ones.
WORKLOADS = {w.name: w for w in (
    Workload("snapshot-dense", "squeeze-center-lossless",
             {"m": 200, "t_end": 0.4, "output_times": [0.0, 0.1, 0.2, 0.3, 0.4]}),
    Workload("propagate-m200", "intensity-weak-loss",
             {"m": 200, "t_end": 0.5, "output_times": [0.5]}),
    Workload("propagate-m400", "intensity-weak-loss",
             {"m": 400, "dx": 0.1, "t_end": 0.07, "output_times": [0.07]}),
    Workload("spectral-pair", "ordering-pair-check",
             {"m": 200, "t_end": 0.15, "output_times": [0.1, 0.15],
              "observables": ["intensity", "spectrum", "eta"]}),
)}


def build_config(name: str, seed: int) -> dict:
    """The run config exactly as ``qsolsim run`` assembles it for this workload."""
    from qsolsim.cli import _apply_override
    from qsolsim.scenarios import scenario_config

    workload = WORKLOADS[name]
    cfg = scenario_config(workload.scenario)
    for spec in workload.override_specs(seed):
        _apply_override(cfg, spec)
    return cfg
