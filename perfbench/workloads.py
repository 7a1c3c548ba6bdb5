"""The benchmark's workloads: seeded systems and the settings they run with.

Each workload builds its system from the run's seed alone; morkit sees
only the generated system (written to disk and read back through
``load_system``). The reasons for each choice are in README.md.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

import morkit
from chain import generate_chain

SWEEP_BAND = (10.0, 1.0e4)  # rad/s, morkit's default interpolation band
EVAL_POINTS = 500  # one evaluation loop; short, so loops fit between phases


@dataclass(frozen=True)
class Workload:
    name: str
    make_system: Callable[[int], morkit.SecondOrderIndex1System]
    order: int
    outer_cap: int
    sweep_points: int
    one_sided: bool
    inner_tol: float = morkit.IrkaConfig.inner_tol

    def config(self):
        return morkit.IrkaConfig(r=self.order, max_iter=self.outer_cap,
                                 inner_tol=self.inner_tol)

    def sweep_grid(self):
        return np.logspace(np.log10(SWEEP_BAND[0]), np.log10(SWEEP_BAND[1]),
                           self.sweep_points)

    def eval_grid(self):
        # offset from the sweep grid so the ROM is evaluated at fresh points
        lo, hi = np.log10(SWEEP_BAND[0]), np.log10(SWEEP_BAND[1])
        return 1j * np.logspace(lo + 1e-3, hi - 1e-3, EVAL_POINTS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="synth-fill",
            make_system=lambda seed: morkit.generate_synthetic(1000, 100, 9, 9, seed=seed),
            order=10, outer_cap=2, sweep_points=8, one_sided=True,
        ),
        Workload(
            name="chain-sparse",
            make_system=lambda seed: generate_chain(50_000, 2, seed),
            order=10, outer_cap=3, sweep_points=8, one_sided=True,
        ),
        Workload(
            name="mimo-inner",
            make_system=lambda seed: morkit.generate_synthetic(
                200, 20, 4, 4, seed=seed, symmetric=False),
            order=16, outer_cap=3, sweep_points=60, one_sided=False,
            # below reach: every inner IRKA runs its full 20 iterations and
            # restarts once, as on the README example, so the work is fixed
            inner_tol=1e-12,
        ),
    )
}
