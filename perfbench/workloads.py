"""The benchmark's workloads and the seeded inputs generated from them.

Each workload is one ``tfim-dephasing sweep`` followed by ``tfim-dephasing
check`` over a (lambda, g) grid.  The four workloads each put most of their
time into a different layer of the package; BENCHMARK.json and README.md
give the reason for each.  A seed perturbs
every lambda and g by a factor drawn uniformly from [0.98, 1.02]; lambda = 0
(flat band) and lambda = 1 (critical point) stay pinned because the physics
changes character there.  N, the time grid and all flags are fixed per
workload.  The program receives only the generated values, as CLI flags.
"""

import dataclasses
import random
from dataclasses import dataclass

PERTURBATION = 0.02
PINNED_LAMBDAS = (0.0, 1.0)
DEFAULT_LAMBDAS = (0.0, 0.5, 0.97, 1.0, 2.0)
DEFAULT_GS = (0.01, 1.0)


@dataclass(frozen=True)
class Workload:
    """Fixed inputs of one workload; lambdas and gs are the unperturbed values."""

    name: str
    lambdas: tuple[float, ...]
    gs: tuple[float, ...]
    N: int
    t_max: float
    t_steps: int
    emit_exact: bool = False
    jobs: int = 1
    validate_order3: bool = False
    quadrature_points: int | None = None


@dataclass(frozen=True)
class Inputs:
    """One workload's concrete inputs for one seed."""

    workload: Workload
    seed: int
    lambdas: tuple[float, ...]
    gs: tuple[float, ...]

    @property
    def points(self) -> list[tuple[float, float]]:
        return [(lam, g) for lam in self.lambdas for g in self.gs]

    @property
    def mode_samples(self) -> int:
        """Mode-time samples one sweep computes: N*T per series curve plus
        (N/2)*T per exact curve."""
        wl = self.workload
        per_point = wl.N * wl.t_steps
        if wl.emit_exact:
            per_point += (wl.N // 2) * wl.t_steps
        return per_point * len(self.points)

    def config_values(self, outdir: str) -> dict:
        """Keyword values for ``tfim_dephasing.load_config``."""
        wl = self.workload
        values = dict(lambdas=self.lambdas, gs=self.gs, N=wl.N, t_max=wl.t_max,
                      t_steps=wl.t_steps, orders=3, outputs=outdir,
                      jobs=wl.jobs)
        if wl.emit_exact:
            values["emit_exact"] = True
        if wl.validate_order3:
            values["validate_order3"] = True
        if wl.quadrature_points is not None:
            values["quadrature_points"] = wl.quadrature_points
        return values

    def cli_flags(self, outdir: str) -> list[str]:
        """Flags shared by the ``sweep`` and ``check`` subcommands."""
        wl = self.workload
        flags = [
            "--lambdas", ",".join(repr(v) for v in self.lambdas),
            "--gs", ",".join(repr(v) for v in self.gs),
            "--N", str(wl.N),
            "--t-max", repr(wl.t_max),
            "--t-steps", str(wl.t_steps),
            "--orders", "3",
            "--out", outdir,
            "--jobs", str(wl.jobs),
        ]
        if wl.emit_exact:
            flags.append("--emit-exact")
        if wl.validate_order3:
            flags.append("--validate-order3")
        if wl.quadrature_points is not None:
            flags += ["--quadrature-points", str(wl.quadrature_points)]
        return flags


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="sweep_exact",
        lambdas=DEFAULT_LAMBDAS, gs=DEFAULT_GS, N=20000, t_max=5.0, t_steps=64,
        emit_exact=True,
    ),
    Workload(
        name="series_long",
        lambdas=(0.5, 1.0), gs=(0.25, 0.5, 1.0), N=4000, t_max=5.0, t_steps=2048,
    ),
    Workload(
        name="exact_strong",
        lambdas=(0.5, 0.9, 1.0, 1.5), gs=(2.5,), N=20000, t_max=30.0, t_steps=32,
        emit_exact=True, jobs=2,
    ),
    Workload(
        name="desk_validate",
        lambdas=DEFAULT_LAMBDAS, gs=DEFAULT_GS, N=1000, t_max=5.0, t_steps=64,
        emit_exact=True, validate_order3=True, quadrature_points=32,
    ),
)}


def tiny(wl: Workload) -> Workload:
    """The same workload at a size that runs in well under a second per sweep."""
    return dataclasses.replace(wl, N=min(wl.N, 40), t_steps=min(wl.t_steps, 12))


def _perturb(value: float, rng: random.Random) -> float:
    return value * (1.0 + rng.uniform(-PERTURBATION, PERTURBATION))


def generate(wl: Workload, seed: int) -> Inputs:
    """Seeded inputs: the same seed always gives the same values."""
    rng = random.Random(f"{wl.name}:{seed}")
    lambdas = tuple(lam if lam in PINNED_LAMBDAS else _perturb(lam, rng)
                    for lam in wl.lambdas)
    gs = tuple(_perturb(g, rng) for g in wl.gs)
    return Inputs(wl, seed, lambdas, gs)
