"""Workload table and input generation for the cstomo benchmark.

Every workload drives cstomo the way its users do. The CLI workloads time one
in-process ``cstomo.cli.main(["reconstruct", <file>, "--out", ...])`` call per
op on measurement files written before timing starts; ``sweep-d5`` times the
cells of ``cstomo.experiments.run_sweep``, which generates its own campaigns.

Inputs depend only on the workload and ``--seed``: campaign ``j`` of a run is
simulated with the seed ``SeedSequence([seed, j])`` and written with
cstomo's deterministic writer, so one seed always gives byte-identical files.
The warm-up input uses a fixed seed of its own, so set-up time does not
change with ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

# numpy and cstomo are imported inside the functions: run.py reads this table
# before it times the first import of cstomo (and numpy with it).

SPIRAL_WIDTH = 2.5
WARMUP_SEED = 20140728
# iteration cap of the untimed CLI warm-up op. The warm-up runs at the
# workload's own size (same d and M, so the full row matrix is built and
# orthogonalized and every BLAS kernel is touched) but stops early, so set-up
# does not repeat a whole steady-state op.
WARMUP_K_MAX = 3
# set-ups per run, each an import of cstomo plus one warm-up op; ``setup_s``
# is their median
SETUP_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind: "cli" times ``cstomo.cli.main(["reconstruct", ...])`` per op;
        "sweep" times each cell of ``cstomo.experiments.run_sweep``.
    pool: campaigns (cli) or sweeps (sweep) in one pass; every run finishes
        at least one pass, and fidelity and count metrics cover exactly
        that pass, so they are the same for every run of one seed.
    """

    name: str
    kind: str
    d: int
    mean_total_counts: float
    measurements: int = 0
    correction: bool = False
    states: tuple[str, ...] = ("max-entangled",)
    pool: int = 1
    fractions: tuple[float, ...] = ()
    repeats: int = 1

    def campaign_state(self, index: int):
        """Campaign ``index`` takes the truth state ``states[index % len(states)]``."""
        from cstomo.simulate import make_downconversion_state, make_max_entangled

        if self.states[index % len(self.states)] == "downconversion":
            return make_downconversion_state(self.d, SPIRAL_WIDTH)
        return make_max_entangled(self.d)

    def op_argv(self, path: str, out: str) -> list[str]:
        argv = ["reconstruct", path, "--out", out]
        if not self.correction:
            argv.append("--no-correction")
        return argv

    def warmup_argv(self, path: str, out: str) -> list[str]:
        return ["reconstruct", path, "--out", out, "--no-correction",
                "--k-max", str(WARMUP_K_MAX)]


# why each workload exists, and which layers it loads or bypasses, is in
# BENCHMARK.json and README.md
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="raw-d7",
            kind="cli",
            d=7,
            measurements=720,
            mean_total_counts=300.0,
            states=("max-entangled", "downconversion"),
            pool=6,
        ),
        Workload(
            name="corrected-d7",
            kind="cli",
            d=7,
            measurements=720,
            mean_total_counts=300.0,
            states=("max-entangled", "downconversion"),
            correction=True,
            pool=5,
        ),
        Workload(
            name="sweep-d5",
            kind="sweep",
            d=5,
            mean_total_counts=5e4,
            correction=True,
            fractions=(0.1, 0.2, 0.3, 0.4),
            repeats=3,
            pool=3,
        ),
    )
}


def campaign_seed(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1, np.uint64)[0])


def make_campaign(wl: Workload, seed: int, index: int):
    from cstomo.simulate import simulate_measurements

    return simulate_measurements(
        wl.d,
        wl.measurements,
        state=wl.campaign_state(index),
        seed=campaign_seed(seed, index),
        mean_total_counts=wl.mean_total_counts,
    )


def write_pool(wl: Workload, seed: int, directory) -> list[tuple[str, object]]:
    """Write the pass's campaign files; returns (path, MeasurementSet) pairs."""
    from cstomo.serialize import save_measurement_set

    out = []
    for j in range(wl.pool):
        ms = make_campaign(wl, seed, j)
        path = str(directory / f"campaign-{j}.json")
        save_measurement_set(ms, path)
        out.append((path, ms))
    return out


def write_warmup_campaign(wl: Workload, directory) -> str:
    from cstomo.serialize import save_measurement_set

    ms = make_campaign(wl, WARMUP_SEED, 0)
    path = str(directory / "warmup-campaign.json")
    save_measurement_set(ms, path)
    return path


def sweep_spec(wl: Workload, seed: int, index: int):
    from cstomo.experiments import SweepSpec

    return SweepSpec(
        d=wl.d,
        fractions=list(wl.fractions),
        repeats=wl.repeats,
        mean_total_counts=wl.mean_total_counts,
        seed=campaign_seed(seed, index),
        with_correction=wl.correction,
    )


def warmup_sweep_spec(wl: Workload):
    """One cell at each of the sweep's fractions."""
    from cstomo.experiments import SweepSpec

    return SweepSpec(
        d=wl.d,
        fractions=list(wl.fractions),
        repeats=1,
        mean_total_counts=wl.mean_total_counts,
        seed=WARMUP_SEED,
        with_correction=wl.correction,
    )
