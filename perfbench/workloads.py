"""Benchmark workloads: inputs drawn from the seed, and the commands of one operation.

Each workload is a closed loop with one client: the benchmark starts one cold
qgatelab process, waits for it to exit, checks its reports, then starts the
next.  The program only ever receives the generated inputs (flags and a config
file); the seed never reaches it.

- all-default: `qgatelab all` at the default config.  No input depends on the
  seed.  Every layer runs in proportion; the constraint sweep dominates.
- discover-wide: `qgatelab discover --q 2` on a 5-value psi grid.  The sweep
  engine (row construction, vectorized residuals, pattern masks) does nearly
  all the work; the dense cross-check is a few percent.
- dense-many-q: verify-algebra, verify-gates and limit-study in one process
  on one CSV config with 200 q values.  No sweep at all: kets, closing
  parameters, dyads, lifts, scalar brackets and the CSV writer.
"""

import json
import math
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

PSI_COUNT = 5
PSI_RANGE = (0.25, 8.0)
DENSE_Q_COUNT = 200
DENSE_Q_RANGE = (0.5, 2.0)
DENSE_LIMIT_Q = [1.1, 1.03, 1.01, 1.003, 1.001, 1.0003, 1.0001]
# Cutoffs of 14 and up fail the fixed q = 2 algebra points (absolute
# thresholds), so the dense workload keeps the default cutoff.
DENSE_CUTOFF = 8


def _log_uniform(rng: random.Random, low: float, high: float, digits: int) -> float:
    value = math.exp(rng.uniform(math.log(low), math.log(high)))
    return float(f"{value:.{digits}g}")


def psi_grid(seed: int) -> list:
    """5 distinct psi values, log-uniform in [0.25, 8], at 3 significant digits."""
    rng = random.Random(f"discover-wide/{seed}")
    values = set()
    while len(values) < PSI_COUNT:
        values.add(_log_uniform(rng, *PSI_RANGE, 3))
    return sorted(values)


def dense_q_values(seed: int) -> list:
    """200 q values log-uniform in [0.5, 2] at 6 significant digits.

    Distinct under %g (the check ids embed q that way) and none within 1e-3
    of 1, where the deformation degenerates.
    """
    rng = random.Random(f"dense-many-q/{seed}")
    values = {}
    while len(values) < DENSE_Q_COUNT:
        q = _log_uniform(rng, *DENSE_Q_RANGE, 6)
        if abs(q - 1.0) >= 1e-3:
            values.setdefault(f"{q:g}", q)
    return sorted(values.values())


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool
    reports: tuple
    report_format: str

    def prepare(self, seed: int, work_dir: str) -> None:
        """Write the inputs of this workload that live in files."""
        if self.name == "dense-many-q":
            config = {
                "q_values": dense_q_values(seed),
                "limit_q": DENSE_LIMIT_Q,
                "cutoff": DENSE_CUTOFF,
                "format": "csv",
            }
            with open(os.path.join(work_dir, "dense-config.json"), "w", encoding="utf-8") as handle:
                json.dump(config, handle)

    def commands(self, seed: int, work_dir: str, op_dir: str) -> list:
        """qgatelab argument lists of one operation, each writing one report into op_dir."""
        outs = [os.path.join(op_dir, name) for name in self.reports]
        if self.name == "all-default":
            return [["all", "--out", outs[0]]]
        if self.name == "discover-wide":
            psi = ",".join(repr(value) for value in psi_grid(seed))
            return [["discover", "--q", "2", "--psi", psi, "--out", outs[0]]]
        config = os.path.join(work_dir, "dense-config.json")
        return [
            [command, "--config", config, "--out", out]
            for command, out in zip(("verify-algebra", "verify-gates", "limit-study"), outs)
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("all-default", False, ("all.json",), "json"),
        Workload("discover-wide", True, ("discover.json",), "json"),
        Workload("dense-many-q", True, ("algebra.csv", "gates.csv", "limits.csv"), "csv"),
    )
}
