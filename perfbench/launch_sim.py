"""Run ``repro-sim`` on a deck, leaving the outputs the checks need.

Usage (from the checkout root)::

    python3 perfbench/launch_sim.py OUTDIR [--trace] -- DECK [repro-sim args]

Before handing ``DECK`` to the program's ``sim_main`` entry point this
registers one extra deck tool, ``bench_snapshot``, which the benchmark
appends to every deck it writes.  It fires after the program's tools at
their steps and saves, per rank, the owned particle positions and ids,
and on rank 0 the results the earlier tools produced at that step.  At
the last step every rank also records when its first simulation step
began, its peak resident set, its communication counters and the time
it spent in ``bench_snapshot`` itself (which lies inside the timed wall).

With ``--trace`` the per-layer wrappers of :mod:`tracing` are installed
first (so forked ranks inherit them) and each process dumps its numbers.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

FIRST_STEP: list[float] = []
#: seconds this rank has spent in ``bench_snapshot`` so far
SNAPSHOT_S = [0.0]


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (VmHWM), in MB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    return 0.0


def _install(outdir: str, trace: bool) -> None:
    from dataclasses import dataclass

    import numpy as np

    from repro.hacc.simulation import HACCSimulation
    from repro.insitu.framework import CosmologyToolsFramework
    from repro.insitu.tools import AnalysisTool

    if trace:
        import tracing

        tracing.install()

    step = HACCSimulation.step

    def first_step_marker(self):
        if not FIRST_STEP:
            FIRST_STEP.append(time.time())
        return step(self)

    HACCSimulation.step = first_step_marker

    @dataclass
    class SnapshotTool(AnalysisTool):
        last_step: int = 0
        positions_every: int = 1
        name = "bench_snapshot"

        def run(self, sim, step, a, comm, context=None):
            t0 = time.perf_counter()
            rank = 0 if comm is None else comm.rank
            if self.positions_every and step % self.positions_every == 0:
                np.savez(
                    os.path.join(outdir, f"pos_{step:04d}_r{rank}.npz"),
                    positions=sim.positions_mpc(),
                    ids=sim.local.ids,
                )
            if rank == 0:
                keep = {
                    k: v for k, v in (context or {}).items()
                    if k != "tessellation"
                }
                with open(os.path.join(outdir, f"res_{step:04d}.pkl"), "wb") as f:
                    pickle.dump(keep, f)
            SNAPSHOT_S[0] += time.perf_counter() - t0
            if step == self.last_step:
                info = {
                    "first_step_t": FIRST_STEP[0] if FIRST_STEP else None,
                    "peak_rss_mb": peak_rss_mb(),
                    "snapshot_s": SNAPSHOT_S[0],
                }
                if comm is not None:
                    info["comm"] = comm.stats.as_dict()
                path = os.path.join(outdir, f"rank{rank}.json")
                if trace:
                    import tracing

                    tracing.dump(path, info)
                else:
                    with open(path, "w") as f:
                        json.dump(info, f)
            return None

    CosmologyToolsFramework.register(SnapshotTool)


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, sim_args = argv[:sep], argv[sep + 1:]
    outdir, trace = opts[0], "--trace" in opts[1:]
    _install(outdir, trace)
    from repro.cli import sim_main

    code = sim_main(sim_args)
    info = {"exit": code, "peak_rss_mb": peak_rss_mb()}
    path = os.path.join(outdir, "parent.json")
    if trace:
        import tracing

        tracing.dump(path, info)
    else:
        with open(path, "w") as f:
            json.dump(info, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
