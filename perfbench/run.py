"""Benchmark entry point: one workload, one run, one JSON line.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload insitu-voids --seed 1 --seconds 20 --trace 0

Workloads: ``insitu-voids``, ``insitu-halos`` (``repro-sim`` decks on 2
ranks, process backend) and ``serve-queries`` (a ``repro-serve serve``
process and a one-connection closed-loop client).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a run with wrappers installed.
``--ranks 1 --backend thread`` gives the single-process reference runs of
the in situ decks quoted in the README.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = ("insitu-voids", "insitu-halos", "serve-queries")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "hacc.step_s": "s",
    "hacc.ic_s": "s",
    "insitu.tessellation_s": "s",
    "insitu.void_finder_s": "s",
    "insitu.tracking_s": "s",
    "insitu.halo_finder_s": "s",
    "insitu.statistics_s": "s",
    "insitu.fires": "count",
    "core.tessellate_s": "s",
    "core.tessellations": "count",
    "core.cells_kept": "count",
    "core.write_s": "s",
    "core.output_mb": "MB",
    "geometry.triangulate_s": "s",
    "geometry.voronoi_s": "s",
    "geometry.points_triangulated": "count",
    "geometry.ghost_ratio": "ratio",
    "diy.ghost_exchange_s": "s",
    "diy.collective_s": "s",
    "diy.recv_wait_s": "s",
    "diy.sent_mb": "MB",
    "diy.rank0_recv_mb": "MB",
    "diy.messages": "count",
    "analysis.components_s": "s",
    "analysis.voids_s": "s",
    "analysis.tracking_s": "s",
    "analysis.fof_s": "s",
    "analysis.voids": "count",
    "analysis.halos": "count",
    "serve.qps": "1/s",
    "serve.latency_ms.voids": "ms",
    "serve.latency_ms.components": "ms",
    "serve.latency_ms.halos": "ms",
    "serve.latency_ms.profile": "ms",
    "serve.latency_ms.minkowski": "ms",
    "serve.kernel_ms.voids": "ms",
    "serve.kernel_ms.components": "ms",
    "serve.kernel_ms.halos": "ms",
    "serve.kernel_ms.profile": "ms",
    "serve.kernel_ms.minkowski": "ms",
    "serve.block_load_ms": "ms",
    "serve.block_loads": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.queue_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.overhead_ms": "ms",
}


def _env() -> dict:
    """Environment for program processes: everything they write stays in
    the checkout (native kernel cache, temporary files); one hash seed and
    one BLAS thread per process, so runs differ by as little as they can."""
    build = os.path.join(ROOT, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        REPRO_NATIVE_CACHE=os.path.join(build, "native"),
        TMPDIR=tmp,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _prepare(env: dict) -> None:
    """Compile the native kernels (once per checkout) before any timing."""
    code = (
        "import repro._native as n, sys; n.lib(); "
        "sys.exit(0 if n.available() else 3)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT,
        env=dict(env, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode not in (0, 3):
        raise RuntimeError(f"native kernel build failed: {proc.stderr[-2000:]}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ranks", type=int, default=2)
    p.add_argument("--backend", choices=("thread", "process"), default="process")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    env = _env()
    _prepare(env)
    trace = bool(args.trace)
    t0 = time.perf_counter()
    if args.workload == "serve-queries":
        import serve_load

        res = serve_load.run(args.seed, args.seconds, trace, ROOT, env)
    else:
        import insitu

        res = insitu.run(args.workload, args.seconds, trace, ROOT, env,
                         ranks=args.ranks, backend=args.backend)
    total = time.perf_counter() - t0

    for problem in res["problems"]:
        print(f"failed: {problem}")
    e2e = res["e2e"]
    print(f"{args.workload}: {res['rounds']} round(s), {res['attempted']} "
          f"operation(s), {res['failed']} failed, {total:.1f} s in all")
    print("  " + "  ".join(f"{k}={v:.4g}" for k, v in sorted(e2e.items())))
    if "note" in res:
        print("  " + res["note"])
    if trace:
        metrics = {k: {"value": float(res["layers"].get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": float(e2e[k]), "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
