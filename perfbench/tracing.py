"""Per-layer wrappers for the traced benchmark run.

:func:`install` replaces public functions of each program layer with
timing wrappers.  Everything is recorded in plain per-process dicts and
written out by :func:`dump`; on the process backend the wrappers are
installed before the rank pool forks, so every rank inherits them and
dumps its own numbers.

Keys (per process):

* ``time[name] = [seconds, calls]`` — outermost calls only, so a wrapped
  function calling itself (or a wrapped sibling of the same name) is not
  counted twice;
* ``count[name]`` — counters of work done;
* ``samples[name]`` — individual durations (ms) where medians are wanted.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

TIME: dict[str, list] = {}
COUNT: dict[str, float] = {}
SAMPLES: dict[str, list] = {}
_local = threading.local()
_lock = threading.Lock()


def _depth() -> dict:
    d = getattr(_local, "depth", None)
    if d is None:
        d = _local.depth = {}
    return d


def add_time(name: str, seconds: float) -> None:
    with _lock:
        rec = TIME.setdefault(name, [0.0, 0])
        rec[0] += seconds
        rec[1] += 1


def add_count(name: str, value: float = 1) -> None:
    with _lock:
        COUNT[name] = COUNT.get(name, 0) + value


def add_sample(name: str, ms: float) -> None:
    with _lock:
        SAMPLES.setdefault(name, []).append(ms)


def timed(name, fn, after=None):
    """Wrap ``fn`` so its outermost calls add to ``TIME[name]``;
    ``after(result, seconds, args, kwargs)`` runs after each of them."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        depth = _depth()
        outer = depth.get(name, 0) == 0
        depth[name] = depth.get(name, 0) + 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            depth[name] -= 1
        if outer:
            dt = time.perf_counter() - t0
            add_time(name, dt)
            if after is not None:
                after(result, dt, args, kwargs)
        return result

    wrapper.__wrapped_by_bench__ = True
    return wrapper


def _patch(owner, attr: str, make) -> None:
    orig = getattr(owner, attr)
    if getattr(orig, "__wrapped_by_bench__", False):
        return
    setattr(owner, attr, make(orig))


def _patch_everywhere(module_name: str, attr: str, make) -> None:
    """Replace ``module.attr`` and every loaded ``repro`` module's binding
    of the same object (``from x import f`` copies)."""
    module = importlib.import_module(module_name)
    orig = getattr(module, attr)
    if getattr(orig, "__wrapped_by_bench__", False):
        return
    wrapped = make(orig)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        if getattr(mod, attr, None) is orig:
            setattr(mod, attr, wrapped)


_MODULES = [
    "repro.cli",
    "repro.hacc.simulation",
    "repro.insitu.tools",
    "repro.insitu.framework",
    "repro.core.tessellate",
    "repro.core.ghost",
    "repro.core.tess_io",
    "repro.diy.comm",
    "repro.diy.process_backend",
    "repro.geometry.voronoi_delaunay",
    "repro.analysis.components",
    "repro.analysis.voids",
    "repro.analysis.tracking",
    "repro.analysis.halos",
    "repro.analysis.statistics",
    "repro.analysis.query",
    "repro.analysis.minkowski",
    "repro.serve.server",
    "repro.serve.store",
    "repro.serve.cache",
    "repro.serve.batching",
    "repro.serve.protocol",
]

_COLLECTIVES = ("gather", "bcast", "reduce", "allreduce", "allgather", "alltoall")


def install() -> None:
    """Wrap every layer's public functions (idempotent)."""
    for m in _MODULES:
        importlib.import_module(m)
    import scipy.spatial

    from repro.analysis import tracking
    from repro.diy.comm import Communicator
    from repro.geometry.voronoi_delaunay import DelaunayVoronoi
    from repro.hacc.simulation import HACCSimulation
    from repro.insitu.tools import TOOL_REGISTRY
    from repro.serve.batching import QueryBatcher
    from repro.serve.cache import BlockCache
    from repro.serve.server import TessServer
    from repro.serve.store import Snapshot

    # hacc: stepping and initial conditions
    _patch(HACCSimulation, "step", lambda f: timed("hacc.step_s", f))
    _patch_everywhere(
        "repro.hacc.initial_conditions", "zeldovich_ics",
        lambda f: timed("hacc.ic_s", f),
    )

    # insitu: one timer per tool, plus the fire count
    for tool_name, cls in TOOL_REGISTRY.items():
        def fired(result, dt, args, kwargs):
            add_count("insitu.fires")

        _patch(cls, "run", lambda f, n=tool_name: timed(f"insitu.{n}_s", f, fired))

    # core: tessellation, cells kept, writes
    def tess_done(result, dt, args, kwargs):
        block = result[0]
        add_count("core.tessellations")
        add_count("core.cells_kept", block.num_cells)
        positions = args[2] if len(args) > 2 else kwargs.get("positions")
        add_count("core.owned_points", len(positions))

    _patch_everywhere(
        "repro.core.tessellate", "tessellate_distributed",
        lambda f: timed("core.tessellate_s", f, tess_done),
    )
    _patch_everywhere(
        "repro.core.tess_io", "write_tessellation",
        lambda f: timed("core.write_s", f),
    )

    # geometry: every Delaunay the program builds, and Voronoi assembly
    def triangulated(result, dt, args, kwargs):
        add_count("geometry.points_triangulated", len(args[0]))
        if _depth().get("geometry.voronoi_total_s", 0):
            add_count("geometry.triangulate_in_voronoi_s", dt)

    _patch(scipy.spatial, "Delaunay",
           lambda f: timed("geometry.triangulate_s", f, triangulated))
    _patch(DelaunayVoronoi, "__init__",
           lambda f: timed("geometry.voronoi_total_s", f))

    # diy: ghost exchange and collectives
    _patch_everywhere(
        "repro.core.ghost", "exchange_ghost_particles",
        lambda f: timed("diy.ghost_exchange_s", f),
    )
    for coll in _COLLECTIVES:
        _patch(Communicator, coll, lambda f: timed("diy.collective_s", f))

    # analysis kernels
    _patch_everywhere(
        "repro.analysis.components", "connected_components",
        lambda f: timed("analysis.components_s", f),
    )
    _patch_everywhere(
        "repro.analysis.components", "connected_components_distributed",
        lambda f: timed("analysis.components_s", f),
    )

    def voids_done(result, dt, args, kwargs):
        add_count("analysis.voids", result.num_voids)

    for fn in ("find_voids", "find_voids_distributed"):
        _patch_everywhere("repro.analysis.voids", fn,
                          lambda f: timed("analysis.voids_s", f, voids_done))
    _patch(tracking.FeatureTreeBuilder, "push",
           lambda f: timed("analysis.tracking_s", f))
    _patch_everywhere("repro.analysis.tracking", "gather_step_rows",
                      lambda f: timed("analysis.tracking_s", f))

    def halos_done(result, dt, args, kwargs):
        add_count("analysis.halos", result.num_halos)

    for fn in ("fof_halos", "fof_halos_distributed"):
        _patch_everywhere("repro.analysis.halos", fn,
                          lambda f: timed("analysis.fof_s", f, halos_done))

    # serve read path
    def kernel_done(result, dt, args, kwargs):
        add_sample(f"serve.kernel_ms.{args[2].get('op')}", dt * 1e3)

    _patch_everywhere("repro.analysis.query", "run_query",
                      lambda f: timed("serve.kernel_s", f, kernel_done))

    def loaded(result, dt, args, kwargs):
        add_count("serve.block_loads")
        add_sample("serve.block_load_ms", dt * 1e3)

    _patch(Snapshot, "load_block", lambda f: timed("serve.block_load_s", f, loaded))

    def cache_get(f):
        @functools.wraps(f)
        def wrapper(self, key, loader):
            hits = self.stats.hits
            try:
                return f(self, key, loader)
            finally:
                add_count("serve.cache_lookups")
                if self.stats.hits > hits:
                    add_count("serve.cache_hits")

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    _patch(BlockCache, "get", cache_get)

    def batch_submit(f):
        @functools.wraps(f)
        async def wrapper(self, batch_key, fn):
            t_submit = time.perf_counter()

            def job():
                add_sample("serve.queue_ms",
                           (time.perf_counter() - t_submit) * 1e3)
                return fn()

            return await f(self, batch_key, job)

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    _patch(QueryBatcher, "submit", batch_submit)

    def dispatch(f):
        @functools.wraps(f)
        async def wrapper(self, request):
            t0 = time.perf_counter()
            response = await f(self, request)
            if request.path == "/query":
                add_sample("serve.handle_ms", (time.perf_counter() - t0) * 1e3)
            return response

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    _patch(TessServer, "_dispatch", dispatch)

    def encoded(result, dt, args, kwargs):
        add_sample("serve.encode_part_ms", dt * 1e3)

    for fn in ("json_response", "render_response"):
        _patch_everywhere("repro.serve.protocol", fn,
                          lambda f: timed("serve.encode_s", f, encoded))


def snapshot() -> dict:
    """Current per-process numbers, JSON-ready."""
    with _lock:
        return {
            "time": {k: list(v) for k, v in TIME.items()},
            "count": dict(COUNT),
            "samples": {k: list(v) for k, v in SAMPLES.items()},
        }


def dump(path: str, extra: dict | None = None) -> None:
    data = snapshot()
    if extra:
        data.update(extra)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(data, f)
    os.replace(tmp, path)
