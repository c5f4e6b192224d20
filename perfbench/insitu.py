"""In situ workloads: ``repro-sim`` decks run as their own processes.

Each deck run is one round of operations (one operation = one tool fire).
The run is timed from outside: set-up from process launch to the start
of the first simulation step, wall time from there to process exit.
Outputs are checked afterwards, outside every timed region, against the
independent references of :mod:`checks`.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))

#: Both decks keep one simulation seed whatever ``--seed`` says.  The cost
#: of a deck depends on the realization far more than on run-to-run noise
#: (on the halo deck, seed 1 gives 581 halos and 7.9 s of wall time, seed
#: 2 gives 492 halos and 6.0 s), and fault (a) reaches different fires at
#: different seeds (at some also step 4), so a seeded deck would measure
#: the universe rather than the program and change the failed share.
FIXED_SEED = 0

#: per workload: simulation section, tools, expected failures
WORKLOADS = {
    "insitu-voids": {
        "simulation": {"np_side": 24, "nsteps": 6},
        "tools": [
            {"tool": "tessellation", "every": 2,
             "params": {"ghost": 2.5, "output_pattern": "tess_{step}.tess"}},
            {"tool": "void_finder", "every": 2, "params": {"ghost": 2.5}},
            {"tool": "tracking", "every": 2, "params": {"ghost": 2.5}},
        ],
        "snapshot_every": 2,
        # fault (a): the particle ids of the cells of each step's
        # tessellation that come out too large (the same at 1 and 2 ranks)
        "fault_a_cells": {6: {388, 9382}},
    },
    "insitu-halos": {
        "simulation": {"np_side": 32, "nsteps": 24},
        "tools": [
            {"tool": "halo_finder", "every": 2,
             "params": {"linking_length": 0.2, "min_members": 10}},
            {"tool": "statistics", "every": 1},
        ],
        "snapshot_every": 1,
        "positions_every": 2,
        "fault_a_cells": {},
    },
}


def make_deck(workload: str) -> dict:
    spec = WORKLOADS[workload]
    sim = dict(spec["simulation"], seed=FIXED_SEED)
    snap = {
        "tool": "bench_snapshot",
        "every": spec["snapshot_every"],
        "params": {
            "last_step": sim["nsteps"],
            "positions_every": spec.get("positions_every", spec["snapshot_every"]),
        },
    }
    return {"simulation": sim, "tools": spec["tools"] + [snap]}


def run_deck(workdir: str, deck: dict, ranks: int, backend: str, trace: bool,
             env: dict) -> dict:
    """Launch one deck; returns timings, per-rank records and stdout."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    deck_path = os.path.join(workdir, "deck.json")
    with open(deck_path, "w") as f:
        json.dump(deck, f)
    cmd = [sys.executable, os.path.join(HERE, "launch_sim.py"), workdir]
    if trace:
        cmd.append("--trace")
    cmd += ["--", deck_path, "--ranks", str(ranks), "--exec-backend", backend]
    t_launch = time.time()
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                          text=True, timeout=170)
    t_end = time.time()
    if proc.returncode != 0:
        raise RuntimeError(
            f"repro-sim exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    rank_recs = [
        _load_json(p) for p in sorted(glob.glob(os.path.join(workdir, "rank*.json")))
    ]
    parent = _load_json(os.path.join(workdir, "parent.json"))
    first = min(r["first_step_t"] for r in rank_recs)
    tess_bytes = sum(
        os.path.getsize(p) for p in glob.glob(os.path.join(workdir, "*.tess"))
    )
    return {
        "setup_s": first - t_launch,
        "wall_s": t_end - first,
        "peak_rss_mb": max([parent["peak_rss_mb"]]
                           + [r["peak_rss_mb"] for r in rank_recs]),
        "output_mb": tess_bytes / 1e6,
        "snapshot_s": max(r.get("snapshot_s", 0.0) for r in rank_recs),
        "ranks": rank_recs,
    }


def _load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
class MeshCache:
    """Exact meshes keyed by a hash of the particle positions and of the
    reference code.  The decks are fixed, so the same inputs come back in
    every deck run and every run: each mesh is computed once per checkout
    and kept under ``directory`` (``.bench_build/meshes``)."""

    _CODE = hashlib.sha1(open(checks.__file__, "rb").read()).hexdigest()

    def __init__(self, directory: str):
        self.directory = directory
        self._meshes = {}

    def get(self, positions: np.ndarray, box: float) -> checks.PeriodicMesh:
        h = hashlib.sha1(self._CODE.encode())
        h.update(np.float64(box).tobytes())
        h.update(np.ascontiguousarray(positions, dtype=np.float64).tobytes())
        key = h.hexdigest()
        if key not in self._meshes:
            path = os.path.join(self.directory, key + ".npz")
            try:
                with np.load(path) as z:
                    mesh = checks.PeriodicMesh(**{k: z[k] for k in z.files})
            except (OSError, ValueError, TypeError):
                mesh = checks.periodic_mesh(positions, box)
                os.makedirs(self.directory, exist_ok=True)
                tmp = f"{path}.{os.getpid()}.tmp"
                with open(tmp, "wb") as f:
                    np.savez(f, **vars(mesh))
                os.replace(tmp, path)
            self._meshes[key] = mesh
        return self._meshes[key]


def _particles(workdir: str, step: int) -> tuple[np.ndarray, np.ndarray]:
    """All ranks' particles at ``step``, ordered by id."""
    pos, ids = [], []
    for p in sorted(glob.glob(os.path.join(workdir, f"pos_{step:04d}_r*.npz"))):
        with np.load(p) as z:
            pos.append(z["positions"])
            ids.append(z["ids"])
    pos = np.concatenate(pos)
    ids = np.concatenate(ids).astype(np.int64)
    order = np.argsort(ids, kind="stable")
    return pos[order], ids[order]


def _results(workdir: str, step: int) -> dict:
    with open(os.path.join(workdir, f"res_{step:04d}.pkl"), "rb") as f:
        return pickle.load(f)


def _tess_cells(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Site ids and volumes of every kept cell in a tess file.

    The file is decoded with the program's reader; the values it yields
    are compared against the independent reference."""
    from repro.core.tess_io import read_blocks

    blocks, _ = read_blocks(path)
    return (
        np.concatenate([b.site_ids for b in blocks]).astype(np.int64),
        np.concatenate([b.volumes for b in blocks]).astype(float),
    )


def _tracked(tree, step: int) -> list[tuple[int, int, float]]:
    """Unique (label, size, volume) rows the merger tree holds for ``step``."""
    a = tree.arrays
    rows = {}
    for s, lab, size, vol in zip(a["track_steps"], a["track_labels"],
                                 a["track_sizes"], a["track_volumes"]):
        if int(s) == step:
            rows[int(lab)] = (int(lab), int(size), float(vol))
    return list(rows.values())


def check_deck(deck: dict, workdir: str, cache: MeshCache,
               fault_a_cells: dict[int, set[int]]) -> tuple[int, list[tuple]]:
    """Check every tool fire of one deck run.

    Returns ``(attempted, problems)``; each problem is ``(fire, message,
    fault)`` with ``fire`` as ``tool@step`` and ``fault`` either ``"a"``,
    when the failure has exactly the signature of fault (a) (the cells of
    ``fault_a_cells[step]`` too large and nothing else wrong), or None.
    """
    sim = deck["simulation"]
    n = sim["np_side"] ** 3
    box = float(sim["np_side"])
    problems: list[tuple] = []
    attempted = 0
    tools = {t["tool"]: t for t in deck["tools"] if t["tool"] != "bench_snapshot"}
    for step in range(1, sim["nsteps"] + 1):
        firing = [name for name, t in tools.items() if step % t["every"] == 0]
        if not firing:
            continue
        attempted += len(firing)
        try:
            res = _results(workdir, step)
        except OSError:
            res = {}
        part = None
        if glob.glob(os.path.join(workdir, f"pos_{step:04d}_r*.npz")):
            pos, ids = _particles(workdir, step)
            bad = checks.check_particles(ids, n)
            part = (pos, ids)
        else:
            bad = []
        for name in firing:
            fire = f"{name}@{step}"
            if bad:
                problems.append((fire, bad[0], None))
                continue
            try:
                found, fault = _check_fire(
                    name, tools[name], step, res, part, workdir, box, sim,
                    cache, fault_a_cells.get(step, set()),
                )
            except Exception as exc:  # noqa: BLE001 - a missing or malformed output
                found, fault = [f"output unreadable ({exc!r})"], None
            if found:
                problems.append((fire, found[0], fault))
    return attempted, problems


def _check_fire(name, tool, step, res, part, workdir, box, sim, cache,
                fault_a: set[int]) -> tuple[list[str], str | None]:
    """Problems of one fire, and ``"a"`` if they are fault (a)'s alone."""
    params = tool.get("params", {})
    if name == "statistics":
        h = res["statistics"]
        ng = sim.get("ng") or sim["np_side"]
        return checks.check_histogram(h.n_samples, h.mean, h.counts, ng), None
    if name == "halo_finder":
        cat = res["halo_finder"]
        spacing = box / sim["np_side"]
        pos, ids = part
        return checks.check_halos(
            [h.members for h in cat.halos], pos, ids, box,
            params.get("linking_length", 0.2) * spacing,
            params.get("min_members", 10),
        ), None
    pos, ids = part
    mesh = cache.get(pos, box)
    site_ids, volumes = _tess_cells(os.path.join(workdir, f"tess_{step}.tess"))
    fault = None
    if fault_a and checks.is_fault_a(site_ids, volumes, mesh.volumes, fault_a):
        fault = "a"
    if name == "tessellation":
        return checks.check_cells(site_ids, volumes, mesh.volumes), fault
    kept = np.unique(site_ids)
    if name == "void_finder":
        cat = res["void_finder"]

        def check(vols):
            return checks.check_void_catalog(
                [(v.site_ids, v.volume) for v in cat.voids], cat.vmin, mesh,
                kept, params.get("vmin_fraction", 0.1), vols,
            )
    elif name == "tracking":
        def check(vols):
            return checks.check_tracking_step(
                _tracked(res["tracking"], step), mesh, kept,
                params.get("vmin_quantile", 0.85), vols,
            )
    else:
        return [f"no check for tool {name}"], None
    found = check(None)
    if found and fault:
        # Fault (a) explains the output only if the output is exactly what
        # the exact Delaunay edges give with the tool's own cell volumes.
        own = mesh.volumes.copy()
        own[site_ids] = volumes
        if check(own):
            fault = None
    return found, fault


# ----------------------------------------------------------------------
# per-layer metrics from the traced ranks
# ----------------------------------------------------------------------
_RANK_MAX_TIMES = [
    "hacc.step_s", "hacc.ic_s", "core.tessellate_s", "core.write_s",
    "geometry.triangulate_s", "diy.ghost_exchange_s", "diy.collective_s",
    "analysis.components_s", "analysis.voids_s", "analysis.tracking_s",
    "analysis.fof_s",
]
TOOLS = ["tessellation", "void_finder", "tracking", "halo_finder", "statistics"]


def layer_metrics(ranks: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced deck run (max over ranks, or sum
    where a layer's total work is meant)."""

    def tmax(key):
        return max(r.get("time", {}).get(key, [0.0, 0])[0] for r in ranks)

    def cmax(key):
        return max(r.get("count", {}).get(key, 0) for r in ranks)

    def csum(key):
        return sum(r.get("count", {}).get(key, 0) for r in ranks)

    out = {k: tmax(k) for k in _RANK_MAX_TIMES}
    for tool in TOOLS:
        out[f"insitu.{tool}_s"] = tmax(f"insitu.{tool}_s")
    out["insitu.fires"] = cmax("insitu.fires")
    out["core.tessellations"] = cmax("core.tessellations")
    out["core.cells_kept"] = csum("core.cells_kept")
    out["geometry.voronoi_s"] = max(
        r.get("time", {}).get("geometry.voronoi_total_s", [0.0])[0]
        - r.get("count", {}).get("geometry.triangulate_in_voronoi_s", 0.0)
        for r in ranks
    )
    tri = csum("geometry.points_triangulated")
    owned = csum("core.owned_points")
    out["geometry.points_triangulated"] = tri
    out["geometry.ghost_ratio"] = tri / owned if owned else 0.0
    comm = [r.get("comm", {}) for r in ranks]
    out["diy.recv_wait_s"] = max(c.get("recv_wait_s", 0.0) for c in comm)
    out["diy.sent_mb"] = sum(c.get("bytes_sent", 0) for c in comm) / 1e6
    out["diy.rank0_recv_mb"] = comm[0].get("bytes_recv", 0) / 1e6
    out["diy.messages"] = sum(c.get("msgs_sent", 0) for c in comm)
    out["analysis.voids"] = cmax("analysis.voids")
    out["analysis.halos"] = cmax("analysis.halos")
    return out


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run(workload: str, seconds: float, trace: bool, root: str, env: dict,
        ranks: int = 2, backend: str = "process") -> dict:
    deck = make_deck(workload)
    workdir = os.path.join(root, ".bench_work", workload)
    runs = []
    attempted = failed = 0
    all_problems: list[tuple] = []
    fault_a_cells = WORKLOADS[workload]["fault_a_cells"]
    cache = MeshCache(os.path.join(root, ".bench_build", "meshes"))
    measured = 0.0  # deck run time only; checks are not measured
    while not runs or measured < seconds:
        t0 = time.perf_counter()
        rec = run_deck(workdir, deck, ranks, backend, trace, env)
        measured += time.perf_counter() - t0
        n, problems = check_deck(deck, workdir, cache, fault_a_cells)
        attempted += n
        failed += len(problems)
        all_problems.extend(problems)
        rec["layers"] = layer_metrics(rec["ranks"]) if trace else {}
        runs.append(rec)
    shutil.rmtree(workdir, ignore_errors=True)
    med = {k: statistics.median(r[k] for r in runs)
           for k in ("setup_s", "wall_s", "peak_rss_mb")}
    layers = {}
    if trace:
        for k in runs[0]["layers"]:
            layers[k] = statistics.median(r["layers"][k] for r in runs)
        layers["core.output_mb"] = statistics.median(r["output_mb"] for r in runs)
    snap = statistics.median(r["snapshot_s"] for r in runs)
    return {"e2e": med, "layers": layers, "attempted": attempted,
            "failed": failed, "problems": _describe(all_problems),
            "note": f"bench_snapshot: {snap:.3f} s of each deck run's wall "
                    f"(median over deck runs, max over ranks)",
            "correct": all(fault for _, _, fault in all_problems),
            "rounds": len(runs)}


def _describe(problems: list[tuple]) -> list[str]:
    """One line per distinct problem, naming the fault it is put down to."""
    return sorted({
        f"{fire}: {msg}" + (f" [fault ({fault})]" if fault else " [unexpected]")
        for fire, msg, fault in problems
    })
