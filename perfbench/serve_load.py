"""Serve workload: a ``repro-serve serve`` process and a one-connection
closed-loop client.

The catalog (2 snapshots of clustered points, 4 blocks each) is published
through the program's ``CatalogStore`` before any timing.  Snapshot 0 is
made from the seed.  Snapshot 1 is the same on every run: ``minkowski``
answers wrongly on it (fault (b), see the README), which it does on most
but not all seeded catalogs, so the Minkowski query goes to snapshot 1
only and the failed share is the same in every run.  One round is the
other four ops on both snapshots plus ``minkowski`` on snapshot 1; the
client sends the next query only when the previous reply has arrived, on
one keep-alive connection of its own (not ``repro.serve.client``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))

BOX = 16.0
POINTS = 1500
BLOCKS = 4
SNAPSHOTS = 2
OPS = ("voids", "components", "halos", "profile", "minkowski")
#: seed of the snapshot that does not depend on --seed
FIXED_SEED = 0
#: server launches per run; set-up is their median
SETUPS = 3


def clustered_points(rng: np.random.Generator, n: int, box: float):
    """Half uniform background, half Gaussian clumps of ~150 points."""
    n_bg = n // 2
    nclumps = max(1, (n - n_bg) // 150)
    centers = rng.uniform(0.0, box, size=(nclumps, 3))
    sizes = np.full(nclumps, (n - n_bg) // nclumps)
    sizes[: (n - n_bg) - sizes.sum()] += 1
    clumps = [c + rng.normal(scale=box / 30.0, size=(m, 3))
              for c, m in zip(centers, sizes)]
    pts = np.concatenate([rng.uniform(0.0, box, size=(n_bg, 3))] + clumps)
    return checks.wrap(pts, box), centers


def build_catalog(root: str, seed: int) -> list[dict]:
    """Publish the snapshots; returns per-step inputs for the checks."""
    from repro.core import tessellate
    from repro.diy.bounds import Bounds
    from repro.serve.store import CatalogStore

    shutil.rmtree(root, ignore_errors=True)
    store = CatalogStore(root)
    snaps = []
    for step in range(SNAPSHOTS):
        rng = np.random.default_rng([1, seed] if step == 0 else FIXED_SEED)
        points, centers = clustered_points(rng, POINTS, BOX)
        # A ghost zone of half the box puts every periodic neighbor of
        # every cell in its block, so the catalog itself is exact (a
        # narrower ghost zone hits fault (a), see the README); the serve
        # workload measures the read path, not tess.
        tess = tessellate(points, Bounds.cube(BOX), nblocks=BLOCKS,
                          ghost=BOX / 2)
        store.publish(step, tess)
        snaps.append({"step": step, "points": points, "center": centers[0]})
    store.close()
    return snaps


def queries(snaps: list[dict]) -> list[dict]:
    """One round: each op once on each snapshot, Minkowski on the fixed
    snapshot only."""
    out = []
    for s in snaps:
        mean_vol = BOX**3 / POINTS
        for op in OPS:
            if op == "minkowski" and s["step"] == 0:
                continue
            q = {"op": op, "step": s["step"]}
            if op == "components":
                q["vmin"] = 1.5 * mean_vol
            elif op == "profile":
                q.update(center=[float(c) for c in s["center"]],
                         rmax=BOX / 4, nbins=16)
            out.append(q)
    return out


# ----------------------------------------------------------------------
# a minimal keep-alive HTTP/1.1 client
# ----------------------------------------------------------------------
class Connection:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        self.sock.sendall(head + body)
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, self.buf = self.buf.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            k, _, v = line.partition(":")
            if k.strip().lower() == "content-length":
                length = int(v.strip())
        while len(self.buf) < length:
            self._fill()
        body, self.buf = self.buf[:length], self.buf[length:]
        return status, body

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def close(self) -> None:
        self.sock.close()


# ----------------------------------------------------------------------
# server lifecycle
# ----------------------------------------------------------------------
class Server:
    def __init__(self, root: str, catalog: str, env: dict, stats: str | None):
        cmd = [sys.executable, os.path.join(HERE, "launch_serve.py")]
        if stats:
            cmd += ["--trace", stats]
        cmd += ["--", "serve", catalog, "--port", "0"]
        self.stats = stats
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if " on " not in line:
            self.stop()
            raise RuntimeError(f"repro-serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        self.conn = Connection(self.port)
        status, _ = self.conn.request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        return 0.0

    def dump_stats(self) -> dict:
        """Ask the traced server for its numbers so far."""
        if os.path.exists(self.stats):
            os.unlink(self.stats)
        self.proc.send_signal(signal.SIGUSR1)
        for _ in range(1000):
            if os.path.exists(self.stats):
                with open(self.stats) as f:
                    return json.load(f)
            time.sleep(0.01)
        raise RuntimeError("traced server wrote no stats")

    def stop(self) -> None:
        if getattr(self, "conn", None) is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_round(conn: Connection, round_: list[dict]) -> list[tuple[float, int, bytes]]:
    out = []
    for q in round_:
        body = json.dumps(q).encode()
        t0 = time.perf_counter()
        status, resp = conn.request("POST", "/query", body)
        out.append(((time.perf_counter() - t0) * 1e3, status, resp))
    return out


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check_response(q: dict, status: int, body: bytes, snap: dict,
                   mesh: checks.PeriodicMesh) -> tuple[list[str], str | None]:
    """Problems of one reply, and ``"b"`` if they are exactly fault (b)'s:
    a ``minkowski`` reply right in everything but some chi."""
    if status != 200:
        return [f"HTTP {status}"], None
    resp = json.loads(body)
    op = q["op"]
    if op == "voids":
        return checks.check_voids_response(resp, mesh, 0.1, 20), None
    if op == "components":
        return checks.check_components_response(
            resp, mesh, q["vmin"], None, 20), None
    if op == "halos":
        return checks.check_halos_response(
            resp, snap["points"], BOX, 0.2, 8, 20), None
    if op == "profile":
        return checks.check_profile(resp, snap["points"], BOX, q["center"],
                                    q["rmax"], q["nbins"], mesh), None
    problems = checks.check_minkowski_response(resp, mesh, 0.1, 8)
    fault = "b" if checks.is_fault_b(status, resp, mesh, 0.1, 8) else None
    return problems, fault


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def run(seed: int, seconds: float, trace: bool, root: str, env: dict) -> dict:
    work = os.path.join(root, ".bench_work", "serve")
    catalog = os.path.join(work, "catalog")
    snaps = build_catalog(catalog, seed)
    round_ = queries(snaps)
    stats = os.path.join(work, "server-stats.json") if trace else None

    setups = []
    server = None
    try:
        for i in range(SETUPS):
            server = Server(root, catalog, env, stats)
            run_round(server.conn, round_)  # warm pass
            setups.append(time.perf_counter() - server.t_launch)
            if i < SETUPS - 1:
                server.stop()
                server = None
        before = server.dump_stats() if trace else None
        results = []
        rounds = []
        t0 = time.perf_counter()
        while not rounds or time.perf_counter() - t0 < seconds:
            t_round = time.perf_counter()
            res = run_round(server.conn, round_)
            rounds.append(time.perf_counter() - t_round)
            results.extend(res)
        after = server.dump_stats() if trace else None
        peak = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    # Checks, outside the timed loop; identical replies are checked once.
    meshes = {s["step"]: checks.periodic_mesh(s["points"], BOX) for s in snaps}
    by_step = {s["step"]: s for s in snaps}
    verdicts: dict[str, tuple[list[str], str | None]] = {}
    problems = set()
    failed = 0
    correct = True
    lat = {op: [] for op in OPS}
    for i, (ms, status, body) in enumerate(results):
        q = round_[i % len(round_)]
        lat[q["op"]].append(ms)
        key = hashlib.sha1(json.dumps(q).encode() + body).hexdigest()
        if key not in verdicts:
            try:
                verdicts[key] = check_response(
                    q, status, body, by_step[q["step"]], meshes[q["step"]]
                )
            except Exception as exc:  # noqa: BLE001 - a malformed reply
                verdicts[key] = [f"reply unreadable ({exc!r})"], None
        found, fault = verdicts[key]
        if found:
            failed += 1
            correct = correct and fault is not None
            label = f"fault ({fault})" if fault else "unexpected"
            problems.add(f"{q['op']}@{q['step']}: {found[0]} [{label}]")
    e2e = {"setup_s": _median(setups), "wall_s": _median(rounds),
           "peak_rss_mb": peak}
    layers = {}
    if trace:
        layers = _layers(before, after, results)
        layers["serve.qps"] = len(results) / sum(rounds)
        for op in OPS:
            layers[f"serve.latency_ms.{op}"] = _median(lat[op])
    shutil.rmtree(work, ignore_errors=True)
    return {"e2e": e2e, "layers": layers, "attempted": len(results),
            "failed": failed, "problems": sorted(problems),
            "correct": correct,
            "rounds": len(rounds)}


def _layers(before: dict, after: dict, results) -> dict:
    """Per-layer numbers of the timed loop (the difference of the two
    server dumps)."""

    def new_samples(key):
        return after["samples"].get(key, [])[len(before["samples"].get(key, [])):]

    def new_count(key):
        return after["count"].get(key, 0) - before["count"].get(key, 0)

    out = {}
    for op in OPS:
        out[f"serve.kernel_ms.{op}"] = _median(new_samples(f"serve.kernel_ms.{op}"))
    # block loads happen during set-up (cold cache), so take all of them
    out["serve.block_load_ms"] = _median(after["samples"].get("serve.block_load_ms", []))
    out["serve.block_loads"] = after["count"].get("serve.block_loads", 0)
    lookups = new_count("serve.cache_lookups")
    out["serve.cache_hit_ratio"] = new_count("serve.cache_hits") / lookups if lookups else 0.0
    out["serve.queue_ms"] = _median(new_samples("serve.queue_ms"))
    enc = new_samples("serve.encode_part_ms")
    out["serve.encode_ms"] = sum(enc) / len(results) if results else 0.0
    handle = new_samples("serve.handle_ms")
    n = min(len(handle), len(results))
    out["serve.overhead_ms"] = _median(
        [results[i][0] - handle[i] for i in range(n)]
    )
    return out
