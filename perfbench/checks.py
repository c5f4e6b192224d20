"""Independent reference computations and the output checkers built on them.

Nothing here imports the program: every reference is computed from the
raw inputs (particle positions, generated points) with numpy and scipy
alone, so a fault in the program's geometry or analysis cannot hide in
its own reference.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay, cKDTree

#: relative tolerance on every Voronoi volume
VOLUME_RTOL = 1e-9


def _close(a, b, rtol: float = VOLUME_RTOL) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))


def wrap(points: np.ndarray, box: float) -> np.ndarray:
    """Points folded into ``[0, box)`` (``np.mod`` may return ``box``)."""
    p = np.mod(np.asarray(points, dtype=float), box)
    p[p >= box] -= box
    return p


# ----------------------------------------------------------------------
# exact periodic Voronoi / Delaunay
# ----------------------------------------------------------------------
@dataclass
class PeriodicMesh:
    """Exact periodic Delaunay complex and Voronoi cell volumes.

    All indices are point indices into the input array.  ``tets`` holds
    every periodic Delaunay tetrahedron once (sorted index rows); ``edges``
    and ``triangles`` are their unique faces.
    """

    volumes: np.ndarray
    tets: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    pad: float


def _circumcenters(a, b, c, d) -> np.ndarray:
    """Circumcenters of tetrahedra given as (m, 3) vertex arrays."""
    u, v, w = b - a, c - a, d - a
    uu = (u * u).sum(1)[:, None]
    vv = (v * v).sum(1)[:, None]
    ww = (w * w).sum(1)[:, None]
    num = uu * np.cross(v, w) + vv * np.cross(w, u) + ww * np.cross(u, v)
    den = 2.0 * np.einsum("ij,ij->i", u, np.cross(v, w))[:, None]
    return a + num / den


def _tri_circumcenters(a, b, c) -> np.ndarray:
    """Circumcenters of triangles in 3-D."""
    u, v = b - a, c - a
    n = np.cross(u, v)
    nn = (n * n).sum(1)[:, None]
    num = (u * u).sum(1)[:, None] * np.cross(v, n) + (v * v).sum(1)[
        :, None
    ] * np.cross(n, u)
    return a + num / (2.0 * nn)


def _parity(perm) -> int:
    """+1 for an even permutation of ``range(len(perm))``, -1 for odd."""
    sign, p = 1, list(perm)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def _unique_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Unique rows of a small-integer array (entries in ``[0, n)``)."""
    k = rows.shape[1]
    if float(n) ** k >= 2.0**62:
        return np.unique(rows, axis=0)
    key = np.zeros(len(rows), dtype=np.int64)
    for j in range(k):
        key = key * n + rows[:, j]
    _, first = np.unique(key, return_index=True)
    return rows[first]


def periodic_mesh(points: np.ndarray, box: float) -> PeriodicMesh:
    """Exact Voronoi volumes of a periodic point set in ``[0, box)^3``.

    The points are padded with periodic images out to a margin ``w``; the
    margin grows until every Delaunay tetrahedron touching an original
    point has its circumsphere inside the padded box, which certifies that
    the tetrahedron is a true periodic Delaunay simplex.  Cell volumes then
    come from the signed decomposition of each cell into the sub-simplices
    (site, edge midpoint, face circumcenter, tetrahedron circumcenter).
    """
    pts = wrap(points, box)
    n = len(pts)
    spacing = box / max(n, 1) ** (1.0 / 3.0)
    pad = min(2.5 * spacing, box)
    shifts = np.array(
        [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)
         if (i, j, k) != (0, 0, 0)],
        dtype=float,
    )
    while True:
        img_pts = [pts]
        img_ids = [np.arange(n)]
        for s in shifts:
            q = pts + s * box
            keep = np.all((q >= -pad) & (q <= box + pad), axis=1)
            img_pts.append(q[keep])
            img_ids.append(np.nonzero(keep)[0])
        allp = np.concatenate(img_pts)
        ids = np.concatenate(img_ids)
        tri = Delaunay(allp)
        simp = tri.simplices
        touch = (simp < n).any(axis=1)
        simp = simp[touch]
        v = allp[simp]
        cc = _circumcenters(v[:, 0], v[:, 1], v[:, 2], v[:, 3])
        r = np.linalg.norm(cc - v[:, 0], axis=1)[:, None]
        ok = np.all((cc - r >= -pad) & (cc + r <= box + pad))
        if ok or pad >= box:
            break
        pad = min(1.5 * pad, box)
    if not ok:
        raise ValueError("periodic padding could not certify the Delaunay mesh")

    # Face f of a tetrahedron is the one opposite vertex f; the cell of
    # vertex a gets, for each ordered pair (x, y) of the other vertices,
    # the signed sub-simplex (a, mid(a, x), center(face opp. z), center(T))
    # with z the fourth vertex, signed by the orientation of (a, x, y, z).
    fc = [_tri_circumcenters(*(v[:, k] for k in range(4) if k != f))
          for f in range(4)]
    d = v[:, 1:] - v[:, :1]
    orient = np.sign(np.einsum("ij,ij->i", d[:, 0], np.cross(d[:, 1], d[:, 2])))
    vols = np.zeros(n)
    for a in range(4):
        mine = simp[:, a] < n
        pa = v[mine, a]
        ca = cc[mine] - pa
        sub = np.zeros(len(pa))
        for x, y, z in permutations([k for k in range(4) if k != a]):
            sign = orient[mine] * _parity((a, x, y, z))
            cf = fc[z][mine] - pa
            sub += sign * np.einsum(
                "ij,ij->i", v[mine, x] - pa, np.cross(cf, ca)
            )
        vols += np.bincount(simp[mine, a], weights=sub / 12.0, minlength=n)

    tets = _unique_rows(np.sort(ids[simp], axis=1), n)
    triangles = _unique_rows(
        np.concatenate([tets[:, list(c)] for c in combinations(range(4), 3)]), n
    )
    edges = _unique_rows(
        np.concatenate([tets[:, list(c)] for c in combinations(range(4), 2)]), n
    )
    return PeriodicMesh(vols, tets, triangles, edges, pad)


# ----------------------------------------------------------------------
# components, voids, Euler characteristic, FOF
# ----------------------------------------------------------------------
def components(
    n: int, edges: np.ndarray, mask: np.ndarray
) -> list[np.ndarray]:
    """Connected components (sorted index arrays) of the points in
    ``mask`` over ``edges``, largest first."""
    sel = np.nonzero(mask)[0]
    if not len(sel):
        return []
    e = edges[mask[edges[:, 0]] & mask[edges[:, 1]]]
    g = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
    _, lab = connected_components(g, directed=False)
    lab = lab[sel]
    order = np.argsort(lab, kind="stable")
    cuts = np.nonzero(np.diff(lab[order]))[0] + 1
    groups = [sel[order][g] for g in np.split(np.arange(len(sel)), cuts)]
    groups.sort(key=lambda g: (-len(g), int(g[0])))
    return groups


def euler_characteristic(mesh: PeriodicMesh, members: np.ndarray) -> int:
    """Euler characteristic of the boundary surface of a union of cells.

    By the nerve theorem the union of the members' Voronoi cells has the
    homotopy type of the Delaunay subcomplex induced on the members, so
    the solid's characteristic is sites - edges + triangles - tets of that
    subcomplex, and its closed boundary surface has twice that.
    """
    inside = np.zeros(len(mesh.volumes), dtype=bool)
    inside[members] = True

    def count(simplices):
        return int(inside[simplices].all(axis=1).sum())

    solid = (
        len(members)
        - count(mesh.edges)
        + count(mesh.triangles)
        - count(mesh.tets)
    )
    return 2 * solid


def fof_groups(
    points: np.ndarray, box: float, linking_length: float, min_members: int
) -> list[np.ndarray]:
    """Periodic friends-of-friends groups (index arrays), largest first."""
    pts = wrap(points, box)
    n = len(pts)
    pairs = cKDTree(pts, boxsize=box).query_pairs(
        linking_length, output_type="ndarray"
    )
    g = coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
    )
    _, lab = connected_components(g, directed=False)
    sizes = np.bincount(lab)
    big = np.nonzero(sizes >= min_members)[0]
    groups = [np.nonzero(lab == b)[0] for b in big]
    groups.sort(key=lambda g: (-len(g), int(g[0])))
    return groups


# ----------------------------------------------------------------------
# checkers: in situ outputs
# ----------------------------------------------------------------------
def cells_off(
    site_ids: np.ndarray, volumes: np.ndarray, exact: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Site ids of the kept cells whose volume differs from exact, and by
    how much each is too large (negative: too small)."""
    site_ids = np.asarray(site_ids, dtype=np.int64)
    volumes = np.asarray(volumes, dtype=float)
    bad = ~_close(volumes, exact[site_ids])
    return site_ids[bad], volumes[bad] - exact[site_ids][bad]


def check_cells(
    site_ids: np.ndarray, volumes: np.ndarray, exact: np.ndarray
) -> list[str]:
    """Kept cells against exact volumes (indexed by particle id).

    Every particle's cell must be kept exactly once: a tessellation that
    drops cells does less work, and must not pass for it."""
    problems = []
    site_ids = np.asarray(site_ids, dtype=np.int64)
    n = len(exact)
    if len(site_ids) and (site_ids.min() < 0 or site_ids.max() >= n):
        return ["kept site id outside the particle range"]
    counts = np.bincount(site_ids, minlength=n)
    if (counts > 1).any():
        problems.append(f"{int((counts > 1).sum())} site(s) kept twice")
    if (counts == 0).any():
        problems.append(f"{int((counts == 0).sum())} of {n} cell(s) not kept")
    ids, diff = cells_off(site_ids, volumes, exact)
    if len(ids):
        problems.append(
            f"{len(ids)} cell volume(s) differ from exact "
            f"(worst by {np.max(np.abs(diff)):.3g})"
        )
    return problems


def is_fault_a(site_ids, volumes, exact: np.ndarray, known: set[int]) -> bool:
    """Whether a tessellation's only fault is fault (a): every cell kept
    once, and exactly the ``known`` cells too large (a particle beyond the
    ghost zone cuts them, but the cell was certified complete)."""
    site_ids = np.asarray(site_ids, dtype=np.int64)
    if len(site_ids) != len(exact) or not np.array_equal(
        np.sort(site_ids), np.arange(len(exact))
    ):
        return False
    ids, diff = cells_off(site_ids, volumes, exact)
    return set(ids.tolist()) == set(known) and bool((diff > 0).all())


def expected_voids(
    mesh: PeriodicMesh, kept: np.ndarray, vmin: float, min_cells: int = 1,
    volumes: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Components over Delaunay edges of kept cells with volume >= vmin
    (volumes by particle id; the exact ones unless given)."""
    v = mesh.volumes if volumes is None else volumes
    mask = np.zeros(len(v), dtype=bool)
    mask[kept] = v[kept] >= vmin
    return [g for g in components(len(mask), mesh.edges, mask)
            if len(g) >= min_cells]


def check_void_catalog(
    voids: list[tuple[np.ndarray, float]],
    vmin: float,
    mesh: PeriodicMesh,
    kept: np.ndarray,
    vmin_fraction: float,
    volumes: np.ndarray | None = None,
) -> list[str]:
    """A void catalog (member ids, volume per void) against the exact mesh.

    The threshold is recomputed from the exact volumes of the kept cells
    with the same fraction-of-range rule the tool applies.  With
    ``volumes`` (by particle id) the reference takes those cell volumes
    instead of the exact ones, and the exact Delaunay edges all the same.
    """
    problems = []
    v = mesh.volumes if volumes is None else volumes
    ev = v[kept]
    want_vmin = ev.min() + vmin_fraction * (ev.max() - ev.min())
    if not _close(vmin, want_vmin):
        problems.append(f"vmin {vmin!r} != exact {want_vmin!r}")
    want = expected_voids(mesh, kept, want_vmin, volumes=v)
    got = sorted(
        (tuple(np.sort(np.asarray(m, dtype=np.int64))), vol) for m, vol in voids
    )
    exp = sorted((tuple(g.tolist()), float(v[g].sum())) for g in want)
    if len(got) != len(exp):
        problems.append(f"{len(got)} voids, expected {len(exp)}")
        return problems
    if [m for m, _ in got] != [m for m, _ in exp]:
        problems.append("void membership differs from exact components")
        return problems
    if not _close([v for _, v in got], [v for _, v in exp]).all():
        problems.append("void volumes differ from exact sums")
    return problems


def check_tracking_step(
    labels: list[tuple[int, int, float]],
    mesh: PeriodicMesh,
    kept: np.ndarray,
    quantile: float,
    volumes: np.ndarray | None = None,
) -> list[str]:
    """One tracked step: ``(label, size, volume)`` per component against
    components of kept cells above the exact volume quantile (or above
    the quantile of ``volumes``, by particle id, when given)."""
    problems = []
    v = mesh.volumes if volumes is None else volumes
    vmin = float(np.quantile(v[kept], quantile))
    want = expected_voids(mesh, kept, vmin, volumes=v)
    exp = sorted((len(g), float(v[g].sum())) for g in want)
    got = sorted((size, vol) for _, size, vol in labels)
    if len(got) != len(exp):
        return [f"{len(got)} tracked components, expected {len(exp)}"]
    if [s for s, _ in got] != [s for s, _ in exp]:
        problems.append("tracked component sizes differ from exact")
    elif not _close([v for _, v in got], [v for _, v in exp]).all():
        problems.append("tracked component volumes differ from exact")
    return problems


def check_halos(
    halos: list[np.ndarray], points: np.ndarray, ids: np.ndarray, box: float,
    linking_length: float, min_members: int,
) -> list[str]:
    """Halo member-id arrays against periodic FOF of the particles."""
    ref = fof_groups(points, box, linking_length, min_members)
    want = sorted(len(g) for g in ref)
    got = sorted(len(h) for h in halos)
    if len(got) != len(want):
        return [f"{len(got)} halos, expected {len(want)}"]
    if got != want:
        return ["halo masses differ from periodic FOF"]
    ids = np.asarray(ids, dtype=np.int64)
    want_sets = sorted(tuple(np.sort(ids[g]).tolist()) for g in ref)
    got_sets = sorted(tuple(np.sort(np.asarray(h)).tolist()) for h in halos)
    if want_sets != got_sets:
        return ["halo membership differs from periodic FOF"]
    return []


def check_particles(ids: np.ndarray, n: int) -> list[str]:
    """Every particle id 0..n-1 present exactly once."""
    ids = np.sort(np.asarray(ids, dtype=np.int64))
    if len(ids) != n or not np.array_equal(ids, np.arange(n)):
        return [f"particle ids not conserved ({len(ids)} of {n})"]
    return []


def check_histogram(n_samples: int, mean: float, counts, ng: int) -> list[str]:
    problems = []
    if n_samples != ng**3 or int(np.sum(counts)) != ng**3:
        problems.append(f"histogram has {n_samples} samples, expected {ng ** 3}")
    if abs(mean) > 1e-9:
        problems.append(f"mean density contrast {mean!r} != 0")
    return problems


# ----------------------------------------------------------------------
# checkers: serve responses
# ----------------------------------------------------------------------
def shell_counts(
    points: np.ndarray, box: float, center, rmax: float, nbins: int
) -> tuple[np.ndarray, np.ndarray]:
    """Points per radial shell around ``center`` (periodic minimum image),
    and the indices of the points within ``rmax`` with their bin."""
    d = wrap(points, box) - np.asarray(center, dtype=float)
    d -= box * np.round(d / box)
    r = np.sqrt((d * d).sum(1))
    sel = np.nonzero(r < rmax)[0]
    b = np.minimum((r[sel] * nbins / rmax).astype(int), nbins - 1)
    return np.bincount(b, minlength=nbins), np.stack([sel, b])


def check_profile(resp: dict, points, box, center, rmax, nbins, mesh) -> list[str]:
    counts, (sel, b) = shell_counts(points, box, center, rmax, nbins)
    if list(resp.get("counts", [])) != counts.tolist():
        return ["profile counts differ from the shell histogram"]
    volsum = np.bincount(b, weights=mesh.volumes[sel], minlength=nbins)
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = np.where(volsum > 0, counts / volsum, 0.0)
    if not _close(resp.get("density", []), dens).all():
        return ["profile densities differ from exact cell volumes"]
    return []


def check_voids_response(resp: dict, mesh, vmin_fraction: float, top: int) -> list[str]:
    kept = np.arange(len(mesh.volumes))
    v = mesh.volumes
    want_vmin = v.min() + vmin_fraction * (v.max() - v.min())
    if not _close(resp.get("vmin"), want_vmin):
        return [f"vmin {resp.get('vmin')!r} != exact {want_vmin!r}"]
    want = expected_voids(mesh, kept, want_vmin)
    if resp.get("num_voids") != len(want):
        return [f"{resp.get('num_voids')} voids, expected {len(want)}"]
    vols = sorted((float(v[g].sum()) for g in want), reverse=True)
    if not _close(resp.get("total_volume"), sum(vols)):
        return ["void total volume differs from exact"]
    got = [(r["num_cells"], r["volume"]) for r in resp.get("voids", [])]
    exp_rows = sorted(((len(g), float(v[g].sum())) for g in want),
                      key=lambda t: -t[1])[:top]
    if [c for c, _ in got] != [c for c, _ in exp_rows] or not _close(
        [x for _, x in got], [x for _, x in exp_rows]
    ).all():
        return ["largest voids differ from exact components"]
    return []


def check_components_response(resp: dict, mesh, vmin, vmax, top: int) -> list[str]:
    v = mesh.volumes
    mask = np.ones(len(v), dtype=bool)
    if vmin is not None:
        mask &= v >= vmin
    if vmax is not None:
        mask &= v <= vmax
    want = components(len(v), mesh.edges, mask)
    sizes = [len(g) for g in want]
    if resp.get("num_components") != len(sizes):
        return [f"{resp.get('num_components')} components, expected {len(sizes)}"]
    if resp.get("num_cells") != int(mask.sum()):
        return ["component cell count differs"]
    if list(resp.get("largest", [])) != sizes[:top]:
        return ["largest component sizes differ"]
    return []


def check_halos_response(resp: dict, points, box, linking_fraction,
                         min_members, top: int) -> list[str]:
    spacing = (box**3 / len(points)) ** (1.0 / 3.0)
    ref = fof_groups(points, box, linking_fraction * spacing, min_members)
    if resp.get("num_halos") != len(ref):
        return [f"{resp.get('num_halos')} halos, expected {len(ref)}"]
    got = [h["mass"] for h in resp.get("halos", [])]
    if got != [len(g) for g in ref][:top]:
        return ["halo masses differ from periodic FOF"]
    return []


def minkowski_problems(resp: dict, mesh, vmin_fraction: float,
                       top: int) -> tuple[list[str], list[str]]:
    """A ``minkowski`` reply against the exact mesh, as two lists: what is
    wrong with the voids it reports (count, cells, V), and what is wrong
    with their Euler characteristics alone.

    V of each reported void must equal the exact void volume, and chi the
    Euler characteristic of the void's periodic Delaunay subcomplex."""
    v = mesh.volumes
    kept = np.arange(len(v))
    vmin = v.min() + vmin_fraction * (v.max() - v.min())
    want = expected_voids(mesh, kept, vmin)
    want.sort(key=lambda g: -float(v[g].sum()))
    rows = resp.get("functionals", [])
    if resp.get("num_voids") != len(want) or len(rows) != min(top, len(want)):
        return [f"{resp.get('num_voids')} voids, expected {len(want)}"], []
    shape, chi = [], []
    for i, (row, g) in enumerate(zip(rows, want)):
        if row.get("cells") != len(g) or not _close(
            row.get("V"), float(v[g].sum())
        ):
            shape.append(f"void {i}: cells or V differ from the exact void")
        want_chi = euler_characteristic(mesh, g)
        if row.get("chi") != want_chi:
            chi.append(f"void {i}: Minkowski chi {row.get('chi')} != {want_chi}")
    return shape, chi


def check_minkowski_response(resp: dict, mesh, vmin_fraction: float,
                             top: int) -> list[str]:
    shape, chi = minkowski_problems(resp, mesh, vmin_fraction, top)
    return shape + chi


def is_fault_b(status: int, resp: dict, mesh, vmin_fraction: float,
               top: int) -> bool:
    """Whether a ``minkowski`` reply's only fault is fault (b): a 200 reply
    with the right voids and every V right, but some chi wrong."""
    if status != 200:
        return False
    shape, chi = minkowski_problems(resp, mesh, vmin_fraction, top)
    return not shape and bool(chi)
