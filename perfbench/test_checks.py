"""Tests for the benchmark's output checkers.

Each checker must accept the independent reference and reject a
corrupted copy of it.  Run from the checkout root with::

    python3 -m pytest perfbench/test_checks.py -q
"""

import os
import sys

import numpy as np
import pytest
from scipy.spatial import ConvexHull, Voronoi

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

BOX = 6.0


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(7).uniform(0.0, BOX, size=(216, 3))


@pytest.fixture(scope="module")
def mesh(points):
    return checks.periodic_mesh(points, BOX)


def test_volumes_match_brute_force_voronoi(points, mesh):
    n = len(points)
    shifts = [np.array(s) - 1 for s in np.ndindex(3, 3, 3)]
    images = np.concatenate([points + s * BOX for s in shifts])
    vor = Voronoi(images)
    centre = next(i for i, s in enumerate(shifts) if not s.any()) * n
    brute = np.array([
        ConvexHull(vor.vertices[vor.regions[vor.point_region[centre + i]]]).volume
        for i in range(n)
    ])
    np.testing.assert_allclose(mesh.volumes, brute, rtol=1e-10)
    assert mesh.volumes.sum() == pytest.approx(BOX**3, rel=1e-12)


def test_whole_torus_and_single_cell_euler_characteristic(mesh):
    n = len(mesh.volumes)
    assert checks.euler_characteristic(mesh, np.arange(n)) == 0
    assert checks.euler_characteristic(mesh, np.array([0])) == 2


def test_cells_accept_exact_and_reject_scaled_volume(mesh):
    ids = np.arange(len(mesh.volumes))
    assert checks.check_cells(ids, mesh.volumes.copy(), mesh.volumes) == []
    bad = mesh.volumes.copy()
    bad[5] *= 1 + 1e-6
    assert checks.check_cells(ids, bad, mesh.volumes)
    dup = np.concatenate([ids, ids[:1]])
    vols = np.concatenate([mesh.volumes, mesh.volumes[:1]])
    assert checks.check_cells(dup, vols, mesh.volumes)
    assert checks.check_cells(ids[1:], mesh.volumes[1:], mesh.volumes)


def test_fault_a_signature_needs_exactly_the_known_cells_too_large(mesh):
    ids = np.arange(len(mesh.volumes))
    vols = mesh.volumes.copy()
    vols[[3, 9]] += [0.03, 2e-4]
    assert checks.cells_off(ids, vols, mesh.volumes)[0].tolist() == [3, 9]
    assert checks.is_fault_a(ids, vols, mesh.volumes, {3, 9})
    assert not checks.is_fault_a(ids, vols, mesh.volumes, {3})
    assert not checks.is_fault_a(ids, mesh.volumes, mesh.volumes, {3, 9})
    small = vols.copy()
    small[9] = mesh.volumes[9] - 2e-4
    assert not checks.is_fault_a(ids, small, mesh.volumes, {3, 9})
    assert not checks.is_fault_a(ids[1:], vols[1:], mesh.volumes, {3, 9})


def test_void_catalog_accepts_reference_and_rejects_wrong_volume(mesh):
    kept = np.arange(len(mesh.volumes))
    v = mesh.volumes
    vmin = v.min() + 0.1 * (v.max() - v.min())
    ref = checks.expected_voids(mesh, kept, vmin)
    voids = [(g, float(v[g].sum())) for g in ref]
    assert checks.check_void_catalog(voids, vmin, mesh, kept, 0.1) == []
    voids[0] = (voids[0][0], voids[0][1] * (1 + 1e-6))
    assert checks.check_void_catalog(voids, vmin, mesh, kept, 0.1)
    # the same catalog is right for cell volumes with that one void's
    # first cell larger by the same amount
    grown = v.copy()
    grown[voids[0][0][0]] += float(v[voids[0][0]].sum()) * 1e-6
    assert checks.check_void_catalog(voids, vmin, mesh, kept, 0.1, grown) == []


def test_tracking_step_accepts_reference(mesh):
    kept = np.arange(len(mesh.volumes))
    vmin = float(np.quantile(mesh.volumes, 0.85))
    ref = checks.expected_voids(mesh, kept, vmin)
    rows = [(i, len(g), float(mesh.volumes[g].sum())) for i, g in enumerate(ref)]
    assert checks.check_tracking_step(rows, mesh, kept, 0.85) == []
    rows[0] = (0, rows[0][1] + 1, rows[0][2])
    assert checks.check_tracking_step(rows, mesh, kept, 0.85)


def test_halos_accept_fof_and_reject_mass_off_by_one():
    rng = np.random.default_rng(3)
    centres = rng.uniform(0, BOX, size=(6, 3))
    pts = checks.wrap(np.concatenate(
        [c + rng.normal(scale=0.05, size=(30, 3)) for c in centres]
        + [rng.uniform(0, BOX, size=(200, 3))]), BOX)
    ids = np.arange(len(pts)) + 1000
    ref = checks.fof_groups(pts, BOX, 0.2, 10)
    assert len(ref) >= 5
    halos = [ids[g] for g in ref]
    assert checks.check_halos(halos, pts, ids, BOX, 0.2, 10) == []
    halos[0] = halos[0][:-1]
    assert checks.check_halos(halos, pts, ids, BOX, 0.2, 10)
    resp = {"num_halos": len(ref), "halos": [{"mass": len(g)} for g in ref]}
    spacing = (BOX**3 / len(pts)) ** (1 / 3)
    b = 0.2 / spacing
    assert checks.check_halos_response(resp, pts, BOX, b, 10, 20) == []
    resp["halos"][0]["mass"] += 1
    assert checks.check_halos_response(resp, pts, BOX, b, 10, 20)


def test_minkowski_accepts_reference_and_rejects_chi_off_by_two(mesh):
    v = mesh.volumes
    kept = np.arange(len(v))
    vmin = v.min() + 0.1 * (v.max() - v.min())
    ref = checks.expected_voids(mesh, kept, vmin)
    ref.sort(key=lambda g: -float(v[g].sum()))
    rows = [{"cells": len(g), "V": float(v[g].sum()),
             "chi": checks.euler_characteristic(mesh, g)} for g in ref[:8]]
    resp = {"num_voids": len(ref), "functionals": rows}
    assert checks.check_minkowski_response(resp, mesh, 0.1, 8) == []
    assert not checks.is_fault_b(200, resp, mesh, 0.1, 8)
    rows[0]["chi"] += 2
    assert checks.check_minkowski_response(resp, mesh, 0.1, 8)
    assert checks.is_fault_b(200, resp, mesh, 0.1, 8)
    assert not checks.is_fault_b(500, resp, mesh, 0.1, 8)
    rows[0]["V"] *= 1 + 1e-6
    assert not checks.is_fault_b(200, resp, mesh, 0.1, 8)
    rows[0]["V"] = float(v[ref[0]].sum())
    resp["num_voids"] += 1
    assert not checks.is_fault_b(200, resp, mesh, 0.1, 8)


def test_profile_accepts_shell_histogram_and_rejects_extra_count(points, mesh):
    centre, rmax, nbins = [1.0, 2.0, 3.0], 2.5, 8
    counts, (sel, b) = checks.shell_counts(points, BOX, centre, rmax, nbins)
    volsum = np.bincount(b, weights=mesh.volumes[sel], minlength=nbins)
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = np.where(volsum > 0, counts / volsum, 0.0)
    resp = {"counts": counts.tolist(), "density": dens.tolist()}
    assert checks.check_profile(resp, points, BOX, centre, rmax, nbins, mesh) == []
    resp["counts"][1] += 1
    assert checks.check_profile(resp, points, BOX, centre, rmax, nbins, mesh)


def test_components_and_voids_responses(mesh):
    v = mesh.volumes
    mask = v >= np.median(v)
    groups = checks.components(len(v), mesh.edges, mask)
    resp = {"num_components": len(groups), "num_cells": int(mask.sum()),
            "largest": [len(g) for g in groups][:20]}
    assert checks.check_components_response(resp, mesh, np.median(v), None, 20) == []
    resp["largest"][0] += 1
    assert checks.check_components_response(resp, mesh, np.median(v), None, 20)

    vmin = v.min() + 0.1 * (v.max() - v.min())
    ref = checks.expected_voids(mesh, np.arange(len(v)), vmin)
    rows = sorted(((len(g), float(v[g].sum())) for g in ref), key=lambda t: -t[1])
    resp = {"vmin": vmin, "num_voids": len(ref),
            "total_volume": sum(x for _, x in rows),
            "voids": [{"num_cells": c, "volume": x} for c, x in rows[:20]]}
    assert checks.check_voids_response(resp, mesh, 0.1, 20) == []
    resp["total_volume"] *= 1 + 1e-6
    assert checks.check_voids_response(resp, mesh, 0.1, 20)


def test_histogram_and_particle_checks():
    assert checks.check_histogram(8**3, 0.0, [8**3], 8) == []
    assert checks.check_histogram(8**3 - 1, 0.0, [8**3 - 1], 8)
    assert checks.check_histogram(8**3, 1e-3, [8**3], 8)
    assert checks.check_particles(np.arange(10)[::-1], 10) == []
    assert checks.check_particles(np.array([0, 1, 1]), 3)
