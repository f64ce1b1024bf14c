"""Attention-to-mesh projection: interpolation identities, subdivision
counting oracles, an exhaustive pixel-scan check, and OBJ round trips."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from visage.attention import (
    FaceMesh,
    average_over_dataset,
    bilinear_sample,
    colormap_rgb,
    export_obj,
    load_grid,
    load_landmarks,
    load_mesh,
    load_obj,
    mean_grids,
    subdivide_once,
    triangle_areas,
    triangle_attention,
    upsample_bilinear,
    validate_grid,
)
from visage.errors import AnalysisError, DataError


def looped_triangle_attention(mesh, amap):
    """One triangle at a time: its bounding box, edge functions and mean."""
    size = amap.shape[0]
    values = np.empty(mesh.n_triangles)
    for k, tri in enumerate(mesh.triangles):
        pts = mesh.landmarks2d[tri]
        min_xy, max_xy = pts.min(axis=0), pts.max(axis=0)
        c0 = max(0, int(np.floor(min_xy[0] - 0.5)))
        c1 = min(size - 1, int(np.ceil(max_xy[0] - 0.5)))
        r0 = max(0, int(np.floor(min_xy[1] - 0.5)))
        r1 = min(size - 1, int(np.ceil(max_xy[1] - 0.5)))
        cx, cy = np.meshgrid(np.arange(c0, c1 + 1) + 0.5, np.arange(r0, r1 + 1) + 0.5)

        def edge(p, q):
            return (q[0] - p[0]) * (cy - p[1]) - (q[1] - p[1]) * (cx - p[0])

        e0, e1, e2 = edge(pts[0], pts[1]), edge(pts[1], pts[2]), edge(pts[2], pts[0])
        inside = ((e0 >= 0) & (e1 >= 0) & (e2 >= 0)) | ((e0 <= 0) & (e1 <= 0) & (e2 <= 0))
        if inside.any():
            values[k] = amap[r0 : r1 + 1, c0 : c1 + 1][inside].mean()
        else:
            centroid = pts.mean(axis=0)
            values[k] = bilinear_sample(amap, centroid[0], centroid[1], frame=float(size))
    return values


def looped_export_obj(mesh, values):
    """OBJ bytes written one line at a time."""
    lo, hi = float(values.min()), float(values.max())
    normalized = (values - lo) / (hi - lo) if hi > lo else np.full(values.shape, 0.5)
    colors = colormap_rgb(normalized)
    lines = ["# visage attention surface", "# colormap viridis", f"# triangles {mesh.n_triangles}"]
    for k, tri in enumerate(mesh.triangles):
        r, g, b = colors[k]
        for vi in tri:
            x, y, z = mesh.vertices[vi]
            lines.append(f"v {x:.6f} {y:.6f} {z:.6f} {r:.4f} {g:.4f} {b:.4f}")
    lines.extend(f"f {3 * k + 1} {3 * k + 2} {3 * k + 3}" for k in range(mesh.n_triangles))
    return ("\n".join(lines) + "\n").encode("utf-8")


def per_corner_export_obj(mesh, values):
    """OBJ bytes with every corner's six numbers %-formatted in place."""
    lo, hi = float(values.min()), float(values.max())
    normalized = (values - lo) / (hi - lo) if hi > lo else np.full(values.shape, 0.5)
    colors = colormap_rgb(normalized)
    header = f"# visage attention surface\n# colormap viridis\n# triangles {mesh.n_triangles}\n"
    corners = np.hstack(
        [mesh.vertices[mesh.triangles].reshape(-1, 3), np.repeat(colors, 3, axis=0)]
    )
    vertex_lines = ("v %.6f %.6f %.6f %.4f %.4f %.4f\n" * len(corners)) % tuple(
        corners.ravel().tolist()
    )
    face_lines = ("f %d %d %d\n" * mesh.n_triangles) % tuple(range(1, 3 * mesh.n_triangles + 1))
    return (header + vertex_lines + face_lines).encode("utf-8")


def looped_subdivide_once(mesh):
    """Midpoints numbered through a dict, one triangle at a time."""
    vertices = list(mesh.vertices)
    landmarks = list(mesh.landmarks2d)
    midpoint = {}

    def mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in midpoint:
            midpoint[key] = len(vertices)
            vertices.append((vertices[a] + vertices[b]) / 2.0)
            landmarks.append((landmarks[a] + landmarks[b]) / 2.0)
        return midpoint[key]

    children = []
    for a, b, c in mesh.triangles:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        children += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    return FaceMesh(np.array(vertices), np.array(children), np.array(landmarks))


def jittered_lattice_mesh(frame, seed=29):
    """A jittered 8x8-quad lattice filling ``frame``, plus two sub-pixel
    slivers: 130 triangles on a curved surface."""
    rng = np.random.default_rng(seed)
    k = 8
    step = frame * 0.85 / k
    jj, ii = np.meshgrid(np.arange(k + 1), np.arange(k + 1))
    x = frame * 0.075 + step * (jj + rng.uniform(-0.3, 0.3, jj.shape))
    y = frame * 0.075 + step * (ii + rng.uniform(-0.3, 0.3, ii.shape))
    lm = np.column_stack([x.ravel(), y.ravel()])
    tris = []
    for i in range(k):
        for j in range(k):
            a, b = i * (k + 1) + j, i * (k + 1) + j + 1
            tris += [(a, b, b + k + 1), (a, b + k + 1, a + k + 1)]
    sliver = frame * np.array([(0.02, 0.03), (0.024, 0.031), (0.022, 0.034)])
    lm = np.vstack([lm, sliver, sliver[::-1] + frame * 0.9])
    v = len(lm) - 6
    tris += [(v, v + 1, v + 2), (v + 3, v + 4, v + 5)]
    u = (lm - frame / 2) / frame
    verts = np.column_stack([u, 0.4 * np.exp(-(u**2).sum(axis=1))])
    return FaceMesh(verts, np.array(tris), lm)


def jittered_face_mesh(frame, seed=29):
    """The jittered lattice subdivided twice: 2,080 triangles."""
    return subdivide_once(subdivide_once(jittered_lattice_mesh(frame, seed)))


def flat_mesh(landmarks, triangles):
    """Planar mesh in z=0 whose vertices sit at their landmarks."""
    lm = np.asarray(landmarks, dtype=float)
    verts = np.column_stack([lm, np.zeros(len(lm))])
    return FaceMesh(verts, np.asarray(triangles, dtype=int), lm)


class TestBilinear:
    def test_hand_value_center_of_2x2(self):
        """Frame 2 puts cell centers at 0.5/1.5; the frame midpoint
        (1,1) is the average of all four cells."""
        grid = [[0.0, 1.0], [2.0, 3.0]]
        got = bilinear_sample(grid, 1.0, 1.0, frame=2.0)
        np.testing.assert_allclose(got, 1.5)

    def test_corner_clamps_to_corner_cell(self):
        grid = [[0.0, 1.0], [2.0, 3.0]]
        assert bilinear_sample(grid, 0.0, 0.0, frame=2.0) == 0.0
        assert bilinear_sample(grid, 2.0, 2.0, frame=2.0) == 3.0

    def test_one_cell_grid_is_constant(self):
        got = bilinear_sample([[0.7]], [0.0, 50.0, 112.0], [3.0, 60.0, 100.0])
        np.testing.assert_array_equal(got, [0.7, 0.7, 0.7])
        assert bilinear_sample([[0.7]], 5.0, 5.0) == 0.7

    def test_grid_nodes_reproduced_exactly(self):
        """Cell (i, j) of a 7-grid in the 112 frame is centered at
        (16j + 8, 16i + 8); the interpolant must return the cell value
        there."""
        rng = np.random.default_rng(3)
        grid = rng.random((7, 7))
        for i in range(7):
            for j in range(7):
                got = bilinear_sample(grid, 16 * j + 8.0, 16 * i + 8.0)
                np.testing.assert_allclose(got, grid[i, j], rtol=1e-14)

    def test_constant_grid_constant_map(self):
        up = upsample_bilinear(np.full((7, 7), 0.37))
        assert up.shape == (112, 112)
        np.testing.assert_array_equal(up, np.full((112, 112), 0.37))

    def test_monotone_rows_from_monotone_grid(self):
        up = upsample_bilinear(np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert np.all(np.diff(up, axis=1) >= 0.0)

    def test_bounds_preserved(self):
        rng = np.random.default_rng(5)
        grid = rng.random((7, 7))
        up = upsample_bilinear(grid)
        assert up.min() >= grid.min() - 1e-15
        assert up.max() <= grid.max() + 1e-15

    def test_negative_weight_rejected(self):
        with pytest.raises(DataError):
            validate_grid([[0.1, -0.2], [0.3, 0.4]])

    def test_non_square_rejected(self):
        with pytest.raises(DataError):
            validate_grid(np.ones((2, 3)))

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            validate_grid([[np.nan]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        grid = [[0.0, 1.0], [2.0, 3.0]]
        with pytest.raises(DataError, match="coordinates must be finite"):
            bilinear_sample(grid, [1.0, bad], 1.0, frame=2.0)
        with pytest.raises(DataError, match="coordinates must be finite"):
            bilinear_sample(grid, 1.0, bad, frame=2.0)


class TestSubdivision:
    def test_single_triangle_counts(self):
        mesh = flat_mesh([(0, 0), (40, 0), (0, 40)], [(0, 1, 2)])
        child = subdivide_once(mesh)
        assert child.n_triangles == 4
        assert child.n_vertices == 6

    def test_counting_oracle_on_grid_meshes(self):
        """4T triangles and V+E vertices, E counted from the unique
        undirected edge set."""
        rng = np.random.default_rng(7)
        for m in (2, 3, 5):
            pts = [(16.0 * i + 8, 16.0 * j + 8) for i in range(m) for j in range(m)]
            tris = []
            for i in range(m - 1):
                for j in range(m - 1):
                    a = i * m + j
                    tris.append((a, a + 1, a + m))
                    tris.append((a + 1, a + m + 1, a + m))
            mesh = flat_mesh(pts, tris)
            child = subdivide_once(mesh)
            edges = set()
            for a, b, c in mesh.triangles:
                for u, v in ((a, b), (b, c), (c, a)):
                    edges.add((min(u, v), max(u, v)))
            assert child.n_triangles == 4 * mesh.n_triangles
            assert child.n_vertices == mesh.n_vertices + len(edges)
            rng.shuffle(tris)  # edge sharing must not depend on order

    def test_total_area_preserved(self):
        rng = np.random.default_rng(11)
        verts = rng.normal(size=(10, 3))
        lm = np.abs(rng.normal(40, 10, (10, 2)))
        tris = np.array([(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8), (8, 9, 0)])
        mesh = FaceMesh(verts, tris, lm)
        child = subdivide_once(mesh)
        np.testing.assert_allclose(
            triangle_areas(child).sum(), triangle_areas(mesh).sum(), rtol=1e-12
        )

    def test_original_vertices_kept_in_place(self):
        mesh = flat_mesh([(0, 0), (40, 0), (0, 40), (40, 40)], [(0, 1, 2), (1, 3, 2)])
        child = subdivide_once(mesh)
        np.testing.assert_array_equal(child.vertices[:4], mesh.vertices)
        np.testing.assert_array_equal(child.landmarks2d[:4], mesh.landmarks2d)

    def test_shared_edge_midpoint_created_once(self):
        mesh = flat_mesh([(0, 0), (40, 0), (0, 40), (40, 40)], [(0, 1, 2), (1, 3, 2)])
        child = subdivide_once(mesh)
        # V=4, E=5 (edge 1-2 shared), so 9 vertices, not 10
        assert child.n_vertices == 9

    def test_orientation_preserved(self):
        mesh = flat_mesh([(0, 0), (40, 0), (0, 40)], [(0, 1, 2)])
        child = subdivide_once(mesh)
        p = child.vertices[child.triangles]
        signed = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])[:, 2]
        assert np.all(signed > 0)  # parent is counterclockwise in z=0

    def test_zero_area_triangle_warns(self, caplog):
        mesh = flat_mesh([(0, 0), (20, 20), (40, 40)], [(0, 1, 2)])
        with caplog.at_level(logging.WARNING):
            child = subdivide_once(mesh)
        assert child.n_triangles == 4
        assert any("zero-area" in rec.message for rec in caplog.records)

    def test_matches_dict_loop_twice_subdivided(self):
        """Same vertices, triangles, landmarks and OBJ bytes as the
        per-triangle dict loop, on a jittered mesh with slivers and
        triangles listed in shuffled order."""
        mesh = jittered_lattice_mesh(112.0)
        rng = np.random.default_rng(5)
        shuffled = FaceMesh(
            mesh.vertices, mesh.triangles[rng.permutation(mesh.n_triangles)], mesh.landmarks2d
        )
        for parent in (mesh, shuffled):
            fast = subdivide_once(subdivide_once(parent))
            slow = looped_subdivide_once(looped_subdivide_once(parent))
            np.testing.assert_array_equal(fast.vertices, slow.vertices)
            np.testing.assert_array_equal(fast.triangles, slow.triangles)
            np.testing.assert_array_equal(fast.landmarks2d, slow.landmarks2d)
            scores = rng.uniform(size=fast.n_triangles)
            assert export_obj(fast, scores) == export_obj(slow, scores)

    def test_landmarks_interpolate_linearly(self):
        mesh = flat_mesh([(0, 0), (40, 0), (0, 40)], [(0, 1, 2)])
        child = subdivide_once(mesh)
        mids = {tuple(lm) for lm in child.landmarks2d[3:]}
        assert mids == {(20.0, 0.0), (20.0, 20.0), (0.0, 20.0)}


def oracle_triangle_mean(amap, pts):
    """Barycentric pixel scan over the whole frame.

    Solves for barycentric coordinates directly instead of reusing the
    implementation's edge functions. Vertices off the half-integer
    lattice keep pixel centers off the triangle boundary, so the
    inclusive/exclusive choice cannot matter.
    """
    size = amap.shape[0]
    p0, p1, p2 = (np.asarray(p, dtype=float) for p in pts)
    basis = np.column_stack([p1 - p0, p2 - p0])
    inv = np.linalg.inv(basis)
    centers = np.arange(size) + 0.5
    cx, cy = np.meshgrid(centers, centers)
    rel = np.stack([cx - p0[0], cy - p0[1]])
    lam = np.einsum("ij,jrc->irc", inv, rel)
    inside = (lam[0] >= 0) & (lam[1] >= 0) & (lam[0] + lam[1] <= 1)
    assert inside.any()
    return float(amap[inside].mean())


class TestTriangleAttention:
    def test_constant_map_any_geometry(self):
        rng = np.random.default_rng(13)
        lm = rng.uniform(5, 107, (9, 2))
        tris = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
        mesh = flat_mesh(lm, tris)
        scores = triangle_attention(mesh, np.full((112, 112), 2.5))
        np.testing.assert_allclose(scores, 2.5, rtol=1e-12)

    def test_ramp_orders_left_right(self):
        amap = np.tile(np.arange(112.0), (112, 1))
        mesh = flat_mesh(
            [(0, 0), (112, 0), (112, 112), (0, 112)],
            [(0, 1, 3), (1, 2, 3)],  # left-leaning and right-leaning halves
        )
        scores = triangle_attention(mesh, amap)
        assert scores[0] < scores[1]

    def test_pixel_scan_oracle_large_triangle(self):
        rng = np.random.default_rng(17)
        amap = rng.random((112, 112))
        pts = [(10.3, 12.7), (97.1, 25.4), (55.6, 93.2)]
        mesh = flat_mesh(pts, [(0, 1, 2)])
        got = triangle_attention(mesh, amap)[0]
        np.testing.assert_allclose(got, oracle_triangle_mean(amap, pts), rtol=1e-12)

    def test_subpixel_triangle_centroid_fallback(self):
        rng = np.random.default_rng(19)
        amap = rng.random((112, 112))
        pts = np.array([(8.2, 8.2), (8.4, 8.2), (8.3, 8.4)])
        mesh = flat_mesh(pts, [(0, 1, 2)])
        got = triangle_attention(mesh, amap)[0]
        centroid = pts.mean(axis=0)
        expect = bilinear_sample(amap, centroid[0], centroid[1], frame=112.0)
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_out_of_frame_landmarks_rejected(self):
        mesh = flat_mesh([(0, 0), (130, 0), (0, 40)], [(0, 1, 2)])
        with pytest.raises(DataError):
            triangle_attention(mesh, np.ones((112, 112)))

    def test_accepts_coarse_grid_frame(self):
        """A 7x7 map works directly when landmarks live in [0, 7]."""
        grid = np.arange(49.0).reshape(7, 7)
        mesh = flat_mesh([(1.1, 1.1), (5.9, 1.3), (3.2, 5.8)], [(0, 1, 2)])
        scores = triangle_attention(mesh, grid)
        assert grid.min() <= scores[0] <= grid.max()

    @pytest.mark.parametrize("size", [7, 112])
    def test_matches_per_triangle_loop(self, size):
        """Vectorised rasterisation against the triangle-at-a-time loop,
        with both covered and centroid-fallback triangles."""
        mesh = jittered_face_mesh(float(size))
        amap = np.random.default_rng(31).random((size, size))
        expect = looped_triangle_attention(mesh, amap)
        got = triangle_attention(mesh, amap)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)
        centroids = mesh.landmarks2d[mesh.triangles].mean(axis=1)
        fallback = expect == bilinear_sample(amap, centroids[:, 0], centroids[:, 1], frame=size)
        assert 0 < fallback.sum() < mesh.n_triangles

    def test_projection_of_mean_map_is_mean_of_projections(self):
        mesh = jittered_face_mesh(112.0)
        rng = np.random.default_rng(37)
        maps = [upsample_bilinear(rng.random((7, 7))) for _ in range(2)] + [rng.random((112, 112))]
        each = [triangle_attention(mesh, m) for m in maps]
        np.testing.assert_allclose(
            triangle_attention(mesh, mean_grids(maps)),
            np.mean(each, axis=0),
            rtol=0,
            atol=1e-12,
        )


class TestDatasetAverage:
    def test_single_image_identity(self):
        scores = np.array([0.1, 0.9, 0.4])
        out = average_over_dataset([scores])
        np.testing.assert_array_equal(out, scores)

    def test_mirror_pair_means_to_center(self):
        s = np.array([0.1, 0.5, 0.9])
        c = 0.3
        out = average_over_dataset([s, -s + 2 * c])
        np.testing.assert_allclose(out, c, rtol=1e-12)

    def test_copies_idempotent(self):
        s = np.array([0.2, 0.7])
        out = average_over_dataset([s] * 5)
        np.testing.assert_allclose(out, s, rtol=1e-12)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            average_over_dataset([np.zeros(2), np.zeros(3)])

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            average_over_dataset([])

    def test_mean_grids(self):
        a = np.zeros((7, 7))
        b = np.ones((7, 7))
        np.testing.assert_array_equal(mean_grids([a, b]), np.full((7, 7), 0.5))
        with pytest.raises(DataError):
            mean_grids([a, np.ones((6, 6))])
        with pytest.raises(AnalysisError):
            mean_grids([])


class TestObjExport:
    def test_single_triangle_line_counts(self):
        mesh = flat_mesh([(0, 0), (40, 0), (0, 40)], [(0, 1, 2)])
        text = export_obj(mesh, np.array([0.5])).decode()
        lines = text.splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 3
        assert sum(1 for l in lines if l.startswith("f ")) == 1

    def test_constant_scores_colormap_midpoint(self):
        """Constant scores normalize to 0.5; position 0.5 lands exactly
        on ramp anchor 16 of 33."""
        mesh = flat_mesh(
            [(0, 0), (40, 0), (0, 40), (40, 40)], [(0, 1, 2), (1, 3, 2)]
        )
        text = export_obj(mesh, np.array([2.0, 2.0])).decode()
        mid = colormap_rgb(np.array(0.5))
        suffix = f"{mid[0]:.4f} {mid[1]:.4f} {mid[2]:.4f}"
        v_lines = [l for l in text.splitlines() if l.startswith("v ")]
        assert len(v_lines) == 6
        assert all(l.endswith(suffix) for l in v_lines)

    def test_reexport_byte_identical(self):
        rng = np.random.default_rng(23)
        mesh = flat_mesh(rng.uniform(5, 107, (6, 2)), [(0, 1, 2), (3, 4, 5)])
        scores = rng.random(2)
        assert export_obj(mesh, scores) == export_obj(mesh, scores)

    def test_bytes_match_line_by_line_writer(self):
        mesh = jittered_face_mesh(112.0)
        scores = np.random.default_rng(41).random(mesh.n_triangles)
        assert export_obj(mesh, scores) == looped_export_obj(mesh, scores)
        flat = np.full(mesh.n_triangles, 0.3)
        assert export_obj(mesh, flat) == looped_export_obj(mesh, flat)

    def test_bytes_match_per_corner_formatting(self):
        """Shared vertices, constant scores, and coordinates that are
        negative, -0.0 or round to -0.000000."""
        mesh = jittered_face_mesh(112.0)
        scores = np.random.default_rng(43).random(mesh.n_triangles)
        assert export_obj(mesh, scores) == per_corner_export_obj(mesh, scores)
        flat = np.full(mesh.n_triangles, 0.3)
        assert export_obj(mesh, flat) == per_corner_export_obj(mesh, flat)
        signed = FaceMesh(
            [(-0.0, 0.0, -1.5), (-2e-7, -0.0, 3.25), (1.0, -4e-7, -0.0), (-7.0, 2.0, 1e-9)],
            [(0, 1, 2), (1, 3, 2), (0, 3, 1)],
            [(0, 0), (40, 0), (0, 40), (40, 40)],
        )
        text = export_obj(signed, np.array([-1.0, 0.0, 2.0]))
        assert text == per_corner_export_obj(signed, np.array([-1.0, 0.0, 2.0]))
        assert b"v -0.000000 0.000000 -1.500000 " in text

    def test_roundtrip_through_strict_loader(self, tmp_path):
        mesh = flat_mesh(
            [(0, 0), (40, 0), (0, 40), (40, 40)], [(0, 1, 2), (1, 3, 2)]
        )
        path = tmp_path / "m.obj"
        path.write_bytes(export_obj(mesh, np.array([0.1, 0.9])))
        verts, tris = load_obj(path)
        assert verts.shape == (6, 3)  # duplicated per face
        np.testing.assert_array_equal(tris, [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_allclose(verts[0], mesh.vertices[0], atol=1e-6)

    def test_misaligned_scores_rejected(self):
        mesh = flat_mesh([(0, 0), (40, 0), (0, 40)], [(0, 1, 2)])
        with pytest.raises(DataError):
            export_obj(mesh, np.array([0.1, 0.2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        """A NaN score would paint every face the ramp midpoint, and an
        infinite one would index the ramp far out of range."""
        mesh = flat_mesh([(0, 0), (40, 0), (0, 40), (40, 40)], [(0, 1, 2), (1, 3, 2)])
        with pytest.raises(DataError, match="scores must be finite"):
            export_obj(mesh, np.array([0.1, bad]))
        with pytest.raises(DataError, match="must be finite"):
            colormap_rgb(np.array([0.5, bad]))

    def test_overflowing_score_range_normalised(self):
        """Finite scores whose range overflows a double map to the ramp's
        ends and midpoint, with no overflow warning (pytest turns one into
        an error)."""
        mesh = flat_mesh(
            [(0, 0), (40, 0), (0, 40), (40, 40)], [(0, 1, 2), (1, 3, 2), (0, 3, 1)]
        )
        text = export_obj(mesh, np.array([-1e308, 1e308, 0.0])).decode()
        ends = colormap_rgb(np.array([0.0, 1.0, 0.5]))
        colors = [" ".join(line.split()[4:]) for line in text.splitlines()[3:12:3]]
        assert colors == [f"{r:.4f} {g:.4f} {b:.4f}" for r, g, b in ends]
        largest = np.finfo(float).max
        text = export_obj(mesh, np.array([-largest, largest, -largest])).decode()
        assert " ".join(text.splitlines()[6].split()[4:]) == "%.4f %.4f %.4f" % tuple(ends[1])

    def test_colormap_endpoints_and_range(self):
        rgb = colormap_rgb(np.array([0.0, 0.5, 1.0]))
        assert rgb.shape == (3, 3)
        assert np.all((rgb >= 0.0) & (rgb <= 1.0))
        assert not np.allclose(rgb[0], rgb[2])


class TestLoaders:
    def test_obj_index_forms(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text(
            "# comment\n"
            "o thing\n"
            "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
            "f 1 2 3\nf 1/4 2/5 3/6\nf 1/1/1 2/2/2 3/3/3\n"
        )
        verts, tris = load_obj(path)
        assert verts.shape == (3, 3)
        np.testing.assert_array_equal(tris, [[0, 1, 2]] * 3)

    def test_obj_vertex_colors_accepted(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("v 0 0 0 0.5 0.5 0.5\nv 1 0 0 0.5 0.5 0.5\nv 0 1 0 0.5 0.5 0.5\nf 1 2 3\n")
        verts, _ = load_obj(path)
        assert verts.shape == (3, 3)

    def test_obj_quad_face_rejected(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4\n")
        with pytest.raises(DataError):
            load_obj(path)

    def test_obj_unknown_directive_rejected(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("curv 0 0 0\n")
        with pytest.raises(DataError):
            load_obj(path)

    def test_obj_dangling_index_rejected(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 4\n")
        with pytest.raises(DataError, match="line 5: face references vertex 4, the mesh has 3"):
            load_obj(path)

    def test_landmarks_roundtrip_with_header(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("vertex_index,x,y\n0,8.0,8.0\n2,24.0,8.0\n1,16.0,16.0\n")
        lm = load_landmarks(path, 3)
        np.testing.assert_array_equal(lm, [(8, 8), (16, 16), (24, 8)])

    def test_landmarks_missing_vertex_rejected(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("0,8.0,8.0\n1,16.0,16.0\n")
        with pytest.raises(DataError):
            load_landmarks(path, 3)

    def test_landmarks_duplicate_rejected(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("0,8.0,8.0\n0,16.0,16.0\n")
        with pytest.raises(DataError):
            load_landmarks(path, 2)

    def test_load_mesh_combined(self, tmp_path):
        obj = tmp_path / "m.obj"
        obj.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        lmc = tmp_path / "lm.csv"
        lmc.write_text("0,8,8\n1,24,8\n2,16,24\n")
        mesh = load_mesh(obj, lmc)
        assert mesh.n_triangles == 1
        np.testing.assert_array_equal(mesh.landmarks2d, [(8, 8), (24, 8), (16, 24)])

    def test_load_grid_csv(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0.1,0.2\n0.3,0.4\n")
        np.testing.assert_allclose(load_grid(path), [[0.1, 0.2], [0.3, 0.4]])

    def test_load_grid_rejects_ragged(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0.1,0.2\n0.3\n")
        with pytest.raises(DataError, match="line 2"):
            load_grid(path)


class TestMeshValidation:
    def test_triangle_index_out_of_range(self):
        with pytest.raises(DataError):
            FaceMesh(np.zeros((3, 3)), np.array([[0, 1, 3]]), np.zeros((3, 2)))

    def test_landmark_shape_mismatch(self):
        with pytest.raises(DataError):
            FaceMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]), np.zeros((2, 2)))

    def test_nonfinite_vertex(self):
        verts = np.zeros((3, 3))
        verts[0, 0] = np.inf
        with pytest.raises(DataError):
            FaceMesh(verts, np.array([[0, 1, 2]]), np.zeros((3, 2)))
