"""Projection of attention maps onto a face mesh.

A transformer's coarse attention grid (7x7 by default) is upsampled
bilinearly to the 112x112 image frame, each mesh triangle collects the
mean map value over the pixels whose centers it covers (projected
frontally, i.e. using the 2-d landmark positions directly), per-image
triangle scores are averaged across a dataset, and the result is
written as an OBJ surface with per-face colors through duplicated
vertices. Subdividing the mesh once before scoring refines the surface:
each triangle splits into four at its edge midpoints, and landmark
positions interpolate linearly.

Coordinates: a pixel (row r, column c) covers the unit square with
center (c + 0.5, r + 0.5); landmark x is the column axis and y the row
axis, both within [0, 112].
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._inputs import integer
from .errors import AnalysisError, DataError, reading

log = logging.getLogger(__name__)

IMAGE_SIZE = 112

# Perceptually uniform ramp (viridis), 33 anchors, linearly interpolated.
_VIRIDIS = np.array([
    (0.2670, 0.0049, 0.3294), (0.2770, 0.0503, 0.3757), (0.2823, 0.0950, 0.4173),
    (0.2829, 0.1359, 0.4534), (0.2788, 0.1755, 0.4834), (0.2706, 0.2141, 0.5071),
    (0.2590, 0.2515, 0.5247), (0.2450, 0.2877, 0.5373), (0.2297, 0.3224, 0.5457),
    (0.2143, 0.3556, 0.5512), (0.1994, 0.3876, 0.5546), (0.1856, 0.4186, 0.5568),
    (0.1727, 0.4488, 0.5579), (0.1607, 0.4785, 0.5581), (0.1490, 0.5081, 0.5573),
    (0.1378, 0.5375, 0.5549), (0.1276, 0.5669, 0.5506), (0.1206, 0.5964, 0.5436),
    (0.1206, 0.6258, 0.5335), (0.1323, 0.6550, 0.5197), (0.1579, 0.6838, 0.5017),
    (0.1966, 0.7118, 0.4792), (0.2461, 0.7389, 0.4520), (0.3041, 0.7647, 0.4199),
    (0.3692, 0.7889, 0.3829), (0.4401, 0.8111, 0.3410), (0.5160, 0.8312, 0.2943),
    (0.5958, 0.8487, 0.2433), (0.6785, 0.8637, 0.1895), (0.7624, 0.8764, 0.1371),
    (0.8456, 0.8873, 0.0997), (0.9261, 0.8973, 0.1041), (0.9932, 0.9062, 0.1439),
])


@dataclass(frozen=True)
class FaceMesh:
    """Triangle mesh with one 2-d landmark per vertex.

    ``vertices`` is (V, 3), ``triangles`` (T, 3) integer vertex indices,
    ``landmarks2d`` (V, 2) positions in the image frame. Triangle
    orientation is taken as given and preserved by subdivision.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    landmarks2d: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        t = np.asarray(self.triangles, dtype=int)
        lm = np.asarray(self.landmarks2d, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3:
            raise DataError("vertices must be (V, 3)")
        if t.ndim != 2 or t.shape[1] != 3:
            raise DataError("triangles must be (T, 3)")
        if lm.shape != (v.shape[0], 2):
            raise DataError("landmarks2d must be (V, 2)")
        if t.size and (t.min() < 0 or t.max() >= v.shape[0]):
            raise DataError("triangle index out of range")
        if not np.all(np.isfinite(v)) or not np.all(np.isfinite(lm)):
            raise DataError("non-finite vertex or landmark")
        for arr in (v, t, lm):
            arr.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "landmarks2d", lm)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def validate_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DataError(f"attention grid must be square, got {g.shape}")
    if not np.all(np.isfinite(g)) or np.any(g < 0):
        raise DataError("attention weights must be finite and non-negative")
    return g


def bilinear_sample(grid, x, y, frame: float = IMAGE_SIZE) -> np.ndarray:
    """Sample the cell-centered bilinear interpolant at (x, y).

    Grid cell (i, j) is centered at ((j + 0.5) * frame / G,
    (i + 0.5) * frame / G); between centers the surface is bilinear and
    beyond the outermost centers it clamps, so samples never leave the
    range of the grid values. At a cell center the interpolant
    reproduces that cell's value exactly. A non-finite coordinate
    raises DataError.
    """
    g = validate_grid(grid)
    size = g.shape[0]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("sample coordinates must be finite")
    sx = np.clip(x * size / frame - 0.5, 0.0, size - 1.0)
    sy = np.clip(y * size / frame - 0.5, 0.0, size - 1.0)
    if size == 1:
        return np.full(np.broadcast(sx, sy).shape, float(g[0, 0]))
    x0 = np.clip(np.floor(sx).astype(int), 0, size - 2)
    y0 = np.clip(np.floor(sy).astype(int), 0, size - 2)
    fx = sx - x0
    fy = sy - y0
    top = g[y0, x0] * (1 - fx) + g[y0, x0 + 1] * fx
    bottom = g[y0 + 1, x0] * (1 - fx) + g[y0 + 1, x0 + 1] * fx
    return top * (1 - fy) + bottom * fy


def upsample_bilinear(grid, out_size: int = IMAGE_SIZE) -> np.ndarray:
    """Upsample a grid to ``out_size`` x ``out_size`` pixels.

    Output pixel (r, c) holds the interpolant at the pixel center
    (c + 0.5, r + 0.5). Values stay within [grid.min(), grid.max()] and
    a constant grid maps to a constant image.
    """
    integer("out_size", out_size, low=1)
    centers = np.arange(out_size) + 0.5
    xs, ys = np.meshgrid(centers, centers)
    return bilinear_sample(grid, xs, ys, frame=float(out_size))


def triangle_areas(mesh: FaceMesh) -> np.ndarray:
    """Unsigned 3-d area per triangle."""
    p = mesh.vertices[mesh.triangles]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


def subdivide_once(mesh: FaceMesh) -> FaceMesh:
    """Split every triangle into four at its edge midpoints.

    Midpoints are shared between neighboring triangles, so the result
    has V + E vertices and 4T triangles, preserves total area exactly,
    and keeps each child's orientation equal to its parent's. Landmarks
    of new vertices are the midpoints of their edge's landmarks.
    Zero-area triangles subdivide like any other, with a warning. New
    vertices are numbered in order of their edge's first appearance,
    scanning triangles in order and each one's edges as ab, bc, ca.
    """
    degenerate = int(np.sum(triangle_areas(mesh) == 0.0))
    if degenerate:
        log.warning("subdividing %d zero-area triangle(s)", degenerate)

    tri = mesh.triangles
    n = mesh.n_vertices
    edges = np.sort(np.stack([tri, np.roll(tri, -1, axis=1)], axis=2).reshape(-1, 2), axis=1)
    keys = edges[:, 0] * n + edges[:, 1]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # unique edges in order of first appearance
    ab, bc, ca = (n + np.argsort(order)[inverse]).reshape(-1, 3).T
    a, b, c = tri.T
    children = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)

    lo, hi = edges[first[order]].T
    vertices = np.vstack([mesh.vertices, (mesh.vertices[lo] + mesh.vertices[hi]) / 2.0])
    landmarks = np.vstack([mesh.landmarks2d, (mesh.landmarks2d[lo] + mesh.landmarks2d[hi]) / 2.0])
    return FaceMesh(vertices, children, landmarks)


# Candidate pixels rasterised per pass; bounds memory for large triangles.
_PIXEL_BLOCK = 1 << 16


def _covered_pixel_sums(
    attn_map: np.ndarray, pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per triangle, the sum and the count of map values at covered pixel centers.

    ``pts`` is (T, 3, 2). A triangle's candidates are the pixels of its
    bounding box, clipped to the map, in row-major order; a center is
    covered when the three edge functions agree in sign (zero counts as
    either). All triangles are rasterised together, in passes of at most
    ``_PIXEL_BLOCK`` candidates (a larger single triangle takes a pass
    of its own).
    """
    size = attn_map.shape[0]
    lo = np.floor(pts.min(axis=1) - 0.5).astype(np.int64).clip(0, None)
    hi = np.ceil(pts.max(axis=1) - 0.5).astype(np.int64).clip(None, size - 1)
    width, height = (hi - lo + 1).clip(0, None).T
    n_candidates = width * height
    ends = np.cumsum(n_candidates)
    begins = ends - n_candidates

    sums = np.zeros(len(pts))
    counts = np.zeros(len(pts), dtype=np.int64)
    first = 0
    while first < len(pts):
        stop = max(first + 1, int(np.searchsorted(ends, begins[first] + _PIXEL_BLOCK, "right")))
        tri = np.repeat(np.arange(first, stop), n_candidates[first:stop])
        local = np.arange(begins[first], ends[stop - 1]) - begins[tri]
        rows = lo[tri, 1] + local // width[tri]
        cols = lo[tri, 0] + local % width[tri]
        cx, cy = cols[:, None] + 0.5, rows[:, None] + 0.5
        # Edge k runs from corner k to corner k + 1 (mod 3).
        x, y = pts[tri, :, 0], pts[tri, :, 1]
        edge = (np.roll(x, -1, axis=1) - x) * (cy - y) - (np.roll(y, -1, axis=1) - y) * (cx - x)
        inside = (edge >= 0).all(axis=1) | (edge <= 0).all(axis=1)
        tri, rows, cols = tri[inside], rows[inside], cols[inside]
        sums += np.bincount(tri, weights=attn_map[rows, cols], minlength=len(pts))
        counts += np.bincount(tri, minlength=len(pts))
        first = stop
    return sums, counts


def triangle_attention(mesh: FaceMesh, attn_map) -> np.ndarray:
    """The (T,) mean upsampled attention per triangle under frontal projection.

    Triangles whose footprint covers no pixel center fall back to a
    bilinear sample of the map at their centroid, so thin slivers still
    carry a well-defined score. Landmarks must be inside the map frame.
    The projection is linear in the map, so the mean of several images'
    scores is the score of their mean map.
    """
    amap = validate_grid(attn_map)
    size = amap.shape[0]
    lm = mesh.landmarks2d
    if lm.size and (lm.min() < 0.0 or lm.max() > size):
        raise DataError("landmarks fall outside the attention map frame")
    pts = lm[mesh.triangles]
    sums, counts = _covered_pixel_sums(amap, pts)
    values = np.empty(mesh.n_triangles)
    covered = counts > 0
    values[covered] = sums[covered] / counts[covered]
    centroid = pts[~covered].mean(axis=1)
    values[~covered] = bilinear_sample(amap, centroid[:, 0], centroid[:, 1], frame=float(size))
    return values


def average_over_dataset(per_image: Sequence[np.ndarray]) -> np.ndarray:
    """The mean of equal-length per-image triangle score arrays."""
    if not per_image:
        raise AnalysisError("no per-image attention to average")
    lengths = {np.size(scores) for scores in per_image}
    if len(lengths) != 1:
        raise DataError(f"triangle counts differ: {sorted(lengths)}")
    return np.mean(per_image, axis=0)


def mean_grids(grids: Sequence[np.ndarray]) -> np.ndarray:
    """Mean of equally shaped attention grids (e.g. attention heads)."""
    if not grids:
        raise AnalysisError("no grids to average")
    arrays = [validate_grid(g) for g in grids]
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise DataError(f"grid shapes differ: {sorted(shapes)}")
    return np.mean(arrays, axis=0)


def colormap_rgb(normalized: np.ndarray) -> np.ndarray:
    """Map values in [0, 1] through the built-in viridis ramp; values
    outside it are clipped, and a non-finite value raises DataError."""
    x = np.asarray(normalized, dtype=float)
    if not np.isfinite(x).all():
        raise DataError("colormap values must be finite")
    x = np.clip(x, 0.0, 1.0)
    pos = x * (len(_VIRIDIS) - 1)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, len(_VIRIDIS) - 1)
    frac = (pos - lo)[..., None]
    return _VIRIDIS[lo] * (1 - frac) + _VIRIDIS[hi] * frac


def export_obj(mesh: FaceMesh, scores: np.ndarray) -> bytes:
    """Serialize the mesh with per-face colors as OBJ bytes.

    Per-face color needs per-face vertices, so each triangle's corners
    are duplicated and carry the face color as the nonstandard but
    widely read ``v x y z r g b`` extension. Scores are min-max
    normalized through the viridis ramp; a constant score column maps
    everything to the ramp midpoint, and a non-finite score raises
    DataError. Output is byte-stable for identical inputs.
    """
    values = np.asarray(scores, dtype=float)
    if values.shape != (mesh.n_triangles,):
        raise DataError("scores do not align with mesh triangles")
    if not np.isfinite(values).all():
        raise DataError("scores must be finite")
    lo, hi = float(values.min()), float(values.max())
    if hi - lo == np.inf:
        # Finite scores whose range overflows a double: their halves have
        # a finite range, and halving leaves the ratios as they are.
        values, lo, hi = values / 2, lo / 2, hi / 2
    if hi > lo:
        normalized = (values - lo) / (hi - lo)
    else:
        normalized = np.full(values.shape, 0.5)
    colors = colormap_rgb(normalized)

    header = (
        "# visage attention surface\n"
        "# colormap viridis\n"
        f"# triangles {mesh.n_triangles}\n"
    )
    # One line per duplicated corner: x y z of the vertex, r g b of its face.
    # Each distinct vertex and each face color is formatted once; equal
    # floats format to equal text, so the bytes match per-corner formatting.
    vertices = mesh.vertices.ravel().tolist()
    xyz = ("%.6f %.6f %.6f\n" * len(mesh.vertices) % tuple(vertices)).split("\n")
    rgb = ("%.4f %.4f %.4f\n" * len(colors) % tuple(colors.ravel().tolist())).split("\n")
    vertex_lines = "".join(
        [
            f"v {xyz[a]} {c}\nv {xyz[b]} {c}\nv {xyz[d]} {c}\n"
            for (a, b, d), c in zip(mesh.triangles.tolist(), rgb)
        ]
    )
    face_lines = ("f %d %d %d\n" * mesh.n_triangles) % tuple(range(1, 3 * mesh.n_triangles + 1))
    return (header + vertex_lines + face_lines).encode("utf-8")


def load_obj(path) -> tuple[np.ndarray, np.ndarray]:
    """Strict reader of the triangle mesh in the OBJ file ``path``.

    Accepts ``v`` lines with optional color components and ``f`` lines
    with exactly three vertices (``i``, ``i/j`` and ``i/j/k`` forms);
    comment, group, and material lines are ignored. Anything else, an
    out-of-range index, or a mesh without faces raises DataError.
    """
    with reading(path):
        text = Path(path).read_text(encoding="utf-8")
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    face_lines: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "o ", "g ", "s ", "usemtl", "mtllib", "vn ", "vt ")):
            continue
        parts = line.split()
        where = f"{path}: line {line_no}"
        if parts[0] == "v":
            if len(parts) not in (4, 7):
                raise DataError(f"{where}: vertex needs 3 coordinates (+ optional color)")
            try:
                vertices.append([float(p) for p in parts[1:4]])
            except ValueError as err:
                raise DataError(f"{where}: {err}") from None
        elif parts[0] == "f":
            if len(parts) != 4:
                raise DataError(f"{where}: only triangle faces are supported")
            idx = []
            for token in parts[1:]:
                head = token.split("/")[0]
                try:
                    value = int(head)
                except ValueError:
                    raise DataError(f"{where}: face index {head!r} is not an integer") from None
                if value <= 0:
                    raise DataError(f"{where}: indices must be positive")
                idx.append(value - 1)
            faces.append(idx)
            face_lines.append(line_no)
        else:
            raise DataError(f"{where}: unsupported directive {parts[0]!r}")
    verts = np.array(vertices, dtype=float).reshape(-1, 3)
    tris = np.array(faces, dtype=int).reshape(-1, 3)
    if not tris.size:
        raise DataError(f"{path}: no triangle faces")
    dangling = tris.max(axis=1) >= len(verts)
    if dangling.any():
        row = int(np.argmax(dangling))  # the first face past the last vertex
        raise DataError(f"{path}: line {face_lines[row]}: face references vertex "
                        f"{tris[row].max() + 1}, the mesh has {len(verts)}")
    return verts, tris


def load_landmarks(path, n_vertices: int) -> np.ndarray:
    """Read a ``vertex_index,x,y`` CSV covering every vertex exactly once."""
    out = np.full((n_vertices, 2), np.nan)
    with open(path, "r", encoding="utf-8", newline="") as fh, reading(path):
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row or not row[0].strip():
                continue
            if row_no == 1 and not row[0].strip().lstrip("-").isdigit():
                continue  # header
            where = f"{path}: landmark row {row_no}"
            if len(row) < 3:
                raise DataError(f"{where}: need vertex_index,x,y")
            try:
                idx, xy = int(row[0]), (float(row[1]), float(row[2]))
            except ValueError as err:
                raise DataError(f"{where}: {err}") from None
            if not (0 <= idx < n_vertices):
                raise DataError(f"{where}: vertex {idx} out of range")
            if np.isfinite(out[idx]).any():
                raise DataError(f"{where}: vertex {idx} repeated")
            out[idx] = xy
    if not np.all(np.isfinite(out)):
        missing = int(np.nonzero(~np.isfinite(out[:, 0]))[0][0])
        raise DataError(f"no landmark for vertex {missing}")
    return out


def load_mesh(obj_path, landmarks_path) -> FaceMesh:
    vertices, triangles = load_obj(obj_path)
    landmarks = load_landmarks(landmarks_path, len(vertices))
    return FaceMesh(vertices, triangles, landmarks)


def load_grid(path) -> np.ndarray:
    """Read a square attention grid from CSV."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh, reading(path):
        reader = csv.reader(fh)
        for row in reader:
            if not row or not any(cell.strip() for cell in row):
                continue
            where = f"{path}: line {reader.line_num}"
            if rows and len(row) != len(rows[0]):
                raise DataError(f"{where}: {len(row)} cells, the first row has {len(rows[0])}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as err:
                raise DataError(f"{where}: {err}") from None
    return validate_grid(np.array(rows))
