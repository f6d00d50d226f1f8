"""Radial-graph reconstruction of the shrinker end, residual verification,
cone asymptotics, and profile/mesh export.

The end is the radial graph r = e^{phi(d)} over the annular region
0 < d <= d0 + margin; the phi-equation residual

    R(d) = phi''/(1 + phi'^2) + phi' H(d) - n + e^{2 phi}/2

is the reduction of the shrinker equation H = -X.nu/2 to this chart and is
the authoritative verification.  Meshes exist for the two cases with a
closed-form ambient parameterization: surfaces of revolution (n = 2, g = 1)
and sphere-product tori (n = 3, g = 2, exported as the psi2 = 0 slice
projected to the first three coordinates).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import mpmath

from .catalog import mean_curvature
from .errors import (
    InsufficientRange,
    OutOfRange,
    ResolutionTooHigh,
    ResolutionTooLow,
    UnsupportedFamily,
)
from .ivp import D_SIDE, ResidualReport, SolutionProfile, phi_equation_residual
from .numutil import (DOUBLE_PREC, atomic_write_chunks, atomic_write_text, hermite_eval,
                      lazy_numpy, loglog_slope, release_free_heap, write_csv)
from .series import FormalSeries, evaluate_truncated, series_value_tail
# unused here: perfbench's tracing tests expect this module to bind it (EXPECTED_BINDINGS)
from .series import compute_coefficients  # noqa: F401

np = lazy_numpy()

EXPORT_COLUMNS = ("d", "r", "phi", "eq130_residual", "eq350_drift")


def shrinker_residual(profile_d: SolutionProfile) -> ResidualReport:
    """Radial-graph shrinker residual at the stored nodes."""
    if profile_d.side != D_SIDE:
        raise OutOfRange("shrinker residual needs a d-side profile")
    prof = profile_d.curvature
    cols = profile_d.columns
    h = mean_curvature(prof, profile_d["d"]).tolist()
    return ResidualReport.of(np.array([
        phi_equation_residual(*node, prof.family.n)
        for node in zip(cols["phi"], cols["dphi"], cols["d2phi"], h)]))


@dataclass(frozen=True)
class AsymptoticReport:
    d_samples: np.ndarray
    deviations: np.ndarray      # phi + ln(d/A1)/2, -> 0 linearly in d
    products: np.ndarray        # d * e^phi, decreasing to 0 as d -> 0
    slope: float
    monotone: bool
    growth: float               # phi(d_lo) - phi(d_hi), ~ ln(d_hi/d_lo)/2

    @property
    def ok(self):
        return 0.7 <= self.slope <= 1.3 and self.monotone


def asymptotic_check(profile_d: SolutionProfile, series: FormalSeries,
                     d_lo: float = 1e-6, d_hi: float = 1e-2) -> AsymptoticReport:
    """Cone-asymptotics verification on [d_lo, d_hi] via series-backed samples.

    phi(d) + ln(d/A1)/2 = ln(A1 * gamma(s)/ (A1^2 s)) / 2 is computed
    cancellation-free from the series tail, so the O(d) decay is resolved far
    below rounding of the naive difference.
    """
    if profile_d.side != D_SIDE:
        raise OutOfRange("asymptotic_check needs a d-side profile")
    if d_hi / d_lo < 100.0:
        raise InsufficientRange("need at least two decades of d")
    a1 = float(series.coefficient(1))
    n_pts = max(3, int(round(8 * math.log10(d_hi / d_lo))))   # 8 points per decade
    # choose s so that d = gamma(s) covers [d_lo, d_hi]; gamma(s) ~ A1 s
    s_grid = np.exp(np.linspace(math.log(d_lo / a1), math.log(d_hi / a1), n_pts))
    d_samples, deviations, products = [], [], []
    for s in s_grid:
        gamma_s = float(evaluate_truncated(series, s).value)
        tail = float(series_value_tail(series, s).value)  # gamma(s) - A1 s
        d_samples.append(gamma_s)
        deviations.append(0.5 * math.log1p(tail / (a1 * s)))
        products.append(gamma_s / math.sqrt(s))           # d * e^phi, phi = -ln(s)/2
    d_samples = np.array(d_samples)
    deviations = np.array(deviations)
    products = np.array(products)
    nz = np.abs(deviations) > 0
    slope = loglog_slope(d_samples[nz], np.abs(deviations[nz]))
    monotone = bool(np.all(np.diff(products) > 0))
    growth = float(-0.5 * math.log(s_grid[0]) + 0.5 * math.log(s_grid[-1]))
    return AsymptoticReport(
        d_samples=d_samples, deviations=deviations, products=products,
        slope=float(slope), monotone=monotone, growth=growth,
    )


# ---------------------------------------------------------------------------
# Profile export
# ---------------------------------------------------------------------------

def export_profile(profile_d: SolutionProfile, path, format: str = "csv"):
    """Write (d, r = e^phi, phi, residuals) as CSV or a schema-stable JSON."""
    if profile_d.side != D_SIDE:
        raise OutOfRange("export_profile needs a d-side profile")
    d = profile_d["d"]
    r = np.exp(profile_d["phi"])
    cols = {
        "d": d, "r": r, "phi": profile_d["phi"],
        "eq130_residual": profile_d["eq130_residual"],
        "eq350_drift": profile_d["eq350_drift"],
    }
    if format == "csv":
        write_csv(path, EXPORT_COLUMNS, [cols[c] for c in EXPORT_COLUMNS])
    elif format == "json":
        doc = {
            "schema": "coneshrink/profile-v1",
            "family": profile_d.curvature.family.as_dict(),
            "columns": list(EXPORT_COLUMNS),
            "rows": [[float(cols[c][i]) for c in EXPORT_COLUMNS]
                     for i in range(len(d))],
        }
        atomic_write_text(path, json.dumps(doc, indent=1))
    else:
        raise OutOfRange(f"unknown export format {format!r}")
    return path


# ---------------------------------------------------------------------------
# Mesh export
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeshResult:
    path: object
    resolution: int            # samples along d and around each circle
    vertex_count: int
    face_count: int
    discrete_residual: float   # max |H_disc + X.nu/2| / max |H_disc|, nan if unchecked


# Largest mesh resolution.  Peak RSS of `coneshrink export --format obj` on
# the g = 1 reference family (2-vCPU VM, Python 3.11, numpy 2.4): 42 MB at
# resolution 256, 56 MB at 512 and 102 MB at 1024.  That is the 34 MB of
# the imports plus about 66 bytes per vertex, of which there are
# resolution^2: the whole-mesh vertices (24 bytes) and int32 faces (24),
# while the check and the text take one band or block at a time.  So 1024
# keeps the peak near 0.1 GB, where 2048 would take about 0.3 GB.
MAX_RESOLUTION = 1024


def export_mesh(profile_d: SolutionProfile, path, resolution: int = 64) -> MeshResult:
    """Triangulated OBJ of the reconstructed end.

    n = 2, g = 1: surface of revolution, watertight in the angular direction,
    with a cotangent-Laplacian shrinker check reported in the header comment.
    n = 3, g = 2: the psi2 = 0 slice of the torus chart projected to the
    first three coordinates.
    """
    if resolution < 8:
        raise ResolutionTooLow(f"resolution {resolution} < 8 angular samples")
    if resolution > MAX_RESOLUTION:
        raise ResolutionTooHigh(
            f"resolution {resolution} > {MAX_RESOLUTION}, the largest exported: the mesh "
            f"has resolution^2 vertices and needs about 0.07 kB of memory per vertex"
        )
    if profile_d.side != D_SIDE:
        raise OutOfRange("export_mesh needs a d-side profile")
    family = profile_d.curvature.family
    case = (family.n, family.g)
    if case not in ((2, 1), (3, 2)):
        raise UnsupportedFamily(
            f"(n, g) = {case}: no closed-form ambient parameterization meshed here"
        )
    # free heap pages go back before the mesh is built and once it is freed
    # (numutil.release_free_heap): the export's peak memory is then its own
    # arrays plus the caller's live ones, not where they land among pages
    # that earlier work freed
    release_free_heap()
    verts, faces = _end_mesh(profile_d, family, resolution)
    residual = (discrete_shrinker_residual(verts, faces, resolution) if case == (2, 1)
                else float("nan"))
    header = [
        "# radial-graph end mesh",
        f"# family g={family.g} m_minus={family.m_minus} m_plus={family.m_plus} "
        f"n={family.n} theta1={family.theta1!r}",
        f"# resolution {resolution}x{resolution}",
    ]
    if math.isfinite(residual):
        header.append(
            f"# discrete shrinker check: max|H_disc + X.nu/2| / max|H_disc| = {residual:.6e}"
        )
    atomic_write_chunks(path, itertools.chain(["\n".join(header) + "\n"],
                                              _obj_rows("v %r %r %r\n", verts),
                                              _obj_rows("f %d %d %d\n", faces)))
    result = MeshResult(path=path, resolution=resolution, vertex_count=len(verts),
                        face_count=len(faces), discrete_residual=residual)
    del verts, faces
    release_free_heap()
    return result


_OBJ_BLOCK_ROWS = 4096


def _obj_rows(row_format, rows):
    """OBJ lines for the rows of an (N, 3) array, yielded one text block of
    ``_OBJ_BLOCK_ROWS`` rows at a time; integer rows are 0-based vertex
    indices, written from 1 as OBJ counts them.

    ``row_format`` is the line as a per-row format, ``"v %r %r %r\\n"`` or
    ``"f %d %d %d\\n"``: the text before its first field is each line's
    prefix, and the text matches that format row by row (``%r`` of a
    Python float is its round-trip repr).  Blocks bound the memory the
    text holds, as the writer takes them one by one.

    A block's text is built as bytes.  Its distinct tokens go into a table
    of zero-padded ASCII rows, with an ``(R, 3)`` index into it
    (:func:`_float_tokens`, :func:`_index_tokens`); each row gets a
    trailing space.  A line is a row of an ``(R, len(prefix) + 3 (W + 1))``
    byte array, W the table's width: the prefix, then three slots filled
    from the table by one gather, whose last byte becomes the newline.
    One compress then keeps the nonzero bytes.  No repr, digit, prefix or
    separator is a zero byte, so dropping the padding leaves exactly the
    lines."""
    prefix = np.frombuffer(row_format[:row_format.index("%")].encode("ascii"), np.uint8)
    tokens = _float_tokens if rows.dtype.kind == "f" else _index_tokens
    for lo in range(0, len(rows), _OBJ_BLOCK_ROWS):
        block = rows[lo:lo + _OBJ_BLOCK_ROWS]
        table, inverse = tokens(block)
        slot = np.dtype((np.void, table.shape[1] + 1))
        cells = np.full((len(table), slot.itemsize), ord(" "), dtype=np.uint8)
        cells[:, :-1] = table
        lines = np.empty((len(block), len(prefix) + 3 * slot.itemsize), dtype=np.uint8)
        lines[:, :len(prefix)] = prefix
        # one slot per token: a gather of whole table rows, as void items
        lines[:, len(prefix):].view(slot)[...] = np.take(cells.view(slot)[:, 0], inverse)
        lines[:, -1] = ord("\n")
        yield lines[lines != 0].tobytes().decode("ascii")


def _float_tokens(block):
    """The repr table of a float block and the ``(R, 3)`` index into it.

    Floats are keyed on the bits of their magnitude: grid rows share their
    z, and the symmetric angular samples of ``_end_mesh`` give a grid row
    at most ``resolution / 4 + 2`` distinct ``|x|`` and ``|y|``.  Each
    magnitude's repr is made once.  Row k of the table is the k-th
    magnitude's repr after a zero byte, and row ``len(mags) + k`` the same
    after a ``"-"``, for the values whose sign bit is set, as repr writes
    ``-0.0`` and ``-inf``; a NaN prints ``nan`` whatever its sign, as repr
    does."""
    flat = block.ravel()
    mags, inverse = np.unique(np.abs(flat).view(np.uint64), return_inverse=True)
    mags = mags.view(np.float64)
    reprs = np.array([repr(x) for x in mags.tolist()], dtype=np.bytes_)
    table = np.zeros((2, len(mags), 1 + reprs.itemsize), dtype=np.uint8)
    table[:, :, 1:] = reprs.view(np.uint8).reshape(len(mags), reprs.itemsize)
    table[1, :, 0] = np.where(np.isnan(mags), 0, ord("-"))
    inverse += len(mags) * np.signbit(flat)
    return table.reshape(2 * len(mags), -1), inverse.reshape(block.shape)


def _index_tokens(block):
    """The digit table of a 0-based index block and the ``(R, 3)`` index
    into it.

    The faces of a block lie on a few grid rows, so their indices fill a
    short range ``first .. last``.  The table holds the OBJ indices
    ``first + 1 .. last + 1`` in order, one row of ASCII digits each,
    taken by ``divmod`` from the last digit on; the places before a
    number's first digit stay zero bytes.  So no sort, and no Python
    ``str`` or int per index."""
    first, last = int(block.min()), int(block.max())
    rest = np.arange(first + 1, last + 2)
    table = np.zeros((len(rest), len(str(last + 1))), dtype=np.uint8)
    for place in range(table.shape[1] - 1, -1, -1):
        present = rest > 0
        rest, digit = np.divmod(rest, 10)
        table[:, place] = (digit + ord("0")) * present
    return table, block - first


def _end_mesh(profile_d, family, resolution):
    """Vertices and outward faces of the end: ``resolution`` rows along d
    by ``resolution`` angles psi, at radius r = e^phi.

    g = 1: th = theta1 + d is the colatitude of a circle on S^2.  g = 2: the
    ambient S^3 point (cos th cos psi, cos th sin psi, sin th cos psi2,
    sin th sin psi2), sliced at psi2 = 0 and orthogonally projected to the
    first three coordinates.  cos psi and sin psi come from
    :func:`_circle_samples`, exactly symmetric, so the x and y of a grid
    row, ``r sin th`` (g = 1) or ``r cos th`` (g = 2) times them, take at
    most ``resolution / 4 + 2`` magnitudes: the OBJ text makes each once."""
    d_nodes = profile_d["d"]
    d_samples = np.linspace(d_nodes[0], d_nodes[-1], resolution)
    phi = hermite_eval(d_nodes, profile_d["phi"], profile_d["dphi"], d_samples)
    rr = np.exp(phi)[:, None]
    th = family.theta1 + d_samples
    cos_psi, sin_psi = _circle_samples(resolution)
    sin_t = np.sin(th)[:, None]
    cos_t = np.cos(th)[:, None]
    if family.g == 1:
        coords = (rr * sin_t * cos_psi[None, :],
                  rr * sin_t * sin_psi[None, :],
                  rr * cos_t * np.ones_like(cos_psi)[None, :])
    else:
        coords = (rr * cos_t * cos_psi[None, :],
                  rr * cos_t * sin_psi[None, :],
                  rr * sin_t * np.ones_like(cos_psi)[None, :])
    verts = np.stack([c.ravel() for c in coords], axis=1)
    del coords   # freed before the faces are built
    # the grid's winding gives each face the normal X_psi x X_d, whose radial
    # component is -r^3 sin(th) for g = 1 (th a colatitude) and +r^3 cos(th)
    # for g = 2 (th a latitude), whatever r(d) is: only g = 1 is reversed
    return verts, _grid_faces(resolution, resolution, reverse=family.g == 1)


def _circle_samples(n):
    """cos psi_j and sin psi_j at psi_j = 2 pi j / n, j = 0 .. n - 1, for
    n >= 8, each correctly rounded and exactly symmetric.

    Each angle is reduced to the first octant in integers: 8 j = q n + r,
    and odd octants mirror r -> n - r, so that psi_j is q pi/4 + a (q even)
    or (q + 1) pi/4 - a (q odd) with a = (pi/4)(r/n) in [0, pi/4].  cos a
    and sin a are taken once per distinct r from mpmath's ``cospi`` and
    ``sinpi`` at 64 bits past binary64, rounded once to a float, and are
    swapped (octants 1, 2, 5, 6) and negated by octant.  So reflection
    j -> n - j, and the half-turn, quarter-turn and octant swap where n
    allows them, map samples onto samples bit for bit, up to sign.  The
    float angle ``2 * np.pi * j / n`` breaks them in the last bits: its
    rounding error grows with j, to about 6e-16 in cos and sin at n = 256,
    and rounding cos a and sin a of a float a still leaves some samples an
    ulp from the nearest float."""
    q, r = np.divmod(8 * np.arange(n), n)
    r = np.where(q % 2 == 1, n - r, r)
    numerators, inverse = np.unique(r, return_inverse=True)
    with mpmath.workprec(DOUBLE_PREC + 64):
        a_over_pi = [mpmath.mpf(k) / (4 * n) for k in numerators.tolist()]
        cos_a = np.array([float(mpmath.cospi(x)) for x in a_over_pi])[inverse]
        sin_a = np.array([float(mpmath.sinpi(x)) for x in a_over_pi])[inverse]
    swap = (q + 1) % 4 >= 2
    cos_psi = np.where(swap, sin_a, cos_a)
    sin_psi = np.where(swap, cos_a, sin_a)
    # cos < 0 in octants 2-5 and sin < 0 in 4-7; adding 0.0 turns the -0.0
    # of cos(pi/2) and sin(pi) into 0.0
    cos_psi = np.where((q - 2) % 8 < 4, -cos_psi, cos_psi) + 0.0
    sin_psi = np.where(q >= 4, -sin_psi, sin_psi) + 0.0
    return cos_psi, sin_psi


def _grid_faces(n_rows, n_cols, reverse=False):
    """Two triangles per grid cell, wrapping the column index around: with
    a, b the cell's corners on row i (columns j and j + 1) and c, d those on
    row i + 1, the faces (a, b, d) and (a, d, c), or with ``reverse`` the
    other winding (a, d, b) and (a, c, d).

    The six corner columns are written in turn into one int32 array: the
    vertex count is at most MAX_RESOLUTION^2 = 2^20, far inside int32."""
    row = np.arange(n_rows - 1, dtype=np.int32)[:, None] * n_cols
    j = np.arange(n_cols, dtype=np.int32)
    a, b = row + j, row + (j + 1) % n_cols
    # each corner as its column index on row i and the offset to its own row
    corners = {"a": (a, 0), "b": (b, 0), "c": (a, n_cols), "d": (b, n_cols)}
    faces = np.empty((n_rows - 1, n_cols, 6), dtype=np.int32)
    for k, corner in enumerate("adbacd" if reverse else "abdadc"):
        np.add(*corners[corner], out=faces[..., k])
    return faces.reshape(-1, 3)


_RESIDUAL_BAND_ROWS = 32


def discrete_shrinker_residual(verts, faces, n_cols):
    """Cotangent-Laplacian mean curvature against -X.nu/2 on interior vertices.

    Returns max |H_disc + X.nu/2| / max |H_disc| (sum convention for H,
    outward vertex normals from area-weighted face normals).  ``verts``
    are grid rows of ``n_cols`` vertices, and ``faces`` must be in
    ``_end_mesh``'s grid order: the ``2 n_cols`` faces of each cell row in
    turn.  The check runs by bands of ``_RESIDUAL_BAND_ROWS`` interior
    vertex rows, so its memory is bounded by a band.  The faces around a
    band's rows are a contiguous slice of ``faces``, in their order, so
    every vertex sums its terms as over the whole mesh and the result is
    bit-identical."""
    faces = np.asarray(faces)
    n_rows = len(verts) // n_cols
    maxima = []
    for r0 in range(1, n_rows - 1, _RESIDUAL_BAND_ROWS):
        r1 = min(r0 + _RESIDUAL_BAND_ROWS, n_rows - 1)
        first = (r0 - 1) * n_cols     # the band's vertex rows are r0 - 1 .. r1
        band_faces = faces[2 * n_cols * (r0 - 1):2 * n_cols * r1] - first
        maxima.append(_band_residual(verts[first:(r1 + 1) * n_cols], band_faces, n_cols))
    # np.max, not max: a nan in any band propagates as over the whole mesh
    resid, h_disc = np.max(maxima, axis=0)
    return float(resid / h_disc)


def _band_residual(verts, faces, n_cols):
    """max |H_disc + X.nu/2| and max |H_disc| over the vertices of a band
    but its first and last row, which only complete their neighbours."""
    nv = len(verts)
    cots, face_normals, normal_norms = _face_geometry(verts, faces)
    areas = 0.5 * normal_norms
    corners = faces.ravel()
    vertex_area = np.bincount(corners, np.repeat(areas / 3.0, 3), minlength=nv)
    vertex_normal = np.stack([np.bincount(corners, np.repeat(face_normals[k], 3),
                                          minlength=nv) for k in range(3)], axis=1)
    del face_normals, normal_norms   # freed before the scatter buffers below
    # corner k's cotangent w weights the opposite edge (a, b): a gets
    # (-w/2) (x_a - x_b) and b gets (w/2) (x_a - x_b).  Rows of `ends` are a
    # and b of each edge in turn, so bincount adds every vertex's terms in
    # one fixed order, column by column
    ends = faces.T[[1, 2, 2, 0, 0, 1]]
    idx = ends.ravel()
    vals = np.empty(ends.shape)
    lap = np.empty_like(verts)
    for k in range(3):
        x = verts[:, k]
        diff = x[ends[0::2]]
        diff -= x[ends[1::2]]
        for rows, half in ((vals[0::2], -0.5), (vals[1::2], 0.5)):
            np.multiply(half, cots, out=rows)
            rows *= diff
        lap[:, k] = np.bincount(idx, vals.ravel(), minlength=nv)
    # lap holds (1/2) sum w_ij (x_j - x_i); dividing by the vertex area gives
    # the surface Laplacian of the position, i.e. the mean curvature vector
    with np.errstate(invalid="ignore", divide="ignore"):
        delta = lap / vertex_area[:, None]
    norms = np.linalg.norm(vertex_normal, axis=1)
    unit_n = vertex_normal / np.where(norms > 0, norms, 1.0)[:, None]
    h_disc = np.einsum("ij,ij->i", delta, unit_n)   # sum convention, sign along nu
    x_dot_n = np.einsum("ij,ij->i", verts, unit_n)
    interior = np.ones(nv, dtype=bool)
    interior[:n_cols] = False
    interior[-n_cols:] = False
    resid = np.abs(h_disc[interior] + 0.5 * x_dot_n[interior])
    return np.max(resid), np.max(np.abs(h_disc[interior]))


def _face_geometry(verts, faces):
    """Cotangents of the three corner angles of every face, as a (3, F)
    array, the unnormalised face normals (v1 - v0) x (v2 - v0) as three
    coordinate rows, and their lengths.

    The arithmetic runs on coordinate rows, one operation per component,
    bit-equal to the (F, 3) kernels: the cross product as ``np.cross``
    forms it, the length as ``np.linalg.norm(axis=1)`` sums its squares,
    and the dot product in the order ``np.einsum("ij,ij->i")`` sums it
    (``(u0 w0 + u2 w2) + u1 w1``, see :func:`_dot`).  A function of its own
    so that the per-corner vertex copies are freed before the residual
    allocates its scatter buffers."""
    v0, v1, v2 = _corner_columns(verts, faces)

    def cot_angle(p, q, r):
        u, w = q - p, r - p
        cross = _cross(u, w)
        denom = _norm(cross)
        return _dot(u, w) / np.where(denom > 0, denom, 1.0), cross, denom

    cot0, normals, lengths = cot_angle(v0, v1, v2)
    cots = np.stack([cot0, cot_angle(v1, v2, v0)[0], cot_angle(v2, v0, v1)[0]])
    return cots, normals, lengths


def _corner_columns(verts, faces):
    """The corners of every face, one (3, F) array of coordinate rows per
    corner position."""
    columns = np.ascontiguousarray(verts.T)
    return [columns.take(corner, axis=1) for corner in faces.T]


def _cross(u, w):
    """Per-column cross product of (3, F) rows, as ``np.cross`` forms it."""
    return (u[1] * w[2] - u[2] * w[1],
            u[2] * w[0] - u[0] * w[2],
            u[0] * w[1] - u[1] * w[0])


def _norm(u):
    """Per-column length of (3, F) rows, as ``np.linalg.norm(axis=1)``."""
    return np.sqrt((u[0] * u[0] + u[1] * u[1]) + u[2] * u[2])


def _dot(u, w):
    """Per-column dot product of (3, F) rows in the order numpy 2.4's
    ``einsum("ij,ij->i")`` sums three products; left to right differs by
    an ulp on about 30% of random rows."""
    return (u[0] * w[0] + u[2] * w[2]) + u[1] * w[1]
