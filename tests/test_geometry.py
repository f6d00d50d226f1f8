import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneshrink import geometry as geometry_mod
from coneshrink.catalog import CurvatureProfile, make_family
from coneshrink.errors import (
    InsufficientRange,
    OutOfRange,
    ResolutionTooHigh,
    ResolutionTooLow,
    UnsupportedFamily,
)
from coneshrink.geometry import (
    MAX_RESOLUTION,
    EXPORT_COLUMNS,
    _OBJ_BLOCK_ROWS,
    _RESIDUAL_BAND_ROWS,
    _circle_samples,
    _face_geometry,
    _grid_faces,
    _end_mesh,
    _obj_rows,
    asymptotic_check,
    discrete_shrinker_residual,
    export_mesh,
    export_profile,
    shrinker_residual,
)
from coneshrink.ivp import D_SIDE, SolutionProfile
from coneshrink.numutil import hermite_eval

# the document export_profile writes with format="json"
PROFILE_JSON_SCHEMA = {
    "type": "object",
    "required": ["schema", "family", "columns", "rows"],
    "properties": {
        "schema": {"const": "coneshrink/profile-v1"},
        "family": {"type": "object"},
        "columns": {"type": "array", "items": {"type": "string"}},
        "rows": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
    },
}


def cone_profile(family, d_values):
    """The leading asymptote phi = -ln(d/A_1)/2 as a d-side profile of the
    cot-sum H; it solves nothing.  A_1 is H(0) bit for bit at 53 bits
    (tests/test_series.py), so it is read from the profile."""
    curvature = CurvatureProfile(family)
    a1 = curvature.h0
    d = np.asarray(d_values, dtype=float)
    return SolutionProfile(
        side=D_SIDE, curvature=curvature,
        columns={"d": d, "phi": -0.5 * np.log(d / a1), "dphi": -0.5 / d, "d2phi": 0.5 / d ** 2,
                 "g": d / a1,
                 "eq130_residual": np.zeros_like(d), "eq350_drift": np.zeros_like(d)},
    )


class TestShrinkerResidual:
    def test_converged_solution(self, continued1, fam1):
        rep = shrinker_residual(continued1)
        assert rep.max_abs <= 1e-6

    def test_cone_is_not_a_shrinker(self, fam1):
        cone = cone_profile(fam1, np.linspace(0.1, 0.8, 40))
        rep = shrinker_residual(cone)
        assert np.all(np.isfinite(rep.values))
        assert rep.max_abs > 0.1
        assert abs(rep.values[-1]) > 0.05  # stays away from zero as d grows

    def test_perturbed_profile_detected(self, continued1, fam1):
        cols = {k: np.array(v) for k, v in continued1.columns.items()}
        cols["phi"] = cols["phi"] + 0.01
        bad = SolutionProfile(side="d_side", curvature=continued1.curvature, columns=cols,
                              meta=dict(continued1.meta))
        rep = shrinker_residual(bad)
        assert rep.max_abs >= 0.005

    def test_needs_d_side(self, solved1, fam1):
        with pytest.raises(OutOfRange):
            shrinker_residual(solved1)


class TestAsymptotics:
    def test_reference_family(self, continued1, series1):
        rep = asymptotic_check(continued1, series1)
        assert 0.7 <= rep.slope <= 1.3
        assert rep.monotone
        assert rep.ok

    def test_products_shrink_to_zero(self, continued1, series1):
        rep = asymptotic_check(continued1, series1)
        assert rep.products[0] < 0.01
        assert rep.products[0] == min(rep.products)

    def test_product_leading_order(self, continued1, series1):
        # d * e^phi ~ sqrt(A_1 d) at leading order: the ratio tends to 1
        rep = asymptotic_check(continued1, series1)
        a1 = float(series1.coefficient(1))
        ratios = rep.products / np.sqrt(a1 * rep.d_samples)
        assert ratios[0] == pytest.approx(1.0, abs=2e-6)
        assert np.all(np.abs(ratios - 1.0) < 0.01)

    def test_phi_grows_four(self, continued1, series1):
        # phi(1e-6-ish) > phi(1e-2-ish) + 4: half the log of four decades
        rep = asymptotic_check(continued1, series1)
        assert rep.growth > 4.0

    def test_insufficient_range(self, continued1, series1):
        with pytest.raises(InsufficientRange):
            asymptotic_check(continued1, series1, d_lo=1e-3, d_hi=1e-2)

    def test_second_family(self, run2):
        rep = asymptotic_check(run2.end, run2.series)
        assert 0.7 <= rep.slope <= 1.3
        assert rep.monotone


class TestExportProfile:
    def test_csv_row_count(self, continued1, tmp_path):
        path = tmp_path / "p.csv"
        export_profile(continued1, path, format="csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(EXPORT_COLUMNS)
        assert len(lines) - 1 == len(continued1["d"])

    def test_csv_round_trip(self, continued1, tmp_path):
        path = tmp_path / "p.csv"
        export_profile(continued1, path, format="csv")
        rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
        d_back = np.array([float(r[0]) for r in rows])
        r_back = np.array([float(r[1]) for r in rows])
        assert np.array_equal(d_back, continued1["d"])
        assert np.array_equal(r_back, np.exp(continued1["phi"]))

    def test_json_schema(self, continued1, tmp_path):
        import jsonschema
        path = tmp_path / "p.json"
        export_profile(continued1, path, format="json")
        doc = json.loads(path.read_text())
        jsonschema.validate(doc, PROFILE_JSON_SCHEMA)
        assert len(doc["rows"]) == len(continued1["d"])


class TestExportMesh:
    def test_revolution_mesh_watertight(self, continued1, fam1, tmp_path):
        res = export_mesh(continued1, tmp_path / "m.obj", resolution=64)
        # angular direction identified: grid vertices only, no seam duplicates
        assert res.vertex_count == 64 * 64
        assert res.face_count == 2 * 63 * 64
        text = (tmp_path / "m.obj").read_text().splitlines()
        faces = [ln for ln in text if ln.startswith("f ")]
        # wrap faces reference both column 0 and column 63
        used = set()
        for ln in faces:
            used.update(int(tok) - 1 for tok in ln.split()[1:])
        assert used == set(range(64 * 64))

    def test_header_carries_discrete_check(self, continued1, fam1, tmp_path):
        export_mesh(continued1, tmp_path / "m.obj", resolution=32)
        head = (tmp_path / "m.obj").read_text().splitlines()[:6]
        assert any("discrete shrinker check" in ln for ln in head)

    def test_discrete_residual_small_and_decreasing(self, continued1, fam1, tmp_path):
        # monotone trend over three refinements
        r64 = export_mesh(continued1, tmp_path / "m64.obj", resolution=64)
        r128 = export_mesh(continued1, tmp_path / "m128.obj", resolution=128)
        r256 = export_mesh(continued1, tmp_path / "m256.obj", resolution=256)
        assert r128.discrete_residual <= 5e-2
        assert r64.discrete_residual > r128.discrete_residual > r256.discrete_residual

    def test_vertex_radii_match_interpolant(self, continued1, fam1, tmp_path):
        path = tmp_path / "m.obj"
        export_mesh(continued1, path, resolution=16)
        verts = np.array([[float(t) for t in ln.split()[1:]]
                          for ln in path.read_text().splitlines()
                          if ln.startswith("v ")])
        radii = np.linalg.norm(verts, axis=1).reshape(16, 16)
        d_samples = np.linspace(continued1["d"][0], continued1["d"][-1], 16)
        expect = np.exp(hermite_eval(continued1["d"], continued1["phi"], continued1["dphi"],
                                     d_samples))
        for j in range(16):
            assert radii[:, j] == pytest.approx(expect, rel=1e-12)

    def test_torus_slice_case(self, run2, tmp_path):
        res = export_mesh(run2.end, tmp_path / "t.obj", resolution=32)
        assert res.vertex_count == 32 * 32
        assert math.isnan(res.discrete_residual)

    def test_unsupported_family(self, tmp_path):
        fam = make_family(3, 1, 1, 4, math.pi / 12)
        dummy = cone_profile(fam, np.linspace(0.1, 0.3, 10))
        with pytest.raises(UnsupportedFamily):
            export_mesh(dummy, tmp_path / "x.obj", resolution=32)

    def test_resolution_floor(self, continued1, fam1, tmp_path):
        with pytest.raises(ResolutionTooLow):
            export_mesh(continued1, tmp_path / "x.obj", resolution=7)

    def test_resolution_ceiling_is_checked_before_meshing(self, continued1, tmp_path,
                                                         monkeypatch):
        """One past MAX_RESOLUTION raises naming the bound; the mesh is
        patched to fail if called, so a missing check cannot allocate."""
        def no_mesh(*args):
            raise AssertionError("the mesh was built")

        monkeypatch.setattr(geometry_mod, "_end_mesh", no_mesh)
        for resolution in (MAX_RESOLUTION + 1, 100000):
            with pytest.raises(ResolutionTooHigh, match=f"> {MAX_RESOLUTION}, "):
                export_mesh(continued1, tmp_path / "x.obj", resolution=resolution)
        assert not (tmp_path / "x.obj").exists()


# ---------------------------------------------------------------------------
# Loop oracles for the vectorised mesh code: faces, orientation and OBJ text
# must match them exactly, and so must the residual, whose vertex sums add
# the same terms in the same order
# ---------------------------------------------------------------------------

def _oracle_grid_faces(n_rows, n_cols):
    faces = []
    for i in range(n_rows - 1):
        for j in range(n_cols):
            j2 = (j + 1) % n_cols
            a = i * n_cols + j
            b = i * n_cols + j2
            c = (i + 1) * n_cols + j
            d = (i + 1) * n_cols + j2
            faces.append((a, b, d))
            faces.append((a, d, c))
    return faces


def _oracle_orient_outward(verts, faces):
    a = verts[[f[0] for f in faces]]
    b = verts[[f[1] for f in faces]]
    c = verts[[f[2] for f in faces]]
    normals = np.cross(b - a, c - a)
    centers = (a + b + c) / 3.0
    score = float(np.sum(np.einsum("ij,ij->i", normals, centers)))
    if score < 0:
        return [(f[0], f[2], f[1]) for f in faces]
    return faces


def _oracle_residual(verts, faces, n_cols):
    nv = len(verts)
    faces = np.asarray(faces)
    v0, v1, v2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]

    def cot_angle(p, q, r):
        u, w = q - p, r - p
        denom = np.linalg.norm(np.cross(u, w), axis=1)
        return np.einsum("ij,ij->i", u, w) / np.where(denom > 0, denom, 1.0)

    cot0, cot1, cot2 = cot_angle(v0, v1, v2), cot_angle(v1, v2, v0), cot_angle(v2, v0, v1)
    face_normals = np.cross(v1 - v0, v2 - v0)
    areas = 0.5 * np.linalg.norm(face_normals, axis=1)
    lap = np.zeros_like(verts)
    vertex_area = np.zeros(nv)
    vertex_normal = np.zeros_like(verts)
    for (ia, ib), w in (((1, 2), cot0), ((2, 0), cot1), ((0, 1), cot2)):
        a_idx, b_idx = faces[:, ia], faces[:, ib]
        diff = verts[a_idx] - verts[b_idx]
        np.add.at(lap, a_idx, -0.5 * w[:, None] * diff)
        np.add.at(lap, b_idx, 0.5 * w[:, None] * diff)
    np.add.at(vertex_area, faces.ravel(), np.repeat(areas / 3.0, 3))
    np.add.at(vertex_normal, faces.ravel(), np.repeat(face_normals, 3, axis=0))
    with np.errstate(invalid="ignore", divide="ignore"):
        delta = lap / vertex_area[:, None]
    norms = np.linalg.norm(vertex_normal, axis=1)
    unit_n = vertex_normal / np.where(norms > 0, norms, 1.0)[:, None]
    h_disc = np.einsum("ij,ij->i", delta, unit_n)
    x_dot_n = np.einsum("ij,ij->i", verts, unit_n)
    interior = np.ones(nv, dtype=bool)
    interior[:n_cols] = False
    interior[-n_cols:] = False
    resid = np.abs(h_disc[interior] + 0.5 * x_dot_n[interior])
    return float(np.max(resid) / np.max(np.abs(h_disc[interior])))


def _oracle_obj(family, resolution, verts, faces, residual):
    lines = [
        "# radial-graph end mesh",
        f"# family g={family.g} m_minus={family.m_minus} m_plus={family.m_plus} "
        f"n={family.n} theta1={family.theta1!r}",
        f"# resolution {resolution}x{resolution}",
    ]
    if math.isfinite(residual):
        lines.append(f"# discrete shrinker check: max|H_disc + X.nu/2| / max|H_disc| "
                     f"= {residual:.6e}")
    lines += [f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}" for v in verts]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _sphere_grid(n):
    th = np.linspace(0.3, 2.5, n)[:, None]
    psi = 2 * np.pi * np.arange(n)[None, :] / n
    return np.stack([(np.sin(th) * np.cos(psi)).ravel(),
                     (np.sin(th) * np.sin(psi)).ravel(),
                     (np.cos(th) * np.ones_like(psi)).ravel()], axis=1)


class TestMeshOracles:
    @pytest.mark.parametrize("shape", [(2, 3), (8, 8), (5, 11), (72, 72)])
    def test_grid_faces(self, shape):
        faces = _grid_faces(*shape)
        assert faces.shape == (2 * (shape[0] - 1) * shape[1], 3)
        assert np.array_equal(faces, np.array(_oracle_grid_faces(*shape)))

    @pytest.mark.parametrize("shape", [(2, 3), (8, 8), (5, 11), (72, 72)])
    def test_grid_faces_reversed(self, shape):
        faces = _grid_faces(*shape, reverse=True)
        assert faces.dtype == np.int32
        oracle = [(a, c, b) for a, b, c in _oracle_grid_faces(*shape)]
        assert np.array_equal(faces, np.array(oracle))

    @pytest.mark.parametrize("resolution", [8, 72])
    @pytest.mark.parametrize("which", ["fam1", "fam2"])
    def test_residual_matches_oracle_exactly(self, which, resolution, request):
        fam = request.getfixturevalue(which)
        cont = request.getfixturevalue({"fam1": "continued1", "fam2": "continued2"}[which])
        verts, faces = _end_mesh(cont, fam, resolution)
        oracle_faces = _oracle_orient_outward(verts, _oracle_grid_faces(resolution, resolution))
        assert np.array_equal(faces, np.array(oracle_faces))
        assert (discrete_shrinker_residual(verts, faces, resolution)
                == _oracle_residual(verts, oracle_faces, resolution))

    # resolution - 2 interior rows: fewer than one band, one band and a last
    # band of one row, and two whole bands
    @pytest.mark.parametrize("resolution", [_RESIDUAL_BAND_ROWS // 2 + 2,
                                            _RESIDUAL_BAND_ROWS + 3,
                                            2 * _RESIDUAL_BAND_ROWS + 2],
                             ids=["under_one_band", "last_band_one_row", "two_bands"])
    @pytest.mark.parametrize("which", ["fam1", "fam2"])
    def test_residual_band_edges_match_oracle(self, which, resolution, request):
        fam = request.getfixturevalue(which)
        cont = request.getfixturevalue({"fam1": "continued1", "fam2": "continued2"}[which])
        verts, faces = _end_mesh(cont, fam, resolution)
        assert (discrete_shrinker_residual(verts, faces, resolution)
                == _oracle_residual(verts, faces, resolution))

    # row B is the last interior row of the first band and the edge row of
    # the second; rows B .. B + 2 at one point leave the middle row, the
    # second band's first, without area and its curvature 0/0, a nan that
    # Python's max would drop after the first band's finite maxima
    @pytest.mark.parametrize("rows, finite", [((_RESIDUAL_BAND_ROWS,), True),
                                              ((_RESIDUAL_BAND_ROWS, _RESIDUAL_BAND_ROWS + 1,
                                                _RESIDUAL_BAND_ROWS + 2), False)],
                             ids=["row_on_axis", "rows_at_one_point"])
    def test_degenerate_band_matches_oracle(self, fam1, continued1, rows, finite):
        resolution = 2 * _RESIDUAL_BAND_ROWS + 2
        verts, faces = _end_mesh(continued1, fam1, resolution)
        on_axis = verts[rows[0] * resolution, 2]
        for r in rows:
            verts[r * resolution:(r + 1) * resolution] = (0.0, 0.0, on_axis)
        got = discrete_shrinker_residual(verts, faces, resolution)
        want = _oracle_residual(verts, faces, resolution)
        assert math.isfinite(want) == finite
        assert got == want or (math.isnan(got) and math.isnan(want))

    # odd and even sizes; 72^2 = 5184 vertices span more than one text
    # block and are not a multiple of its size; at 100^2 and 256^2 the
    # face indices cross 3, 4 and 5 digits, within blocks and between them
    @pytest.mark.parametrize("resolution", [8, 9, 72, 100, 256])
    @pytest.mark.parametrize("which", ["fam1", "fam2"])
    def test_obj_bytes_match_oracle(self, which, resolution, request, tmp_path):
        fam = request.getfixturevalue(which)
        cont = request.getfixturevalue({"fam1": "continued1", "fam2": "continued2"}[which])
        path = tmp_path / "m.obj"
        res = export_mesh(cont, path, resolution=resolution)
        verts, _ = _end_mesh(cont, fam, resolution)
        faces = _oracle_orient_outward(verts, _oracle_grid_faces(resolution, resolution))
        residual = (_oracle_residual(verts, faces, resolution) if which == "fam1"
                    else float("nan"))
        assert path.read_bytes() == _oracle_obj(fam, resolution, verts, faces, residual)
        assert res.vertex_count == resolution ** 2
        assert res.face_count == len(faces)


class TestCircleSamples:
    """The angular samples of the mesh: exactly symmetric under the
    dihedral symmetries n allows, and correctly rounded."""

    @pytest.mark.parametrize("n", [8, 9, 12, 72, 100, 256, 300, 1024])
    def test_samples_are_exactly_symmetric(self, n):
        c, s = _circle_samples(n)
        j = np.arange(n)

        def turned(k):
            return c[(j + k) % n], s[(j + k) % n]

        # reflection psi -> -psi, always
        assert np.array_equal(c[-j % n], c) and np.array_equal(s[-j % n], -s)
        if n % 2 == 0:   # half-turn psi -> psi + pi
            tc, ts = turned(n // 2)
            assert np.array_equal(tc, -c) and np.array_equal(ts, -s)
        if n % 4 == 0:   # quarter-turn psi -> psi + pi/2
            tc, ts = turned(n // 4)
            assert np.array_equal(tc, -s) and np.array_equal(ts, c)
        if n % 8 == 0:   # octant swap psi -> pi/2 - psi
            assert np.array_equal(c[(n // 4 - j) % n], s)
            assert np.array_equal(s[(n // 4 - j) % n], c)
        assert not np.any(np.signbit(c) & (c == 0)) and not np.any(np.signbit(s) & (s == 0))

    @pytest.mark.parametrize("n", [8, 9, 12, 72, 100, 256, 300, 1024])
    def test_samples_are_at_least_as_accurate_as_the_float_angle(self, n):
        samples = _circle_samples(n)
        psi = 2 * np.pi * np.arange(n) / n
        with mpmath.workdps(100):
            for sample, float_angle, exact in ((samples[0], np.cos(psi), mpmath.cos),
                                              (samples[1], np.sin(psi), mpmath.sin)):
                for j in range(n):
                    ref = exact(2 * mpmath.pi * j / n)
                    err = abs(mpmath.mpf(float(sample[j])) - ref)
                    assert err <= mpmath.mpf(2) ** -53
                    assert err <= abs(mpmath.mpf(float(float_angle[j])) - ref)

    @pytest.mark.parametrize("which", ["fam1", "fam2"])
    def test_grid_rows_have_few_magnitudes(self, which, request):
        """The property the OBJ text's speed rests on: x and y of a grid row
        share at most n/4 + 2 magnitudes."""
        n = 256
        cont = request.getfixturevalue({"fam1": "continued1", "fam2": "continued2"}[which])
        verts, _ = _end_mesh(cont, request.getfixturevalue(which), n)
        for row in verts.reshape(n, n, 3):
            assert len(np.unique(np.abs(row[:, :2]))) <= n // 4 + 2


class TestExportMemory:
    # bytes per vertex at the peak: a whole-mesh check and joined text took
    # 575 (g = 1) and 367 (g = 2); int64 faces, with a reordered copy for
    # g = 1's winding, 144 and 128.  The faces built in one int32 pass,
    # after the coordinate grids are freed, take 109 (g = 1, where the
    # check's band of rows sets the peak) and 68.  numpy reports its
    # buffers to tracemalloc, so the peak is deterministic
    BYTES_PER_VERTEX = 160
    INT32_FACES_BYTES_PER_VERTEX = {"continued1": 112, "continued2": 72}
    RESOLUTION = 256

    def _export_peak(self, cont, path):
        tracemalloc.start()
        try:
            export_mesh(cont, path, resolution=self.RESOLUTION)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("which", ["continued1", "continued2"])
    def test_export_peak_is_bounded_per_vertex(self, which, request, tmp_path):
        peak = self._export_peak(request.getfixturevalue(which), tmp_path / "m.obj")
        assert peak <= self.BYTES_PER_VERTEX * self.RESOLUTION ** 2

    @pytest.mark.parametrize("which", ["continued1", "continued2"])
    def test_export_peak_with_int32_faces(self, which, request, tmp_path):
        peak = self._export_peak(request.getfixturevalue(which), tmp_path / "m.obj")
        assert peak <= self.INT32_FACES_BYTES_PER_VERTEX[which] * self.RESOLUTION ** 2

    def test_export_releases_the_free_heap_before_and_once_written(
            self, continued2, tmp_path, monkeypatch):
        path = tmp_path / "m.obj"
        written = []
        monkeypatch.setattr(geometry_mod, "release_free_heap",
                            lambda: written.append(path.exists()))
        export_mesh(continued2, path, resolution=8)
        assert written == [False, True]


# values a vertex coordinate can take that a naive dedupe would merge or
# print wrongly: both zeros, both NaN signs, infinities, subnormals
_SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                   5e-324, -2.5e-310, 2.2250738585072014e-308]


def _oracle_face_geometry(verts, faces):
    v0, v1, v2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]

    def cot_angle(p, q, r):
        u, w = q - p, r - p
        denom = np.linalg.norm(np.cross(u, w), axis=1)
        return np.einsum("ij,ij->i", u, w) / np.where(denom > 0, denom, 1.0)

    normals = np.cross(v1 - v0, v2 - v0)
    cots = np.stack([cot_angle(v0, v1, v2), cot_angle(v1, v2, v0), cot_angle(v2, v0, v1)])
    return cots, normals, np.linalg.norm(normals, axis=1)


class TestExportKernels:
    """The column-wise face geometry and the deduplicating OBJ text against
    the (F, 3) numpy kernels and the per-row f-string, bit for bit."""

    # row counts one short of, at, and past the text block of 4096 rows
    @settings(max_examples=30)
    @given(n_rows=st.sampled_from([1, 4095, 4096, 4097, 9000]),
           pool=st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=12),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_obj_rows_match_per_row_oracle(self, n_rows, pool, seed):
        # every value with both signs: the text is keyed on the magnitude
        values = np.array(pool + [-x for x in pool] + _SPECIAL_FLOATS)
        # few distinct values, so that they repeat within and across blocks
        rows = values[np.random.default_rng(seed).integers(len(values), size=(n_rows, 3))]
        oracle = "".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in rows.tolist())
        assert "".join(_obj_rows("v %r %r %r\n", rows)) == oracle

    # each block's largest index is top, 10^k - 1 for k = 1 .. 6, written
    # 10^k: so its text crosses 9/10, 99/100, ... 999999/1000000 in one
    # block, and the widest number is just one digit wider than top's;
    # then the largest index of a MAX_RESOLUTION^2 mesh
    @pytest.mark.parametrize("top", [10 ** k - 1 for k in range(1, 7)] + [MAX_RESOLUTION ** 2 - 1],
                             ids=lambda top: f"to_{top}")
    @pytest.mark.parametrize("n_rows", [1, 4095, 4096, 4097, 9000])
    def test_obj_rows_integer_rows_match_per_row_oracle(self, n_rows, top):
        rng = np.random.default_rng(top)
        rows = rng.integers(max(top - 3 * n_rows, 0), top + 1, size=(n_rows, 3), dtype=np.int32)
        rows[::_OBJ_BLOCK_ROWS, :2] = (top - 1, top)
        oracle = "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in rows.tolist())
        assert "".join(_obj_rows("f %d %d %d\n", rows)) == oracle

    def test_face_geometry_matches_numpy_kernels(self):
        verts = np.vstack([_sphere_grid(8), [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]])
        nv = len(verts)
        # the last face is collinear: exact zero area, the denom > 0 branch
        faces = np.vstack([_grid_faces(8, 8), [[nv - 3, nv - 2, nv - 1]]])
        cots, normals, lengths = _face_geometry(verts, faces)
        oracle_cots, oracle_normals, oracle_lengths = _oracle_face_geometry(verts, faces)
        assert oracle_lengths[-1] == 0.0 and oracle_cots[0, -1] == 28.0
        assert np.array_equal(cots, oracle_cots)
        assert np.array_equal(np.stack(normals, axis=1), oracle_normals)
        assert np.array_equal(lengths, oracle_lengths)


def test_residual_pair_consistency(dside1):
    # the two chart residuals are both exact-zero identities for the true
    # solution; their magnitudes at common nodes should be comparable
    a = np.max(np.abs(dside1["eq130_residual"]))
    b = np.max(np.abs(dside1["eq140_residual"]))
    assert a <= 1e-8 and b <= 1e-8
