"""Workload definitions: seeded op sequences, CLI argv and output checks.

Stdlib only at import time, so the worker can time the cold import of
coneshrink (numpy, mpmath included) as part of set-up.

An op is a dict ``{"family", "scale_index", "theta1"}``; the workload turns it
into one or more ``coneshrink`` CLI calls.  ``theta1`` is the built-in value
times a scale drawn from a fixed 21-point grid spanning [0.9, 1.1], so every
draw has an entry in ``reference.json`` recorded at the seed commit.
"""

import json
import os
import random
import re

WORKLOADS = ("catalog_solve", "series_deep", "eps_study_mesh")

# Fixed up front; never narrowed to hide a failing draw.
THETA1_SCALES = tuple(round(0.9 + 0.01 * i, 2) for i in range(21))

SERIES_DEEP_FAMILIES = ("g1_sphere_n2", "g3_m4", "g6_m2")
MESH_FAMILIES = ("g1_sphere_n2", "g2_product_11")

SERIES_DEEP_FLAGS = "--K 32 --precision 256 --gevrey --corrections --N 8 --out -".split()
MESH_SOLVE_FLAGS = "--K 20 --tol 1e-12 --eps-study".split()
MESH_RESOLUTION = 256

# Thresholds for solver monitors: verify's defaults and the acceptance
# criteria (tests/test_acceptance.py criteria 6, 9, 12, 13).
MAX_ENERGY_RESIDUAL = 1e-6
MAX_EQ130_RESIDUAL = 1e-6
MAX_EQ350_DRIFT = 1e-6
PROFILE_REL_TOL = 1e-7
GEOMETRY_REL_TOL = 1e-12
EPS_SLOPE_RANGE = (0.8, 1.2)
EPS_SLOPE_ABS_TOL = 0.02
DISCRETE_RESIDUAL_MAX = 5e-2
DISCRETE_RESIDUAL_REL_TOL = 1e-6
SERIES_REL_TOL = 1e-35       # references keep 40 significant digits
GEVREY_REL_TOL = 1e-9

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _op(family, builtin_theta1, rng):
    if rng is None:
        return {"family": family, "scale_index": None, "theta1": builtin_theta1}
    i = rng.randrange(len(THETA1_SCALES))
    return {"family": family, "scale_index": i,
            "theta1": builtin_theta1 * THETA1_SCALES[i]}


def ref_key(op):
    if op["scale_index"] is None:
        return op["family"]
    return f"{op['family']}@{THETA1_SCALES[op['scale_index']]:.2f}"


class OpStream:
    """Seeded source of ops: a fixed warm-up op, then whole rounds.

    A round is the unit the worker times in: each family of the workload
    appears in it equally often, so a run's medians do not depend on where
    the time limit fell."""

    def __init__(self, workload, seed, builtin_theta1):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.theta = builtin_theta1   # family name -> built-in theta1

    def _round(self):
        rng = self.rng
        if self.workload == "catalog_solve":
            names = sorted(self.theta)
            rng.shuffle(names)
            return [_op(n, self.theta[n], None) for n in names]
        if self.workload == "series_deep":
            names = list(SERIES_DEEP_FAMILIES)
            rng.shuffle(names)
            return [_op(n, self.theta[n], rng) for n in names]
        first = rng.randrange(2)
        names = [MESH_FAMILIES[first], MESH_FAMILIES[1 - first]]
        return [_op(n, self.theta[n], rng) for n in names]

    def warmup(self):
        """The same op for every seed (g1_sphere_n2 at its built-in theta1),
        so set-up time does not depend on which family the seed puts first."""
        name = "g1_sphere_n2"
        scale = None if self.workload == "catalog_solve" else THETA1_SCALES.index(1.0)
        return {"family": name, "scale_index": scale, "theta1": self.theta[name]}

    def rounds(self):
        while True:
            yield self._round()


def family_flags(fam, theta1):
    return ["--g", str(fam.g), "--m-minus", str(fam.m_minus), "--m-plus", str(fam.m_plus),
            "--n", str(fam.n), "--theta1", repr(theta1)]


def op_calls(workload, op, fam, out_dir):
    """The CLI call sequence (list of argv lists) of one op."""
    flags = family_flags(fam, op["theta1"])
    if workload == "catalog_solve":
        return [["solve", *flags, "--out", out_dir]]
    if workload == "series_deep":
        return [["coeffs", *flags, *SERIES_DEEP_FLAGS]]
    return [
        ["solve", *flags, *MESH_SOLVE_FLAGS, "--out", out_dir],
        ["verify", os.path.join(out_dir, "s_side.csv")],
        ["verify", os.path.join(out_dir, "d_side.csv")],
        ["export", os.path.join(out_dir, "d_side.csv"), "--format", "obj",
         "--resolution", str(MESH_RESOLUTION), "--out", out_dir],
    ]


# ---------------------------------------------------------------------------
# Observation: what an op produced, reduced to the fields the checks compare
# ---------------------------------------------------------------------------

def _last_csv_row(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        last = None
        for line in fh:
            if line.strip():
                last = line
    return dict(zip(header, (float(v) for v in last.strip().split(","))))


_EXPORT_RE = re.compile(r"\((\d+) vertices, (\d+) faces, discrete residual (\S+)\)")
_ERROR_RE = re.compile(r"solver failure: (\w+):")


def observe(workload, results, out_dir, series_digits=40):
    """Reduce one op's CLI results [(argv, rc, stdout, stderr)] to a JSON dict.

    Raises OSError/ValueError/KeyError when an expected artifact is missing
    or malformed; the caller counts that as a wrong output."""
    obs = {"exit_codes": [rc for _, rc, _, _ in results]}
    for _, rc, _, stderr in results:
        if rc != 0:
            m = _ERROR_RE.search(stderr)
            obs["error"] = m.group(1) if m else stderr.strip()[-200:]
            return obs
    stdout = results[0][2]
    if workload == "series_deep":
        import mpmath
        rec = json.loads(stdout)
        with mpmath.workdps(100):
            obs["A"] = [mpmath.nstr(mpmath.mpf(v), series_digits) for v in rec["A"]]
            obs["B"] = [mpmath.nstr(mpmath.mpf(v), series_digits) for v in rec["B"]]
        obs["K"] = rec["K"]
        obs["precision_bits"] = rec["precision_bits"]
        obs["gevrey_C_est"] = rec["gevrey_report"]["C_est"]
        obs["gevrey_verdict"] = rec["gevrey_report"]["verdict"]
        return obs
    with open(os.path.join(out_dir, "summary.json"), "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    for key in ("family", "d0", "d_focal", "d_target", "s_end", "max_energy_residual",
                "max_eq130_residual", "max_eq350_drift"):
        obs[key] = summary[key]
    obs["phi_end"] = _last_csv_row(os.path.join(out_dir, "d_side.csv"))["phi"]
    obs["gamma_end"] = _last_csv_row(os.path.join(out_dir, "s_side.csv"))["gamma"]
    if workload == "eps_study_mesh":
        obs["eps_slope"] = summary["eps_study"]["slope"]
        obs["eps_monotone"] = summary["eps_study"]["monotone"]
        obs["verify_passed"] = [rc == 0 and "verification passed" in out
                                for _, rc, out, _ in results[1:3]]
        m = _EXPORT_RE.search(results[3][2])
        if m:
            obs["vertex_count"] = int(m.group(1))
            obs["face_count"] = int(m.group(2))
            res = float(m.group(3))
            obs["discrete_residual"] = res if res == res else None
            with open(os.path.join(out_dir, "end.obj"), "rb") as fh:
                data = fh.read()
            obs["obj_vertex_lines"] = data.count(b"\nv ")
            obs["obj_face_lines"] = data.count(b"\nf ")
    return obs


# ---------------------------------------------------------------------------
# Checks against the reference recorded at the seed commit
# ---------------------------------------------------------------------------

def _rel_close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _check_solve(obs, ref, op, problems):
    """Solve outputs against the reference.  A family whose reference outcome
    is a documented failure has no reference values; if it now solves, only
    its family echo and monitors are checked."""
    if obs["family"]["theta1"] != op["theta1"]:
        problems.append(f"summary theta1 {obs['family']['theta1']!r} != {op['theta1']!r}")
    for key, limit in (("max_energy_residual", MAX_ENERGY_RESIDUAL),
                       ("max_eq130_residual", MAX_EQ130_RESIDUAL),
                       ("max_eq350_drift", MAX_EQ350_DRIFT)):
        if obs[key] is None or not obs[key] <= limit:
            problems.append(f"{key} {obs[key]!r} above {limit:.0e}")
    if ref["exit_codes"][0] != 0:
        return
    for key in ("d0", "d_focal", "s_end", "d_target"):
        if not _rel_close(obs[key], ref[key], GEOMETRY_REL_TOL):
            problems.append(f"{key} {obs[key]!r} != reference {ref[key]!r}")
    for key in ("gamma_end", "phi_end"):
        if not _rel_close(obs[key], ref[key], PROFILE_REL_TOL):
            problems.append(f"{key} {obs[key]!r} != reference {ref[key]!r}")


def _check_series(obs, ref, problems):
    import mpmath
    if obs["K"] != ref["K"] or obs["precision_bits"] != ref["precision_bits"]:
        problems.append("K or precision_bits differ from the reference")
    with mpmath.workdps(100):
        for key in ("A", "B"):
            if len(obs[key]) != len(ref[key]):
                problems.append(f"{key} has {len(obs[key])} entries, reference {len(ref[key])}")
                continue
            for i, (a, b) in enumerate(zip(obs[key], ref[key])):
                x, y = mpmath.mpf(a), mpmath.mpf(b)
                if abs(x - y) > SERIES_REL_TOL * abs(y):
                    problems.append(f"{key}[{i}] = {a} != reference {b}")
                    break
    if obs["gevrey_verdict"] != ref["gevrey_verdict"]:
        problems.append(f"gevrey verdict {obs['gevrey_verdict']!r} != {ref['gevrey_verdict']!r}")
    if not _rel_close(obs["gevrey_C_est"], ref["gevrey_C_est"], GEVREY_REL_TOL):
        problems.append(f"gevrey C_est {obs['gevrey_C_est']!r} != {ref['gevrey_C_est']!r}")


def _check_mesh(obs, ref, problems):
    lo, hi = EPS_SLOPE_RANGE
    if not (lo <= obs["eps_slope"] <= hi
            and abs(obs["eps_slope"] - ref["eps_slope"]) <= EPS_SLOPE_ABS_TOL):
        problems.append(f"eps-study slope {obs['eps_slope']!r}, reference {ref['eps_slope']!r}")
    if obs["eps_monotone"] is not True:
        problems.append("eps-study errors not monotone")
    if obs["verify_passed"] != [True, True]:
        problems.append(f"verify results {obs['verify_passed']}")
    if "vertex_count" not in obs:
        problems.append("export did not report its mesh")
        return
    for key, lines in (("vertex_count", "obj_vertex_lines"), ("face_count", "obj_face_lines")):
        if not obs[key] == obs[lines] == ref[key]:
            problems.append(f"{key} {obs[key]} (file {obs[lines]}), reference {ref[key]}")
    if ref["discrete_residual"] is not None:
        r = obs["discrete_residual"]
        if r is None or not (r <= DISCRETE_RESIDUAL_MAX and _rel_close(
                r, ref["discrete_residual"], DISCRETE_RESIDUAL_REL_TOL)):
            problems.append(f"discrete residual {r!r}, reference {ref['discrete_residual']!r}")


def check(workload, op, obs, ref):
    """Return (solved, problems).

    ``solved`` is true when every CLI call exited 0.  ``problems`` lists wrong
    outputs; an exit code counts as wrong unless it is 0 or the documented
    outcome recorded in the reference (exit 4 for the families whose
    continuation meets a vertical tangent before the default target)."""
    problems = []
    codes = obs["exit_codes"]
    solved = all(rc == 0 for rc in codes)
    if ref is None:
        return solved, [f"no reference for {ref_key(op)}"]
    if not solved:
        if codes != ref["exit_codes"] or obs.get("error") != ref.get("error"):
            problems.append(f"exit codes {codes} ({obs.get('error')}), "
                            f"reference {ref['exit_codes']} ({ref.get('error')})")
        return solved, problems
    try:
        if workload == "series_deep":
            _check_series(obs, ref, problems)
        else:
            _check_solve(obs, ref, op, problems)
            if workload == "eps_study_mesh":
                _check_mesh(obs, ref, problems)
    except KeyError as exc:
        problems.append(f"reference or output lacks {exc}")
    return solved, problems


def load_reference(path=REFERENCE_PATH):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
