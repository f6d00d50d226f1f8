"""Byte-identity sweep of the CLI outputs of two commits.

    python3 tools/output_sweep.py [--base HEAD~1] [--head HEAD] [--workdir DIR]

Run from the root of the repository.  Exports both commits the way
``tools/bench_pairs.py`` does (its ``export``) into fresh directories
under ``--workdir`` (the system temporary directory by default), runs one
fixed list of ``coneshrink`` calls against each, one process per call,
and compares, call by call, the exit code, stdout and stderr (the run
directory's path replaced by ``<run>``) and the sha256 of every file the
calls leave behind.  The calls:

- solve sweep (46 calls): default ``solve`` on the 14 built-ins at theta1
  x{0.93, 1.00, 1.07}, and ``solve --K 20 --tol 1e-12 --eps-study`` on
  g1_sphere_n2 and g2_product_11 at theta1 x{0.95, 1.00};
- mesh sweep (104 calls): on g1_sphere_n2 and g2_product_11 at theta1
  x{0.90, 0.95, 1.00, 1.05, 1.10}, ``solve --K 20 --tol 1e-12
  --eps-study``, ``verify`` of both profiles, ``export --format obj``
  of the d-side profile at resolutions 8, 64, 128, 256 and 300 (and at
  theta1 x1.00 also at 512 and 1024, the largest), and ``export --format
  csv`` and ``--format json`` of the d-side profile;
- coeffs sweep (84 calls): on the 14 built-ins at theta1 x{0.93, 1.00,
  1.07}, ``coeffs --K 32 --precision 256 --gevrey --corrections --N 8
  --out -`` (the series_deep benchmark's flags), and the default ``coeffs
  --format json --out -``, which prints the 117-bit shadow run's
  ``rel_error_estimates``;
- eq030 sweep (57 calls): on the 14 built-ins at theta1 x1.00, ``solve
  --profile-mode eq030``, ``verify`` of both profiles, and ``coeffs --K 32
  --precision 256 --corrections --N 8 --profile-mode eq030 --out -``; and
  one ``solve --profile-mode eq030 --to-d d0+0.01`` of a family whose
  eq030 profile is not mean convex and has no d0 (exit 2, from the s-side
  run, before the target is resolved);
- config sweep (12 calls): on g1_sphere_n2 and g2_product_11 at theta1
  x1.00, ``coeffs`` and ``solve`` with the ``--config`` files of
  ``CONFIG_FILES``, written to the run directory first.  They set an int
  key spelled as a float, true and false booleans, a choice key, a float
  key and a ``--to-d`` expression; three of the six files go with flags
  that override them;
- catalog sweep (44 calls): ``catalog``, ``catalog --check`` of the 14
  built-ins at the solve sweep's theta1 scales, and one ``--check`` of a
  family that is not mean convex (exit 2);
- window sweep (5 calls): ``solve --to-d X`` on the five families whose
  default solve meets a vertical tangent, at theta1 x1.00, with X of
  ``WINDOW_TARGETS`` 1e-4 below the tangent: the tangent probe runs and
  the curve reaches the target first;
- corrections sweep (28 calls): on the 14 built-ins at theta1 x1.00,
  ``coeffs --corrections --N 8 --out -`` at the default 53 bits, where
  the corrections run on floats and the g >= 3 families exit 4 with a
  ``DivisionByEpsilonFailed`` or ``NonlinearDependence`` message, and at
  ``--precision 128``, a second mpmath precision;
- precision sweep (16 calls): at theta1 x1.00, ``solve --precision 128``
  on the 14 built-ins, and ``solve --precision 128 --K 20 --tol 1e-12
  --eps-study`` on g1_sphere_n2 and g2_product_11: the bootstrap scan,
  ``evaluate_truncated`` and the eps study on an mpmath series;
- fallback sweep (9 calls): at theta1 x1.00, ``solve --precision 128
  --eps-study --to-d d0`` on the 9 g >= 3 built-ins.  Before
  ``integrate_gamma`` lost its implicit fallback, 5 of these calls entered
  it (g3_m2, g3_m8, g4_m11, g4_m45, g6_m2), and each entry ended in
  ``OutOfRange``: the sweep shows that the deletion moves no output.

405 calls in all.

Prints every difference and exits 1 if there is one, else 0.  A stdout
that parses as JSON on both sides, with the same keys and list lengths, is
compared leaf by leaf: one line per differing key path (list indices
dropped), with the largest relative and absolute move of its numbers,
decimal strings read exactly.  A ``.obj`` artifact that differs is read on
both sides: whether its ``f`` lines are byte-identical, both ``v``-line
counts, each header line that differs, and the largest absolute move of
a vertex coordinate, also relative to the vertex's largest coordinate
magnitude; a last line sums this up over all of them.  A ``.csv``
artifact that differs is read on both sides: both row counts, and per
column the largest relative and absolute move of its numbers, over every
row when the counts agree and over the last row, where a run ends (step
control may shift a solve's nodes while its end stays put); a ``.json``
artifact that differs is compared as stdout JSON is.  Per artifact name
(e.g. ``s_side.csv``), a last line per column or key path gives the
largest relative and absolute move over all the artifacts of that name.
Any other artifact that differs prints both sha256, and any other
difference prints both sides.  The exports are removed at the end, also
on failure.
"""

import argparse
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import export  # noqa: E402

CALL_TIMEOUT_S = 300.0
SOLVE_SCALES = (0.93, 1.00, 1.07)
EPS_STUDY_SCALES = (0.95, 1.00)
MESH_SCALES = (0.90, 0.95, 1.00, 1.05, 1.10)
MESH_FAMILIES = ("g1_sphere_n2", "g2_product_11")
MESH_RESOLUTIONS = (8, 64, 128, 256, 300)
# exported at theta1 x1.00 only: a 1024^2 OBJ file is about 110 MB
LARGE_MESH_RESOLUTIONS = (512, 1024)
EPS_STUDY_FLAGS = ["--K", "20", "--tol", "1e-12", "--eps-study"]
COEFFS_FLAGS = {
    "coeffs_deep": ["--K", "32", "--precision", "256", "--gevrey", "--corrections",
                    "--N", "8", "--out", "-"],
    "coeffs": ["--format", "json", "--out", "-"],
}
EQ030_FLAGS = ["--profile-mode", "eq030"]
# a valid family whose eq030 H(0) < 0 (its cot-sum H(0) > 0), with a target relative to d0
NOT_MEAN_CONVEX_EQ030_SOLVE = ["solve", "--g", "2", "--m-minus", "1", "--m-plus", "2", "--n", "4",
                               "--theta1", "0.95", *EQ030_FLAGS, "--to-d", "d0+0.01"]
# g = 2, m = 1 in S^3 at theta1 past pi/4, where H(0) < 0
NOT_MEAN_CONVEX_CHECK = ["g=2", "m=1", "n=3", "theta1=1.04"]
CORRECTIONS_FLAGS = {
    "corrections_53": ["--corrections", "--N", "8", "--out", "-"],
    "corrections_128": ["--precision", "128", "--corrections", "--N", "8", "--out", "-"],
}
PRECISION_FLAGS = ["--precision", "128"]
FALLBACK_FLAGS = [*PRECISION_FLAGS, "--eps-study", "--to-d", "d0"]
EQ030_COEFFS_FLAGS = ["--K", "32", "--precision", "256", "--corrections", "--N", "8",
                      *EQ030_FLAGS, "--out", "-"]

# config file name -> (its text, the flags of its call after the family's)
CONFIG_FILES = {
    "int_as_float.cfg": ("K = 6.0\ngevrey = yes\n", ["coeffs", "--out", "-"]),
    "choice.cfg": ("profile_mode = eq030\nK = 32\nN = 8\nprecision = 256\n"
                   "corrections = true\ngevrey = no\n", ["coeffs", "--out", "-"]),
    "overridden.cfg": ("K = 6\nN = 4\nprofile_mode = eq030\nformat = json\n",
                       ["coeffs", "--K", "12", "--profile-mode", "cot_sum", "--corrections",
                        "--out", "-"]),
    "solve.cfg": ("K = 20.0\ntol = 1e-12\neps_study = yes\nto_d = d0+0.02\n", ["solve"]),
    "solve_overridden.cfg": ("tol = 1e-8\nprofile_mode = eq030\nto_d = d0\n",
                             ["solve", "--tol", "1e-11", "--profile-mode", "cot_sum"]),
    "solve_to_d_overridden.cfg": ("K = 30\nto_d = d0+0.01\n", ["solve", "--to-d", "d0+0.03"]),
}

# d 1e-4 below the vertical tangent of each window family's default solve
WINDOW_TARGETS = {"g3_m8": "0.29906", "g4_m22": "0.22983", "g4_m45": "0.24285",
                  "g6_m1": "0.14340", "g6_m2": "0.13678"}

CATALOG_SCRIPT = ("import json; from coneshrink.catalog import builtin_catalog; "
                  "print(json.dumps({k: [f.g, f.m_minus, f.m_plus, f.n, f.theta1] "
                  "for k, f in builtin_catalog().items()}))")


def _env(checkout):
    return dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))


def family_flags(family, scale):
    g, m_minus, m_plus, n, theta1 = family
    return ["--g", str(g), "--m-minus", str(m_minus), "--m-plus", str(m_plus),
            "--n", str(n), "--theta1", repr(theta1 * scale)]


def check_tokens(family, scale):
    g, m_minus, m_plus, n, theta1 = family
    return [f"g={g}", f"m_minus={m_minus}", f"m_plus={m_plus}", f"n={n}",
            f"theta1={theta1 * scale!r}"]


def calls(catalog):
    """(run label, argv) pairs; argv paths are relative to the run directory."""
    out = []
    for name, family in catalog.items():
        for scale in SOLVE_SCALES:
            label = f"solve/{name}@{scale:.2f}"
            out.append((label, ["solve", *family_flags(family, scale), "--out", label]))
    for name in MESH_FAMILIES:
        for scale in EPS_STUDY_SCALES:
            label = f"eps_study/{name}@{scale:.2f}"
            out.append((label, ["solve", *family_flags(catalog[name], scale),
                                *EPS_STUDY_FLAGS, "--out", label]))
    for name in MESH_FAMILIES:
        for scale in MESH_SCALES:
            run = f"mesh/{name}@{scale:.2f}"
            out.append((run, ["solve", *family_flags(catalog[name], scale),
                              *EPS_STUDY_FLAGS, "--out", run]))
            for side in ("s_side", "d_side"):
                out.append((f"{run}/verify_{side}", ["verify", f"{run}/{side}.csv"]))
            for res in MESH_RESOLUTIONS + (LARGE_MESH_RESOLUTIONS if scale == 1.00 else ()):
                out.append((f"{run}/obj_{res}",
                            ["export", f"{run}/d_side.csv", "--format", "obj",
                             "--resolution", str(res), "--out", f"{run}/obj_{res}"]))
            for fmt in ("csv", "json"):
                out.append((f"{run}/profile_{fmt}",
                            ["export", f"{run}/d_side.csv", "--format", fmt,
                             "--out", f"{run}/profile_{fmt}"]))
    for name, family in catalog.items():
        for scale in SOLVE_SCALES:
            for kind, flags in COEFFS_FLAGS.items():
                out.append((f"{kind}/{name}@{scale:.2f}",
                            ["coeffs", *family_flags(family, scale), *flags]))
    for name, family in catalog.items():
        run = f"eq030/{name}@1.00"
        out.append((run, ["solve", *family_flags(family, 1.0), *EQ030_FLAGS, "--out", run]))
        for side in ("s_side", "d_side"):
            out.append((f"{run}/verify_{side}", ["verify", f"{run}/{side}.csv"]))
        out.append((f"eq030_coeffs/{name}@1.00",
                    ["coeffs", *family_flags(family, 1.0), *EQ030_COEFFS_FLAGS]))
    out.append(("eq030/not_mean_convex", [*NOT_MEAN_CONVEX_EQ030_SOLVE,
                                          "--out", "eq030/not_mean_convex"]))
    for name in MESH_FAMILIES:
        for cfg, (_, (command, *flags)) in CONFIG_FILES.items():
            label = f"config/{name}@1.00/{cfg}"
            argv = [command, *family_flags(catalog[name], 1.0), "--config", cfg, *flags]
            out.append((label, argv + (["--out", label] if command == "solve" else [])))
    out.append(("catalog", ["catalog"]))
    for name, family in catalog.items():
        for scale in SOLVE_SCALES:
            out.append((f"catalog_check/{name}@{scale:.2f}",
                        ["catalog", "--check", *check_tokens(family, scale)]))
    out.append(("catalog_check/not_mean_convex", ["catalog", "--check", *NOT_MEAN_CONVEX_CHECK]))
    for name, d_target in WINDOW_TARGETS.items():
        label = f"window/{name}@1.00"
        out.append((label, ["solve", *family_flags(catalog[name], 1.0), "--to-d", d_target,
                            "--out", label]))
    for kind, flags in CORRECTIONS_FLAGS.items():
        for name, family in catalog.items():
            out.append((f"{kind}/{name}@1.00", ["coeffs", *family_flags(family, 1.0), *flags]))
    for name, family in catalog.items():
        label = f"precision/{name}@1.00"
        out.append((label, ["solve", *family_flags(family, 1.0), *PRECISION_FLAGS,
                            "--out", label]))
    for name in MESH_FAMILIES:
        label = f"precision_eps_study/{name}@1.00"
        out.append((label, ["solve", *family_flags(catalog[name], 1.0), *PRECISION_FLAGS,
                            *EPS_STUDY_FLAGS, "--out", label]))
    for name, family in catalog.items():
        if family[0] >= 3:
            label = f"fallback/{name}@1.00"
            out.append((label, ["solve", *family_flags(family, 1.0), *FALLBACK_FLAGS,
                                "--out", label]))
    return out


def _run_dir(checkout):
    return os.path.join(checkout, "sweep_runs")


def run_calls(checkout, call_list):
    """Per call: exit code and normalised stdout/stderr; per file left in
    the run directory: its sha256."""
    run_dir = _run_dir(checkout)
    os.makedirs(run_dir)
    for cfg, (text, _) in CONFIG_FILES.items():
        with open(os.path.join(run_dir, cfg), "w", encoding="utf-8") as fh:
            fh.write(text)
    records = {}
    for label, argv in call_list:
        proc = subprocess.run(
            [sys.executable, "-c", "from coneshrink.cli import entry; entry()", *argv],
            cwd=run_dir, env=_env(checkout), capture_output=True, text=True,
            timeout=CALL_TIMEOUT_S)
        records[label] = {"exit": proc.returncode,
                          "stdout": proc.stdout.replace(run_dir, "<run>"),
                          "stderr": proc.stderr.replace(run_dir, "<run>")}
    hashes = {}
    for root, _, files in os.walk(run_dir):
        for name in files:
            path = os.path.join(root, name)
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            hashes[os.path.relpath(path, run_dir)] = digest.hexdigest()
    return records, hashes


def _leaves(value, path=""):
    """(key path, leaf) pairs of a parsed JSON value, list indices dropped."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item, f"{path}[]")
    else:
        yield path, value


def _number(value):
    """A JSON number or decimal string as an exact Fraction, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        return Fraction(value)
    except (ValueError, OverflowError):
        return None


def json_moves(base, head):
    """Per differing key path of two JSON texts, the largest relative and
    absolute move of its numbers (None for a leaf that is not a number);
    None if either text is not JSON or their keys and lengths differ."""
    try:
        base_leaves = list(_leaves(json.loads(base)))
        head_leaves = list(_leaves(json.loads(head)))
    except ValueError:
        return None
    if [p for p, _ in base_leaves] != [p for p, _ in head_leaves]:
        return None
    moves = {}
    for (path, b), (_, h) in zip(base_leaves, head_leaves):
        if b == h and type(b) is type(h):
            continue
        x, y = _number(b), _number(h)
        if x is None or y is None:
            moves[path] = None
            continue
        move = abs(x - y)
        rel = move / max(abs(x), abs(y)) if move else move
        if path not in moves:
            moves[path] = (rel, move)
        elif moves[path] is not None:
            moves[path] = max(moves[path][0], rel), max(moves[path][1], move)
    return moves


def _row_moves(header, base_rows, head_rows):
    """Per column, the largest relative and absolute move of its numbers
    over the paired rows, read exactly as decimal text; None if a cell that
    is not a number differs."""
    moves = {}
    for name, *pairs in zip(header, *(zip(b, h) for b, h in zip(base_rows, head_rows))):
        rel = move = Fraction(0)
        for b, h in pairs:
            x, y = _number(b), _number(h)
            if x is None or y is None:
                if b != h:
                    return None
                continue
            d = abs(x - y)
            if d:
                move = max(move, d)
                rel = max(rel, d / max(abs(x), abs(y)))
        if move:
            moves[name] = (rel, move)
    return moves


def csv_moves(base_path, head_path):
    """Both row counts of two CSV files, and per column of their common
    header the largest relative and absolute move of its numbers over every
    row (None when the counts differ) and over the last row, the end of each
    run: step control may shift a solve's nodes while its end stays put.
    Both moves are None if the headers differ, and either is None if a cell
    that is not a number differs in its rows."""
    tables = []
    for path in (base_path, head_path):
        with open(path, encoding="utf-8") as fh:
            header, *rows = (line.rstrip("\n").split(",") for line in fh if line.strip())
        tables.append((header, rows))
    (header, base_rows), (head_header, head_rows) = tables
    counts = (len(base_rows), len(head_rows))
    if header != head_header:
        return counts, None, None
    every = _row_moves(header, base_rows, head_rows) if counts[0] == counts[1] else None
    return counts, every, _row_moves(header, base_rows[-1:], head_rows[-1:])


def _moves_text(moves):
    return "; ".join(f"{name} {float(rel):.3e} relative, {float(move):.3e} absolute"
                     for name, (rel, move) in moves.items())


def _obj_vertex_lines(path):
    with open(path, encoding="utf-8") as fh:
        yield from (line for line in fh if line.startswith("v "))


def obj_moves(base_path, head_path):
    """What differs between two OBJ files: whether their ``f`` lines are
    byte-identical, their ``v``-line counts, the (index, base, head) of each
    header line that differs, and the largest move of a vertex coordinate,
    relative to the vertex's largest coordinate magnitude on either side
    and absolute (None if the counts differ).  Both files are read as
    streams, a 1024^2 mesh being about 110 MB."""
    face_digests, counts, headers = [], [], []
    for path in (base_path, head_path):
        digest, count, header = hashlib.sha256(), 0, []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("f "):
                    digest.update(line.encode())
                elif line.startswith("v "):
                    count += 1
                elif line.startswith("#"):
                    header.append(line)
        face_digests.append(digest.digest())
        counts.append(count)
        headers.append(header)
    header_moves = [(i, b, h) for i, (b, h) in
                    enumerate(itertools.zip_longest(*headers, fillvalue="")) if b != h]
    move = None
    if counts[0] == counts[1]:
        rel = move_abs = 0.0
        for b, h in zip(_obj_vertex_lines(base_path), _obj_vertex_lines(head_path)):
            if b == h:
                continue
            # round-trip text, so float() is exact; a move is relative to
            # the vertex's largest coordinate, as a coordinate that should
            # be 0 may read 1e-16 on one side
            xs, ys = ([float(t) for t in line.split()[1:]] for line in (b, h))
            d = max(abs(x - y) for x, y in zip(xs, ys))
            if d:   # 0 where only the sign of a zero moved
                move_abs = max(move_abs, d)
                rel = max(rel, d / max(map(abs, xs + ys)))
        move = (rel, move_abs)
    return face_digests[0] == face_digests[1], counts, header_moves, move


def _obj_difference(path, report):
    faces_same, counts, header_moves, move = report
    text = (f"{path}: f lines {'identical' if faces_same else 'differ'}; "
            f"v lines base {counts[0]} head {counts[1]}")
    if move is not None:
        text += f"; vertices moved by up to {move[0]:.3e} relative, {move[1]:.3e} absolute"
    for i, b, h in header_moves:
        for side, line in (("base", b), ("head", h)):
            text += f"\n  header line {i + 1} {side}: {line.rstrip()!r}"
    return text


def obj_summary(reports):
    """One line over the ``obj_moves`` reports of every differing OBJ."""
    moves = [move for _, _, _, move in reports if move is not None]
    return (f"{len(reports)} .obj artifact(s) differ: f lines identical in "
            f"{sum(r[0] for r in reports)}, v-line counts equal in {len(moves)}, "
            f"a header line differs in {sum(bool(r[2]) for r in reports)}; largest vertex "
            f"move {max((m[0] for m in moves), default=0.0):.3e} relative, "
            f"{max((m[1] for m in moves), default=0.0):.3e} absolute")


def numeric_summary(moves_by_name):
    """Lines of the largest relative and absolute move per artifact name and
    column or key path, over ``moves_by_name``: (artifact name, moves)
    pairs, the moves as ``csv_moves`` or ``json_moves`` give them."""
    top = {}
    for name, moves in moves_by_name:
        for key, move in moves.items():
            if move is None:
                continue
            rel, absolute = top.get((name, key), (0, 0))
            top[name, key] = max(rel, move[0]), max(absolute, move[1])
    return [f"largest move in {name} {key}: {float(rel):.3e} relative, "
            f"{float(absolute):.3e} absolute"
            for (name, key), (rel, absolute) in sorted(top.items())]


def _artifact_difference(path, paths, obj_reports, numeric):
    """The line for one differing artifact present on both sides; reads
    ``.obj``, ``.csv`` and ``.json`` files, recording their moves."""
    if path.endswith(".obj"):
        obj_reports.append(obj_moves(*paths))
        return _obj_difference(path, obj_reports[-1])
    name = os.path.basename(path)
    if path.endswith(".csv"):
        counts, every, last = csv_moves(*paths)
        text = f"{path}: rows base {counts[0]} head {counts[1]}"
        if last is None:
            return text + "; headers or cells differ"
        if every is None and counts[0] == counts[1]:
            text += "; every row: a cell that is not a number differs"
        for label, moves in (("every row", every), ("last row", last)):
            if moves is not None:
                numeric.append((f"{name} ({label})", moves))
                text += f"; {label}: {_moves_text(moves) or 'no number moved'}"
        return text
    if path.endswith(".json"):
        texts = []
        for p in paths:
            with open(p, encoding="utf-8") as fh:
                texts.append(fh.read())
        moves = json_moves(*texts)
        if moves:
            numeric.append((name, moves))
            return "\n".join(f"{path}: {key} differs" if move is None else
                             f"{path}: {key} moved by up to {float(move[0]):.3e} relative, "
                             f"{float(move[1]):.3e} absolute" for key, move in moves.items())
    return None


def differences(base, head, run_dirs):
    """Lines naming every call field and artifact that differ, the
    ``obj_moves`` reports of the ``.obj`` artifacts among them, and the
    (artifact name, moves) of the ``.csv`` and ``.json`` ones;
    ``run_dirs`` are the base and head run directories."""
    (base_calls, base_files), (head_calls, head_files) = base, head
    lines = []
    for label, rec in base_calls.items():
        for key in ("exit", "stdout", "stderr"):
            if rec[key] == head_calls[label][key]:
                continue
            moves = json_moves(rec[key], head_calls[label][key]) if key == "stdout" else None
            if not moves:
                lines.append(f"{label}: {key} differs\n  base: {rec[key]!r}\n"
                             f"  head: {head_calls[label][key]!r}")
                continue
            for path, move in moves.items():
                lines.append(f"{label}: {key} {path} differs" if move is None else
                             f"{label}: {key} {path} moved by up to {float(move[0]):.3e} "
                             f"relative, {float(move[1]):.3e} absolute")
    obj_reports, numeric = [], []
    for path in sorted(set(base_files) | set(head_files)):
        b, h = base_files.get(path), head_files.get(path)
        if b == h:
            continue
        line = None
        if b and h:
            paths = [os.path.join(d, path) for d in run_dirs]
            line = _artifact_difference(path, paths, obj_reports, numeric)
        lines.append(line or f"{path}: sha256 base {b} head {h}")
    return lines, obj_reports, numeric


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD~1")
    p.add_argument("--head", default="HEAD")
    p.add_argument("--workdir", default=None)
    args = p.parse_args(argv)
    top = tempfile.mkdtemp(prefix="output_sweep-", dir=args.workdir)
    try:
        dirs = {"base": os.path.join(top, "base"), "head": os.path.join(top, "head")}
        commits = {side: export(getattr(args, side), d) for side, d in dirs.items()}
        catalog = json.loads(subprocess.run(
            [sys.executable, "-c", CATALOG_SCRIPT], env=_env(dirs["base"]),
            capture_output=True, text=True, check=True).stdout)
        call_list = calls(catalog)
        results = {side: run_calls(d, call_list) for side, d in dirs.items()}
        lines, obj_reports, numeric = differences(results["base"], results["head"],
                                                  [_run_dir(d) for d in dirs.values()])
    finally:
        shutil.rmtree(top, ignore_errors=True)
    for line in lines:
        print(line)
    if obj_reports:
        print(obj_summary(obj_reports))
    for line in numeric_summary(numeric):
        print(line)
    n_files = len(set(results["base"][1]) | set(results["head"][1]))
    print(f"base {commits['base'][:12]} head {commits['head'][:12]}: {len(call_list)} calls, "
          f"{n_files} artifacts, {len(lines)} difference(s)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
