"""Command-line surface: catalog, coeffs, solve, verify, export.

Exit codes are a stable contract:
  0 success, 2 family constraint violation, 3 precision exhausted,
  4 solver failure, 5 verification failure, 6 I/O failure.

A flat key=value config file mirrors the long flags; explicit flags win, and
a bad line exits 2 as the flag would.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from . import geometry, ivp, series as series_mod
from .catalog import (
    COT_SUM,
    EQ030_LITERAL,
    CurvatureProfile,
    builtin_catalog,
    make_family,
    mean_curvature,
)
from .errors import (
    ConeShrinkError,
    ConstraintViolation,
    ExportIOError,
    NotMeanConvex,
    OutOfRange,
    PrecisionExhausted,
)
from .numutil import atomic_write_text, decimal_str, lazy_numpy

np = lazy_numpy()

EXIT_OK = 0
EXIT_CONSTRAINT = 2
EXIT_PRECISION = 3
EXIT_SOLVER = 4
EXIT_VERIFY = 5
EXIT_IO = 6

def _precision(args):
    """Working precision in bits: --precision (or its config key), else 53;
    OutOfRange for anything below 1 bit."""
    if args.precision is None:
        return 53
    bits = args.precision
    if bits < 1:
        source = "--precision" if args.config is None else f"--precision or {args.config}"
        raise OutOfRange(f"precision {bits} from {source} is below 1 bit")
    return bits


def _setting(text):
    """One ``key = value`` setting: a config-file line or a catalog --check token."""
    key, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text.strip()!r}")
    return key.strip().replace("-", "_"), value.strip()


# the family fields of catalog --check, converted as their flags are
_CHECK_FIELDS = {"g": int, "m": int, "m_minus": int, "m_plus": int, "n": int, "theta1": float}


def _check_setting(token):
    """One catalog --check token as (field, number); an unknown field or a
    bad number is a usage error, as in a config file."""
    key, value = _setting(token)
    if key not in _CHECK_FIELDS:
        raise argparse.ArgumentTypeError(f"unknown key {key!r}")
    try:
        return key, _CHECK_FIELDS[key](value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{key}: invalid number {value!r}") from None


def _family_from_args(args):
    m_minus = args.m_minus if args.m_minus is not None else args.m
    m_plus = args.m_plus if args.m_plus is not None else args.m
    if m_minus is None or m_plus is None:
        raise ConstraintViolation("missing_multiplicity",
                                  "supply --m or both --m-minus and --m-plus")
    if args.theta1 is None:
        raise ConstraintViolation("missing_theta1", "supply --theta1")
    return make_family(args.g, int(m_minus), int(m_plus), args.n, args.theta1)


def _add_shared_flags(p):
    """Flags that coeffs and solve both read; returns their actions."""
    return [
        p.add_argument("--g", type=int, required=False),
        p.add_argument("--m", type=int, default=None, help="both multiplicities at once"),
        p.add_argument("--m-minus", dest="m_minus", type=int, default=None),
        p.add_argument("--m-plus", dest="m_plus", type=int, default=None),
        p.add_argument("--n", type=int),
        p.add_argument("--theta1", type=float),
        p.add_argument("--config", default=None, help="flat key=value file; flags override"),
        p.add_argument("--precision", type=int, default=None, help="working precision, bits"),
        p.add_argument("--K", type=int, default=series_mod.DEFAULT_K, help="series order"),
        p.add_argument("--N", type=int, default=8, help="correction order"),
        p.add_argument("--profile-mode", dest="profile_mode",
                       choices=["cot_sum", "eq030"], default="cot_sum"),
        p.add_argument("--out", default=".", help="output directory"),
    ]


# the spellings of a boolean config value, case-insensitive
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_flag(action, raw):
    """A config-file value as the arguments of its flag: a true boolean is
    the bare flag and a false one none; int keys take a float spelling.
    Other values stay text, for argparse to convert as it does a flag's."""
    flag = action.option_strings[0]
    if isinstance(action.default, bool):
        if raw.lower() not in _BOOLEANS:
            raise ValueError(f"{action.dest} = {raw!r}: choose from {', '.join(_BOOLEANS)}")
        return [flag] if _BOOLEANS[raw.lower()] else []
    if action.type is int:
        raw = str(int(float(raw)))
    elif action.type is float:
        float(raw)   # a bad number names its line here, not in argparse
    elif action.choices is not None and raw not in action.choices:
        raise ValueError(f"{action.dest} = {raw!r}: choose from {', '.join(action.choices)}")
    return [f"{flag}={raw}"]


def _config_args(subparser, actions, path):
    """The config file's settings as flag arguments, the last line of each
    key winning, to go before the command line's own flags: argparse keeps
    the last occurrence, so every flag given on the command line wins.  A
    bad line, or a file that is not UTF-8, is a usage error of the
    subcommand (exit 2), as the same flag would be."""
    by_dest = {a.dest: a for a in actions}
    settings = {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            subparser.error(f"{path}: {exc}")
    for ln, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0]
        if not line.strip():
            continue
        try:
            key, raw = _setting(line)
            if key not in by_dest:
                raise ValueError(f"unknown key {key!r}")
            settings[key] = _config_flag(by_dest[key], raw)
        except (argparse.ArgumentTypeError, ValueError, OverflowError) as exc:
            subparser.error(f"{path}:{ln}: {exc}")
    return [arg for flag_args in settings.values() for arg in flag_args]


def _mode(args):
    return EQ030_LITERAL if args.profile_mode == "eq030" else COT_SUM


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def cmd_catalog(args):
    if args.check is not None:
        spec = dict.fromkeys(_CHECK_FIELDS)
        spec.update(args.check)
        fam = _family_from_args(argparse.Namespace(**spec))
        h0 = CurvatureProfile(fam).h0
        print(f"valid family: g={fam.g} m_minus={fam.m_minus} m_plus={fam.m_plus} "
              f"n={fam.n} theta1={fam.theta1!r}")
        print(f"d_focal = {fam.d_focal!r}")
        print(f"d0 = {fam.d0!r}")
        print(f"H(0) = {h0!r}")
        return EXIT_OK
    print(f"{'name':<16}{'g':>3}{'m-':>4}{'m+':>4}{'n':>4}  "
          f"{'theta1':<22}{'d0':<22}{'H(0)':<22}")
    for name, fam in builtin_catalog().items():
        h0 = CurvatureProfile(fam).h0
        print(f"{name:<16}{fam.g:>3}{fam.m_minus:>4}{fam.m_plus:>4}{fam.n:>4}  "
              f"{fam.theta1:<22.17g}{fam.d0:<22.17g}{h0:<22.17g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------

def cmd_coeffs(args):
    curvature = CurvatureProfile(_family_from_args(args), _mode(args))
    prec = _precision(args)
    fs = series_mod.compute_coefficients(curvature, args.K, prec)
    record = series_mod.series_to_json_dict(fs)
    if args.corrections:
        corr = series_mod.compute_epsilon_corrections(fs, args.N)
        record["B"] = [decimal_str(b, prec) for b in corr.B]
    if args.gevrey:
        rep = series_mod.gevrey_diagnostics(fs)
        record["gevrey_report"] = {
            "C_est": rep.C_est, "verdict": rep.verdict,
            "max_late": rep.max_late, "median_late": rep.median_late,
            "median_mid": rep.median_mid,
        }
    text = json.dumps(record, indent=2)
    if args.out and args.out != "-":
        os.makedirs(args.out, exist_ok=True)
        if args.format == "csv":
            lines = ["k,A_k"] + [f"{k + 1},{v}" for k, v in enumerate(record["A"])]
            atomic_write_text(os.path.join(args.out, "coeffs.csv"), "\n".join(lines) + "\n")
        atomic_write_text(os.path.join(args.out, "coeffs.json"), text + "\n")
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _d_target(expr):
    """The --to-d value: 'd0', 'd0+x', 'd0-x' or a number x, as the pair
    (relative to d0, x)."""
    expr = expr.strip()
    relative = expr.startswith("d0")
    number = (expr[2:].replace(" ", "") or "0") if relative else expr
    try:
        return relative, float(number)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected d0, d0+x, d0-x or a number x, got {expr!r}") from None


def cmd_solve(args):
    curvature = CurvatureProfile(_family_from_args(args), _mode(args))
    prec = _precision(args)
    config = ivp.SolverConfig(tol=args.tol, correction_N=args.N)
    out = args.out
    # made before the solve, so that an unwritable --out exits 6 at once;
    # what this call made goes again if the solve fails
    made = _missing_dirs(out)
    os.makedirs(out, exist_ok=True)
    try:
        run = ivp.solve(curvature, config, args.K, prec, to_d=args.to_d,
                        eps_list=ivp.DEFAULT_EPS_LIST if args.eps_study else None)
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    ivp.write_profile_csv(run.s_side, os.path.join(out, "s_side.csv"))
    ivp.write_profile_csv(run.end, os.path.join(out, "d_side.csv"))
    text = json.dumps(_finite_or_null(run.summary()), indent=2, sort_keys=True, allow_nan=False)
    atomic_write_text(os.path.join(out, "summary.json"), text + "\n")
    print(text)
    return EXIT_OK


def _missing_dirs(path):
    """``path`` and those of its ancestors that do not exist, deepest first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def _finite_or_null(value):
    """``value`` with every non-finite float (a failed eps run's error) as
    None, so that the summary is strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _threshold(text):
    """A verify threshold: a finite number >= 0, else a usage error (a NaN or
    negative one fails every monitor, an infinite one passes any)."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _monitor(name, worst, thresholds, failures, label=None):
    """Print one thresholded monitor line; record ``name`` if it fails."""
    ok = worst <= thresholds[name]
    print(f"monitor {label or name}: max {worst:.3e} "
          f"(threshold {thresholds[name]:.1e}) {'PASS' if ok else 'FAIL'}")
    if not ok:
        failures.append(name)


def _verify_s_side(prof, thresholds):
    failures = []
    s = prof["s"]
    gam, dgam, d2gam = prof["gamma"], prof["dgamma"], prof["d2gamma"]
    _monitor("energy_residual", ivp.energy_residual(prof).max_abs, thresholds, failures)
    resid = np.abs(ivp.equation_residual(s, gam, dgam, d2gam, 0.0, prof.curvature))
    scale = 1.0 + np.abs(d2gam)
    _monitor("ode_residual", float(np.max(resid / scale)), thresholds, failures)
    mono = bool(np.all(np.diff(gam) > 0) and np.all(dgam > 0))
    print(f"monitor monotonicity: {'PASS' if mono else 'FAIL'}")
    if not mono:
        failures.append("monotonicity")
    return failures


def _verify_d_side(prof, thresholds):
    failures = []
    d, phi, dphi, g = prof["d"], prof["phi"], prof["dphi"], prof["g"]
    _monitor("g_consistency", float(np.max(np.abs(g - np.exp(-2 * phi)))),
             thresholds, failures)
    # equation residual with phi'' taken from the Hermite slope of dphi
    d2 = np.gradient(dphi, d)
    h = mean_curvature(prof.curvature, d)
    n = prof.curvature.family.n
    eq130 = [ivp.phi_equation_residual(*node, n) for node in zip(phi, dphi, d2, h)]
    _monitor("eq130_residual", float(np.max(np.abs(eq130[1:-1]))), thresholds, failures,
             label="eq130_residual (finite-difference phi'')")
    _monitor("eq350_drift", float(np.max(np.abs(prof["eq350_drift"]))), thresholds, failures)
    return failures


def _load_run(args):
    """The stored profile that verify and export read, in the family and profile
    mode of its summary (--summary, else summary.json next to the profile).  A
    summary that does not parse is an I/O failure (exit 6), as one that cannot be read."""
    summary_path = args.summary or os.path.join(os.path.dirname(os.path.abspath(args.profile)),
                                                "summary.json")
    with open(summary_path, "r", encoding="utf-8") as fh:
        try:
            summary = json.load(fh)
            f = summary["family"]
            family = [f[k] for k in ("g", "m_minus", "m_plus", "n", "theta1")]
            mode = summary["profile_mode"]
        except (ValueError, LookupError, TypeError) as exc:
            raise OSError(f"{summary_path} is not a solve summary: "
                          f"{type(exc).__name__}: {exc}") from exc
    return ivp.read_profile_csv(args.profile, CurvatureProfile(make_family(*family), mode))


def cmd_verify(args):
    prof = _load_run(args)
    thresholds = {
        "energy_residual": args.energy_threshold,
        "ode_residual": args.ode_threshold,
        "g_consistency": 1e-12,
        "eq130_residual": args.eq130_threshold,
        "eq350_drift": args.drift_threshold,
    }
    if prof.side == ivp.S_SIDE:
        failures = _verify_s_side(prof, thresholds)
    else:
        failures = _verify_d_side(prof, thresholds)
    if failures:
        print(f"verification failed: {', '.join(failures)}", file=sys.stderr)
        return EXIT_VERIFY
    print("verification passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def cmd_export(args):
    prof = _load_run(args)
    os.makedirs(args.out, exist_ok=True)
    if args.format == "obj":
        res = geometry.export_mesh(prof, os.path.join(args.out, "end.obj"),
                                   resolution=args.resolution)
        print(f"wrote {res.path} ({res.vertex_count} vertices, "
              f"{res.face_count} faces, discrete residual {res.discrete_residual})")
    else:
        path = os.path.join(args.out, f"profile.{args.format}")
        geometry.export_profile(prof, path, format=args.format)
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)   # once per process; nothing changes it after
def build_parser():
    parser = argparse.ArgumentParser(prog="coneshrink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="list built-in families or --check one")
    p_cat.add_argument("--check", nargs="*", default=None, type=_check_setting,
                       metavar="key=value", help="validate a family tuple")
    p_cat.set_defaults(func=cmd_catalog)

    p_coef = sub.add_parser("coeffs", help="series coefficients, corrections, Gevrey report")
    coef_actions = _add_shared_flags(p_coef) + [
        p_coef.add_argument("--format", choices=["csv", "json"], default="csv"),
        p_coef.add_argument("--gevrey", action="store_true"),
        p_coef.add_argument("--corrections", action="store_true"),
    ]
    p_coef.set_defaults(func=cmd_coeffs)

    p_solve = sub.add_parser("solve", help="integrate, convert, continue, write artifacts")
    solve_actions = _add_shared_flags(p_solve) + [
        p_solve.add_argument("--tol", type=float, default=1e-10),
        p_solve.add_argument("--to-d", dest="to_d", default=None, type=_d_target,
                             help="continuation target, e.g. 'd0+0.05' or a number"),
        p_solve.add_argument("--eps-study", dest="eps_study", action="store_true"),
    ]
    p_solve.set_defaults(func=cmd_solve)

    p_ver = sub.add_parser("verify", help="recompute monitors from a stored profile")
    p_ver.add_argument("profile")
    p_ver.add_argument("--summary", default=None)
    for name, default in (("energy", 1e-6), ("ode", 1e-8), ("eq130", 0.05), ("drift", 1e-5)):
        p_ver.add_argument(f"--{name}-threshold", type=_threshold, default=default)
    p_ver.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("export", help="profile CSV/JSON or OBJ mesh")
    p_exp.add_argument("profile")
    p_exp.add_argument("--summary", default=None)
    p_exp.add_argument("--out", default=".")
    p_exp.add_argument("--format", choices=["csv", "json", "obj"], default="csv")
    p_exp.add_argument("--resolution", type=int, default=64)
    p_exp.set_defaults(func=cmd_export)
    # the subcommands that take --config, with the flags a config file may set
    configurable = {"coeffs": (p_coef, coef_actions), "solve": (p_solve, solve_actions)}
    return parser, configurable


def main(argv=None) -> int:
    """Run one command.  Usage errors exit 2 through argparse; every other
    failure leaves through the mapping below, the only one in the program."""
    parser, configurable = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            at = argv.index(args.command) + 1
            argv[at:at] = _config_args(*configurable[args.command], args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except (ConstraintViolation, NotMeanConvex) as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (ExportIOError, OSError) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConeShrinkError as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entry():
    try:
        code = main()
        sys.stdout.flush()   # a closed pipe must raise here, not at exit
    except BrokenPipeError:
        # the reader went away: send the flush at exit to the null device
        # so that it cannot raise again, and report an I/O failure
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_IO
    sys.exit(code)


if __name__ == "__main__":
    entry()
