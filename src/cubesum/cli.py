"""Command line front end.

Output conventions: results go to stdout in plain, json, or csv form; progress
chatter goes to stderr only. JSON serializes every number as a decimal string
so arbitrary-precision values survive consumers that truncate 64-bit ints.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import diophantine as dio
from . import fibration as fib
from . import modular as mod
from . import pointcount as pc
from .cache import CoefficientCache, default_cache_path
from .elliptic import (
    add,
    cm_omega,
    curve_main,
    curve_over_omega,
    curve_second_fibration,
    curve_sextic_twist,
    multiply,
    point_over_omega,
    section_sigma1,
    section_to_xyz,
)
from .verifysuite import run_suite


def _env_default(name: str, fallback, cast=str, choices=None):
    """The CUBESUM_<name> value, or fallback when unset; a value the matching
    flag would reject raises ValueError, which main reports as a usage error."""
    raw = os.environ.get(f"CUBESUM_{name}")
    if raw is None:
        return fallback
    try:
        value = cast(raw)
    except ValueError:
        raise ValueError(f"CUBESUM_{name}={raw!r} is not a valid {cast.__name__}") from None
    if choices is not None and value not in choices:
        raise ValueError(f"CUBESUM_{name}={raw!r} is not one of {', '.join(choices)}")
    return value


def _stringify(obj):
    """Numbers to decimal strings, recursively, for JSON output."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    return obj


def _emit(payload: dict, rows, headers, fmt: str):
    """payload: full JSON document; rows/headers: tabular view for plain/csv."""
    if fmt == "json":
        print(json.dumps(_stringify(payload), indent=2, sort_keys=True))
    elif fmt == "csv":
        import csv

        w = csv.writer(sys.stdout)
        w.writerow(headers)
        w.writerows(rows)
    else:
        if headers:
            print("\t".join(headers))
        for row in rows:
            print("\t".join(str(c) for c in row))


_FORMATS = ("plain", "json", "csv")


def _add_format(p: argparse.ArgumentParser):
    p.add_argument(
        "--format",
        choices=_FORMATS,
        default=_env_default("FORMAT", "plain", choices=_FORMATS),
        help="output format (default plain; env CUBESUM_FORMAT)",
    )


def _check_jobs(args) -> None:
    if args.jobs < 1:
        raise ValueError(f"jobs (--jobs, CUBESUM_JOBS) must be >= 1, not {args.jobs}")


def _progress(done: int, total: int):
    print(f"progress: {done}/{total} chunks", file=sys.stderr, flush=True)


# --- subcommands -------------------------------------------------------------


def cmd_search(args) -> int:
    _check_jobs(args)
    sols = dio.search(
        args.bound,
        include_trivial=args.include_trivial,
        jobs=args.jobs,
        progress=_progress if args.jobs > 1 else None,
    )
    rows = []
    recs = []
    for s in sols:
        u = dio.in_pagliani_family(s)
        rows.append((s.x, s.y, s.z, u if u is not None else ""))
        recs.append({"x": s.x, "y": s.y, "z": s.z, "pagliani_u": u})
    payload = {
        "bound": args.bound,
        "include_trivial": args.include_trivial,
        "count": len(sols),
        "solutions": recs,
    }
    _emit(payload, rows, ("x", "y", "z", "pagliani_u"), args.format)
    return 0


def cmd_map(args) -> int:
    if args.mkl:
        m, k, l = args.mkl
        sol = dio.mkl_to_xyz(dio.SolutionMKL(m, k, l))
        payload = {"input": {"m": m, "k": k, "l": l}, "xyz": {"x": sol.x, "y": sol.y, "z": sol.z}}
        rows = [(sol.x, sol.y, sol.z)]
        _emit(payload, rows, ("x", "y", "z"), args.format)
    else:
        x, y, z = args.xyz
        sol = dio.xyz_to_mkl(dio.SolutionXYZ(x, y, z))
        payload = {"input": {"x": x, "y": y, "z": z}, "mkl": {"m": sol.m, "k": sol.k, "l": sol.l}}
        rows = [(sol.m, sol.k, sol.l)]
        _emit(payload, rows, ("m", "k", "l"), args.format)
    return 0


def cmd_pagliani(args) -> int:
    us = [args.u] if args.u is not None else [
        u for u in range(args.range[0], args.range[1] + 1) if u % 3 and u not in (-1, 0, 1)
    ]
    rows, recs = [], []
    for u in us:
        sol = dio.pagliani(u)
        xyz = dio.mkl_to_xyz(sol)
        canon = dio.canonical_form(xyz)
        rows.append((u, sol.m, sol.k, sol.l, canon.x, canon.y, canon.z))
        recs.append(
            {
                "u": u,
                "mkl": {"m": sol.m, "k": sol.k, "l": sol.l},
                "canonical_xyz": {"x": canon.x, "y": canon.y, "z": canon.z},
            }
        )
    _emit({"members": recs}, rows, ("u", "m", "k", "l", "canon_x", "canon_y", "canon_z"), args.format)
    return 0


_CURVES = {
    "main": curve_main,
    "sextic": curve_sextic_twist,
    "second": curve_second_fibration,
}


def cmd_fibers(args) -> int:
    E = _CURVES[args.curve]()
    fibers = fib.classify_fibers(E)
    rows, recs = [], []
    for f in fibers:
        place = "inf" if f.place.is_infinity else (
            str(f.place.root()) if f.place.degree == 1 else f"root#{f.place.index} of {f.place.poly!r}"
        )
        rows.append((place, f.type, f.euler, f.m_t, f.m_simple, f.component_group))
        recs.append(
            {
                "place": place,
                "kodaira_type": f.type,
                "euler": f.euler,
                "components": f.m_t,
                "simple_components": f.m_simple,
                "component_group": f.component_group,
            }
        )
    payload = {"curve": args.curve, "fibers": recs, "euler_total": fib.euler_total(fibers)}
    _emit(payload, rows, ("place", "type", "euler", "m_t", "m_simple", "group"), args.format)
    return 0


def cmd_heights(args) -> int:
    E = curve_over_omega(curve_main())
    s1 = point_over_omega(section_sigma1())
    ws1 = cm_omega(s1, E)
    gram = fib.height_gram([s1, ws1], E)
    fibers = fib.classify_fibers(E)
    rank = fib.shioda_tate_rank(fibers, 2)
    det = fib.det_ns(fibers, gram)
    canonical = gram.to_convention("canonical")
    payload = {
        "sections": ["sigma1", "[w]sigma1"],
        "gram_mw_lattice": [[str(e) for e in row] for row in gram.entries],
        "gram_canonical": [[str(e) for e in row] for row in canonical.entries],
        "convention_note": "mw-lattice = 2 x canonical",
        "neron_severi_rank": rank,
        "neron_severi_det": det,
    }
    rows = [
        ("gram[mw-lattice]", *(str(e) for e in gram.entries[0])),
        ("", *(str(e) for e in gram.entries[1])),
        ("gram[canonical]", *(str(e) for e in canonical.entries[0])),
        ("", *(str(e) for e in canonical.entries[1])),
        ("rank NS", rank, ""),
        ("det NS", det, ""),
    ]
    _emit(payload, rows, ("quantity", "value", ""), args.format)
    return 0


def cmd_mw(args) -> int:
    E = curve_over_omega(curve_main())
    s1 = point_over_omega(section_sigma1())
    ws1 = cm_omega(s1, E)
    P = add(multiply(args.a, s1, E), multiply(args.b, ws1, E), E)
    name = f"[{args.a}]sigma1 + [{args.b}][w]sigma1"
    if P.is_infinity():
        payload = {"section": name, "point": "O"}
        _emit(payload, [(name, "O", "")], ("section", "x", "y"), args.format)
        return 0
    h = fib.height_pairing(P, P, E)
    payload = {
        "section": name,
        "x": repr(P.x),
        "y": repr(P.y),
        "height_mw": str(h),
        "height_canonical": str(h / 2),
    }
    rows = [(name, repr(P.x), repr(P.y)), ("height (mw / canonical)", str(h), str(h / 2))]
    if args.to_xyz:
        try:
            x, y, z = section_to_xyz(P)
            payload["xyz"] = {"x": repr(x), "y": repr(y), "z": repr(z)}
            rows.append(("xyz image", repr(x), repr(z)))
        except ValueError as exc:
            payload["xyz"] = f"none ({exc})"
            rows.append(("xyz image", "none", str(exc)))
    _emit(payload, rows, ("section", "x", "y"), args.format)
    return 0


def _parse_eta_spec(text: str) -> mod.EtaQuotientSpec:
    factors = []
    for part in text.split(","):
        d, e = part.split(":")
        factors.append((int(d), int(e)))
    return mod.EtaQuotientSpec(tuple(factors))


def cmd_eta(args) -> int:
    spec = _parse_eta_spec(args.spec) if args.spec else mod.CUSP_FORM_ETA
    series = mod.eta_quotient(spec, args.n)
    rows = [(n, c) for n, c in series.nonzero().items()] if args.nonzero else [
        (n, series[n]) for n in range(1, args.n + 1)
    ]
    payload = {
        "factors": [{"scale": d, "exponent": e} for d, e in spec.factors],
        "precision": args.n,
        "coefficients": {str(n): c for n, c in series.nonzero().items()},
    }
    _emit(payload, rows, ("n", "a_n"), args.format)
    return 0


def _coefficient_cache(path: str) -> CoefficientCache:
    """The cache at path; an empty path (which Path reads as ".") or a
    directory is a usage error."""
    if not path or Path(path).is_dir():
        raise ValueError(f"cache file {path!r} is empty or a directory")
    return CoefficientCache(Path(path))


def cmd_ap(args) -> int:
    if args.p is not None:
        p = args.p
        rec = {"p": p, "closed_form": mod.ap_closed_form(p)}
        if p % 3 == 1:
            rec["via_characters"] = mod.surface_ap_via_characters(p)
            pi = mod.normalize_pi(p, "plus")
            rec["pi_plus"] = str(pi.pi)
        rows = [tuple(rec.values())]
        _emit({"prime": rec}, rows, tuple(rec.keys()), args.format)
        return 0
    coeffs = _coefficient_cache(args.cache_file).get(args.max)
    rows = [(n, a) for n, a in coeffs.items() if a or not args.nonzero]
    payload = {"max": args.max, "coefficients": {str(n): a for n, a in rows}}
    _emit(payload, rows, ("n", "a_n"), args.format)
    return 0


def _count_one(job):
    p, n, convention, budget = job
    return pc.CountReport.build(p, n, convention, budget=budget)


def cmd_count(args) -> int:
    _check_jobs(args)
    if args.sweep is not None:
        from .arith import primes_up_to

        ps = [p for p in primes_up_to(args.sweep) if p >= 5]
        jobs_list = [(p, args.n, args.convention, args.budget) for p in ps]
        reports = []
        if args.jobs > 1:
            import multiprocessing as mp

            with mp.Pool(args.jobs) as pool:
                for i, rep in enumerate(pool.imap(_count_one, jobs_list)):
                    reports.append(rep)
                    _progress(i + 1, len(jobs_list))
        else:
            for i, job in enumerate(jobs_list):
                reports.append(_count_one(job))
                if len(jobs_list) > 20 and (i + 1) % 10 == 0:
                    _progress(i + 1, len(jobs_list))
        docs = [{k: v for k, v in asdict(r).items() if k != "convention"} for r in reports]
        payload = {
            "sweep_max_p": args.sweep,
            "n": args.n,
            "convention": args.convention,
            "all_match": all(r.match for r in reports),
            "reports": docs,
        }
        rows = [tuple(d.values()) for d in docs]
        _emit(payload, rows, ("p", "n", "brute", "formula", "a_term", "match"), args.format)
        return 0 if all(r.match for r in reports) else 1
    if args.convention == "both":
        winners, reports = pc.adjudicate_conventions([(args.p, args.n)], budget=args.budget)
        payload = {"reports": [asdict(r) for r in reports], "matching_conventions": sorted(winners)}
        ok = bool(winners)
    else:
        reports = [pc.CountReport.build(args.p, args.n, args.convention, budget=args.budget)]
        payload = asdict(reports[0])
        ok = reports[0].match
    rows = [tuple(asdict(r).values()) for r in reports]
    _emit(payload, rows, ("p", "n", "brute", "formula", "a_term", "convention", "match"), args.format)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    _check_jobs(args)
    if args.census_bound < 1:
        raise ValueError(f"census bound (--census-bound, CUBESUM_CENSUS_BOUND) must be >= 1, "
                         f"not {args.census_bound}")
    report = run_suite(census_bound=args.census_bound, jobs=args.jobs, skip_slow=args.skip_census)
    if args.format == "json":
        print(json.dumps(_stringify(report.to_dict()), indent=2, sort_keys=True))
    else:
        for c in report.checks:
            print(c.line())
        print(f"result: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_cache(args) -> int:
    cache = _coefficient_cache(args.cache_file)
    if args.action == "build":
        coeffs = cache.get(args.max)
        print(f"cache at {cache.path}: {len(coeffs)} coefficients", file=sys.stderr)
        return 0
    if args.action == "show":
        coeffs = cache.load()
        if coeffs is None:
            print("no cache", file=sys.stderr)
            return 0
        rows = [(n, a) for n, a in sorted(coeffs.items())]
        _emit({"coefficients": {str(n): a for n, a in coeffs.items()}}, rows, ("n", "a_n"), args.format)
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print("cleared" if removed else "no cache to clear", file=sys.stderr)
        return 0
    if args.action == "path":
        print(cache.path)
        return 0
    raise AssertionError(args.action)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubesum",
        description="Exact toolkit for runs of consecutive cubes summing to a cube, "
        "the K3 surface behind them, and its point counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_jobs = _env_default("JOBS", 1, int)
    default_budget = _env_default("BUDGET", pc.DEFAULT_BUDGET, int)
    cache_file = str(_env_default("CACHE", default_cache_path()))

    p = sub.add_parser("search", help="exhaustive solution search up to a bound")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--include-trivial", action="store_true")
    p.add_argument("--jobs", type=int, default=default_jobs)
    _add_format(p)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("map", help="convert between (m,k,l) and (x,y,z)")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--mkl", type=int, nargs=3, metavar=("M", "K", "L"))
    g.add_argument("--xyz", type=int, nargs=3, metavar=("X", "Y", "Z"))
    _add_format(p)
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("pagliani", help="parametric family members")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--u", type=int)
    g.add_argument("--range", type=int, nargs=2, metavar=("LO", "HI"))
    _add_format(p)
    p.set_defaults(fn=cmd_pagliani)

    p = sub.add_parser("fibers", help="Kodaira fiber table of a fibration")
    p.add_argument("--curve", choices=sorted(_CURVES), default="main")
    _add_format(p)
    p.set_defaults(fn=cmd_fibers)

    p = sub.add_parser("heights", help="Mordell-Weil Gram matrix and lattice data")
    _add_format(p)
    p.set_defaults(fn=cmd_heights)

    p = sub.add_parser("mw", help="section arithmetic a*sigma1 + b*[w]sigma1")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--to-xyz", action="store_true", help="also print the affine surface solution")
    _add_format(p)
    p.set_defaults(fn=cmd_mw)

    p = sub.add_parser("eta", help="eta quotient q-expansion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spec", help="factors as 'd:e,d:e,...' (default: the cusp form)")
    p.add_argument("--nonzero", action="store_true", help="only list nonzero coefficients")
    _add_format(p)
    p.set_defaults(fn=cmd_eta)

    p = sub.add_parser("ap", help="cusp form coefficients")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--p", type=int, help="one prime: closed form and character value")
    g.add_argument("--max", type=int, help="all a_n up to max (cached)")
    p.add_argument("--nonzero", action="store_true")
    p.add_argument("--cache-file", default=cache_file)
    _add_format(p)
    p.set_defaults(fn=cmd_ap)

    p = sub.add_parser("count", help="point counts over F_{p^n}: exact count vs formula")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--p", type=int)
    g.add_argument("--sweep", type=int, metavar="MAX_P",
                   help="run every prime 5..MAX_P at the given n")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--jobs", type=int, default=default_jobs)
    p.add_argument(
        "--convention",
        choices=(*pc.CONVENTIONS, "both"),
        default=pc.FROBENIUS_POWER,
    )
    p.add_argument("--budget", type=int, default=default_budget)
    _add_format(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--census-bound", type=int, default=_env_default("CENSUS_BOUND", 2000, int))
    p.add_argument("--skip-census", action="store_true")
    p.add_argument("--jobs", type=int, default=default_jobs)
    _add_format(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("cache", help="manage the coefficient cache")
    p.add_argument("action", choices=("build", "show", "clear", "path"))
    p.add_argument("--max", type=int, default=1000)
    p.add_argument("--cache-file", default=cache_file)
    _add_format(p)
    p.set_defaults(fn=cmd_cache)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
