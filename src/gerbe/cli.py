"""Command-line front end.

Subcommands: analyze, poly, represent, classes, group, demo.  Exit codes:
0 success, 1 verification/fixture failure or internal invariant violated,
2 input error, 3 a bound of ``config`` exceeded: vertices, search nodes or
listed group order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

from . import config, fixtures
from .autgroup import enumerate_group, orbits_on_lines, realize_isometries
from .errors import (
    BoundExceededError,
    DeficientSpanError,
    GerbeError,
    GramMismatchError,
    InvariantError,
    ParseError,
)
from .exactpoly import char_poly, real_roots_with_multiplicity, squarefree_decomposition
from .graph import automorphism_order, epsilon_matrix, parse_graph
from .quadspace import Representation, build_S, rank
from .sheaf import (
    LinePartition,
    check_class_linking,
    line_classes,
    partition_from_sign_matrix,
    restrict_to_Y,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_BOUND = 3


def _read_graph(path: str):
    if path == "-":
        return parse_graph(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def parse_rational(text: str, allow_approx=False) -> Fraction:
    """Parse an exact 'p/q' or integer string; decimals only with consent.

    The numeric stages take the value as a float, so a value whose float
    overflows, or underflows to 0 while the value is not 0, is refused.
    """
    text = text.strip()
    if "." in text or "e" in text.lower():
        if not allow_approx:
            raise ValueError(
                f"{text!r} looks like a decimal; pass --approx to accept "
                "inexact input, or use an exact p/q form"
            )
        value = float(text)
        _check_float_range(text, value, Decimal(text) != 0)
        return Fraction(value)
    try:
        exact = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse rational {text!r}") from None
    try:
        value = float(exact)
    except OverflowError:
        value = math.inf
    _check_float_range(text, value, exact != 0)
    return exact


def _check_float_range(text: str, value: float, nonzero: bool):
    if not math.isfinite(value) or (value == 0 and nonzero):
        raise ValueError(f"{text!r} is outside the range of a float")


def _root_json(rec, n):
    return {
        "value": rec.value,
        "exact": str(rec.exact) if rec.exact is not None else None,
        "multiplicity": rec.multiplicity,
        "degree": n - rec.multiplicity,
    }


def _partition_json(p: LinePartition):
    classes = []
    for j in range(p.m):
        classes.append({
            "representative": p.rep_index[j] + 1,
            "plus": [i + 1 for i in p.plus_block(j)],
            "minus": [i + 1 for i in p.minus_block(j)],
        })
    return {"m": p.m, "classes": classes}


def _print_partition(p: LinePartition, out):
    for j in range(p.m):
        plus = ",".join(str(i + 1) for i in p.plus_block(j))
        minus = ",".join(str(i + 1) for i in p.minus_block(j))
        line = f"  line {j + 1}: +{{{plus}}}"
        if minus:
            line += f" -{{{minus}}}"
        print(line, file=out)


def _chi_section(g):
    eps = epsilon_matrix(g)
    chi = char_poly(eps)
    factors = squarefree_decomposition(chi)
    roots = real_roots_with_multiplicity(eps, factors)
    return eps, chi, factors, roots


def _factored_text(chi, factors):
    prod = 1
    for f, e in factors:
        prod *= f.coeffs[-1] ** e
    lead = Fraction(chi.coeffs[-1], prod) if factors else Fraction(chi.coeffs[-1] if chi.coeffs else 0)
    parts = []
    if lead != 1 or not factors:
        parts.append(str(lead))
    for f, e in factors:
        body = f"({f.pretty()})"
        parts.append(body if e == 1 else f"{body}^{e}")
    return " ".join(parts) if parts else "1"


def cmd_poly(args) -> int:
    g = _read_graph(args.file)
    _, chi, factors, roots = _chi_section(g)
    if args.json:
        payload = {
            "n": g.n,
            "coefficients": [str(c) for c in chi.coeffs],
            "text": chi.pretty(),
            "factored": _factored_text(chi, factors),
            "factors": [
                {"coefficients": [str(c) for c in f.coeffs], "exponent": e}
                for f, e in factors
            ],
            "roots": [_root_json(r, g.n) for r in roots],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"chi(x) = {chi.pretty()}")
        print(f"factored: {_factored_text(chi, factors)}")
        for r in roots:
            val = f"{r.exact}" if r.exact is not None else f"{r.value:.12g}"
            print(f"root {val}  multiplicity {r.multiplicity}  degree {g.n - r.multiplicity}")
    return EXIT_OK


def _pick_c(args, g):
    if args.root_index is not None:
        _, chi, _, roots = _chi_section(g)
        if not (0 <= args.root_index < len(roots)):
            raise ValueError(
                f"--root-index {args.root_index} out of range; chi has {len(roots)} real roots"
            )
        rec = roots[args.root_index]
        return rec.exact if rec.exact is not None else rec.value
    return parse_rational(args.c, args.approx)


def cmd_represent(args) -> int:
    g = _read_graph(args.file)
    c = _pick_c(args, g)
    omega = parse_rational(args.omega, args.approx)
    u = Representation.build(g, float(omega), float(c))
    rows = [",".join(f"{x:.17g}" for x in u.vectors[i]) for i in range(u.n)]
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
    if args.json:
        payload = {
            "omega": float(omega),
            "c": float(c),
            "dim": u.space.dim,
            "signs": list(u.space.signs),
            "vectors": [[float(x) for x in u.vectors[i]] for i in range(u.n)],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"# omega={float(omega):.12g} c={float(c):.12g} dim={u.space.dim} "
              f"signs={''.join('+' if s > 0 else '-' for s in u.space.signs)}")
        for row in rows:
            print(row)
    return EXIT_OK


def _lines(g, c):
    """The representation at (1, c) and its partition into lines."""
    u = Representation.build(g, 1.0, float(c))
    return u, line_classes(u)


def cmd_classes(args) -> int:
    g = _read_graph(args.file)
    c = _pick_c(args, g)
    if float(c) == 0.0:
        raise ValueError("c must be nonzero")
    u, p = _lines(g, c)
    # the linking rules hold where line_classes took the sign-matrix partition
    report = check_class_linking(g, p, int(u.c)) if abs(u.c) == 1.0 else None
    if args.json:
        payload = {"c": float(c), "partition": _partition_json(p)}
        if report is not None:
            payload["linking"] = {
                "ok": report.ok,
                "all_or_nothing_ok": report.all_or_nothing_ok,
                "cross_class_ok": report.cross_class_ok,
                "within_class_ok": report.within_class_ok,
                "failures": list(report.failures),
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{p.m} distinct line(s) among {g.n} vertices at c={float(c):.12g}")
        _print_partition(p, sys.stdout)
        if report is not None:
            print("linking rules:")
            print(f"  all-or-nothing : {'ok' if report.all_or_nothing_ok else 'FAIL'}")
            print(f"  cross-class    : {'ok' if report.cross_class_ok else 'FAIL'}")
            print(f"  within-class   : {'ok' if report.within_class_ok else 'FAIL'}")
            for f in report.failures:
                print(f"  ! {f}")
        else:
            print("linking rules apply only at c = 1 or c = -1; skipped")
    if report is not None and not report.ok:
        return EXIT_VERIFY
    return EXIT_OK


def _group_on_lines(g, c):
    """Build the sheaf group, passing to the restricted graph when
    lines coincide, and return (restricted graph, its vectors, group)."""
    u, p = _lines(g, c)
    gy, v = (g, u) if p.is_all_singletons() else restrict_to_Y(g, u, p)
    return gy, v, enumerate_group(epsilon_matrix(gy))


def cmd_group(args) -> int:
    g = _read_graph(args.file)
    c = _pick_c(args, g)
    if float(c) == 0.0:
        raise ValueError("c must be nonzero")
    gy, v, grp = _group_on_lines(g, c)
    if args.realize and grp.order > config.MAX_LISTED_ORDER:
        raise BoundExceededError(
            f"|G| = {grp.order} exceeds the --realize listing bound "
            f"{config.MAX_LISTED_ORDER}"
        )
    orbit_info = orbits_on_lines(grp)
    payload = {
        "c": float(c),
        "n": g.n,
        "lines": gy.n,
        "aut_graph_order": automorphism_order(g),
        "group_order": grp.order,
        "n_sigma": grp.n_sigma,
        "group_order_mod_center": grp.order // 2,
        "orbits": [[j + 1 for j in orb] for orb in orbit_info.orbits],
        "is_transitive": orbit_info.is_transitive,
        "is_2_transitive": orbit_info.is_2_transitive,
    }
    if args.realize:
        try:
            mats = realize_isometries(grp.elements, v).tolist()
        except (GramMismatchError, DeficientSpanError) as exc:
            # the elements come from the group's own chain: a failure here
            # is a defect, not bad input
            raise InvariantError(f"sheaf group element is not an isometry: {exc}") from exc
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                for mat in mats:
                    for row in mat:
                        fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
                    fh.write("\n")
        else:
            payload["isometries"] = mats
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"|H(graph)| = {payload['aut_graph_order']}")
        print(f"|G| = {payload['group_order']}  (N_sigma = {payload['n_sigma']}, "
              f"|G|/2 = {payload['group_order_mod_center']} modulo the central sign)")
        print(f"lines: {payload['lines']}")
        print(f"orbits on lines: {payload['orbits']}")
        print(f"transitive: {payload['is_transitive']}  "
              f"2-transitive: {payload['is_2_transitive']}")
        for k, mat in enumerate(payload.get("isometries", ()), 1):
            print(f"isometry {k}:")
            for row in mat:
                print("  " + " ".join(f"{x + 0.0:.12g}" for x in row))  # no -0
    return EXIT_OK


def cmd_analyze(args) -> int:
    g = _read_graph(args.file)
    eps, chi, factors, roots = _chi_section(g)
    report = {
        "graph": {
            "n": g.n,
            "edges": [[i + 1, j + 1] for i, j in g.sorted_edges()],
        },
        "epsilon": eps.entries.tolist(),
        "chi": {
            "text": chi.pretty(),
            "factored": _factored_text(chi, factors),
            "coefficients": [str(c) for c in chi.coeffs],
        },
        "roots": [],
    }
    for rec in roots:
        c = rec.exact if rec.exact is not None else rec.value
        s = build_S(eps, 1.0, float(c))
        r = rank(s)
        entry = _root_json(rec, g.n)
        entry["rank"] = r
        if rec.exact is not None and abs(rec.exact) == 1:
            p = partition_from_sign_matrix(eps, int(rec.exact))
            lr = check_class_linking(g, p, int(rec.exact))
            entry["partition"] = _partition_json(p)
            entry["linking_ok"] = lr.ok
        report["roots"].append(entry)
    report["aut_graph_order"] = automorphism_order(g)
    if g.n >= 3:
        grp = enumerate_group(eps)
        orbit_info = orbits_on_lines(grp)
        report["group"] = {
            "order": grp.order,
            "n_sigma": grp.n_sigma,
            "orbits": [[j + 1 for j in orb] for orb in orbit_info.orbits],
            "is_transitive": orbit_info.is_transitive,
            "is_2_transitive": orbit_info.is_2_transitive,
        }
    # internal consistency: rank = n - multiplicity for every root
    for entry in report["roots"]:
        if entry["rank"] != g.n - entry["multiplicity"]:
            raise InvariantError("rank law violated in report")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"graph on {g.n} vertices, {len(report['graph']['edges'])} edges")
        print(f"chi(x) = {report['chi']['text']}")
        print(f"factored: {report['chi']['factored']}")
        for entry in report["roots"]:
            val = entry["exact"] if entry["exact"] else f"{entry['value']:.12g}"
            print(f"root {val}: multiplicity {entry['multiplicity']}, rank {entry['rank']}")
        print(f"|H(graph)| = {report['aut_graph_order']}")
        if "group" in report:
            grp_sec = report["group"]
            print(f"|G| = {grp_sec['order']} (N_sigma = {grp_sec['n_sigma']})")
            print(f"transitive: {grp_sec['is_transitive']}  "
                  f"2-transitive: {grp_sec['is_2_transitive']}")
    return EXIT_OK


def run_demo(corrupt=None):
    """Check the built-in fixtures; returns (rows, all_ok)."""
    rows = []
    ok_all = True
    for fx in fixtures.ALL:
        g = fx.graph
        eps = epsilon_matrix(g)
        chi = char_poly(eps)
        expected_chi = fx.chi_coeffs
        if corrupt == fx.name:
            expected_chi = tuple(c + 1 for c in expected_chi)
        chi_ok = chi.coeffs == expected_chi
        roots = real_roots_with_multiplicity(eps, squarefree_decomposition(chi))
        roots_ok = len(roots) == len(fx.roots)
        ranks_ok = True
        for rec, (val, mult, expected_rank) in zip(roots, fx.roots):
            if isinstance(val, Fraction):
                roots_ok = roots_ok and rec.exact == val
            else:
                roots_ok = roots_ok and abs(rec.value - val) < 1e-9
            roots_ok = roots_ok and rec.multiplicity == mult
            r = rank(build_S(eps, 1.0, float(val)))
            ranks_ok = ranks_ok and r == expected_rank
        aut_ok = automorphism_order(g) == fx.aut_order
        grp = enumerate_group(eps)
        group_ok = grp.order == fx.group_order
        orbit_info = orbits_on_lines(grp)
        trans_ok = orbit_info.is_2_transitive == fx.two_transitive
        row = {
            "fixture": fx.name,
            "chi": chi.pretty(),
            "chi_ok": chi_ok,
            "roots_ok": roots_ok,
            "ranks_ok": ranks_ok,
            "aut_order": fx.aut_order,
            "aut_ok": aut_ok,
            "group_order": grp.order,
            "group_order_mod_center": grp.order // 2,
            "group_ok": group_ok,
            "two_transitive": orbit_info.is_2_transitive,
            "two_transitive_ok": trans_ok,
        }
        row["ok"] = all(row[k] for k in
                        ("chi_ok", "roots_ok", "ranks_ok", "aut_ok", "group_ok", "two_transitive_ok"))
        ok_all = ok_all and row["ok"]
        rows.append(row)
    return rows, ok_all


def cmd_demo(args) -> int:
    rows, ok_all = run_demo(corrupt=args.corrupt)
    if args.json:
        print(json.dumps({"fixtures": rows, "ok": ok_all}, indent=2, sort_keys=True))
    else:
        header = f"{'fixture':16} {'chi ok':6} {'roots':6} {'ranks':6} {'|H|':>4} {'|G|':>4} {'2-trans':8} result"
        print(header)
        for row in rows:
            print(f"{row['fixture']:16} {str(row['chi_ok']):6} {str(row['roots_ok']):6} "
                  f"{str(row['ranks_ok']):6} {row['aut_order']:>4} {row['group_order']:>4} "
                  f"{str(row['two_transitive']):8} {'pass' if row['ok'] else 'FAIL'}")
        npass = sum(1 for r in rows if r["ok"])
        print(f"{npass}/{len(rows)} fixtures pass")
        print("note: the 5-line pentagon group is reported both as enumerated "
              "and modulo its central sign; see the project README.")
    return EXIT_OK if ok_all else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gerbe",
        description="Line-sheaf representations of finite graphs and their isometry groups",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_graph_cmd(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="graph file path, or - for stdin")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    add_graph_cmd("analyze", cmd_analyze, "full report for a graph")
    add_graph_cmd("poly", cmd_poly, "characteristic polynomial and roots")

    pr = add_graph_cmd("represent", cmd_represent, "vector realization at (omega, c)")
    pc = add_graph_cmd("classes", cmd_classes, "line partition and linking rules")
    pg = add_graph_cmd("group", cmd_group, "sheaf group orders, orbits, transitivity")
    for p in (pr, pc, pg):
        sel = p.add_mutually_exclusive_group(required=True)
        sel.add_argument("--c", help="parameter c as an exact rational, e.g. -1/3")
        sel.add_argument("--root-index", type=int,
                         help="pick the k-th real root of chi (ascending, 0-based)")
        p.add_argument("--approx", action="store_true",
                       help="accept decimal input for rationals")
    pr.add_argument("--omega", default="1", help="parameter omega (default 1)")
    pr.add_argument("--csv", help="write vectors to this CSV file")
    pg.add_argument("--realize", action="store_true",
                    help="also emit the isometry matrices "
                         f"(|G| at most {config.MAX_LISTED_ORDER})")
    pg.add_argument("--csv", help="write realized matrices to this CSV file")

    pd = sub.add_parser("demo", help="run the built-in regression fixtures")
    pd.add_argument("--json", action="store_true")
    pd.add_argument("--corrupt", help=argparse.SUPPRESS)  # negative-control hook
    pd.set_defaults(fn=cmd_demo)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BoundExceededError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, OSError, GerbeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
