"""Command-line front end.

Subcommands: analyze, poly, represent, classes, group, demo.  Only
``represent`` and ``group --realize``, which print vectors, factor S.
Exit codes: 0 success, 1 verification/fixture failure or internal
invariant violated (also any ValueError but an InputError), 2 input
error, 3 a bound of ``config`` exceeded: vertices, search nodes or listed
group order.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np

from . import config, fixtures
from .autgroup import enumerate_group, orbits_on_lines, realize_isometry
from .errors import (
    BoundExceededError,
    DeficientSpanError,
    GerbeError,
    GramMismatchError,
    InputError,
    InvariantError,
    ParseError,
)
# char_poly is bound here for the benchmark's tracer test (perfbench), which
# checks that the tracer rebinds cli.char_poly and restores it
from .exactpoly import char_poly, chi_and_roots, degree_at  # noqa: F401
from .graph import automorphism_order, parse_graph
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
    try:
        if path == "-":
            return parse_graph(sys.stdin.read())
        with open(path, encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except UnicodeDecodeError as exc:
        raise InputError(exc) from None


def parse_rational(text: str, allow_approx=False) -> Fraction:
    """Parse an exact 'p/q' or integer string; decimals only with consent.

    The numeric stages take the value as a float, so a value whose float
    overflows, or underflows to 0 while the value is not 0, is refused.
    """
    text = text.strip()
    if "." in text or "e" in text.lower():
        if not allow_approx:
            raise InputError(
                f"{text!r} looks like a decimal; pass --approx to accept "
                "inexact input, or use an exact p/q form"
            )
        try:
            value = float(text)
        except ValueError as exc:
            raise InputError(exc) from None
        _check_float_range(text, value, Decimal(text) != 0)
        return Fraction(value)
    try:
        exact = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse rational {text!r}") from None
    try:
        value = float(exact)
    except OverflowError:
        value = math.inf
    _check_float_range(text, value, exact != 0)
    return exact


def _check_float_range(text: str, value: float, nonzero: bool):
    if not math.isfinite(value) or (value == 0 and nonzero):
        raise InputError(f"{text!r} is outside the range of a float")


def _print_json(payload):
    """Print the bytes of json.dumps(payload, indent=2, sort_keys=True)
    with every numpy array value taken as its nested lists, the one writer
    of every --json output.

    A non-empty array value of the top level is written by ``_array_json``
    a block of rows at a time, each distinct magnitude formatted by repr
    once per block, instead of by the encoder's Python loop; a non-finite
    entry there is refused as an InvariantError before anything is written.
    """
    plain, arrays = dict(payload), {}
    for key, a in payload.items():
        if isinstance(a, np.ndarray):
            if not a.size:
                plain[key] = a.tolist()
            elif not np.isfinite(a).all():
                raise InvariantError(f"non-finite value in the {key!r} array")
            else:
                plain[key], arrays[key] = f"\0{key}", a  # a placeholder, split off below
    tail = json.dumps(plain, indent=2, sort_keys=True)
    out = sys.stdout
    for key in sorted(arrays):  # the order of the placeholders in the text
        head, tail = tail.split(json.dumps(f"\0{key}"))
        out.write(head)
        out.writelines(_array_json(arrays[key]))
    out.write(tail + "\n")


def _array_json(a):
    """The indent=2 JSON of a non-empty array of one or more axes at the
    top level of an object, whose entries sit one indent deeper per axis,
    as pieces of text: ``_rows_text`` of its last-axis rows, then the
    closing brackets."""
    m = a.ndim
    nl = ["\n" + "  " * (1 + j) for j in range(m + 1)]
    # the text after a row that ends c nested lists closes those c and opens c new ones
    seps = ["".join(nl[j] + "]" for j in range(m - 1, m - 1 - c, -1)) + "," + nl[m - c]
            + "".join("[" + nl[j + 1] for j in range(m - c, m)) for c in range(1, m)]
    heads = _row_heads(a.shape, "".join("[" + nl[j + 1] for j in range(m)), seps)
    yield from _rows_text(a.reshape(len(heads), a.shape[-1]), repr, "," + nl[m], heads)
    yield "".join(nl[j] + "]" for j in reversed(range(m)))


def _csv_text(a):
    """The CSV text of an array of two or more axes, as pieces: each row of
    its last axis on a line, by 17 significant digits, and a blank line
    after each block of the axis above (each matrix of a stack)."""
    heads = _row_heads(a.shape, "", ["\n" * c for c in range(1, a.ndim)])
    yield from _rows_text(a.reshape(len(heads), a.shape[-1]), "{:.17g}".format, ",", heads)
    yield "\n" * (a.ndim - 1)


def _row_heads(shape, opening, seps):
    """The text before each last-axis row of an array of this shape:
    ``opening`` before the first, and seps[c - 1] before a row whose
    predecessor ends c of the enclosing axes."""
    heads = [None]
    for c, d in enumerate(reversed(shape[:-1]), 1):
        heads[0] = seps[c - 1]
        heads *= d
        heads[0] = None
    heads[0] = opening
    return heads


# last-axis rows formatted per block: the token table of a block of 1024
# isometry rows of 5 entries stays near 100 kB
TEXT_BLOCK_ROWS = 1024


def _rows_text(rows, fmt, inner, heads):
    """The text of the rows of a 2-D array, a block of TEXT_BLOCK_ROWS rows
    at a time: heads[i] before row i, whose entries are joined by
    ``inner``.  An entry is fmt of its magnitude after a '-' where its sign
    bit is set, so -0.0 keeps its sign and fmt(-x) must be '-' + fmt(x).
    fmt runs once per distinct magnitude of a block that the block before
    did not hold, and the '-' goes with the separator in front of the
    entry, so no signed string is built."""
    w = rows.shape[1]
    sep = np.array([0] + [2] * (w - 1))  # where the table below holds each entry's separator
    known = {}  # the previous block's magnitudes and their texts
    for start in range(0, len(rows), TEXT_BLOCK_ROWS):
        block = rows[start:start + TEXT_BLOCK_ROWS]
        mags = np.abs(block)
        ordered = np.sort(mags, axis=None)
        new = np.empty(len(ordered), dtype=bool)  # the first of each run of equal magnitudes
        new[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        distinct = ordered[new]
        keys = distinct.tolist()
        texts = [known.get(x) or fmt(x) for x in keys] if known else list(map(fmt, keys))
        if start + TEXT_BLOCK_ROWS < len(rows):
            known = dict(zip(keys, texts))
        # the separators with and without the sign, then each distinct magnitude
        table = np.array(["", "-", inner, inner + "-", *texts], dtype=object)
        index = np.empty((len(block), 2 * w), dtype=np.intp)
        np.add(np.signbit(block), sep, out=index[:, 0::2])
        np.add(np.searchsorted(distinct, mags), 4, out=index[:, 1::2])
        tokens = np.empty((len(block), 2 * w + 1), dtype=object)
        tokens[:, 0] = heads[start:start + TEXT_BLOCK_ROWS]
        tokens[:, 1:] = table.take(index)
        yield "".join(tokens.ravel().tolist())


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


def _factored_text(chi, factors):
    prod = 1
    for f, e in factors:
        prod *= f.coeffs[-1] ** e
    lead = Fraction(chi.coeffs[-1], prod)
    parts = []
    if lead != 1 or not factors:
        parts.append(str(lead))
    for f, e in factors:
        body = f"({f.pretty()})"
        parts.append(body if e == 1 else f"{body}^{e}")
    return " ".join(parts)


def cmd_poly(args) -> int:
    eps = _read_graph(args.file)
    chi, factors, roots = chi_and_roots(eps)
    if args.json:
        payload = {
            "n": eps.n,
            "coefficients": [str(c) for c in chi.coeffs],
            "text": chi.pretty(),
            "factored": _factored_text(chi, factors),
            "factors": [
                {"coefficients": [str(c) for c in f.coeffs], "exponent": e}
                for f, e in factors
            ],
            "roots": [_root_json(r, eps.n) for r in roots],
        }
        _print_json(payload)
    else:
        print(f"chi(x) = {chi.pretty()}")
        print(f"factored: {_factored_text(chi, factors)}")
        for r in roots:
            val = f"{r.exact}" if r.exact is not None else f"{r.value:.12g}"
            print(f"root {val}  multiplicity {r.multiplicity}  degree {eps.n - r.multiplicity}")
    return EXIT_OK


def _pick_c(args, eps, omega=1):
    """The parameter c, and a function giving the degree of the
    representation at (omega, c), called only where S is factored."""
    if args.root_index is None:
        c = parse_rational(args.c, args.approx)
        return c, functools.partial(degree_at, eps, omega, c)
    if omega == 0:
        raise InputError("--root-index needs a nonzero --omega: at omega = 0 every c "
                         "gives the same space")
    _, factors, roots = chi_and_roots(eps, index=args.root_index)
    if not roots:
        count = sum(f.degree for f, _ in factors)  # every root of chi is real
        raise InputError(f"--root-index {args.root_index} out of range; chi has {count} real roots")
    [rec] = roots
    # det S(omega, c) = omega^n chi(c / omega): the k-th root x_k gives c = omega x_k
    c = omega * (rec.exact if rec.exact is not None else rec.value)
    _check_float_range(f"omega times root {args.root_index}", float(c), True)
    return c, lambda: eps.n - rec.multiplicity


def cmd_represent(args) -> int:
    eps = _read_graph(args.file)
    omega = parse_rational(args.omega, args.approx)
    c, degree = _pick_c(args, eps, omega)
    u = Representation.build(eps, float(omega), float(c), degree())
    if args.csv or not args.json:
        text = "".join(_csv_text(u.vectors))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json:
        payload = {
            "omega": float(omega),
            "c": float(c),
            "dim": u.space.dim,
            "signs": list(u.space.signs),
            "pivots": [q + 1 for q in u.pivots],
            "vectors": u.vectors,
        }
        _print_json(payload)
    else:
        print(f"# omega={float(omega):.12g} c={float(c):.12g} dim={u.space.dim} "
              f"signs={''.join('+' if s > 0 else '-' for s in u.space.signs)}")
        sys.stdout.write(text)
    return EXIT_OK


def cmd_classes(args) -> int:
    eps = _read_graph(args.file)
    c, _ = _pick_c(args, eps)
    if float(c) == 0.0:
        raise InputError("c must be nonzero")
    p = line_classes(eps, 1, c)
    # the linking rules hold where line_classes took the sign-matrix partition
    report = check_class_linking(eps, p, int(float(c))) if abs(float(c)) == 1.0 else None
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
        _print_json(payload)
    else:
        print(f"{p.m} distinct line(s) among {eps.n} vertices at c={float(c):.12g}")
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


def cmd_group(args) -> int:
    if args.csv and not args.realize:
        raise InputError("--csv writes the realized matrices; it needs --realize")
    eps = _read_graph(args.file)
    c, degree = _pick_c(args, eps)
    if float(c) == 0.0:
        raise InputError("c must be nonzero")
    p = line_classes(eps, 1, c)
    if args.realize:  # before the search: an S that overflows is refused first
        u = Representation.build(eps, 1.0, float(c), degree())
    y = restrict_to_Y(eps, p)
    grp = enumerate_group(y)
    if args.realize and grp.order > config.MAX_LISTED_ORDER:
        raise BoundExceededError(
            f"|G| = {grp.order} exceeds the --realize listing bound "
            f"{config.MAX_LISTED_ORDER}"
        )
    orbit_info = orbits_on_lines(grp)
    payload = {
        "c": float(c),
        "n": eps.n,
        "lines": y.n,
        "aut_graph_order": automorphism_order(eps),
        "group_order": grp.order,
        "n_sigma": grp.n_sigma,
        "group_order_mod_center": grp.order // 2,
        "orbits": [[j + 1 for j in orb] for orb in orbit_info.orbits],
        "is_transitive": orbit_info.is_transitive,
        "is_2_transitive": orbit_info.is_2_transitive,
    }
    if args.realize:
        # one vector per line, in u's frame: each pivot vertex stands for its line
        v = Representation(y, u.omega, u.c, u.space, u.vectors[list(p.rep_index)],
                           [p.pi[q] for q in u.pivots])
        payload["pivots"] = [q + 1 for q in u.pivots]
        mats = _realize_listing(grp, v)
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.writelines(_csv_text(mats))
        else:
            payload["isometries"] = mats
    if args.json:
        _print_json(payload)
    else:
        print(f"|H(graph)| = {payload['aut_graph_order']}")
        print(f"|G| = {payload['group_order']}  (N_sigma = {payload['n_sigma']}, "
              f"|G|/2 = {payload['group_order_mod_center']} modulo the central sign)")
        print(f"lines: {payload['lines']}")
        print(f"orbits on lines: {payload['orbits']}")
        print(f"transitive: {payload['is_transitive']}  "
              f"2-transitive: {payload['is_2_transitive']}")
        if "isometries" in payload:
            _print_matrices(payload["isometries"])
    return EXIT_OK


def _realize_listing(grp, v):
    """The isometry matrices of every element of the listing of ``grp``,
    realized once per pair.  The listing holds (sigma, -nu) and then
    (sigma, nu) in rows 2k and 2k + 1, and the matrix of the first is
    0 - M for the matrix M of the second, bit for bit: its targets are
    negated, IEEE arithmetic negates each product and sum of negated
    operands exactly, and a sum that cancels to zero is +0.0 in both,
    which 0 - M keeps and -M would not.  The checks of one element of a
    pair therefore hold for the other."""
    sigma, nu = grp.listing
    signed = (sigma + 1) * nu  # sigma and nu in one integer
    if not np.array_equal(signed[0::2], -signed[1::2]):
        raise InvariantError("the group listing does not come in pairs (sigma, -nu), (sigma, nu)")
    try:
        half = realize_isometry(sigma[1::2], nu[1::2], v)
    except (GramMismatchError, DeficientSpanError) as exc:
        # the elements come from the group's own chain: a failure here
        # is a defect, not bad input
        raise InvariantError(f"sheaf group element is not an isometry: {exc}") from exc
    mats = np.empty((len(sigma), *half.shape[1:]))
    mats[1::2] = half
    np.subtract(0.0, half, out=mats[0::2])
    return mats


def _print_matrices(mats):
    """Print a stack of matrices, each under an ``isometry k:`` header with
    one indented row per line, by 12 significant digits and with no -0."""
    k, r, w = mats.shape
    heads = ["\n  "] * (k * r)
    heads[::r] = [f"\nisometry {j}:\n  " for j in range(1, k + 1)]
    heads[0] = heads[0][1:]
    rows = (mats + 0.0).reshape(k * r, w)  # + 0.0 turns -0.0 into 0.0
    sys.stdout.writelines(_rows_text(rows, "{:.12g}".format, " ", heads))
    print()


def cmd_analyze(args) -> int:
    eps = _read_graph(args.file)
    chi, factors, roots = chi_and_roots(eps)
    report = {
        "graph": {
            "n": eps.n,
            "edges": (np.argwhere(np.triu(eps.entries == -1)) + 1).tolist(),
        },
        "epsilon": eps.entries,
        "chi": {
            "text": chi.pretty(),
            "factored": _factored_text(chi, factors),
            "coefficients": [str(c) for c in chi.coeffs],
        },
        "roots": [],
    }
    for rec in roots:
        entry = _root_json(rec, eps.n)
        entry["rank"] = entry["degree"]  # the rank law
        if rec.exact is not None and abs(rec.exact) == 1:
            p = partition_from_sign_matrix(eps, int(rec.exact))
            lr = check_class_linking(eps, p, int(rec.exact))
            entry["partition"] = _partition_json(p)
            entry["linking_ok"] = lr.ok
        report["roots"].append(entry)
    report["aut_graph_order"] = automorphism_order(eps)
    if eps.n >= 3:
        grp = enumerate_group(eps)
        orbit_info = orbits_on_lines(grp)
        report["group"] = {
            "order": grp.order,
            "n_sigma": grp.n_sigma,
            "orbits": [[j + 1 for j in orb] for orb in orbit_info.orbits],
            "is_transitive": orbit_info.is_transitive,
            "is_2_transitive": orbit_info.is_2_transitive,
        }
    if args.json:
        _print_json(report)
    else:
        print(f"graph on {eps.n} vertices, {len(report['graph']['edges'])} edges")
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
        eps = fx.graph
        chi, _, roots = chi_and_roots(eps)
        expected_chi = fx.chi_coeffs
        if corrupt == fx.name:
            expected_chi = tuple(c + 1 for c in expected_chi)
        chi_ok = chi.coeffs == expected_chi
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
        aut_ok = automorphism_order(eps) == fx.aut_order
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
        _print_json({"fixtures": rows, "ok": ok_all})
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


@functools.cache  # one per process, built on first use; each parse gets a fresh namespace
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
    pg.add_argument("--csv", help="write the realized matrices to this CSV file "
                    "(needs --realize)")

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
    except (OSError, GerbeError) as exc:  # an InputError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:  # not an InputError: a defect in gerbe
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
