"""Command-line front end.

Every numeric claim printed is an exact integer or an exact fraction;
decimal renderings are annotations only.  Exit codes: 0 success, 1 bad
input or I/O, 2 a conjecture check failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import (
    conjectures,
    files,
    lexsum as lexsum_mod,
    linext,
    survey,
)
from .decompose import decompose as run_decompose, gpc_via_decomposition
from .errors import PosetError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILURE = 2

#: The commands that enumerate L(P), the only ones ``--cap`` applies to.
CAP_COMMANDS = ("enum", "verify-locality")


def _fraction_str(value):
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"


def _report(args, command, poset, payload, extensions=None):
    """Emit a machine report (--json) or return False to let callers print.

    ``extensions`` is e(poset) when the caller already holds it; otherwise
    the report counts it.  ``wall_time_s`` runs from ``args.started``,
    stamped by ``main`` before the handler.
    """
    if not args.json:
        return False
    if poset is not None and extensions is None:
        extensions = linext.count_extensions(poset)
    doc = {
        "command": command,
        "input": None
        if poset is None
        else {
            "elements": poset.n,
            "relations": sum(row.bit_count() for row in poset.lt),
            "extensions": str(extensions),
        },
        "result": payload,
        "wall_time_s": round(time.perf_counter() - args.started, 6),
    }
    print(json.dumps(doc, indent=2))
    return True


def _cmd_count(args):
    poset = files.load(args.file)
    total = linext.count_extensions(poset)
    if not _report(args, "count", poset, {"extensions": str(total)}, total):
        print(total)
    return EXIT_OK


def _cmd_enum(args):
    poset = files.load(args.file)
    extensions = linext.enumerate_extensions(poset, args.cap)
    rows = [" ".join(str(v) for v in ext.labels) for ext in extensions]
    if not _report(args, "enum", poset, {"rows": rows}, len(extensions)):
        for row in rows:
            print(row)
    return EXIT_OK


def _cmd_probs(args):
    poset = files.load(args.file)
    matrix = linext.pair_counts(poset)
    lines = []
    for x in range(poset.n):
        for y in range(poset.n):
            if x == y:
                continue
            frac = Fraction(matrix.counts[x][y], matrix.total)
            lines.append((x, y, _fraction_str(frac), f"{float(frac):.6f}"))
    payload = {
        "total": str(matrix.total),
        "pairs": [
            {"x": x, "y": y, "prob": p, "approx": d} for x, y, p, d in lines
        ],
    }
    if not _report(args, "probs", poset, payload, matrix.total):
        print("x\ty\tprob\tapprox")
        for x, y, p, d in lines:
            print(f"{x}\t{y}\t{p}\t{d}")
    return EXIT_OK


def _cmd_delta(args):
    poset = files.load(args.file)
    value, pair = linext.delta(poset)
    payload = {
        "delta": _fraction_str(value),
        "approx": float(value),
        "pair": list(pair),
    }
    if not _report(args, "delta", poset, payload):
        print(f"delta = {_fraction_str(value)} ({float(value):.6f}) at pair {pair}")
    return EXIT_OK


def _cmd_check_13_23(args):
    poset = files.load(args.file)
    found = linext.balanced_pair(poset)
    if found is None:
        value, pair = linext.delta(poset)
        payload = {
            "balanced": False,
            "delta": _fraction_str(value),
            "delta_pair": list(pair),
        }
        if not _report(args, "check-13-23", poset, payload):
            print(
                "FAILURE: no balanced pair; "
                f"delta = {_fraction_str(value)} at {pair}"
            )
        return EXIT_FAILURE
    pair, ratio = found
    payload = {
        "balanced": True,
        "pair": list(pair),
        "prob": _fraction_str(ratio),
    }
    if not _report(args, "check-13-23", poset, payload):
        print(f"balanced pair {pair} with P(x<y) = {_fraction_str(ratio)}")
    return EXIT_OK


def _cmd_check_gpc(args):
    if args.nonadaptive and args.via_decomposition:
        raise ValueError(
            "--via-decomposition lifts adaptive witnesses only; "
            "it cannot be combined with --nonadaptive"
        )
    poset = files.load(args.file)
    mode = "nonadaptive" if args.nonadaptive else "adaptive"
    if args.via_decomposition:
        witness = gpc_via_decomposition(poset)
    else:
        witness = conjectures.check_gpc(poset, mode=mode)
    if witness is None:
        value, pair = linext.delta(poset)
        payload = {
            "gpc": False,
            "mode": mode,
            "delta": _fraction_str(value),
            "delta_pair": list(pair),
        }
        if not _report(args, "check-gpc", poset, payload):
            print(
                f"FAILURE: no gold-partition witness ({mode}); "
                f"delta = {_fraction_str(value)} at {pair}"
            )
        return EXIT_FAILURE
    payload = witness.to_json_dict()
    if not _report(args, "check-gpc", poset, payload, witness.t0):
        print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_sort_cost(args):
    poset = files.load(args.file)
    cost = conjectures.sort_cost(poset)
    if not _report(args, "sort-cost", poset, {"comparisons": cost}):
        print(cost)
    return EXIT_OK


def _cmd_gold_bound(args):
    poset = files.load(args.file)
    cost = conjectures.sort_cost(poset)
    total = linext.count_extensions(poset)
    holds = conjectures._gold_bound(total, cost)
    payload = {"holds": holds, "sort_cost": cost, "extensions": str(total)}
    if not _report(args, "gold-bound", poset, payload, total):
        print(f"C(P) = {cost}, e(P) = {total}, bound holds: {holds}")
    return EXIT_OK if holds else EXIT_FAILURE


def _write(poset, output, comment):
    """Write the poset file to ``output``, or to stdout when it is None."""
    if output:
        files.dump(poset, output, comment)
    else:
        sys.stdout.write(files.dumps(poset, comment))


def _cmd_lexsum(args):
    base = files.load(args.base)
    components = [files.load(path) for path in args.components]
    spec = lexsum_mod.lex_sum(base, components)
    _write(spec.poset, args.output, "lexicographic sum")
    return EXIT_OK


def _cmd_compose_at(args):
    base = files.load(args.base)
    component = files.load(args.component)
    spec = lexsum_mod.compose_at(base, args.index, component)
    _write(spec.poset, args.output, f"substitution at point {args.index}")
    return EXIT_OK


def _cmd_verify_locality(args):
    with open(args.spec, encoding="utf-8") as handle:
        doc = json.load(handle)
    base = files.load(doc["base"])
    component = files.load(doc["component"])
    index = int(doc["index"])
    table = lexsum_mod.locality_table(base, index, component, args.cap)
    payload = {
        "columns": len(table.columns),
        "k": table.k,
        "e": str(table.total),
        "divisible": table.total % len(table.columns) == 0,
        "reconstruction_ok": True,
    }
    if not _report(args, "verify-locality", table.spec.poset, payload, table.total):
        print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_lift_gpc(args):
    base = files.load(args.base)
    component = files.load(args.component)
    witness = conjectures.check_gpc(component)
    if witness is None:
        print("FAILURE: component has no gold-partition witness", file=sys.stderr)
        return EXIT_FAILURE
    spec = lexsum_mod.compose_at(base, args.index, component)
    lifted = lexsum_mod.lift_witness(
        spec.poset, spec.embed[args.index], component, witness
    )
    payload = {
        "component_witness": witness.to_json_dict(),
        "lifted_witness": lifted.to_json_dict(),
        "k": lifted.t0 // witness.t0,
    }
    if not _report(args, "lift-gpc", spec.poset, payload, lifted.t0):
        print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_decompose(args):
    poset = files.load(args.file)
    split = run_decompose(poset)
    if split is None:
        payload = {"indecomposable": True}
    else:
        payload = {
            "indecomposable": False,
            "base": files.dumps(split.base),
            "factor": files.dumps(split.factor),
            "index": split.index,
            "members": list(split.members),
        }
    if not _report(args, "decompose", poset, payload):
        print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_dot(args):
    poset = files.load(args.file)
    sys.stdout.write(poset.to_dot())
    return EXIT_OK


def _cmd_sweep(args):
    mode = "nonadaptive" if args.nonadaptive else "adaptive"
    summary = survey.sweep(args.max_n, mode=mode)
    payload = summary.to_json_dict()
    if not _report(args, "sweep", None, payload):
        print(
            f"posets on <= {summary.max_n} labeled elements: {summary.total} "
            f"({summary.checked} non-chains checked, mode {mode})"
        )
        print(f"gpc failures: {len(summary.gpc_failures)}")
        print(f"1/3-2/3 failures: {len(summary.one_third_failures)}")
        print(f"unbalanced witness first pairs: {len(summary.unbalanced_witnesses)}")
    return EXIT_OK if summary.clean else EXIT_FAILURE


@functools.cache
def build_parser():
    """The argument parser, built once: ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="posetlex",
        description="Exact linear-extension analytics on finite posets.",
    )
    parser.add_argument(
        "--cap",
        type=int,
        help="enumeration cap on e(P), at least 1, for "
        f"{' and '.join(CAP_COMMANDS)} only (default {linext.DEFAULT_ENUM_CAP})",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable reports"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    add("count", _cmd_count, help="number of linear extensions").add_argument("file")
    add("enum", _cmd_enum, help="list all linear extensions").add_argument("file")
    add("probs", _cmd_probs, help="pairwise order probabilities").add_argument("file")
    add("delta", _cmd_delta, help="max-min order probability").add_argument("file")
    add(
        "check-13-23", _cmd_check_13_23, help="1/3-2/3 balanced-pair check"
    ).add_argument("file")
    gpc = add("check-gpc", _cmd_check_gpc, help="gold partition check")
    gpc.add_argument("file")
    gpc.add_argument("--nonadaptive", action="store_true")
    gpc.add_argument("--via-decomposition", action="store_true")
    add("sort-cost", _cmd_sort_cost, help="exact sorting cost").add_argument("file")
    add(
        "gold-bound", _cmd_gold_bound, help="golden-ratio sorting bound"
    ).add_argument("file")
    ls = add("lexsum", _cmd_lexsum, help="lexicographic sum of poset files")
    ls.add_argument("base")
    ls.add_argument("components", nargs="+")
    ls.add_argument("-o", "--output")
    ca = add("compose-at", _cmd_compose_at, help="substitute one point")
    ca.add_argument("base")
    ca.add_argument("index", type=int)
    ca.add_argument("component")
    ca.add_argument("-o", "--output")
    add(
        "verify-locality",
        _cmd_verify_locality,
        help="class-table verification of a sum spec (JSON file)",
    ).add_argument("spec")
    lg = add("lift-gpc", _cmd_lift_gpc, help="lift a component witness")
    lg.add_argument("base")
    lg.add_argument("index", type=int)
    lg.add_argument("component")
    add("decompose", _cmd_decompose, help="autonomous-set split").add_argument("file")
    add("dot", _cmd_dot, help="DOT digraph of the cover relation").add_argument("file")
    sw = add("sweep", _cmd_sweep, help="exhaustive small-poset check")
    sw.add_argument("max_n", type=int)
    sw.add_argument("--nonadaptive", action="store_true")
    return parser


def _check_cap(args):
    """Reject a ``--cap`` below 1 or given to a command that does not enumerate."""
    if args.cap is None:
        args.cap = linext.DEFAULT_ENUM_CAP
    elif args.command not in CAP_COMMANDS:
        raise ValueError(
            f"--cap applies to {' and '.join(CAP_COMMANDS)} only, not {args.command}"
        )
    elif args.cap < 1:
        raise ValueError(f"--cap must be at least 1, got {args.cap}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_cap(args)
        args.started = time.perf_counter()
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the flush at exit
        # cannot raise again, and report nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except (OSError, ValueError, PosetError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
