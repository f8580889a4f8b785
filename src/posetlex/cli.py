"""Command-line front end.

``main`` loads the poset file a command takes, the command's handler
computes a ``Report``, and ``_render`` alone prints it: as text, or with
``--json`` as an envelope of the command, the input, the result and the
wall time.  ``lexsum``, ``compose-at`` and ``dot`` write a poset file or
a graph, not a report, so they reject ``--json``.  A flag a command
cannot honour is rejected before any file is read or written.

Every numeric claim printed is an exact integer or an exact fraction;
decimal renderings are annotations only.  Exit codes: 0 success, 1 bad
input or I/O, 2 a conjecture check failed.
"""

import argparse
import functools
import json
import os
import sys
import time
from collections import namedtuple
from fractions import Fraction

from . import conjectures, files, lexsum as lexsum_mod, linext, survey
from .decompose import decompose as run_decompose, gpc_via_decomposition
from .errors import PosetError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILURE = 2

#: The commands that enumerate L(P), the only ones ``--cap`` applies to.
CAP_COMMANDS = ("enum", "verify-locality")

#: The commands that write a poset file or a graph, which ``--json`` cannot wrap.
WRITE_COMMANDS = ("lexsum", "compose-at", "dot")


class Report(
    namedtuple(
        "Report", "poset result text extensions code", defaults=(None, None, EXIT_OK)
    )
):
    """What a command computed: ``text`` as written (None: ``result`` as
    indented JSON), the input ``poset`` (or None) with its e(P) if already
    held, and the exit ``code``."""

    __slots__ = ()


def _fraction_str(value):
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"


def _render(args, started, report):
    """Print the report: its text, or with --json the envelope.

    The envelope counts e(P) only when the handler did not hold it;
    ``wall_time_s`` runs from ``started``, stamped before the input was read.
    """
    if not args.json:
        text = report.text
        if text is None:
            text = json.dumps(report.result, indent=2) + "\n"
        sys.stdout.write(text)
        return
    poset, extensions = report.poset, report.extensions
    if poset is not None and extensions is None:
        extensions = linext.count_extensions(poset)
    doc = {
        "command": args.command,
        "input": None
        if poset is None
        else {
            "elements": poset.n,
            "relations": sum(row.bit_count() for row in poset.lt),
            "extensions": str(extensions),
        },
        "result": report.result,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    print(json.dumps(doc, indent=2))


def _failure(poset, what, **result):
    """The report of a failed check: ``result``, then delta(P) and its pair."""
    value, pair = linext.delta(poset)
    result.update(delta=_fraction_str(value), delta_pair=list(pair))
    text = f"FAILURE: {what}; delta = {_fraction_str(value)} at {pair}\n"
    return Report(poset, result, text, code=EXIT_FAILURE)


def _cmd_count(args, poset):
    total = linext.count_extensions(poset)
    return Report(poset, {"extensions": str(total)}, f"{total}\n", total)


def _cmd_enum(args, poset):
    extensions = linext.enumerate_extensions(poset, args.cap)
    rows = [" ".join(str(v) for v in ext.labels) for ext in extensions]
    text = "".join(f"{row}\n" for row in rows)
    return Report(poset, {"rows": rows}, text, len(extensions))


def _cmd_probs(args, poset):
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
    rows = "".join(f"{x}\t{y}\t{p}\t{d}\n" for x, y, p, d in lines)
    return Report(poset, payload, "x\ty\tprob\tapprox\n" + rows, matrix.total)


def _cmd_delta(args, poset):
    value, pair = linext.delta(poset)
    exact = _fraction_str(value)
    payload = {"delta": exact, "approx": float(value), "pair": list(pair)}
    text = f"delta = {exact} ({float(value):.6f}) at pair {pair}\n"
    return Report(poset, payload, text)


def _cmd_check_13_23(args, poset):
    found = linext.balanced_pair(poset)
    if found is None:
        return _failure(poset, "no balanced pair", balanced=False)
    pair, ratio = found
    payload = {"balanced": True, "pair": list(pair), "prob": _fraction_str(ratio)}
    text = f"balanced pair {pair} with P(x<y) = {_fraction_str(ratio)}\n"
    return Report(poset, payload, text)


def _cmd_check_gpc(args, poset):
    mode = "nonadaptive" if args.nonadaptive else "adaptive"
    if args.via_decomposition:
        witness = gpc_via_decomposition(poset)
    else:
        witness = conjectures.check_gpc(poset, mode=mode)
    if witness is None:
        return _failure(
            poset, f"no gold-partition witness ({mode})", gpc=False, mode=mode
        )
    return Report(poset, witness.to_json_dict(), extensions=witness.t0)


def _cmd_sort_cost(args, poset):
    cost = conjectures.sort_cost(poset)
    return Report(poset, {"comparisons": cost}, f"{cost}\n")


def _cmd_gold_bound(args, poset):
    cost = conjectures.sort_cost(poset)
    total = linext.count_extensions(poset)
    holds = conjectures._gold_bound(total, cost)
    payload = {"holds": holds, "sort_cost": cost, "extensions": str(total)}
    text = f"C(P) = {cost}, e(P) = {total}, bound holds: {holds}\n"
    return Report(poset, payload, text, total, EXIT_OK if holds else EXIT_FAILURE)


def _written(poset, output, comment):
    """Write the poset file to ``output``; without one, the file is the text."""
    if output:
        files.dump(poset, output, comment)
    return Report(poset, None, "" if output else files.dumps(poset, comment))


def _cmd_lexsum(args, _):
    base = files.load(args.base)
    components = [files.load(path) for path in args.components]
    spec = lexsum_mod.lex_sum(base, components)
    return _written(spec.poset, args.output, "lexicographic sum")


def _cmd_compose_at(args, _):
    base = files.load(args.base)
    component = files.load(args.component)
    spec = lexsum_mod.compose_at(base, args.index, component)
    return _written(spec.poset, args.output, f"substitution at point {args.index}")


def _cmd_verify_locality(args, _):
    with open(args.spec, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("base"), str)
        and isinstance(doc.get("component"), str)
        and type(doc.get("index")) is int
    ):
        raise ValueError(
            f"{args.spec}: a spec is a JSON object with string base and component "
            "and an integer index"
        )
    base = files.load(doc["base"])
    component = files.load(doc["component"])
    table = lexsum_mod.locality_table(base, doc["index"], component, args.cap)
    payload = {
        "columns": len(table.columns),
        "k": table.k,
        "e": str(table.total),
        "divisible": table.total % len(table.columns) == 0,
        "reconstruction_ok": True,
    }
    return Report(table.spec.poset, payload, extensions=table.total)


def _cmd_lift_gpc(args, _):
    base = files.load(args.base)
    component = files.load(args.component)
    witness = conjectures.check_gpc(component)
    if witness is None:
        return _failure(component, "component has no gold-partition witness", gpc=False)
    spec = lexsum_mod.compose_at(base, args.index, component)
    lifted = lexsum_mod.lift_witness(
        spec.poset, spec.embed[args.index], component, witness
    )
    payload = {
        "component_witness": witness.to_json_dict(),
        "lifted_witness": lifted.to_json_dict(),
        "k": lifted.t0 // witness.t0,
    }
    return Report(spec.poset, payload, extensions=lifted.t0)


def _cmd_decompose(args, poset):
    split = run_decompose(poset)
    if split is None:
        return Report(poset, {"indecomposable": True})
    payload = {
        "indecomposable": False,
        "base": files.dumps(split.base),
        "factor": files.dumps(split.factor),
        "index": split.index,
        "members": list(split.members),
    }
    return Report(poset, payload)


def _cmd_dot(args, poset):
    return Report(poset, None, poset.to_dot())


def _cmd_sweep(args, _):
    mode = "nonadaptive" if args.nonadaptive else "adaptive"
    summary = survey.sweep(args.max_n, mode=mode)
    text = (
        f"posets on <= {summary.max_n} labeled elements: {summary.total} "
        f"({summary.checked} non-chains checked, mode {mode})\n"
        f"gpc failures: {len(summary.gpc_failures)}\n"
        f"1/3-2/3 failures: {len(summary.one_third_failures)}\n"
        f"unbalanced witness first pairs: {len(summary.unbalanced_witnesses)}\n"
    )
    code = EXIT_OK if summary.clean else EXIT_FAILURE
    return Report(None, summary.to_json_dict(), text, code=code)


#: How each positional argument is parsed, by name; the rest are strings.
POSITIONALS = {
    "index": {"type": int},
    "max_n": {"type": int},
    "components": {"nargs": "+"},
}


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
        "--json",
        action="store_true",
        help=f"emit machine-readable reports (not for {', '.join(WRITE_COMMANDS)})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, *positionals, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for dest in positionals:
            p.add_argument(dest, **POSITIONALS.get(dest, {}))
        return p

    add("count", _cmd_count, "file", help="number of linear extensions")
    add("enum", _cmd_enum, "file", help="list all linear extensions")
    add("probs", _cmd_probs, "file", help="pairwise order probabilities")
    add("delta", _cmd_delta, "file", help="max-min order probability")
    add("check-13-23", _cmd_check_13_23, "file", help="1/3-2/3 balanced-pair check")
    gpc = add("check-gpc", _cmd_check_gpc, "file", help="gold partition check")
    gpc.add_argument("--nonadaptive", action="store_true")
    gpc.add_argument("--via-decomposition", action="store_true")
    add("sort-cost", _cmd_sort_cost, "file", help="exact sorting cost")
    add("gold-bound", _cmd_gold_bound, "file", help="golden-ratio sorting bound")
    add(
        "lexsum", _cmd_lexsum, "base", "components",
        help="lexicographic sum of poset files",
    ).add_argument("-o", "--output")
    add(
        "compose-at", _cmd_compose_at, "base", "index", "component",
        help="substitute one point",
    ).add_argument("-o", "--output")
    add(
        "verify-locality", _cmd_verify_locality, "spec",
        help="class-table verification of a sum spec (JSON file)",
    )
    add(
        "lift-gpc", _cmd_lift_gpc, "base", "index", "component",
        help="lift a component witness",
    )
    add("decompose", _cmd_decompose, "file", help="autonomous-set split")
    add("dot", _cmd_dot, "file", help="DOT digraph of the cover relation")
    sw = add("sweep", _cmd_sweep, "max_n", help="exhaustive small-poset check")
    sw.add_argument("--nonadaptive", action="store_true")
    return parser


def _check_flags(args):
    """Reject a flag the command cannot honour, before any file is touched."""
    if args.cap is None:
        args.cap = linext.DEFAULT_ENUM_CAP
    elif args.command not in CAP_COMMANDS:
        raise ValueError(
            f"--cap applies to {' and '.join(CAP_COMMANDS)} only, not {args.command}"
        )
    elif args.cap < 1:
        raise ValueError(f"--cap must be at least 1, got {args.cap}")
    if args.json and args.command in WRITE_COMMANDS:
        raise ValueError(f"--json applies to reports only, not {args.command}")
    if args.command == "check-gpc" and args.nonadaptive and args.via_decomposition:
        raise ValueError(
            "--via-decomposition lifts adaptive witnesses only; "
            "it cannot be combined with --nonadaptive"
        )


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        started = time.perf_counter()
        poset = files.load(args.file) if "file" in args else None
        report = args.handler(args, poset)
        _render(args, started, report)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return report.code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the flush at exit
        # cannot raise again, and report nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except (OSError, ValueError, PosetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
