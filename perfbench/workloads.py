"""The three workloads: their seeded inputs, timed operations and checks.

Each ``*_ops`` function builds one round of operations from a seed.  It
generates its inputs with its own ``random.Random`` (never with
``posetlex.generate``) and writes any input files into ``workdir``.  An
operation's ``run`` calls only the public API, looked up on the package
at call time so that a traced round sees the wrapped functions; its
``check`` compares the result with ``oracle`` computations and returns a
list of problems, empty when the output is right.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

#: Labeled posets on k = 1..6 points (OEIS A001035).
LABELED_POSETS = (1, 3, 19, 219, 4231, 130023)

#: sweep: operations per round, each ``sweep(SWEEP_N)``.
SWEEP_N = 5
SWEEP_OPS = 12

#: analytics: operations per round, poset size, and the e(P) band of
#: each poset in an operation.
ANALYTICS_OPS = 48
ANALYTICS_SIZE = 10
ANALYTICS_BANDS = ((20, 30), (200, 300), (2000, 3000))

#: lexsum: seeded (P, i, Q) triples per round, and their shape limits.
LEXSUM_TRIPLES = 58
LEXSUM_Q_SIZES = (4, 5, 6)
LEXSUM_SUM_SIZES = (12, 19)
LEXSUM_E = (500, 1000)
LEXSUM_TRIES = 30

BUNDLED = "posets"


@dataclass
class Op:
    name: str
    items: int
    run: Callable
    check: Callable


def _random_order(rng, n, density):
    """Random order: each pair of a random ranking kept with ``density``."""
    rank = list(range(n))
    rng.shuffle(rank)
    pairs = [
        (rank[i], rank[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return oracle.Order(n, pairs)


def _draw(low, high, make, density, floor):
    """First non-chain ``make(density)`` with low <= e < high.

    After each miss the density moves towards the band: up when e is too
    large, down (not below ``floor``) when it is too small.
    """
    while True:
        order = make(density)
        e = 1 if order.is_chain() else oracle.count(order)
        if low <= e < high:
            return order
        density = min(0.98, density * 1.1) if e >= high else max(floor, density * 0.9)


# -- sweep -------------------------------------------------------------


def sweep_ops(seed, workdir, api):
    """``SWEEP_OPS`` operations, each ``sweep(SWEEP_N)`` over all labeled
    posets on at most ``SWEEP_N`` points.

    The input is fixed, so the seed changes nothing here.  No state is
    kept between calls, so every call does the whole sweep again.
    """
    total = sum(LABELED_POSETS[:SWEEP_N])
    chains = sum(math.factorial(k) for k in range(1, SWEEP_N + 1))

    def check(summary):
        found = (summary.total, summary.chains, summary.checked)
        expected = (total, chains, total - chains)
        problems = []
        if found != expected:
            problems.append(f"sweep({SWEEP_N}) total/chains/checked {found} != {expected}")
        for kind in ("gpc_failures", "one_third_failures", "unbalanced_witnesses"):
            if getattr(summary, kind):
                problems.append(f"sweep({SWEEP_N}) {kind}: {len(getattr(summary, kind))}")
        return problems

    return [
        Op(f"sweep({SWEEP_N})#{k}", total, lambda: api.sweep(SWEEP_N), check)
        for k in range(SWEEP_OPS)
    ]


# -- analytics -----------------------------------------------------------


def analytics_inputs(seed):
    """Batches of non-chain posets, one per e(P) band in each batch.

    Every batch spans the same orders of magnitude of e(P), so the
    batches cost about the same and their latency quantiles are steady
    from seed to seed.
    """
    rng = random.Random(f"analytics/{seed}")
    make = lambda d: _random_order(rng, ANALYTICS_SIZE, d)
    return [
        [_draw(low, high, make, 0.35, 0.05) for low, high in ANALYTICS_BANDS]
        for _ in range(ANALYTICS_OPS)
    ]


def analytics_ops(seed, workdir, api):
    """One operation analyses a batch of posets with the library calls."""
    ops = []
    for k, batch in enumerate(analytics_inputs(seed)):
        posets = [api.Poset.from_relations(o.n, o.pairs()) for o in batch]

        def run(posets=posets):
            return [_analyse(api, poset) for poset in posets]

        def check(out, batch=batch):
            return [p for o, res in zip(batch, out) for p in _check_analytics(o, res)]

        ops.append(Op(f"analytics#{k}", len(batch), run, check))
    return ops


def _analyse(api, poset):
    witnesses = (api.check_gpc(poset), api.check_gpc(poset, mode="nonadaptive"))
    return {
        "e": api.count_extensions(poset),
        "pairs": api.pair_counts(poset),
        "delta": api.delta(poset),
        "balanced": api.balanced_pair(poset),
        "witnesses": witnesses,
        "verified": [api.verify_gpc_witness(poset, w) for w in witnesses if w is not None],
    }


def _check_analytics(order, out):
    n = order.n
    total = oracle.count(order)
    counts = oracle.pair_counts(order)
    problems = []
    if out["e"] != total or out["pairs"].total != total:
        problems.append(f"e(P) {out['e']} / {out['pairs'].total} != {total}")
    if any(out["pairs"].counts[x][y] != counts[x, y] for x, y in counts):
        problems.append("pair_counts differ from the independent counts")
    value, (x, y) = out["delta"]
    if value != oracle.delta(order, counts, total) or order.comparable(x, y):
        problems.append(f"delta {value} at {(x, y)} is not the max-min count")
    elif value != Fraction(min(counts[x, y], counts[y, x]), total):
        problems.append(f"delta pair {(x, y)} does not reach {value}")
    if out["balanced"] is None:
        problems.append("no balanced pair")
    else:
        (x, y), p = out["balanced"]
        if order.comparable(x, y) or p != Fraction(counts[x, y], total):
            problems.append(f"balanced pair {(x, y)} has P(x<y) != {p}")
        elif not Fraction(1, 3) <= p <= Fraction(2, 3):
            problems.append(f"balanced pair {(x, y)} has P(x<y) = {p}")
    for mode, witness in zip(("adaptive", "nonadaptive"), out["witnesses"]):
        if witness is None:
            if oracle.witness_exists(order, mode):
                problems.append(f"no {mode} witness found, but one exists")
            continue
        doc = witness.to_json_dict()
        problem = oracle.witness_problem(order, doc, total)
        if problem:
            problems.append(f"{mode} witness: {problem}")
        seconds = {frozenset(b["second"]) for b in doc["branches"] if b["second"]}
        if mode == "nonadaptive" and len(seconds) > 1:
            problems.append(f"nonadaptive witness uses two second pairs {seconds}")
    if not all(out["verified"]):
        problems.append("verify_gpc_witness rejected a witness")
    return [f"n={n}: {p}" for p in problems]


# -- lexsum --------------------------------------------------------------


def lexsum_inputs(seed):
    """(P, i, Q) triples: Q small and non-chain, P dense, |P o_i Q| in 12..19.

    e(P o_i Q) must lie in ``LEXSUM_E``: the band keeps ``locality_table``,
    which materialises all of L(sum), cheap, and the operations alike in
    cost, so latency quantiles hold steady from seed to seed.  For each
    drawn Q the density of P adapts towards the band; a Q that misses it
    ``LEXSUM_TRIES`` times is drawn again.
    """
    rng = random.Random(f"lexsum/{seed}")
    low, high = LEXSUM_E
    out = []
    while len(out) < LEXSUM_TRIPLES:
        component = _random_order(rng, rng.choice(LEXSUM_Q_SIZES), rng.uniform(0.15, 0.5))
        if component.is_chain() or oracle.count(component) * 2 > high:
            continue
        size = rng.randint(*LEXSUM_SUM_SIZES) - component.n + 1
        i = rng.randrange(size)
        density = 0.75
        for _ in range(LEXSUM_TRIES):
            base = _random_order(rng, size, density)
            e = oracle.count(oracle.compose(base, i, component))
            if low <= e < high:
                out.append((base, i, component))
                break
            density = min(0.98, density * 1.05) if e >= high else max(0.5, density / 1.05)
    return out


def _cli(api, argv):
    """Run ``posetlex.cli.main(argv)`` in process and return its stdout.

    A non-zero exit code fails the operation.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"posetlex {' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _pipeline(api, commands):
    """An operation running the CLI commands in order; returns their outputs."""
    return lambda: [_cli(api, argv) for argv in commands]


def lexsum_ops(seed, workdir, api):
    """Seeded triples, the bundled n o_0 p312 triple, and example19.

    Every triple gets P, Q and a verify-locality spec file in ``workdir``;
    the sum file is written by the timed ``compose-at`` call.
    """
    triples = []
    for k, (base, i, component) in enumerate(lexsum_inputs(seed)):
        paths = [os.path.join(workdir, f"{k}.{tag}") for tag in ("P.poset", "Q.poset", "spec.json")]
        oracle.write(base, paths[0])
        oracle.write(component, paths[1])
        with open(paths[2], "w", encoding="utf-8") as handle:
            json.dump({"base": paths[0], "index": i, "component": paths[1]}, handle)
        triples.append((f"lexsum#{k}", paths[0], i, paths[1], paths[2]))
    spec_path = os.path.join(BUNDLED, "table1_locality.json")
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    triples.append(("table1", spec["base"], spec["index"], spec["component"], spec_path))
    ops = []
    for name, base, i, component, spec in triples:
        total = os.path.join(workdir, f"{name}.sum.poset")
        ops.append(
            Op(
                name,
                1,
                _pipeline(
                    api,
                    [
                        ["check-gpc", component],
                        ["gold-bound", component],
                        ["compose-at", base, str(i), component, "-o", total],
                        ["--json", "count", total],
                        ["--json", "decompose", total],
                        ["--json", "check-gpc", "--via-decomposition", total],
                        ["--json", "lift-gpc", base, str(i), component],
                        ["--json", "verify-locality", spec],
                    ],
                ),
                lambda out, b=base, i=i, c=component, s=total: _check_triple(b, i, c, s, out),
            )
        )
    example = os.path.join(BUNDLED, "example19.poset")
    commands = [
        ["--json", "count", example],
        ["--json", "decompose", example],
        ["--json", "check-gpc", "--via-decomposition", example],
    ]
    ops.append(Op("example19", 1, _pipeline(api, commands), lambda out: _check_sum(example, out)))
    return ops


_GOLD = re.compile(r"C\(P\) = (\d+), e\(P\) = (\d+), bound holds: (True|False)")


def _check_triple(base_path, i, component_path, sum_path, out):
    problems = []
    base, component = oracle.read(base_path), oracle.read(component_path)
    e_q = oracle.count(component)
    gpc, gold, _, count, decomposed, via, lift, locality = out
    problem = oracle.witness_problem(component, json.loads(gpc), e_q)
    if problem:
        problems.append(f"check-gpc Q: {problem}")
    match = _GOLD.search(gold)
    cost, e_gold, holds = int(match[1]), int(match[2]), match[3] == "True"
    if e_gold != e_q or not holds or holds != oracle.fib_power_at_most(cost, e_q):
        problems.append(f"gold-bound Q: {gold.strip()!r} with e(Q) = {e_q}")
    if cost < (e_q - 1).bit_length():
        problems.append(f"gold-bound Q: C(Q) = {cost} < ceil(log2 {e_q})")
    expected = oracle.compose(base, i, component)
    written = oracle.read(sum_path)
    if written.n != expected.n or written.relation() != expected.relation():
        problems.append("compose-at wrote a poset other than P o_i Q")
        return problems
    e_sum = oracle.count(expected)
    problems += _check_sum_outputs(expected, e_sum, count, decomposed, via)
    if e_sum % e_q:
        problems.append(f"e(Q) = {e_q} does not divide e(sum) = {e_sum}")
        return problems
    k = e_sum // e_q
    lifted = json.loads(lift)["result"]
    inner, outer = lifted["component_witness"], lifted["lifted_witness"]
    if lifted["k"] != k:
        problems.append(f"lift-gpc k = {lifted['k']} != {k}")
    scaled = [(k * b["t1"], k * b["t2"]) for b in inner["branches"]]
    if outer["t0"] != k * inner["t0"] or [(b["t1"], b["t2"]) for b in outer["branches"]] != scaled:
        problems.append("lift-gpc t-values are not k times the component's")
    problem = oracle.witness_problem(component, inner, e_q) or oracle.witness_problem(
        expected, outer, e_sum
    )
    if problem:
        problems.append(f"lift-gpc: {problem}")
    table = json.loads(locality)["result"]
    shape = (table["columns"], table["k"], int(table["e"]), table["divisible"])
    if shape != (e_q, k, e_sum, True):
        problems.append(f"verify-locality table {shape} != {(e_q, k, e_sum, True)}")
    return problems


def _check_sum(path, out):
    order = oracle.read(path)
    return _check_sum_outputs(order, oracle.count(order), *out)


def _check_sum_outputs(order, e_sum, count, decomposed, via):
    """Checks of ``--json count``, ``--json decompose``, ``check-gpc --via-decomposition``."""
    problems = []
    if json.loads(count)["result"]["extensions"] != str(e_sum):
        problems.append(f"count {count!r} != {e_sum}")
    split = json.loads(decomposed)["result"]
    if split["indecomposable"]:
        problems.append("decompose found no split of a lexicographic sum")
    else:
        problems += _check_split(order, split)
    problem = oracle.witness_problem(order, json.loads(via)["result"], e_sum)
    if problem:
        problems.append(f"check-gpc --via-decomposition: {problem}")
    return problems


def _check_split(order, split):
    """members autonomous, and base o_index factor rebuilds the relation."""
    n, members = order.n, split["members"]
    inside = set(members)
    if not 2 <= len(inside) < n:
        return [f"decompose members {members} are not a proper split"]
    for z in set(range(n)) - inside:
        ups = {order.lt(z, m) for m in members}
        downs = {order.lt(m, z) for m in members}
        if len(ups) > 1 or len(downs) > 1:
            return [f"decompose members {members} not autonomous at {z}"]
    base, factor = oracle.parse(split["base"]), oracle.parse(split["factor"])
    base_elements = [v for v in range(n) if v == members[0] or v not in inside]
    if base_elements.index(members[0]) != split["index"] or base.n != len(base_elements):
        return [f"decompose index {split['index']} does not mark min(members)"]
    point = {v: base_elements.index(v) for v in base_elements}
    rebuilt = set()
    for u in range(n):
        for v in range(n):
            if u in inside and v in inside:
                holds = u != v and factor.lt(members.index(u), members.index(v))
            else:
                pu = split["index"] if u in inside else point[u]
                pv = split["index"] if v in inside else point[v]
                holds = base.lt(pu, pv)
            if holds:
                rebuilt.add((u, v))
    if rebuilt != order.relation():
        return ["decompose: base o_index factor does not rebuild the relation"]
    return []


WORKLOADS = {"sweep": sweep_ops, "analytics": analytics_ops, "lexsum": lexsum_ops}
