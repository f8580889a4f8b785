"""Pins the benchmark's own oracles to values known apart from posetlex.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import itertools
import os
import random
import unittest
from fractions import Fraction

import oracle

POSETS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "posets")


def bundled(name):
    return oracle.read(os.path.join(POSETS, name))


def brute_before(order):
    """{(x, y): extensions placing x first}, by filtering all n! orders."""
    counts = {(x, y): 0 for x in range(order.n) for y in range(order.n) if x != y}
    for perm in itertools.permutations(range(order.n)):
        pos = {v: k for k, v in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in order.pairs()):
            for x, y in counts:
                counts[x, y] += pos[x] < pos[y]
    return counts


class OracleTest(unittest.TestCase):
    def test_table1_has_42_extensions(self):
        self.assertEqual(oracle.count(bundled("table1.poset")), 42)

    def test_n_has_5_extensions(self):
        self.assertEqual(oracle.count(bundled("n.poset")), 5)

    def test_p163425_balance_is_7_15(self):
        order = bundled("p163425.poset")
        total = oracle.count(order)
        self.assertEqual(oracle.delta(order, oracle.pair_counts(order), total), Fraction(7, 15))

    def test_compose_n_with_p312_is_table1(self):
        composed = oracle.compose(bundled("n.poset"), 0, bundled("p312.poset"))
        self.assertEqual(composed.relation(), bundled("table1.poset").relation())

    def test_chain_and_antichain(self):
        self.assertEqual(oracle.count(oracle.Order(5, [(0, 1), (1, 2), (2, 3), (3, 4)])), 1)
        self.assertEqual(oracle.count(oracle.Order(5, [])), 120)

    def test_pair_counts_match_brute_force(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 7)
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3]
            order = oracle.Order(n, pairs)
            before = brute_before(order)
            self.assertEqual(oracle.pair_counts(order), before)
            self.assertEqual(oracle.count(order), before[0, 1] + before[1, 0])

    def test_golden_bound(self):
        # phi^2 = 2.618..., phi^3 = 4.236...
        self.assertTrue(oracle.fib_power_at_most(2, 3))
        self.assertTrue(oracle.fib_power_at_most(3, 5))
        self.assertFalse(oracle.fib_power_at_most(3, 4))
        self.assertTrue(oracle.fib_power_at_most(0, 1))

    def test_witness_recount(self):
        # A point 0 beside the chain 1 < 2: e = 3; comparing 0 with 1 leaves
        # a chain (t1 = 1) or the order 1 < 0, 1 < 2 (t1 = 2, t2 = 1).
        order = oracle.Order(3, [(1, 2)])
        witness = {
            "t0": 3,
            "first": [0, 1],
            "branches": [
                {"result": [0, 1], "t1": 1, "second": None, "t2": 1},
                {"result": [1, 0], "t1": 2, "second": [0, 2], "t2": 1},
            ],
        }
        self.assertIsNone(oracle.witness_problem(order, witness))
        witness["branches"][1]["t2"] = 2
        self.assertIsNotNone(oracle.witness_problem(order, witness))

    def test_witness_exists(self):
        two = oracle.Order(2, [])
        point_and_chain = oracle.Order(3, [(1, 2)])
        for mode in ("adaptive", "nonadaptive"):
            self.assertTrue(oracle.witness_exists(two, mode))
            self.assertTrue(oracle.witness_exists(point_and_chain, mode))
        # Antichain of three: e = 6; 0 < 1 leaves t1 = 3, then comparing
        # 0 with 2 leaves at most t2 = 2, and 6 >= 3 + 2.
        self.assertTrue(oracle.witness_exists(oracle.Order(3, []), "nonadaptive"))

    def test_nonadaptive_witness_can_be_missing(self):
        # A 10-point order with e = 27 and six open pairs: each outcome of
        # every first pair needs its own second pair.
        covers = [(0, 7), (1, 3), (1, 6), (2, 0), (2, 4), (3, 5), (4, 1),
                  (7, 1), (8, 9), (9, 0), (9, 4)]
        order = oracle.Order(10, covers)
        self.assertEqual(oracle.count(order), 27)
        self.assertTrue(oracle.witness_exists(order, "adaptive"))
        self.assertFalse(oracle.witness_exists(order, "nonadaptive"))

    def test_cycle_rejected(self):
        with self.assertRaises(ValueError):
            oracle.Order(2, [(0, 1), (1, 0)])


if __name__ == "__main__":
    unittest.main()
