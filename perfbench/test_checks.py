"""Tests for the benchmark's output checks: each passes on correct answers and fails when fed
one wrong answer.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import random
import unittest

import checks
from checks import AFTER, BEFORE, CONCURRENT


class DeepReadsCheck(unittest.TestCase):
    def setUp(self):
        # Two components: 0 -> 1 -> 2 -> 3 with a shortcut 0 -> 2, and 4 -> 5.
        self.edges = [(0, 1), (1, 2), (2, 3), (0, 2), (4, 5)]
        self.graph = checks.descendants(6, self.edges)
        self.pairs = [(0, 3), (3, 0), (1, 2), (0, 4), (3, 5), (5, 4), (2, 2 + 1)]
        self.expected = [checks.expected_order(self.graph, a, b) for a, b in self.pairs]

    def test_oracle_is_reachability(self):
        self.assertEqual(self.expected, [BEFORE, AFTER, BEFORE, CONCURRENT, CONCURRENT, AFTER,
                                         BEFORE])

    def test_oracle_matches_brute_force_on_random_dags(self):
        rng = random.Random(7)
        n = 60
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.04]
        graph = checks.descendants(n, edges)
        succ = {a: [b for x, b in edges if x == a] for a in range(n)}

        def reaches(a, b):
            stack, seen = [a], set()
            while stack:
                x = stack.pop()
                for y in succ[x]:
                    if y == b:
                        return True
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            return False

        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                want = BEFORE if reaches(a, b) else AFTER if reaches(b, a) else CONCURRENT
                self.assertEqual(checks.expected_order(graph, a, b), want, (a, b))

    def test_correct_answers_pass(self):
        answers = [(i, v) for i, v in enumerate(self.expected)] * 3
        self.assertEqual(checks.check_deep_reads(self.expected, answers), [])

    def test_one_wrong_answer_fails(self):
        answers = [(i, v) for i, v in enumerate(self.expected)]
        answers[3] = (3, BEFORE)  # concurrent pair answered as ordered
        self.assertEqual(len(checks.check_deep_reads(self.expected, answers)), 1)

    def test_failed_call_fails(self):
        answers = [(i, v) for i, v in enumerate(self.expected)]
        answers[0] = (0, -1)
        self.assertTrue(checks.check_deep_reads(self.expected, answers))

    def test_edges_out_of_order_are_rejected(self):
        with self.assertRaises(ValueError):
            checks.descendants(3, [(2, 1)])


def chain_answers(lives, tag, flip=None):
    out = []
    pos = {e: (c, i) for c, live in enumerate(lives) for i, e in enumerate(live)}
    for k, (e1, e2) in enumerate(checks.chain_check_pairs(lives)):
        (c1, i1), (c2, i2) = pos[e1], pos[e2]
        v = CONCURRENT if c1 != c2 else (BEFORE if i1 < i2 else AFTER)
        if k == flip:
            v = CONCURRENT if v != CONCURRENT else BEFORE
        out.append((tag, e1, e2, v))
    return out


class ChainCheck(unittest.TestCase):
    def setUp(self):
        self.chains = [[1, 3, 5, 7, 9], [2, 4, 6, 8, 10]]
        self.lives = [[5, 7, 9], [6, 8, 10]]

    def test_correct_answers_pass(self):
        answers = chain_answers(self.lives, "final")
        self.assertEqual(checks.check_chains(self.chains, self.lives, answers, ["final"]), [])

    def test_one_wrong_answer_fails(self):
        answers = chain_answers(self.lives, "final", flip=0)
        self.assertEqual(
            len(checks.check_chains(self.chains, self.lives, answers, ["final"])), 1)

    def test_wrong_cross_chain_answer_fails(self):
        answers = chain_answers(self.lives, "final")
        cross = next(k for k, (_, e1, e2, v) in enumerate(answers) if v == CONCURRENT)
        tag, e1, e2, _ = answers[cross]
        answers[cross] = (tag, e1, e2, BEFORE)
        self.assertTrue(checks.check_chains(self.chains, self.lives, answers, ["final"]))

    def test_lost_event_fails(self):
        # After a restart the daemon no longer knows event 9: the query fails.
        answers = chain_answers(self.lives, "final")
        answers = [(t, a, b, -1 if 9 in (a, b) else v) for t, a, b, v in answers]
        self.assertTrue(checks.check_chains(self.chains, self.lives, answers, ["final"]))

    def test_unanswered_pair_fails(self):
        answers = chain_answers(self.lives, "final")[1:]
        self.assertTrue(checks.check_chains(self.chains, self.lives, answers, ["final"]))

    def test_every_replica_must_agree(self):
        # The tail is right, but one middle replica gives one wrong answer.
        answers = chain_answers(self.lives, "replica0") + \
            chain_answers(self.lives, "replica1", flip=2) + \
            chain_answers(self.lives, "replica2")
        tags = ["replica0", "replica1", "replica2"]
        self.assertEqual(len(checks.check_chains(self.chains, self.lives, answers, tags)), 1)

    def test_every_replica_must_answer(self):
        answers = chain_answers(self.lives, "replica0") + chain_answers(self.lives, "replica2")
        tags = ["replica0", "replica1", "replica2"]
        self.assertTrue(checks.check_chains(self.chains, self.lives, answers, tags))

    def test_replicated_passes_with_three_agreeing_replicas(self):
        answers = [a for i in range(3) for a in chain_answers(self.lives, f"replica{i}")]
        self.assertEqual(checks.check_replicated(self.chains, self.lives, answers, 3), [])

    def test_replicated_fails_on_a_lost_replica(self):
        # replica1 was evicted during the run: it neither answers nor counts in the chain.
        answers = chain_answers(self.lives, "replica0") + chain_answers(self.lives, "replica2")
        self.assertEqual(len(checks.check_replicated(self.chains, self.lives, answers, 2)), 2)

    def test_replicated_fails_on_a_short_chain_even_if_all_answer(self):
        answers = [a for i in range(3) for a in chain_answers(self.lives, f"replica{i}")]
        self.assertEqual(len(checks.check_replicated(self.chains, self.lives, answers, 2)), 1)

    def test_run_answer_against_chain_order(self):
        answers = chain_answers(self.lives, "final") + [("run", 3, 9, BEFORE)]
        self.assertEqual(checks.check_chains(self.chains, self.lives, answers, ["final"]), [])
        answers[-1] = ("run", 3, 9, AFTER)
        self.assertEqual(
            len(checks.check_chains(self.chains, self.lives, answers, ["final"])), 1)


class NeighborsCheck(unittest.TestCase):
    def setUp(self):
        self.preload = [(0, 1), (1, 2)]
        self.acked = [(2, 3), (0, 1)]  # a duplicate friendship is still one neighbour
        self.neighbors = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}

    def test_correct_answers_pass(self):
        self.assertEqual(
            checks.check_neighbors(4, self.preload, self.acked, self.neighbors), [])

    def test_lost_acknowledged_edge_fails(self):
        self.neighbors[3] = set()
        self.assertEqual(
            len(checks.check_neighbors(4, self.preload, self.acked, self.neighbors)), 1)

    def test_extra_edge_fails(self):
        self.neighbors[0] = {1, 3}
        self.assertEqual(
            len(checks.check_neighbors(4, self.preload, self.acked, self.neighbors)), 1)

    def test_failed_read_fails(self):
        del self.neighbors[2]
        self.assertTrue(checks.check_neighbors(4, self.preload, self.acked, self.neighbors))


if __name__ == "__main__":
    unittest.main()
