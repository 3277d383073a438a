"""Seeded input generators and the fixed system pools the workloads draw from.

The two generators are copies of the rules the project measures with: the
n x n rule of the ROADMAP baseline and ``random_system`` from
``tests/conftest.py``.  They live here so that edits under ``tests/`` cannot
shift a workload.  They return plain matrices; the benchmark builds the
``DescriptorSystem`` from them, so the program sees only generated inputs.

Each workload draws from a fixed pool instead of from the workload seed
directly: the per-op regression guard compares every op with an outcome
recorded at the baseline (``reference.json``), and that record can only
exist for a fixed set of systems.  On ``decide-lifted`` the workload seed
chooses which pool systems a run uses and in what order; on
``decide-rescaled`` it chooses the order.
"""

from __future__ import annotations

import numpy as np

# Pool of the ``decide-lifted`` workload: systems per state dimension n.  A
# run at --seconds 60 uses four rounds of LIFTED_ROUND; the pool covers five.
LIFTED_POOL = {4: 48, 5: 36, 6: 36, 7: 12, 8: 6}
# Ops of each n in one ``decide-lifted`` round.  Half of them have n = 6, so
# that the median op is an n = 6 op, whose time is mostly dense linear
# algebra.  The n = 4 and 5 ops are mostly interpreter time, which on a
# shared machine runs up to 1.5 times slower for tens of seconds at a time;
# a median among them jumps between two levels from run to run.
LIFTED_ROUND = {4: 2, 5: 2, 6: 7, 7: 2, 8: 1}
LIFTED_POOL_SEED = 0
# Random stream of the run order; streams 4..8 pick the systems of each n.
LIFTED_ORDER_STREAM = 1

# Pool of ``decide-rescaled``: draws of ``random_system`` from
# default_rng(7).  Draws 0 to 299 are the seed-7 set of ROADMAP item 4.
# Draws 470 and 512 are the two among the first 600 whose as-drawn analysis
# crashes at the baseline; 470 is the crash ROADMAP item 4 names.  Pool
# index k holds draw RESCALED_DRAWS[k].
RESCALED_DRAWS = tuple(range(300)) + (470, 512)
RESCALED_POOL_SEED = 7
# The forms each pool system runs in (see rescaled_forms).
RESCALED_FORMS = ("drawn", "E*1e3", "K*1e-4")


def lifted_matrices(rng: np.random.Generator, n: int) -> dict:
    """ROADMAP's n x n rule: m = n, l = p = r = 2, E = diag(1,...,1,0,0),
    A = randn - 2I, and Gaussian B, C, K."""
    E = np.diag([1.0] * (n - 2) + [0.0, 0.0])
    A = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
    B = rng.standard_normal((n, 2))
    C = rng.standard_normal((2, n))
    K = rng.standard_normal((2, n))
    return {"E": E, "A": A, "B": B, "C": C, "D": np.zeros((2, 2)), "K": K}


def random_matrices(rng: np.random.Generator, max_dim: int = 5,
                    entry_range: int = 3) -> dict:
    """Copy of ``random_system`` in tests/conftest.py: a random
    integer-entry rectangular descriptor system, drawn in the same order."""
    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    l = int(rng.integers(0, 3))
    p = int(rng.integers(0, 3))
    r = int(rng.integers(1, n + 1))

    def mat(a, b):
        return rng.integers(-entry_range, entry_range + 1, (a, b)).astype(float)

    E, A, B, C, K = mat(m, n), mat(m, n), mat(m, l), mat(p, n), mat(r, n)
    return {"E": E, "A": A, "B": B, "C": C, "D": mat(p, l), "K": K}


def lifted_pool(n: int) -> list[dict]:
    rng = np.random.default_rng([LIFTED_POOL_SEED, n])
    return [lifted_matrices(rng, n) for _ in range(LIFTED_POOL[n])]


def rescaled_pool() -> list[dict]:
    rng = np.random.default_rng(RESCALED_POOL_SEED)
    draws = [random_matrices(rng) for _ in range(max(RESCALED_DRAWS) + 1)]
    return [draws[d] for d in RESCALED_DRAWS]


def pick(seed: int, stream: int, pool_size: int, count: int) -> list[int]:
    """``count`` distinct pool indices, chosen and ordered by the seed."""
    if count > pool_size:
        raise ValueError(f"{count} systems asked from a pool of {pool_size}; "
                         "lower --seconds")
    order = np.random.default_rng([seed, stream]).permutation(pool_size)
    return [int(i) for i in order[:count]]


def lifted_inputs(seed: int, rounds: int) -> list[tuple[int, int]]:
    """(n, pool index) of every ``decide-lifted`` op, round after round.
    Within a round the ops run in a seeded shuffled order, and the n = 8 op
    comes last.  The shuffle spreads the n = 6 ops, which set the median
    latency, over the round.  The fixed place of the n = 8 op keeps the peak
    RSS steady: it moves by 8 MB with the number of ops that run before it."""
    chosen = {n: pick(seed, n, LIFTED_POOL[n], rounds * c)
              for n, c in LIFTED_ROUND.items()}
    rng = np.random.default_rng([seed, LIFTED_ORDER_STREAM])
    largest = max(LIFTED_ROUND)
    out = []
    for r in range(rounds):
        ops = [(n, chosen[n][r * c + j])
               for n, c in LIFTED_ROUND.items() if n != largest
               for j in range(c)]
        out += [ops[k] for k in rng.permutation(len(ops))]
        c = LIFTED_ROUND[largest]
        out += [(largest, i) for i in chosen[largest][r * c:(r + 1) * c]]
    return out


def rescaled_inputs(seed: int, rounds: int) -> list[tuple[int, str]]:
    """(pool index, form) of every ``decide-rescaled`` op, in run order.
    Each round runs every form of every pool system once, in a seeded order.
    A run never takes a part of the pool chosen by the seed: a few heavy
    systems set the tail latency, and whether a run drew them would move
    ``op_tail_s`` by 10 % from seed to seed.  The forms of a system are
    spread over the round, so that the heavy ops sample the speed of the
    machine at many moments instead of a few."""
    ops = [(i, form) for i in range(len(RESCALED_DRAWS)) for form in RESCALED_FORMS]
    rng = np.random.default_rng([seed, 0])
    return [ops[k] for _ in range(rounds) for k in rng.permutation(len(ops))]


def rescaled_forms(mats: dict) -> dict[str, dict]:
    """The three forms of one system: as drawn, with a change of time units
    (E x 1e3), and with a row rescale of the functional (K x 1e-4)."""
    return dict(zip(RESCALED_FORMS, (
        mats,
        {**mats, "E": mats["E"] * 1e3},
        {**mats, "K": mats["K"] * 1e-4})))
