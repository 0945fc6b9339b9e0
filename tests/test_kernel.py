"""The lexicographically-smallest min-cost assignment kernel."""

import random
import sys

import pytest

from archdd.kernel import lexmin_assignment


def test_empty_and_singleton():
    assert lexmin_assignment([], 0) == []
    assert lexmin_assignment([7], 1) == [0]


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        lexmin_assignment([1, 2, 3], 2)


def test_constant_matrix_is_identity():
    # constant matrices are maximally tied; lex-min must be the identity
    for n in (1, 2, 5, 9):
        assert lexmin_assignment([3] * (n * n), n) == list(range(n))


def test_handles_moderate_sizes():
    rng = random.Random(5)
    n = 60
    costs = [rng.randint(0, 30) for _ in range(n * n)]
    cols = lexmin_assignment(costs, n)
    assert sorted(cols) == list(range(n))


def reversed_cycle(n):
    """Row i costs 0 at columns n-1-i and (n-i) mod n, 5 elsewhere.

    The zero entries form one long alternating cycle, so moving row 0 onto
    its lex-smaller column forces an augmenting path through every row.
    """
    costs = [5] * (n * n)
    for i in range(n):
        costs[i * n + n - 1 - i] = 0
        costs[i * n + (n - i) % n] = 0
    return costs


def call_with_headroom(frames, fn, *args):
    """Call ``fn`` with only about ``frames`` stack frames left below the limit."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back

    def descend(remaining):
        return fn(*args) if remaining <= 0 else descend(remaining - 1)

    return descend(sys.getrecursionlimit() - depth - frames)


def test_long_augmenting_path_leaves_recursion_limit_alone():
    n = 500
    limit = sys.getrecursionlimit()
    cols = lexmin_assignment(reversed_cycle(n), n)
    assert cols == [0] + [n - i for i in range(1, n)]
    assert sys.getrecursionlimit() == limit


def test_long_augmenting_path_needs_no_deep_stack():
    n = 300
    cols = call_with_headroom(100, lexmin_assignment, reversed_cycle(n), n)
    assert cols == [0] + [n - i for i in range(1, n)]
