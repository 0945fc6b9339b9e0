"""The lexicographically-smallest max-overlap assignment kernel.

The sparse kernel is checked against the dense O(n^3) kernel it replaced,
kept here as the differential oracle: both must return the identical column
vector, exhaustively on tiny snapshot pairs and on a hypothesis corpus up to
n = 120.
"""

import itertools
import random
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from archdd import kernel
from archdd.changes import build_matching_problem
from archdd.kernel import lexmin_assignment
from archdd.model import parse_snapshot

from conftest import contain_lines

INF = 1 << 62


def dense_lexmin(costs, n):
    """Oracle: the lexicographically-smallest min-cost assignment of a dense matrix.

    ``costs`` is a flat row-major list of ``n * n`` ints. A shortest-augmenting-
    path solve (Jonker & Volgenant) yields an optimum and dual potentials;
    a greedy pass then moves each row in turn to its smallest column that
    still admits a perfect matching of zero reduced cost.
    """
    if n == 0:
        return []
    match_row, u, v = _dense_solve(costs, n)
    return _dense_lexmin(costs, n, match_row, u, v)


def _dense_solve(costs, n):
    """Shortest-augmenting-path assignment with dual potentials (1-indexed core)."""
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)  # p[j]: 1-based row currently matched to column j; p[0] is scratch
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            base = (i0 - 1) * n
            ui0 = u[i0]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = costs[base + j - 1] - ui0 - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    match_row = [0] * n
    for j in range(1, n + 1):
        match_row[p[j] - 1] = j - 1
    return match_row, u[1:], v[1:]


def _dense_lexmin(costs, n, match_row, u, v):
    """Greedy lexicographic refinement over the tight (zero reduced cost) subgraph."""
    allowed = []
    for i in range(n):
        base = i * n
        ui = u[i]
        allowed.append([j for j in range(n) if costs[base + j] - ui - v[j] == 0])
    match_col = [-1] * n
    for i, j in enumerate(match_row):
        match_col[j] = i
    fixed_col = [False] * n
    for i in range(n):
        cur = match_row[i]
        for j in allowed[i]:
            if fixed_col[j]:
                continue
            if j == cur:
                break
            rival = match_col[j]
            match_row[i] = j
            match_col[j] = i
            match_col[cur] = -1
            fixed_col[j] = True
            ok = _dense_augment(rival, allowed, match_row, match_col, fixed_col, [False] * n)
            fixed_col[j] = False
            if ok:
                break
            match_row[i] = cur
            match_col[cur] = i
            match_col[j] = rival
        fixed_col[match_row[i]] = True
    return match_row


def _dense_augment(root, allowed, match_row, match_col, fixed_col, visited):
    """Depth-first augmenting path from ``root``, flipped on success."""
    rows = [root]
    next_pos = [0]
    cols = []
    while rows:
        options = allowed[rows[-1]]
        k = next_pos[-1]
        while k < len(options):
            j = options[k]
            k += 1
            if not (fixed_col[j] or visited[j]):
                break
        else:
            rows.pop()
            next_pos.pop()
            if cols:
                cols.pop()
            continue
        next_pos[-1] = k
        visited[j] = True
        cols.append(j)
        owner = match_col[j]
        if owner == -1:
            for row, col in zip(rows, cols):
                match_row[row] = col
                match_col[col] = row
            return True
        rows.append(owner)
        next_pos.append(0)
    return False


def dense_costs(a, b, overlaps):
    """The n*n delta costs |A| + |B| - 2|A & B| that the dense kernel priced."""
    sizes_b = [len(c.entities) for c in b]
    costs = []
    for component, row in zip(a, overlaps):
        size_a = len(component.entities)
        costs += [size_a + size_b - 2 * row.get(j, 0) for j, size_b in enumerate(sizes_b)]
    return costs


def assert_agrees_with_oracle(components_a, components_b):
    _, a, b, overlaps = build_matching_problem(
        parse_snapshot(contain_lines(components_a), "a"),
        parse_snapshot(contain_lines(components_b), "b"),
    )
    assert lexmin_assignment(overlaps) == dense_lexmin(dense_costs(a, b, overlaps), len(a))


def test_empty_and_singleton():
    assert lexmin_assignment([]) == []
    assert lexmin_assignment([{}]) == [0]
    assert lexmin_assignment([{0: 7}]) == [0]


def test_constant_matrix_is_identity():
    # no overlap at all, or every pair overlapping equally, is maximally
    # tied; lex-min must be the identity
    for n in (1, 2, 5, 9):
        assert lexmin_assignment([{} for _ in range(n)]) == list(range(n))
        assert lexmin_assignment([dict.fromkeys(range(n), 3) for _ in range(n)]) == list(range(n))


def test_handles_moderate_sizes():
    rng = random.Random(5)
    n = 60
    overlaps = [
        {j: rng.randint(1, 30) for j in rng.sample(range(n), rng.randint(0, 6))}
        for _ in range(n)
    ]
    cols = lexmin_assignment(overlaps)
    assert sorted(cols) == list(range(n))
    top = max(w for row in overlaps for w in row.values())
    costs = [top - overlaps[i].get(j, 0) for i in range(n) for j in range(n)]
    assert cols == dense_lexmin(costs, n)


def set_partitions(items):
    """Every partition of ``items`` into non-empty blocks, blocks ordered by first item."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        yield [[first]] + partition
        for k in range(len(partition)):
            yield partition[:k] + [[first] + partition[k]] + partition[k + 1:]


def snapshots_over(universe, names):
    """Every partition of every subset of ``universe``, components named from ``names``."""
    out = []
    for size in range(len(universe) + 1):
        for subset in itertools.combinations(universe, size):
            for partition in set_partitions(list(subset)):
                out.append(list(zip(names, partition)))
    return out


def test_sparse_kernel_matches_dense_oracle_exhaustively():
    # Upper-case names sort before the `__dummy_<k>` names and lower-case
    # ones after them, so dummy column positions vary.
    universe = ["e1", "e2", "e3", "e4"]
    sides_a = snapshots_over(universe, ["P", "b", "K", "x"])
    sides_b = snapshots_over(universe, ["Q", "c", "A", "y"])
    assert len(sides_a) == len(sides_b) == 52
    for components_a in sides_a:
        for components_b in sides_b:
            assert_agrees_with_oracle(components_a, components_b)


NAMES = ["A", "M", "Z", "_a", "__dummy_0", "__dummy_3", "__e", "a", "m", "z~"]


@st.composite
def snapshot_pairs(draw):
    """Two random partitions of overlapping entity pools, up to 120 components a side.

    Few entities per component make ties heavy; each side may be the shorter
    one (dummies on either side); entities kept by only one side give rows
    and columns with no overlap at all.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sizes = (draw(st.integers(0, 120)), draw(st.integers(0, 120)))
    max_size = draw(st.sampled_from([1, 2, 3, 6]))
    shared = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    pool = [f"e{k}" for k in range(sum(sizes) * max_size)]
    kept = set(rng.sample(pool, int(len(pool) * shared)))
    sides = []
    for side, n_side in zip("ab", sizes):
        entities = list(kept) + [f"{side}.{k}" for k in range(len(pool) - len(kept))]
        rng.shuffle(entities)
        components = []
        for k in range(n_side):
            block = entities[:rng.randint(1, max_size)]
            del entities[:len(block)]
            name = f"{rng.choice(NAMES)}{k}" if k % 3 else f"{rng.choice(NAMES)}.{side}{k}"
            components.append((name, block or [f"{side}.only{k}"]))
        sides.append(components)
    return sides


@settings(max_examples=40, deadline=None)
@given(pair=snapshot_pairs())
def test_sparse_kernel_matches_dense_oracle_on_random_pairs(pair):
    assert_agrees_with_oracle(*pair)


def reversed_cycle(n):
    """Row i shares one entity with columns n-1-i and (n-i) mod n, and none elsewhere.

    Those pairs form one long alternating cycle, so moving row 0 onto its
    lex-smaller column forces an augmenting path through every row.
    """
    overlaps = [{} for _ in range(n)]
    for i in range(n):
        overlaps[i][n - 1 - i] = 1
        overlaps[i][(n - i) % n] = 1
    return overlaps


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
    cols = lexmin_assignment(reversed_cycle(n))
    assert cols == [0] + [n - i for i in range(1, n)]
    assert sys.getrecursionlimit() == limit


def test_long_augmenting_path_needs_no_deep_stack():
    n = 300
    cols = call_with_headroom(100, lexmin_assignment, reversed_cycle(n))
    assert cols == [0] + [n - i for i in range(1, n)]


def test_tie_break_skips_steals_that_cannot_succeed(monkeypatch):
    """A rival outside R0 whose only tight column is the one wanted is never searched."""
    augment, calls = kernel._augment, []

    def counted(*args):
        calls.append(args[0])
        return augment(*args)

    monkeypatch.setattr(kernel, "_augment", counted)
    # Row 0 shares nothing, so it sits in R0 and would take column 0 or 1,
    # but rows 1 and 2 each have exactly one tight column.
    assert lexmin_assignment([{}, {0: 5}, {1: 5}]) == [2, 0, 1]
    assert calls == []
