"""Assignment kernel: lexicographically-smallest min-cost assignment.

Solves the square min-cost assignment problem with non-negative integer
costs and returns, among all minimum-cost assignments, the one whose column
vector (read row by row) is lexicographically smallest. Two phases:

1. shortest-augmenting-path solve (Jonker & Volgenant, Computing 38, 1987),
   O(n^3), which also yields feasible dual potentials u, v with zero reduced
   cost on matched edges;
2. a greedy pass over the zero-reduced-cost subgraph that reassigns each row
   in turn to its smallest feasible column, testing feasibility with one
   augmenting-path search per candidate.

Every perfect matching that uses only zero-reduced-cost edges attains the
optimal total (complementary slackness), and every optimal matching uses
only such edges, so phase 2 canonicalises ties without losing optimality.
"""

from __future__ import annotations

INF = 1 << 62


def lexmin_assignment(costs, n):
    """Return the lexicographically-smallest optimal column index per row.

    ``costs`` is a flat row-major sequence of ``n * n`` non-negative ints.
    """
    n = int(n)
    if n == 0:
        return []
    costs = list(costs)
    if len(costs) != n * n:
        raise ValueError(f"expected {n * n} costs, got {len(costs)}")
    match_row, u, v = _solve(costs, n)
    return _lexmin(costs, n, match_row, u, v)


def _solve(costs, n):
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


def _lexmin(costs, n, match_row, u, v):
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
            # Try to steal column j from its current row and rematch that row.
            rival = match_col[j]
            match_row[i] = j
            match_col[j] = i
            match_col[cur] = -1
            fixed_col[j] = True
            ok = _augment(rival, allowed, match_row, match_col, fixed_col, [False] * n)
            fixed_col[j] = False
            if ok:
                break
            match_row[i] = cur
            match_col[cur] = i
            match_col[j] = rival
        fixed_col[match_row[i]] = True
    return match_row


def _augment(root, allowed, match_row, match_col, fixed_col, visited):
    """Find an augmenting path from ``root`` and flip it; True on success.

    Depth-first over ``allowed`` in list order, with an explicit stack so the
    path length is not bounded by the interpreter's recursion limit.
    ``rows[k]`` is the row at depth k, ``next_pos[k]`` the next index into its
    ``allowed`` list, and ``cols[k]`` the column tried from ``rows[k]``.
    """
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
            # Dead end: backtrack and give up the column that led here.
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
