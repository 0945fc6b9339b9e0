"""Assignment kernel: lexicographically-smallest max-overlap assignment.

Rows and columns are the components of two snapshots, padded to the same
count n and sorted by name. Pairing row i with column j costs
|A_i| + |B_j| - 2 w(i, j), where w is the number of shared entities.
Subtracting |A_i| from each row and |B_j| from each column leaves -2 w, and
that shift changes no optimal set, so the min-cost perfect assignments are
exactly the perfect assignments of maximum total overlap. The kernel returns
the one whose column vector (read row by row) is lexicographically smallest.
It reads only the pairs that share an entity, never all n^2. Two phases:

1. a primal-dual maximum-weight matching on the overlap graph by shortest
   augmenting paths (Jonker & Volgenant, Computing 38, 1987; Galil, ACM
   Computing Surveys 18(1), 1986). Its duals y_i, z_j >= 0 satisfy
   y_i + z_j >= w(i, j) on every pair, with equality on matched pairs and
   0 on every unmatched row and column, so they are also optimal duals of
   the full n x n assignment;
2. a greedy pass over the zero-reduced-cost subgraph that reassigns each row
   in turn to its smallest feasible column, testing feasibility with one
   augmenting-path search per candidate whose current row has another
   column to move to. That subgraph is the tight overlap pairs
   (y_i + z_j = w) plus the complete block R0 x C0 of rows and columns whose
   dual is 0; the block is held as one sorted column list.

Every perfect matching that uses only zero-reduced-cost pairs attains the
optimum, and every optimal matching uses only such pairs (complementary
slackness), whichever optimal duals phase 1 finds. So phase 2 returns the
same column vector for any optimal duals and any search order.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush, merge
from itertools import islice


def lexmin_assignment(overlaps):
    """Return the lexicographically-smallest optimal column index per row.

    ``overlaps[i]`` maps column j to the positive number of entities row i
    shares with it; pairs that share nothing are left out. There are as many
    columns as rows.
    """
    n = len(overlaps)
    row_dual = [max(row.values(), default=0) for row in overlaps]
    col_dual = [0] * n
    match_row = [-1] * n
    match_col = [-1] * n
    for s in range(n):
        if row_dual[s]:
            _grow(s, overlaps, row_dual, col_dual, match_row, match_col)
    # Rows and columns left unmatched all have dual 0: pair them in R0 x C0.
    free_cols = iter([j for j in range(n) if match_col[j] < 0])
    for i in range(n):
        if match_row[i] < 0:
            j = next(free_cols)
            match_row[i] = j
            match_col[j] = i
    return _break_ties(overlaps, row_dual, col_dual, match_row, match_col)


def _grow(s, overlaps, row_dual, col_dual, match_row, match_col):
    """One Dijkstra from free row ``s``, then augment and shift the duals.

    The search runs over overlap pairs (reduced cost y_i + z_j - w) and
    matched pairs (reduced cost 0) only. It ends at the first free column
    it settles, or earlier when some settled row i may stop the path at
    dist_i + y_i: row i then gives up its match (row ``s`` itself at
    y_s). With D the length of the chosen end, every vertex settled before
    D shifts its dual by D - dist, which keeps the duals non-negative and
    feasible, makes the new path tight and leaves unmatched vertices at 0.
    """
    dist = {}
    pred = {}
    settled_rows = [(s, 0)]
    settled_cols = []
    heap = []
    end = row_dual[s]
    end_row = s
    end_col = -1
    i, d_i = s, 0
    while True:
        base = d_i + row_dual[i]
        for j, w in overlaps[i].items():
            d = base + col_dual[j] - w
            if d < dist.get(j, end):
                dist[j] = d
                pred[j] = i
                heappush(heap, (d, j))
        while heap:
            d, j = heappop(heap)
            if d == dist[j]:
                break
        else:
            break
        if d >= end:
            break
        dist[j] = -1  # settled: no later entry matches
        settled_cols.append((j, d))
        i = match_col[j]
        if i < 0:
            end, end_row, end_col = d, -1, j
            break
        settled_rows.append((i, d))
        d_i = d
        if d + row_dual[i] < end:
            end, end_row = d + row_dual[i], i

    for i, d in settled_rows:
        if d < end:
            row_dual[i] -= end - d
    for j, d in settled_cols:
        if d < end:
            col_dual[j] += end - d

    if end_col < 0:
        if end_row == s:
            return
        end_col = match_row[end_row]
        match_row[end_row] = -1
    j = end_col
    while True:
        i = pred[j]
        j_next = match_row[i]
        match_row[i] = j
        match_col[j] = i
        if i == s:
            return
        j = j_next


def _break_ties(overlaps, row_dual, col_dual, match_row, match_col):
    """Greedy lexicographic refinement over the zero-reduced-cost subgraph."""
    n = len(match_row)
    tight = [
        sorted(j for j, w in row.items() if y + col_dual[j] == w)
        for y, row in zip(row_dual, overlaps)
    ]
    zero_row = [y == 0 for y in row_dual]
    # Columns with dual 0 that no earlier row has taken, in index order.
    open_zero = [j for j in range(n) if col_dual[j] == 0]
    fixed = [False] * n
    seen = [0] * n
    stamp = 0
    for i in range(n):
        cur = match_row[i]
        candidates = [j for j in tight[i] if j < cur and not fixed[j]]
        if zero_row[i]:
            candidates = merge(candidates, islice(open_zero, bisect_left(open_zero, cur)))
        for j in candidates:
            # Try to steal column j from its current row and rematch that row.
            # A rival outside R0 whose only tight column is j has nowhere to go.
            rival = match_col[j]
            if not zero_row[rival] and tight[rival] == [j]:
                continue
            match_row[i] = j
            match_col[j] = i
            match_col[cur] = -1
            fixed[j] = True
            stamp += 1
            ok = _augment(
                rival, tight, zero_row, open_zero, match_row, match_col, fixed, seen, stamp
            )
            fixed[j] = False
            if ok:
                break
            match_row[i] = cur
            match_col[cur] = i
            match_col[j] = rival
        j = match_row[i]
        fixed[j] = True
        if col_dual[j] == 0:
            del open_zero[bisect_left(open_zero, j)]
    return match_row


def _augment(root, tight, zero_row, open_zero, match_row, match_col, fixed, seen, stamp):
    """Find an augmenting path from row ``root`` and flip it; True on success.

    Columns fixed by earlier rows are out of bounds. The search marks the
    columns it visits with ``stamp`` in ``seen``, so no n-long array is
    cleared per search. Every row in R0 reads ``open_zero`` through one
    shared pointer: a column that one R0 row has passed over is visited or
    fixed, so no other R0 row of the same search can use it either.

    Depth-first with an explicit stack, so the path length is not bounded by
    the interpreter's recursion limit. ``rows[k]`` is the row at depth k,
    ``next_pos[k]`` the next index into its tight list, and ``cols[k]`` the
    column tried from ``rows[k]``.
    """
    zero_pos = 0
    rows = [root]
    next_pos = [0]
    cols = []
    while rows:
        row = rows[-1]
        options = tight[row]
        k = next_pos[-1]
        j = -1
        while k < len(options):
            c = options[k]
            k += 1
            if not fixed[c] and seen[c] != stamp:
                j = c
                break
        next_pos[-1] = k
        if j < 0 and zero_row[row]:
            while zero_pos < len(open_zero):
                c = open_zero[zero_pos]
                zero_pos += 1
                if not fixed[c] and seen[c] != stamp:
                    j = c
                    break
        if j < 0:
            # Dead end: backtrack and give up the column that led here.
            rows.pop()
            next_pos.pop()
            if cols:
                cols.pop()
            continue
        seen[j] = stamp
        cols.append(j)
        owner = match_col[j]
        if owner == -1:
            for r, c in zip(rows, cols):
                match_row[r] = c
                match_col[c] = r
            return True
        rows.append(owner)
        next_pos.append(0)
    return False
