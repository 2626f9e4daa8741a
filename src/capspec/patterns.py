"""Design of multi-coset sampling patterns.

A sampling pattern selects M of the N cosets in each period of the
Nyquist grid.  The key design object is the circular sparse ruler: a
mark set whose pairwise differences mod N cover every residue, which
is exactly the condition for the compressed covariance system to be
identifiable.  ``minimal_circular_sparse_ruler`` finds one of fewest
marks by branch and bound; whether a pattern is a ruler is read from
``structure.build_system_matrix(pattern).identifiable``.  For the
correlated-bins estimator the requirement is stronger: a family of
patterns must jointly contain every unordered pair of cosets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CosetPattern:
    """A sampling period ``period`` and the active coset indices ``marks``.

    Marks are stored sorted ascending; they must be distinct integers in
    ``[0, period)``.
    """

    period: int
    marks: tuple[int, ...]

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"period must be positive, got {self.period}")
        marks = tuple(sorted(int(m) for m in self.marks))
        if not marks:
            raise ValueError("pattern needs at least one mark")
        if len(set(marks)) != len(marks):
            raise ValueError(f"duplicate marks in {marks}")
        if marks[0] < 0 or marks[-1] >= self.period:
            raise ValueError(f"marks {marks} outside [0, {self.period})")
        object.__setattr__(self, "marks", marks)

    @property
    def size(self) -> int:
        return len(self.marks)

    def __str__(self) -> str:
        return f"{{{','.join(map(str, self.marks))}}} mod {self.period}"


@dataclass(frozen=True)
class PatternFamily:
    """Z patterns with a common period and mark count (one per sensor group)."""

    period: int
    patterns: tuple[CosetPattern, ...]

    def __post_init__(self):
        patterns = tuple(self.patterns)
        if not patterns:
            raise ValueError("family needs at least one pattern")
        sizes = {p.size for p in patterns}
        if len(sizes) != 1:
            raise ValueError(f"patterns have mixed mark counts {sorted(sizes)}")
        if any(p.period != self.period for p in patterns):
            raise ValueError("patterns have mixed periods")
        object.__setattr__(self, "patterns", patterns)

    @property
    def size(self) -> int:
        return len(self.patterns)


# Nodes a ruler search may visit per cardinality before it settles for a
# ruler not proven minimal.
NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class RulerSearchResult:
    """Outcome of a minimal-ruler search.

    ``minimal`` is False when the node budget was exhausted before every
    smaller cardinality could be ruled out, in which case ``pattern`` is a
    verified (complete) but possibly suboptimal ruler.
    """

    pattern: CosetPattern
    minimal: bool


def _pair_differences(mark: int, marks: tuple[int, ...], n: int) -> int:
    """Bitmask of differences contributed by adding ``mark`` to ``marks``."""
    bits = 0
    for m in marks:
        bits |= 1 << ((mark - m) % n)
        bits |= 1 << ((m - mark) % n)
    return bits


def _greedy_ruler(n: int) -> tuple[int, ...]:
    """Deterministic greedy complete ruler; used as an upper bound."""
    marks = [0]
    covered = 1  # difference 0
    full = (1 << n) - 1
    while covered != full:
        best_mark, best_gain = -1, -1
        for c in range(1, n):
            if c in marks:
                continue
            gain = bin(_pair_differences(c, tuple(marks), n) & ~covered).count("1")
            if gain > best_gain:
                best_mark, best_gain = c, gain
        marks.append(best_mark)
        covered |= _pair_differences(best_mark, tuple(marks[:-1]), n) | (1 << 0)
    return tuple(sorted(marks))


def _dfs_ruler(n: int, size: int, budget: int) -> tuple[tuple[int, ...] | None, bool]:
    """Depth-first search for a complete ruler with ``size`` marks, 0 anchored.

    Candidates are explored in ascending order so the first solution is the
    lexicographically smallest one.  Returns (marks or None, truncated).
    ``truncated`` means the budget of ``budget`` visited nodes ran out
    before the level was exhausted, so absence of a solution is not proven.
    """
    full = (1 << n) - 1
    nodes = 0
    truncated = False

    def rec(marks: list[int], covered: int) -> tuple[int, ...] | None:
        nonlocal nodes, truncated
        if covered == full:
            return tuple(marks)
        remaining = size - len(marks)
        if remaining == 0:
            return None
        k = len(marks)
        # Each future mark pairs with <= k + j prior marks, two directions each.
        bound = 2 * k * remaining + remaining * (remaining - 1)
        if bin(covered).count("1") + bound < n:
            return None
        for c in range(marks[-1] + 1, n - remaining + 1):
            nodes += 1
            if nodes > budget:
                truncated = True
                return None
            sol = rec(marks + [c], covered | _pair_differences(c, tuple(marks), n))
            if sol is not None:
                return sol
            if truncated:
                return None
        return None

    if size == 1:
        return ((0,), False) if n == 1 else (None, False)
    sol = rec([0], 1)
    return sol, truncated


def minimal_circular_sparse_ruler(
    n: int, node_budget: int = NODE_BUDGET
) -> RulerSearchResult:
    """Search for a minimum-cardinality circular sparse ruler of period ``n``.

    Branch-and-bound over mark sets anchored at 0, trying cardinalities
    upward from the counting bound M(M-1)+1 >= N.  Ties are broken toward
    the lexicographically smallest mark set, which makes the output
    deterministic.  The node budget keeps the search bounded for large
    periods; if it is exhausted the best complete ruler found is returned
    with ``minimal=False``.  A budget below 1 visits no node, so it is
    refused.
    """
    if n < 1:
        raise ValueError(f"period must be positive, got {n}")
    if node_budget < 1:
        raise ValueError(f"node budget must be positive, got {node_budget}")
    if n == 1:
        return RulerSearchResult(CosetPattern(1, (0,)), True)

    fallback = _greedy_ruler(n)
    lower = 2
    while lower * (lower - 1) + 1 < n:
        lower += 1

    any_truncated = False
    for size in range(lower, len(fallback) + 1):
        marks, truncated = _dfs_ruler(n, size, node_budget)
        any_truncated = any_truncated or truncated
        if marks is not None:
            return RulerSearchResult(CosetPattern(n, marks), minimal=not any_truncated)
    # Every level up to the greedy size was truncated without a solution.
    return RulerSearchResult(CosetPattern(n, fallback), minimal=False)


def design_pair_cover_family(n: int, m: int) -> PatternFamily:
    """Build patterns of ``m`` cosets jointly covering all unordered pairs.

    ``uncovered`` is the symmetric n x n boolean matrix of the pairs no
    pattern holds yet; a coset's residual frequency is its row sum.  Each
    round grows a candidate from every start coset of frequency above 0 at
    once, each step adding the coset of largest key (gain, frequency,
    -index), packed as ``(gain*n + freq)*n + (n-1-c)``: the gain, the
    uncovered pairs a coset closes with the candidate, is ``chosen @
    uncovered``, and chosen cosets are masked to -1.  The candidate closing
    the most pairs (c U c^T / 2) wins, the earliest start breaking ties, and
    its pairs are cleared.  Only bool and int64 arrays are used, so no BLAS
    call is made.  The group count Z is minimized greedily, not provably.
    """
    if m < 2:
        raise ValueError(f"need at least 2 marks per pattern to cover a pair, got {m}")
    if m > n:
        raise ValueError(f"marks per pattern {m} exceeds period {n}")

    uncovered = ~np.eye(n, dtype=bool)
    low_index_first = np.arange(n - 1, -1, -1, dtype=np.int64)
    patterns: list[CosetPattern] = []
    while uncovered.any():
        freq = uncovered.sum(axis=1, dtype=np.int64)
        starts = np.flatnonzero(freq)
        rows = np.arange(len(starts))
        chosen = np.zeros((len(starts), n), dtype=np.int64)
        chosen[rows, starts] = 1
        for _ in range(m - 1):
            key = ((chosen @ uncovered) * n + freq) * n + low_index_first
            key[chosen == 1] = -1
            chosen[rows, key.argmax(axis=1)] = 1
        gains = ((chosen @ uncovered) * chosen).sum(axis=1) // 2
        best = int(gains.argmax())
        if gains[best] == 0:
            raise AssertionError("greedy round covered nothing; pair set inconsistent")
        marks = np.flatnonzero(chosen[best])
        uncovered[np.ix_(marks, marks)] = False
        patterns.append(CosetPattern(n, tuple(marks.tolist())))
    return PatternFamily(period=n, patterns=tuple(patterns))
