"""Edit distances for message bucketing.

The legacy classifier (§3) groups messages into buckets when their
Levenshtein distance to a bucket exemplar is below a threshold (the
paper uses 7).  Bucketing 196k messages means millions of distance
evaluations, so besides the plain DP we provide:

- :func:`levenshtein_within` — a banded (Ukkonen) computation that
  answers "is d(a, b) ≤ k?" in O(k·min(len)) with cheap length and
  character-multiset prefilters, and
- a NumPy row-vectorized full DP for long strings.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

__all__ = [
    "levenshtein",
    "levenshtein_within",
    "hamming",
]


def levenshtein(a: str, b: str) -> int:
    """Exact Levenshtein (insert/delete/substitute, unit cost) distance."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):  # iterate over the longer string row-wise
        a, b = b, a
    # Row-vectorized DP: prev/curr are rows of the (len(a)+1)x(len(b)+1)
    # matrix.  The substitution/insertion terms vectorize; the deletion
    # term carries a serial dependency handled by a running minimum scan.
    bn = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    prev = np.arange(len(b) + 1, dtype=np.int64)
    curr = np.empty_like(prev)
    for i, ca in enumerate(a, start=1):
        cost = (bn != ord(ca)).astype(np.int64)
        np.minimum(prev[1:] + 1, prev[:-1] + cost, out=curr[1:])
        curr[0] = i
        # deletion: curr[j] = min(curr[j], curr[j-1] + 1) — prefix scan
        curr[1:] = np.minimum.accumulate(
            curr[1:] - np.arange(1, len(b) + 1)
        ) + np.arange(1, len(b) + 1)
        curr[1:] = np.minimum(curr[1:], curr[0] + np.arange(1, len(b) + 1))
        prev, curr = curr, prev
    return int(prev[-1])


def levenshtein_within(a: str, b: str, k: int) -> int | None:
    """Banded Levenshtein: return d(a, b) if ≤ ``k``, else ``None``.

    Uses the classic diagonal band of half-width ``k`` plus two cheap
    prefilters: the length difference and half the character-multiset
    difference are both lower bounds on the distance.
    """
    if k < 0:
        return None
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return None
    if la == 0 or lb == 0:
        d = max(la, lb)
        return d if d <= k else None
    # Multiset lower bound: each edit fixes at most one surplus char on
    # each side, so distance ≥ max(surplus_a, surplus_b).
    if la + lb > 20:  # only worth it for non-trivial strings
        ca, cb = Counter(a), Counter(b)
        diff = ca - cb
        surplus_a = sum(diff.values())
        surplus_b = sum((cb - ca).values())
        if max(surplus_a, surplus_b) > k:
            return None
    if la < lb:
        a, b, la, lb = b, a, lb, la
    INF = k + 1
    prev = list(range(min(lb, k) + 1)) + [INF] * max(0, lb - k)
    for j in range(len(prev), lb + 1):
        prev.append(INF)
    for i in range(1, la + 1):
        lo = max(1, i - k)
        hi = min(lb, i + k)
        curr = [INF] * (lb + 1)
        if i - k <= 0:
            curr[0] = i
        row_best = INF
        ai = a[i - 1]
        for j in range(lo, hi + 1):
            cost = 0 if ai == b[j - 1] else 1
            v = prev[j - 1] + cost
            if prev[j] + 1 < v:
                v = prev[j] + 1
            if curr[j - 1] + 1 < v:
                v = curr[j - 1] + 1
            curr[j] = v
            if v < row_best:
                row_best = v
        if row_best > k:
            return None
        prev = curr
    d = prev[lb]
    return d if d <= k else None


def hamming(a: str, b: str) -> int:
    """Hamming distance for equal-length strings.

    Raises
    ------
    ValueError
        If the strings differ in length (Hamming is undefined then).
    """
    if len(a) != len(b):
        raise ValueError(
            f"hamming distance requires equal lengths, got {len(a)} and {len(b)}"
        )
    if not a:
        return 0
    an = np.frombuffer(a.encode("utf-32-le"), dtype=np.uint32)
    bn = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    return int(np.count_nonzero(an != bn))
