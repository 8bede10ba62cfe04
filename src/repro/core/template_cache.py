"""Bounded LRU memo of classify results per template.

Syslog is template + slots, so once ``"link cn<num> down"`` has been
classified there is nothing left for the model to say about the next
ten thousand lines with the same shape — only the slot values differ,
and masking erases those before the model ever sees them.
:class:`TemplateCache` memoizes the pipeline's final ``(category,
confidence)`` per masked template so repeated shapes cost a dict lookup
instead of the vectorize→predict path.

Correctness rules (enforced by ``ClassificationPipeline`` and proven by
the hypothesis wall in ``tests/test_template_cache.py``):

- the key is the exact masked text
  (:meth:`~repro.textproc.normalize.MaskingNormalizer.normalize_many`'s
  output), so a hit is *guaranteed* to reproduce what the model stage
  would compute;
- blacklist-filtered and quarantined results are never cached, and
  poison-injected messages bypass the cache entirely in both
  directions;
- the cache carries the pipeline *generation* it was filled under;
  ``sync_generation`` clears it atomically when ``fit``/retrain bumps
  the pipeline, so a refit can never serve stale predictions.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["TemplateCache"]


class TemplateCache:
    """Bounded LRU ``template key → (category, confidence)`` memo.

    Parameters
    ----------
    max_entries:
        Capacity bound.  ``0`` is a valid, fully disabled cache: every
        lookup misses and nothing is ever stored.  ``1`` keeps exactly
        the most recently used template.

    Attributes
    ----------
    hits, misses, evictions, invalidations:
        Monotonic counters: served lookups, failed lookups, LRU
        evictions, and generation-change clears.  What the pipeline's
        ``repro_template_cache_*`` views read.
    generation:
        The pipeline generation the current entries were computed
        under.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self.max_entries = max_entries
        self.generation = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._data: OrderedDict[str, tuple] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def sync_generation(self, generation: int) -> None:
        """Adopt ``generation``, clearing every entry if it changed.

        Called by the pipeline before any lookup, so a ``fit`` between
        batches invalidates atomically: the first post-refit batch sees
        an empty cache, never a stale prediction.
        """
        if generation != self.generation:
            if self._data:
                self.invalidations += 1
                self._data.clear()
            self.generation = generation

    def get(self, key: str):
        """The memoized value for ``key``, or ``None``; counts hit/miss."""
        entry = self._data.get(key) if self.max_entries else None
        if entry is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, value: tuple) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry if full."""
        if self.max_entries == 0:
            return
        data = self._data
        if key in data:
            data[key] = value
            data.move_to_end(key)
            return
        if len(data) >= self.max_entries:
            data.popitem(last=False)
            self.evictions += 1
        data[key] = value

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._data.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> dict[str, int]:
        """Snapshot of the monotonic counters (for delta accounting)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def stats(self) -> dict[str, float]:
        """Human/CLI-facing summary of cache effectiveness."""
        return {
            "size": len(self._data),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }
