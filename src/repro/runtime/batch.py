"""Message batches — the unit of work on the hot path.

§1 of the paper motivates scale ("in just an hour over a million
messages can be produced in a small scale test-bed"), and per-message
calls through normalize → tokenize → vectorize cannot reach it:
every layer pays its per-call overhead once *per message*.
:class:`MessageBatch` restructures the hot path around a batch of
message bodies, so each stage runs once per *batch* and the vectorizer
produces one sparse matrix per batch instead of one row at a time.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

__all__ = ["MessageBatch"]


@dataclass(frozen=True)
class MessageBatch:
    """An immutable batch of syslog message bodies.

    Attributes
    ----------
    texts:
        Message bodies — the classification input.
    """

    texts: tuple[str, ...]

    # -- construction --------------------------------------------------

    @classmethod
    def of_texts(cls, texts: Iterable[str]) -> "MessageBatch":
        """Batch of bare message bodies."""
        return cls(texts=tuple(texts))

    @classmethod
    def coerce(cls, batch: "MessageBatch | Sequence[str]") -> "MessageBatch":
        """Accept either a batch or a plain sequence of texts.

        This is what lets :meth:`ClassificationPipeline.classify_batch`
        keep its historical ``Sequence[str]`` signature while running
        batch-first internally.
        """
        if isinstance(batch, cls):
            return batch
        return cls(texts=tuple(batch))

    @classmethod
    def read_lines(
        cls, stream: Iterable[str], batch_size: int
    ) -> Iterator["MessageBatch"]:
        """Read a line stream (file / stdin) in batches of ``batch_size``.

        Blank lines are skipped; the final batch may be short.  This is
        the CLI's chunked reader — the stream is never materialized in
        full, so classifying an arbitrarily large file holds at most
        one batch in memory.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        pending: list[str] = []
        for line in stream:
            text = line.rstrip("\n")
            if not text:
                continue
            pending.append(text)
            if len(pending) == batch_size:
                yield cls(texts=tuple(pending))
                pending = []
        if pending:
            yield cls(texts=tuple(pending))

    # -- slicing -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.texts)

    def __iter__(self) -> Iterator[str]:
        return iter(self.texts)

    def chunks(self, size: int) -> Iterator["MessageBatch"]:
        """Split into consecutive sub-batches of at most ``size`` rows.

        This is the scatter step for sharded execution: chunk
        boundaries preserve order, so concatenating per-chunk results
        reassembles the original batch order.
        """
        if size <= 0:
            raise ValueError(f"chunk size must be positive, got {size}")
        for start in range(0, len(self.texts), size):
            yield MessageBatch(texts=self.texts[start:start + size])
