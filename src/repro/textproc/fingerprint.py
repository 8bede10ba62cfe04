"""Cheap template fingerprints for the dedup fast path.

The paper's core observation is that syslog is template + slots: the
overwhelming majority of lines are near-duplicates of a template the
process has already seen.  The dedup cache in front of
``classify_batch`` (:class:`repro.core.template_cache.TemplateCache`)
keys on a *fingerprint* of the message — but memoization is only sound
if fingerprint equality implies the pipeline would produce the same
result.  Everything downstream of masking (tokenize, lemmatize,
vectorize, predict) is a deterministic pure function of the masked
text, so the load-bearing invariant is::

    mask(x) == mask(y)  ⟹  MaskingNormalizer.normalize(x) == normalize(y)

:class:`TemplateFingerprinter` achieves that the strong way: its
:meth:`~TemplateFingerprinter.mask` *is*
``MaskingNormalizer.normalize(text)``, so the store, the vectorizer and
the cache key share one masker and one memo.  What this module adds is
the identity key for pipelines that run without masking, and stable
BLAKE2b digests of the masked form (safe to log, shard on, or compare
between workers).
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

from repro.textproc.normalize import MaskingNormalizer

__all__ = ["TemplateFingerprinter", "fingerprint", "mask_template"]


class TemplateFingerprinter:
    """Masked-template keys and their stable digests.

    Parameters
    ----------
    normalizer:
        The :class:`~repro.textproc.normalize.MaskingNormalizer` whose
        output is the key.  ``None`` means the pipeline runs without
        masking (``TfidfVectorizer(normalize=False)``); the raw text is
        then the only sound key, and :meth:`mask` returns it unchanged.
    """

    def __init__(self, normalizer: MaskingNormalizer | None = None) -> None:
        self.normalizer = normalizer

    @classmethod
    def for_vectorizer(cls, vectorizer) -> "TemplateFingerprinter":
        """Build a fingerprinter matching a vectorizer's normalization."""
        return cls(getattr(vectorizer, "_normalizer", None))

    def mask(self, text: str) -> str:
        """The template key: ``normalizer.normalize(text)``, or ``text``
        itself without a normalizer.  Never raises on hostile input."""
        if self.normalizer is None:
            return text
        return self.normalizer.normalize(text)

    def mask_many(self, texts: Sequence[str]) -> list[str]:
        """Mask a whole column of messages (the batch hot path)."""
        if self.normalizer is None:
            return list(texts)
        return self.normalizer.normalize_many(texts)

    def fingerprint(self, text: str) -> str:
        """Stable 16-hex-char digest of :meth:`mask` output.

        Uses BLAKE2b (not Python's per-process-salted ``hash``), so the
        value is identical across processes and runs — safe to log,
        shard on, or compare between workers.
        """
        return _digest(self.mask(text))


_DEFAULT = TemplateFingerprinter(MaskingNormalizer())


def _digest(masked: str) -> str:
    payload = masked.encode("utf-8", "surrogatepass")
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def _coerce_text(message: str | bytes) -> str:
    if isinstance(message, bytes):
        # total on byte garbage and truncated UTF-8: undecodable bytes
        # become lone surrogates, which mask and digest fine
        return message.decode("utf-8", "surrogateescape")
    return message


def mask_template(message: str | bytes) -> str:
    """Mask ``message`` with the default rules (template key form).

    Equals ``MaskingNormalizer().normalize(message)`` exactly; accepts
    raw bytes (decoded with ``surrogateescape``) and never raises.
    """
    return _DEFAULT.mask(_coerce_text(message))


def fingerprint(message: str | bytes) -> str:
    """Stable 16-hex-char template fingerprint of ``message``.

    Two messages share a fingerprint exactly when they mask to the same
    template under the default rules.  Deterministic across processes
    (BLAKE2b, no hash randomization); total on hostile input — byte
    garbage, NULs, truncated UTF-8, and megabyte lines all fingerprint
    without raising.
    """
    return _DEFAULT.fingerprint(_coerce_text(message))
