"""Text processing for syslog messages.

This package implements the preprocessing and feature-engineering stack
described in §4.3 of the paper:

- :mod:`repro.textproc.tokenize` — a syslog-aware tokenizer,
- :mod:`repro.textproc.normalize` — masking of volatile fields (hex ids,
  IP addresses, numbers, paths) so that messages differing only in
  identifying information share a token stream,
- :mod:`repro.textproc.lemmatize` — a morphy-style rule lemmatizer that
  collapses inflections ("failed"/"failure"/"failing" → "fail"),
- :mod:`repro.textproc.vocab` — vocabulary construction with document
  frequency pruning,
- :mod:`repro.textproc.tfidf` — a sparse TF-IDF vectorizer plus the
  per-category top-token extraction used for Table 1 and for LLM prompt
  construction, and a vocabulary-free hashing variant,
- :mod:`repro.textproc.distance` — Levenshtein / Hamming distances,
  including the thresholded variant used by the legacy bucketing
  classifier (§3).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "tokenize": ("tokenize", "Tokenizer"),
    "normalize": ("normalize_message", "MaskingNormalizer"),
    "lemmatize": ("Lemmatizer",),
    "vocab": ("Vocabulary", "build_vocabulary"),
    "tfidf": ("TfidfVectorizer", "HashingVectorizer", "category_top_tokens"),
    "drain": ("DrainTemplateMiner", "LogTemplate"),
    "distance": ("levenshtein", "levenshtein_within", "hamming"),
})

# The function shares its submodule's name: bound now, since the first import
# of ``repro.textproc.tokenize`` would otherwise leave the module in its place.
from repro.textproc.tokenize import tokenize  # noqa: E402, F401
