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

from repro.textproc.tokenize import tokenize, Tokenizer
from repro.textproc.normalize import normalize_message, MaskingNormalizer
from repro.textproc.lemmatize import Lemmatizer
from repro.textproc.vocab import Vocabulary, build_vocabulary
from repro.textproc.tfidf import (
    TfidfVectorizer,
    HashingVectorizer,
    category_top_tokens,
)
from repro.textproc.drain import DrainTemplateMiner, LogTemplate
from repro.textproc.distance import (
    levenshtein,
    levenshtein_within,
    hamming,
)

__all__ = [
    "tokenize",
    "Tokenizer",
    "normalize_message",
    "MaskingNormalizer",
    "Lemmatizer",
    "Vocabulary",
    "build_vocabulary",
    "TfidfVectorizer",
    "HashingVectorizer",
    "category_top_tokens",
    "DrainTemplateMiner",
    "LogTemplate",
    "levenshtein",
    "levenshtein_within",
    "hamming",
]
