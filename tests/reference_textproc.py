"""The text-analysis loops as they were before analysis became one
token-wise pass, and the counting doubles its floors are stated in.

Differential oracles for ``repro.textproc``: ``Tokenizer.tokenize`` was
a regex split and one ``_emit`` per whitespace piece, the lemmatizer
walked all 33 suffix rules for a fresh word, and the vectorizer's chain
ran mask → tokenize → lemmatize stage by stage with no memo between the
store and the classifier.  Kept verbatim (``reference_emit`` included:
the tokenizer's own ``_emit`` is still the per-piece definition, but an
oracle that called it would follow any change to it), so
``tests/test_fuzz_properties.py`` can hold the new pass to them on
hostile input and ``benchmarks/bench_runtime_scaling.py::test_text_analysis_lane`` can
time them beside it.

:class:`Counts` is the instrumented double of ``tests/test_perf_smoke.py``:
it swaps the module tables for counting ones, so a floor reads "regex
``sub`` calls per line", not "seconds per line on a quiet host".
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from importlib import import_module

import pytest

from repro.textproc import lemmatize as lemmatize_mod
from repro.textproc import normalize as normalize_mod
from repro.textproc.lemmatize import _RULES as _SUFFIX_RULES
from repro.textproc.lemmatize import _plausible

# ``repro.textproc.tokenize`` the attribute is the function of that name
tokenize_mod = import_module("repro.textproc.tokenize")

_EDGE_PUNCT = ".,;!?\"'()[]{}:=#"
_KV_RE = re.compile(r"^([A-Za-z_][\w.\-]*)([=:])(.+)$")
_WS_RE = re.compile(r"\s+")


def reference_emit(tokenizer, raw: str, out: list[str]) -> None:
    tok = raw.strip(_EDGE_PUNCT)
    if not tok:
        return
    if tokenizer.split_kv:
        m = _KV_RE.match(tok)
        # Do not split dotted quads or timestamps: only split when the
        # key looks like an identifier and the separator is = or a
        # colon not followed by a digit pair (12:34:56).
        if m and not (m.group(2) == ":" and re.match(r"^\d{2}(:|$)", m.group(3))):
            key, _sep, val = m.groups()
            out.append(key)
            val = val.strip(_EDGE_PUNCT)
            if val:
                # Values may themselves be comma-joined lists.
                for part in val.split(","):
                    part = part.strip(_EDGE_PUNCT)
                    if part:
                        out.append(part)
            return
    out.append(tok)


def reference_tokenize(tokenizer, text: str) -> list[str]:
    """``tokenizer.tokenize(text)`` by the replaced ``_emit`` loop."""
    out: list[str] = []
    for raw in _WS_RE.split(text.strip()):
        if not raw:
            continue
        reference_emit(tokenizer, raw, out)
    if tokenizer.lowercase:
        out = [t.lower() for t in out]
    if tokenizer.min_len > 1:
        out = [t for t in out if len(t) >= tokenizer.min_len]
    return out


def reference_lemmatize(lemmatizer, token: str) -> str:
    """``lemmatizer.lemmatize(token)``, uncached, every rule tried."""
    if not token.isalpha():
        return token
    exc = lemmatizer._exceptions.get(token)
    if exc is not None:
        return exc
    if token in lemmatizer.lexicon:
        return token
    for suffix, repl, derivational in _SUFFIX_RULES:
        if not token.endswith(suffix) or len(token) <= len(suffix):
            continue
        stem = token[: -len(suffix)] + repl
        for cand in lemmatizer._candidates(stem):
            if cand in lemmatizer.lexicon:
                return cand
        if not derivational and _plausible(stem):
            # e-restoration: "throttling" -> "throttl" -> "throttle"
            for cand in lemmatizer._candidates(stem):
                if cand in lemmatizer.lexicon:
                    return cand
            return lemmatizer._tidy(stem)
    return token


def reference_analyze(vec, messages) -> list[list[str]]:
    """``vec.analyze_batch(messages)`` by the staged chain: the regex
    chain over each line, the ``_emit`` loop, a full rule walk per token."""
    docs = []
    for text in messages:
        if vec._normalizer is not None:
            text = vec._normalizer.normalize_reference(text)
        tokens = reference_tokenize(vec._tokenizer, text)
        if vec._lemmatizer is not None:
            tokens = [reference_lemmatize(vec._lemmatizer, t) for t in tokens]
        lo, hi = vec.ngram_range
        if hi > 1:
            tokens = vec._expand_ngrams(tokens)
        elif lo != 1:
            tokens = []
        docs.append(tokens)
    return docs


def clear_memos() -> None:
    """Empty every module-level text-analysis memo."""
    for name in ("_TOKEN_MEMOS", "_SHAPE_MEMOS", "_LINE_MEMOS"):
        for memo in getattr(normalize_mod, name).values():
            memo.clear()
    tokenize_mod._MEMOS.clear()


class _CountingPattern:
    def __init__(self, pattern, counts: "Counts") -> None:
        self._pattern, self._counts = pattern, counts

    def sub(self, repl, text):
        self._counts.subs += 1
        return self._pattern.sub(repl, text)

    def __getattr__(self, name):
        return getattr(self._pattern, name)


class _CountingMemo(dict):
    probes = hits = 0

    def get(self, key, default=None):
        self.probes += 1
        if key in self:
            self.hits += 1
        return super().get(key, default)


class _CountingRules(list):
    def __init__(self, rules, counts: "Counts") -> None:
        super().__init__(rules)
        self._counts = counts

    def __iter__(self):
        for rule in super().__iter__():
            self._counts.suffix_tests += 1
            yield rule


class Counts:
    """Operation counts of the text-analysis pass while :func:`counted`
    is open: regex ``sub`` calls, token-memo probes, shape-memo hits,
    tokens no memo knew and chain runs (whole line or number–unit
    window) of the masker, ``tokenize`` and ``_emit`` calls of every
    tokenizer, suffix rules the lemmatizer tested."""

    subs = unseen_tokens = chain_runs = tokenize_calls = emit_calls = suffix_tests = 0

    def __init__(self) -> None:
        self.token_memos = {flag: _CountingMemo() for flag in (False, True)}
        self.shape_memos = {flag: _CountingMemo() for flag in (False, True)}

    @property
    def memo_probes(self) -> int:
        return sum(memo.probes for memo in self.token_memos.values())

    @property
    def shape_hits(self) -> int:
        return sum(memo.hits for memo in self.shape_memos.values())


@contextmanager
def counted():
    """Start from empty memos and count; the modules are restored on exit."""
    counts = Counts()
    tokenizer, normalizer = tokenize_mod.Tokenizer, normalize_mod.MaskingNormalizer
    tokenize, emit, mask_token = tokenizer.tokenize, tokenizer._emit, normalizer._mask_token
    chain = normalizer.normalize_reference

    def counting_mask_token(self, token):
        counts.unseen_tokens += 1
        return mask_token(self, token)

    def counting_chain(self, text):
        counts.chain_runs += 1
        return chain(self, text)

    def counting_tokenize(self, text):
        counts.tokenize_calls += 1
        return tokenize(self, text)

    def counting_emit(self, raw, out):
        counts.emit_calls += 1
        return emit(self, raw, out)

    clear_memos()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normalize_mod, "_RULES", [
            (placeholder, _CountingPattern(pat, counts))
            for placeholder, pat in normalize_mod._RULES
        ])
        mp.setattr(normalize_mod, "_ALNUM_ID", _CountingPattern(normalize_mod._ALNUM_ID, counts))
        mp.setattr(normalize_mod, "_TOKEN_MEMOS", counts.token_memos)
        mp.setattr(normalize_mod, "_SHAPE_MEMOS", counts.shape_memos)
        mp.setattr(normalizer, "_mask_token", counting_mask_token)
        mp.setattr(normalizer, "normalize_reference", counting_chain)
        mp.setattr(tokenizer, "tokenize", counting_tokenize)
        mp.setattr(tokenizer, "_emit", counting_emit)
        mp.setattr(lemmatize_mod, "_RULES", _CountingRules(lemmatize_mod._RULES, counts))
        mp.setattr(lemmatize_mod, "_RULES_BY_LAST", {
            last: _CountingRules(rules, counts)
            for last, rules in lemmatize_mod._RULES_BY_LAST.items()
        })
        yield counts
    clear_memos()
