"""Syslog-aware tokenization.

Syslog messages mix natural language with structured fragments
(``key=value`` pairs, ``subsystem:`` prefixes, device paths, sensor
readings).  A plain whitespace split leaves punctuation glued to words
("throttled." vs "throttled"), while an aggressive word-character split
destroys identifiers the masking normalizer needs to see intact.  The
tokenizer here splits on whitespace first, then peels leading/trailing
punctuation and breaks ``k=v`` / ``k:v`` pairs, which keeps identifiers
("CPU23", "sda1", "192.168.0.4") as single tokens for the normalizer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.textproc.normalize import (
    ANALYSIS_MEMO_MAX_ENTRIES,
    LINE_MEMO_MAX_LINE_LEN,
    TOKEN_MEMO_MAX_ENTRIES,
    TOKEN_MEMO_MAX_TOKEN_LEN,
)

__all__ = ["Tokenizer", "index_tokens", "tokenize"]

# Punctuation stripped from token edges.  Internal punctuation (dots in
# IP addresses, dashes in node names) is preserved.
_EDGE_PUNCT = ".,;!?\"'()[]{}:=#"

_KV_RE = re.compile(r"^([A-Za-z_][\w.\-]*)([=:])(.+)$")
_CLOCK_TAIL = re.compile(r"\d{2}(:|$)")  # what follows the colon of 12:34:56

#: Per tokenizer configuration ``(lowercase, split_kv, min_len)``: the
#: tokens of recent whole texts (what the store files a masked line under
#: and the vectorizer lemmatizes — whoever asks second pays a lookup) and
#: of every whitespace piece seen.  Module-level and cleared when full,
#: like the masker's memos, beside whose caps theirs sit.
_MEMOS: dict[tuple, tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]] = {}


@dataclass
class Tokenizer:
    """Configurable syslog tokenizer.

    Parameters
    ----------
    lowercase:
        Fold tokens to lower case.  The paper's TF-IDF features are
        case-insensitive (Table 1 lists lowercased tokens).
    split_kv:
        Break ``key=value`` and ``key:value`` fragments into
        ``key``, ``value`` tokens so that the key survives as a feature
        even when the value is volatile.
    min_len:
        Drop tokens shorter than this after stripping (0 keeps all).
    """

    lowercase: bool = True
    split_kv: bool = True
    min_len: int = 1

    def __call__(self, text: str) -> list[str]:
        return self.tokenize(text)

    def _memos(self):
        key = (self.lowercase, self.split_kv, self.min_len)
        if key not in _MEMOS:
            _MEMOS[key] = ({}, {})
        return _MEMOS[key]

    def tokenize(self, text: str) -> list[str]:
        """Tokenize ``text`` into a list of tokens: a memo lookup per
        whitespace piece, :meth:`_emit` on a piece never seen."""
        pieces = self._memos()[1]
        out: list[str] = []
        for raw in text.split():
            toks = pieces.get(raw)
            if toks is None:
                emitted: list[str] = []
                self._emit(raw, emitted)
                if self.lowercase:
                    emitted = [t.lower() for t in emitted]
                toks = tuple([t for t in emitted if len(t) >= self.min_len])
                if len(raw) <= TOKEN_MEMO_MAX_TOKEN_LEN:
                    if len(pieces) >= TOKEN_MEMO_MAX_ENTRIES:
                        pieces.clear()
                    pieces[raw] = toks
            out += toks
        return out

    def index_tokens(self, text: str) -> tuple[str, ...]:
        """``tuple(tokenize(text))`` through the memo of recent texts —
        the one tokenisation the store and the vectorizer share."""
        lines = self._memos()[0]
        tokens = lines.get(text)
        if tokens is None:
            tokens = tuple(self.tokenize(text))
            if len(text) <= LINE_MEMO_MAX_LINE_LEN:
                if len(lines) >= ANALYSIS_MEMO_MAX_ENTRIES:
                    lines.clear()
                lines[text] = tokens
        return tokens

    def _emit(self, raw: str, out: list[str]) -> None:
        tok = raw.strip(_EDGE_PUNCT)
        if not tok:
            return
        if self.split_kv:
            m = _KV_RE.match(tok)
            # Do not split dotted quads or timestamps: only split when the
            # key looks like an identifier and the separator is = or a
            # colon not followed by a digit pair (12:34:56).
            if m and not (m.group(2) == ":" and _CLOCK_TAIL.match(m.group(3))):
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


_DEFAULT = Tokenizer()


def tokenize(text: str) -> list[str]:
    """Tokenize with the default (lowercasing, kv-splitting) tokenizer."""
    return _DEFAULT.tokenize(text)


def index_tokens(text: str) -> tuple[str, ...]:
    """The default tokenizer's :meth:`Tokenizer.index_tokens`."""
    return _DEFAULT.index_tokens(text)
