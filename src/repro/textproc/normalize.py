"""Masking normalization of volatile syslog fields.

The legacy bucketing approach (§3) groups messages that "state the same
problem in the same way, but with slightly different identifying
information".  The ML pipeline achieves the same collapse *before*
feature extraction by masking volatile fields — IP addresses, MAC
addresses, hex ids, device numbers, PIDs, temperatures — with stable
placeholder tokens.  Two benefits:

- the TF-IDF vocabulary stays small and discriminative (no one-off
  identifiers), and
- message *shapes* become comparable across nodes and over time, which
  is what makes the classifier robust where edit-distance bucketing
  needed re-training.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass

__all__ = ["MaskingNormalizer", "normalize_message"]

# Order matters: more specific patterns first (MAC before hex, IPv4
# before bare numbers, etc.).
_RULES: list[tuple[str, re.Pattern[str]]] = [
    ("<mac>", re.compile(r"\b(?:[0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}\b")),
    ("<ip>", re.compile(r"\b(?:\d{1,3}\.){3}\d{1,3}(?::\d+)?\b")),
    ("<ipv6>", re.compile(r"\b(?:[0-9a-fA-F]{1,4}:){3,7}[0-9a-fA-F]{1,4}\b")),
    ("<time>", re.compile(r"\b\d{1,2}:\d{2}(?::\d{2})?(?:\.\d+)?\b")),
    ("<date>", re.compile(r"\b\d{4}-\d{2}-\d{2}\b")),
    ("<hex>", re.compile(r"\b0x[0-9a-fA-F]+\b")),
    ("<hexid>", re.compile(r"\b[0-9a-fA-F]{8,}\b")),
    ("<path>", re.compile(r"(?:^|(?<=\s))/[\w./\-]+")),
    ("<ver>", re.compile(r"\b\d+\.\d+(?:\.\d+)+\b")),
    ("<temp>", re.compile(r"\b\d+(?:\.\d+)?\s?(?:C|degC|celsius)\b")),
    ("<size>", re.compile(r"\b\d+(?:\.\d+)?\s?(?:kB|KB|MB|GB|TB|KiB|MiB|GiB|bytes)\b")),
    ("<num>", re.compile(r"\b\d+(?:\.\d+)?[eE][+-]?\d+\b")),  # scientific notation
    ("<num>", re.compile(r"\b\d+(?:\.\d+)?\b")),
]

#: What a match of each rule up to ``<ver>`` cannot do without: a literal
#: and a length.  The rules after it, and ``_ALNUM_ID``, all need a digit;
#: all but the plain ``<num>`` need a unit's or an exponent's first letter
#: right after one.
_SCREENS = (
    (":", 17), (".", 7), (":", 7), (":", 4), ("-", 10), ("0x", 3), ("", 8), ("/", 2), (".", 5),
)
_DIGIT = re.compile(r"\d")
_DIGIT_UNIT = re.compile(r"\d[CdckKMGTbeE]")

# node-name style identifiers: alpha prefix + numeric suffix (cn042,
# sda1, eth0, cpu23).  The alpha stem is kept, the counter masked, so
# "cpu23"/"cpu7" share the feature "cpu<num>".
_ALNUM_ID = re.compile(r"\b([A-Za-z]{2,})(\d{1,6})\b")

#: tokens that can *begin* a cross-whitespace ``<temp>``/``<size>``
#: match when the previous token ends with a digit ("45 C", "3 MB").
#: ``(?:$|\W)`` mirrors the rules' trailing ``\b``: a unit glued to a
#: word character ("45 Cat") does not match the real rule either.
_UNIT_LEAD = re.compile(r"(?:degC|celsius|C|[kKMGT]i?B|kB|bytes)(?:$|\W)")
#: first characters of the unit alternatives — a one-set-lookup screen
#: before the regex runs
_UNIT_FIRST = frozenset("CdckKMGTb")

#: A text's *digit shape*: its UTF-8 bytes with the ASCII digits 2–9
#: folded to ``1`` (an ASCII digit byte is never part of a longer UTF-8
#: sequence).  Every rule and screen tests a digit 1–9 only by class
#: (``\d``, ``\w``, ``[0-9a-fA-F]``, ``isdigit``); the one literal digit
#: is the ``0`` of ``0x``.  So the chain matches at the same places in
#: two texts of one shape, and their masks differ at most in the digits
#: 1–9 that survive it: a mask that keeps none is the mask of every text
#: of its shape.
_FOLD = bytes.maketrans(b"23456789", b"11111111")
_KEEPS_DIGIT = re.compile("[1-9]").search

#: Memo caps.  A full memo is cleared, never closed to new entries, so a
#: stream of unbounded distinct slot values costs a refill, not the fast
#: path.  The memos are module-level, keyed by ``mask_alnum_ids`` (all
#: the token-wise result depends on): normalizer equality, ``repr`` and
#: pickling stay what the two fields make them.  Entries are pure
#: functions of their keys, so racing threads can only redo work.
TOKEN_MEMO_MAX_ENTRIES = 1 << 16
TOKEN_MEMO_MAX_TOKEN_LEN = 256
LINE_MEMO_MAX_ENTRIES = 1 << 12
LINE_MEMO_MAX_LINE_LEN = 512
#: ``repro.textproc.tokenize`` holds its whitespace pieces under the two
#: token caps and its recent texts (→ index tokens) under the line length
#: cap and this one, which also bounds each store's posting plans
ANALYSIS_MEMO_MAX_ENTRIES = 1 << 11
# A line, a token or a number–unit window with a digit 2–9 whose mask
# keeps no digit 1–9 is remembered by its digit shape (``bytes``); any
# other by itself (``str``: without a digit 2–9 it is its own shape).
#: token or window → its mask
_TOKEN_MEMOS: dict[bool, dict[str, str]] = {False: {}, True: {}}
#: a token's or window's digit shape → the mask of every one of that
#: shape; under the token caps
_SHAPE_MEMOS: dict[bool, dict[bytes, str]] = {False: {}, True: {}}
#: recent lines, by shape or by themselves, → masked line
_LINE_MEMOS: dict[bool, dict[bytes | str, str]] = {False: {}, True: {}}


@dataclass
class MaskingNormalizer:
    """Replace volatile message fields with placeholder tokens.

    :meth:`normalize` pays per digit shape, not per line: a line costs
    a lookup by itself and one by its shape (ASCII digits 2–9 folded to
    ``1``), since a mask that keeps no digit 1–9 answers every line of
    that shape.  A line found under neither is masked token-wise — a
    dict lookup per whitespace token instead of thirteen regex passes
    over the line, a token with a digit 2–9 answered by its shape, and
    for a shape never seen only the rules that can match it — and the
    result is *exactly* what the regex chain returns
    (:meth:`normalize_reference`, the oracle the property tests compare
    against).  Token-wise masking is exact because no rule can match
    across whitespace, with one family of exceptions: ``<temp>`` and
    ``<size>`` allow a single whitespace between the number and its
    unit (``"45 C"``, ``"3 MB"``).  The maximal run of tokens a
    digit-final token and a unit-leading one link, one whitespace
    character apart, goes through the chain as one window, with its own
    separators, and is memoized by shape like a token.

    Parameters
    ----------
    mask_alnum_ids:
        Also mask the numeric suffix of ``name<digits>`` identifiers
        (``cn042`` → ``cn<num>``), keeping the stem.
    collapse_whitespace:
        Squash runs of whitespace to a single space.  ``False`` defeats
        the split/join decomposition, so such a normalizer always runs
        the chain — still exact, just not accelerated.
    """

    mask_alnum_ids: bool = True
    collapse_whitespace: bool = True

    def __call__(self, text: str) -> str:
        return self.normalize(text)

    def normalize_reference(self, text: str) -> str:
        """The masking rules as one regex chain over ``text``."""
        for placeholder, pat in _RULES:
            text = pat.sub(placeholder, text)
        if self.mask_alnum_ids:
            text = _ALNUM_ID.sub(lambda m: m.group(1) + "<num>", text)
        if self.collapse_whitespace:
            text = " ".join(text.split())
        return text

    def normalize(self, text: str) -> str:
        """Return ``text`` with volatile fields masked.

        Never raises on hostile input — any ``str`` (NULs, lone
        surrogates, megabyte lines) masks to a ``str``.  A small memo
        of recent lines sits in front, so a line whose digit shape was
        masked before pays a fold and a lookup, and the second asker of
        a line (the store, then the template-cache key) one lookup when
        the line is its own key.
        """
        if not self.collapse_whitespace:
            return self.normalize_reference(text)
        if len(text) > LINE_MEMO_MAX_LINE_LEN:
            return self._mask_tokenwise(text)
        lines = _LINE_MEMOS[self.mask_alnum_ids]
        masked = lines.get(text)
        if masked is None:
            raw = text.encode("utf-8", "surrogatepass")
            shape = raw.translate(_FOLD)
            if shape != raw:
                masked = lines.get(shape)
            if masked is None:
                masked = self._mask_tokenwise(text)
                if len(lines) >= LINE_MEMO_MAX_ENTRIES:
                    lines.clear()
                lines[shape if shape != raw and not _KEEPS_DIGIT(masked) else text] = masked
        return masked

    def _mask_tokenwise(self, text: str) -> str:
        memo = _TOKEN_MEMOS[self.mask_alnum_ids]
        tokens = text.split()
        out: list[str] = []
        digit_final = False
        for t in tokens:
            # the one cross-whitespace case the rules allow: a
            # digit-final token followed by a unit-leading token ("45 C")
            if digit_final and t[0] in _UNIT_FIRST and _UNIT_LEAD.match(t):
                return self._mask_windows(text, tokens)
            digit_final = t[-1].isdecimal()  # what ``\d`` matches
            v = memo.get(t)
            if v is None:
                v = self._mask_piece(t, self._mask_token)
            out.append(v)
        return " ".join(out)

    def _mask_windows(self, text: str, tokens: list[str]) -> str:
        """``_mask_tokenwise`` for a line where a unit-leading token
        follows a digit-final one: each maximal run of tokens so linked
        *one* whitespace character apart (``\\s?`` spans no more) is
        masked as one piece, the text between its first and last token,
        by the chain; every other token alone."""
        memo = _TOKEN_MEMOS[self.mask_alnum_ids]
        spans: list[list] = []  # [start, end, is a window]
        end = 0
        digit_final = False
        for t in tokens:
            start = text.find(t, end)  # only whitespace lies before it
            if (digit_final and start == end + 1 and t[0] in _UNIT_FIRST
                    and _UNIT_LEAD.match(t)):
                spans[-1][1:] = start + len(t), True
            else:
                spans.append([start, start + len(t), False])
            end = start + len(t)
            digit_final = t[-1].isdecimal()
        out: list[str] = []
        for start, end, window in spans:
            piece = text[start:end]
            v = memo.get(piece)
            if v is None:
                mask = self.normalize_reference if window else self._mask_token
                v = self._mask_piece(piece, mask)
            out.append(v)
        return " ".join(out)

    def _mask_piece(self, piece: str, mask) -> str:
        """``mask(piece)`` for a token or window the token memo has not
        seen.  One with a digit 2–9 is answered by its digit shape; its
        one real masking is kept under the shape when it keeps no digit
        1–9 (it is then the shape's own mask, and every such piece's —
        never masked twice), else under the piece itself."""
        if piece.isdigit() and piece.isascii():
            # a pure-digit token can only match <hexid> (8+ hex chars) or
            # <num>: cheaper to retest than to store
            return "<hexid>" if len(piece) >= 8 else "<num>"
        shape = None
        if not piece.isalpha():  # letters alone have no digit to fold
            raw = piece.encode("utf-8", "surrogatepass")
            shape = raw.translate(_FOLD)
            if shape == raw:
                shape = None
            else:
                v = _SHAPE_MEMOS[self.mask_alnum_ids].get(shape)
                if v is not None:
                    return v
        v = mask(piece)
        if len(piece) <= TOKEN_MEMO_MAX_TOKEN_LEN:
            if shape is None or _KEEPS_DIGIT(v):
                memo, key = _TOKEN_MEMOS[self.mask_alnum_ids], piece
            else:
                memo, key = _SHAPE_MEMOS[self.mask_alnum_ids], shape
            if len(memo) >= TOKEN_MEMO_MAX_ENTRIES:
                memo.clear()
            memo[key] = v
        return v

    def _mask_token(self, t: str) -> str:
        """``normalize_reference(t)`` for a whitespace-free token, running
        only the rules that can match.  Every screen reads the text as it
        stands before its rule: ``<ipv6>`` puts a digit into a token that
        had none, and ``mask_alnum_ids`` then masks it."""
        for (placeholder, pat), (needle, least) in zip(_RULES, _SCREENS):
            if len(t) >= least and needle in t:
                t = pat.sub(placeholder, t)
        if _DIGIT.search(t):
            first = len(_SCREENS) if _DIGIT_UNIT.search(t) else -1  # else the plain <num> alone
            for placeholder, pat in _RULES[first:]:
                t = pat.sub(placeholder, t)
            if self.mask_alnum_ids:
                t = _ALNUM_ID.sub(lambda m: m.group(1) + "<num>", t)
        return t

    def normalize_many(self, texts: Sequence[str]) -> list[str]:
        """Normalize a whole column of messages.

        The batch-first hot path (``repro.runtime``) runs each
        preprocessing stage once per batch; masking is applied
        column-wise here so the stage is a single timed unit.
        """
        return list(map(self.normalize, texts))


_DEFAULT = MaskingNormalizer()


def normalize_message(text: str) -> str:
    """Normalize with the default masking rules."""
    return _DEFAULT.normalize(text)
