"""Rule-based lemmatization (WordNet-morphy style).

§4.3.2 of the paper lemmatizes messages so that different parts of
speech of the same word collapse to one root: "The system has failed" /
"There was a failure in the system" / "The system is failing" all yield
the lemma *fail*.  The paper uses the NLTK WordNet lemmatizer; offline
we implement the same idea as a two-stage rule engine:

1. an exception table for irregular forms, and
2. ordered suffix-detachment rules (morphy-style), where a detachment
   is accepted when the candidate stem is in the lexicon of known
   stems; purely inflectional detachments (plural -s, -ed, -ing with
   consonant doubling / e-restoration) are additionally accepted when
   they leave a plausible stem even outside the lexicon.

The derivational rules (``failure`` → ``fail``, ``connection`` →
``connect``) only fire against the lexicon, so arbitrary identifiers
("pressure", "session") are never mangled unless explicitly listed.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

__all__ = ["Lemmatizer", "DEFAULT_LEXICON"]

# Irregular forms common in syslog prose.
_EXCEPTIONS: dict[str, str] = {
    "is": "be", "are": "be", "was": "be", "were": "be", "been": "be",
    "has": "have", "had": "have", "having": "have",
    "does": "do", "did": "do", "done": "do", "doing": "do",
    "went": "go", "gone": "go",
    "ran": "run", "running": "run",
    "found": "find", "lost": "lose", "left": "leave", "sent": "send",
    "shut": "shut", "hung": "hang", "broke": "break", "broken": "break",
    "wrote": "write", "written": "write", "read": "read",
    "began": "begin", "begun": "begin", "took": "take", "taken": "take",
    "worse": "bad", "worst": "bad", "better": "good", "best": "good",
    "children": "child", "indices": "index", "caches": "cache",
    "statuses": "status", "busses": "bus", "buses": "bus",
}

# Known verb/noun stems for syslog vocabulary; derivational rules only
# detach suffixes when the resulting stem appears here.
DEFAULT_LEXICON: frozenset[str] = frozenset({
    "fail", "connect", "disconnect", "reject", "accept", "detect",
    "correct", "register", "terminate", "allocate", "deallocate",
    "authenticate", "authorize", "throttle", "assert", "deassert",
    "configure", "initialize", "reinitialize", "enumerate", "negotiate",
    "degrade", "expire", "violate", "isolate", "migrate", "calibrate",
    "saturate", "escalate", "validate", "invalidate", "generate",
    "operate", "recover", "resume", "suspend", "attach", "detach",
    "insert", "remove", "mount", "unmount", "create", "delete",
    "update", "upgrade", "downgrade", "install", "uninstall", "reboot",
    "shutdown", "start", "restart", "stop", "abort", "retry", "timeout",
    "overheat", "cool", "warm", "sense", "read", "write", "flush",
    "sync", "drain", "queue", "drop", "block", "unblock", "limit",
    "exceed", "reduce", "increase", "decrease", "report", "log",
    "notify", "alert", "warn", "error", "crash", "panic", "hang",
    "freeze", "corrupt", "scrub", "train", "link", "close", "open",
    "listen", "bind", "route", "forward", "transmit", "receive",
    "respond", "request", "complete", "schedule", "preempt", "cancel",
    "launch", "spawn", "kill", "exit", "load", "unload", "probe",
    "scan", "poll", "sample", "measure", "regulate", "power", "reset",
    "trip", "slow", "down", "reach", "pass", "occur", "refuse",
})

# (suffix, replacement, derivational) rules, tried in order; longest
# suffixes first so "connections" detaches "-ions" before "-s".
_RULES: list[tuple[str, str, bool]] = [
    # derivational — lexicon-gated
    ("izations", "ize", True), ("ization", "ize", True),
    ("ations", "ate", True), ("ation", "ate", True),
    ("ations", "", True), ("ation", "", True),
    ("ions", "", True), ("ion", "", True),
    ("ures", "", True), ("ure", "", True),
    ("ments", "", True), ("ment", "", True),
    ("ances", "", True), ("ance", "", True),
    ("ences", "", True), ("ence", "", True),
    ("ers", "", True), ("er", "", True),
    ("ors", "", True), ("or", "", True),
    ("als", "", True), ("al", "", True),
    ("ities", "e", True), ("ity", "e", True),
    # inflectional — accepted even off-lexicon when stem is long enough
    ("ingly", "", False), ("edly", "", False),
    ("ing", "", False), ("ings", "", False),
    ("ied", "y", False), ("ies", "y", False),
    ("ed", "", False),
    ("es", "", False), ("s", "", False),
]

#: the rules that can detach from a token, by its last letter, in order
_RULES_BY_LAST: dict[str, list[tuple[str, str, bool]]] = {}
for _rule in _RULES:
    _RULES_BY_LAST.setdefault(_rule[0][-1], []).append(_rule)

_VOWELS = set("aeiou")

#: cap on a lemmatizer's token → lemma cache; a full cache is cleared, so
#: a stream of never-seen words cannot grow it for the life of a process
CACHE_MAX_ENTRIES = 1 << 14


def _plausible(stem: str) -> bool:
    """A stem is plausible when it is ≥3 chars and contains a vowel."""
    return len(stem) >= 3 and any(c in _VOWELS for c in stem)


@dataclass
class Lemmatizer:
    """Morphy-style lemmatizer with a configurable stem lexicon.

    Parameters
    ----------
    lexicon:
        Known stems enabling derivational suffix detachment.
    extra_exceptions:
        Additional irregular ``form → lemma`` mappings, merged over the
        built-in table.
    """

    lexicon: frozenset[str] = DEFAULT_LEXICON
    extra_exceptions: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._exceptions = dict(_EXCEPTIONS)
        self._exceptions.update(self.extra_exceptions)
        self._cache: dict[str, str] = {}

    def __call__(self, token: str) -> str:
        return self.lemmatize(token)

    def lemmatize(self, token: str) -> str:
        """Return the lemma of a single (lowercase) token.

        Tokens containing non-alphabetic characters (placeholders,
        identifiers) are returned unchanged.
        """
        if not token.isalpha():
            return token
        hit = self._cache.get(token)
        if hit is not None:
            return hit
        lemma = self._lemmatize_uncached(token)
        if len(self._cache) >= CACHE_MAX_ENTRIES:
            self._cache.clear()
        self._cache[token] = lemma
        return lemma

    def _lemmatize_uncached(self, token: str) -> str:
        exc = self._exceptions.get(token)
        if exc is not None:
            return exc
        if token in self.lexicon:
            return token
        for suffix, repl, derivational in _RULES_BY_LAST.get(token[-1], ()):
            if not token.endswith(suffix) or len(token) <= len(suffix):
                continue
            stem = token[: -len(suffix)] + repl
            for cand in self._candidates(stem):
                if cand in self.lexicon:
                    return cand
            if not derivational and _plausible(stem):
                # e-restoration: "throttling" -> "throttl" -> "throttle"
                for cand in self._candidates(stem):
                    if cand in self.lexicon:
                        return cand
                return self._tidy(stem)
        return token

    @staticmethod
    def _candidates(stem: str) -> tuple[str, ...]:
        """Stem variants: as-is, e-restored, undoubled final consonant,
        and e-inserted before a final consonant cluster ("registr" →
        "register")."""
        cands = [stem, stem + "e"]
        if len(stem) >= 3 and stem[-1] == stem[-2] and stem[-1] not in _VOWELS:
            cands.append(stem[:-1])
        if (
            len(stem) >= 4
            and stem[-1] not in _VOWELS
            and stem[-2] not in _VOWELS
        ):
            cands.append(stem[:-1] + "e" + stem[-1])
        return tuple(cands)

    @staticmethod
    def _tidy(stem: str) -> str:
        """Clean an off-lexicon inflectional stem.

        Undo consonant doubling ("stopp" → "stop") and restore a final
        'e' after a consonant+consonant cluster that needs one
        ("throttl" → "throttle").
        """
        if len(stem) >= 3 and stem[-1] == stem[-2] and stem[-1] not in _VOWELS:
            return stem[:-1]
        if (
            len(stem) >= 3
            and stem[-1] not in _VOWELS
            and stem[-2] not in _VOWELS
            and stem[-1] in "lrtv"
        ):
            return stem + "e"
        return stem

    def lemmatize_tokens(self, tokens: list[str]) -> list[str]:
        """Lemmatize a token list."""
        return [self.lemmatize(t) for t in tokens]

    def lemmatize_docs(self, docs: Iterable[Sequence[str]]) -> list[list[str]]:
        """Lemmatize a whole column of token documents (batch-first hot
        path); the memo cache is shared across the batch."""
        lemmatize = self.lemmatize
        return [list(map(lemmatize, doc)) for doc in docs]
