"""Firmware-drift mutations of message templates.

§3 describes the failure mode of the legacy bucketing approach: "as
time went on, and systems received new firmware updates ... the
semantics and syntax of the messages would differ slightly which would
produce new buckets in the queue that needed to be classified."

:class:`FirmwareDrift` models a firmware update as a deterministic
rewrite of a vendor's templates: synonym substitutions, punctuation and
casing changes, field reordering, and added/removed boilerplate
prefixes.  Crucially the rewrites preserve the *discriminative
vocabulary* of each category (a thermal message still talks about
temperature and throttling) while changing enough surface characters to
push messages past an edit-distance threshold — which is why the
TF-IDF+ML pipeline survives drift that defeats bucketing (EXP-DRIFT).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datagen.templates import MessageTemplate, TEMPLATES

__all__ = ["FirmwareDrift", "DriftedTemplateSet"]

# Synonym groups: within a group, a drift step may swap one surface form
# for another.  Groups keep category-critical stems intact (throttle →
# throttling stays in-family; "temperature" may become "temp reading"
# but never disappears).
_SYNONYMS: tuple[tuple[str, ...], ...] = (
    ("above threshold", "over limit", "beyond threshold"),
    ("temperature", "temp reading", "temperature reading"),
    ("throttled", "throttling engaged", "throttled down"),
    ("failure detected", "fault detected", "failure observed"),
    ("error", "err", "error condition"),
    ("exceeds", "is above", "exceeded"),
    ("not responding", "unresponsive", "no response"),
    ("Connection closed", "Connection terminated", "Session closed"),
    ("disconnect", "detach", "unplug event"),
    ("device number", "device id", "dev num"),
    ("memory read error", "memory rd error", "read error in memory"),
    ("shutting down", "initiating shutdown", "powering off"),
    ("sync lost", "synchronization lost", "out of sync"),
    ("started", "initiated", "begun"),
)

_PREFIXES = ("", "[fw] ", "EVT: ", "## ", "(notice) ")


@dataclass(frozen=True)
class DriftedTemplateSet:
    """Templates after some number of firmware generations.

    Attributes
    ----------
    generation:
        How many drift steps were applied.
    templates:
        The rewritten templates (same categories/apps as the originals).
    """

    generation: int
    templates: tuple[MessageTemplate, ...]


@dataclass
class FirmwareDrift:
    """Deterministic template rewriter simulating firmware updates.

    Parameters
    ----------
    seed:
        Base RNG seed; generation ``g`` uses ``seed + g`` so successive
        generations drift cumulatively but reproducibly.
    mutation_rate:
        Probability that any given applicable rewrite fires on a
        template per generation.
    """

    seed: int = 7
    mutation_rate: float = 0.6

    def drift(
        self,
        templates: tuple[MessageTemplate, ...] = TEMPLATES,
        generations: int = 1,
    ) -> DriftedTemplateSet:
        """Apply ``generations`` successive drift steps to ``templates``."""
        if generations < 0:
            raise ValueError(f"generations must be >= 0, got {generations}")
        current = templates
        for g in range(generations):
            rng = np.random.default_rng(self.seed + g)
            current = tuple(self._mutate(t, rng) for t in current)
        return DriftedTemplateSet(generation=generations, templates=current)

    def _mutate(self, tpl: MessageTemplate, rng: np.random.Generator) -> MessageTemplate:
        text = tpl.text
        # 1. synonym swaps
        for group in _SYNONYMS:
            for i, form in enumerate(group):
                if form in text and rng.random() < self.mutation_rate:
                    alt = group[(i + 1 + int(rng.integers(0, len(group) - 1))) % len(group)]
                    text = text.replace(form, alt)
                    break
        # 2. punctuation churn: commas ↔ " -", trailing period toggles
        if rng.random() < self.mutation_rate * 0.5:
            text = text.replace(", ", " - ") if ", " in text else text.replace(" - ", ", ")
        if rng.random() < self.mutation_rate * 0.3:
            text = text.rstrip(".") if text.endswith(".") else text + "."
        # 3. casing churn on the first word (vendors flip Warning/WARNING)
        if rng.random() < self.mutation_rate * 0.4:
            first, _, rest = text.partition(" ")
            if first.isalpha():
                text = (first.upper() if not first.isupper() else first.capitalize()) + " " + rest
        # 4. boilerplate prefix churn
        if rng.random() < self.mutation_rate * 0.4:
            text = _strip_known_prefix(text)
            text = _PREFIXES[int(rng.integers(0, len(_PREFIXES)))] + text
        return MessageTemplate(
            category=tpl.category,
            app=tpl.app,
            severity=tpl.severity,
            text=text,
            vendors=tpl.vendors,
            weight=tpl.weight,
        )


def _strip_known_prefix(text: str) -> str:
    for p in _PREFIXES:
        if p and text.startswith(p):
            return text[len(p):]
    return text
