"""Unit tests for templates, vendors, corpus generation, and drift."""

import numpy as np
import pytest

from repro.core.taxonomy import Category
from repro.datagen.firmware import FirmwareDrift
from repro.datagen.generator import CorpusGenerator
from repro.datagen.templates import (
    SLOT_FILLERS,
    TEMPLATES,
    fill_slots,
    templates_for,
)
from repro.datagen.vendors import VENDORS


class TestVendors:
    def test_six_families(self):
        assert len(VENDORS) == 6

    def test_unique_prefixes(self):
        prefixes = [v.node_prefix for v in VENDORS]
        assert len(set(prefixes)) == len(prefixes)

    def test_node_name_format(self):
        dell = next(v for v in VENDORS if v.name == "dell")
        assert dell.node_name(7) == "cn007"

    def test_multiple_architectures(self):
        assert len({v.arch for v in VENDORS}) >= 4


class TestTemplates:
    def test_every_category_has_templates(self):
        for cat in Category:
            assert templates_for(cat), f"no templates for {cat}"

    def test_all_slots_registered(self):
        for tpl in TEMPLATES:
            for slot in tpl.slots():
                assert slot in SLOT_FILLERS, f"unknown slot {slot!r} in {tpl.text!r}"

    def test_fill_slots_deterministic_with_seed(self):
        tpl = templates_for(Category.THERMAL)[0]
        a = fill_slots(tpl, np.random.default_rng(5))
        b = fill_slots(tpl, np.random.default_rng(5))
        assert a == b

    def test_fill_slots_leaves_no_braces(self):
        rng = np.random.default_rng(0)
        for tpl in TEMPLATES:
            text = fill_slots(tpl, rng)
            assert "{" not in text and "}" not in text

    def test_vendor_restriction(self):
        for tpl in templates_for(Category.THERMAL, vendor="hpe"):
            assert tpl.vendors is None or "hpe" in tpl.vendors

    def test_heterogeneity_same_issue_different_phrasing(self):
        """Multiple distinct thermal phrasings exist across vendors."""
        shapes = {t.text for t in templates_for(Category.THERMAL)}
        assert len(shapes) >= 5


class TestCorpusGenerator:
    def test_table2_proportions(self):
        corpus = CorpusGenerator(scale=0.01, seed=0).generate()
        counts = corpus.counts()
        # Unimportant dominates, thermal second — Table 2's shape
        assert counts[Category.UNIMPORTANT] > counts[Category.THERMAL]
        assert counts[Category.THERMAL] > counts[Category.MEMORY]
        assert counts[Category.SLURM] >= 8  # min_per_category floor

    def test_scaled_counts_close_to_targets(self):
        gen = CorpusGenerator(scale=0.01, seed=1)
        corpus = gen.generate()
        for cat, target in gen.target_counts().items():
            assert corpus.counts()[cat] == target

    def test_uniqueness(self):
        corpus = CorpusGenerator(scale=0.01, seed=2).generate()
        assert len(set(corpus.texts)) == len(corpus)

    def test_determinism(self):
        a = CorpusGenerator(scale=0.005, seed=9).generate()
        b = CorpusGenerator(scale=0.005, seed=9).generate()
        assert a.texts == b.texts
        assert a.labels == b.labels

    def test_different_seeds_differ(self):
        a = CorpusGenerator(scale=0.005, seed=1).generate()
        b = CorpusGenerator(scale=0.005, seed=2).generate()
        assert a.texts != b.texts

    def test_invalid_scale(self):
        with pytest.raises(ValueError, match="scale"):
            CorpusGenerator(scale=0.0).target_counts()

    def test_without_category(self, corpus):
        reduced = corpus.without(Category.UNIMPORTANT)
        assert Category.UNIMPORTANT not in reduced.counts()
        assert len(reduced) < len(corpus)

    def test_subset_mask(self, corpus):
        mask = np.zeros(len(corpus), dtype=bool)
        mask[:10] = True
        sub = corpus.subset(mask)
        assert len(sub) == 10
        assert sub.texts == corpus.texts[:10]

    def test_hosts_span_vendors(self, corpus):
        prefixes = {m.hostname[:2] for m in corpus.messages}
        assert len(prefixes) >= 4

    def test_timestamps_span_collection_year(self, corpus):
        ts = [m.timestamp for m in corpus.messages]
        assert max(ts) - min(ts) > 300 * 86400 * 0.5

    def test_custom_templates(self):
        from repro.core.message import Severity
        from repro.datagen.templates import MessageTemplate

        tpl = MessageTemplate(
            Category.THERMAL, "kernel", Severity.WARNING,
            "custom thermal event {count} on cpu {cpu}",
        )
        # need at least one template per category: restrict to thermal only
        gen = CorpusGenerator(scale=0.001, seed=0, templates=(tpl,), min_per_category=2)
        with pytest.raises(RuntimeError, match="no templates"):
            gen.generate()  # other categories have none — explicit error


class TestFirmwareDrift:
    def test_generation_zero_is_identity(self):
        out = FirmwareDrift(seed=1).drift(TEMPLATES, generations=0)
        assert out.templates == TEMPLATES

    def test_drift_changes_surface_forms(self):
        out = FirmwareDrift(seed=1, mutation_rate=0.9).drift(TEMPLATES, generations=2)
        changed = sum(
            1 for a, b in zip(TEMPLATES, out.templates) if a.text != b.text
        )
        assert changed > len(TEMPLATES) // 2

    def test_drift_preserves_categories_and_slots(self):
        out = FirmwareDrift(seed=3, mutation_rate=0.9).drift(TEMPLATES, generations=3)
        for orig, drifted in zip(TEMPLATES, out.templates):
            assert orig.category is drifted.category
            assert set(orig.slots()) == set(drifted.slots())

    def test_drift_deterministic(self):
        a = FirmwareDrift(seed=4).drift(TEMPLATES, generations=2)
        b = FirmwareDrift(seed=4).drift(TEMPLATES, generations=2)
        assert a.templates == b.templates

    def test_negative_generations(self):
        with pytest.raises(ValueError, match="generations"):
            FirmwareDrift().drift(TEMPLATES, generations=-1)

    def test_drifted_templates_still_generate(self):
        drifted = FirmwareDrift(seed=5).drift(TEMPLATES, generations=2).templates
        corpus = CorpusGenerator(
            scale=0.002, seed=0, templates=drifted
        ).generate()
        assert len(corpus) > 0
