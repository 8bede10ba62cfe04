"""The metric catalogue and everything derived from it.

``obs/wellknown.py`` states each family once; these tests hold the
derived listings to it — the module's own namespace, the dashboard's
section grouping, the ``docs/API.md`` reference block — and close the
reader side of the drift gate: ``TestWellknownDrift`` (test_tracing)
checks that every family the spine *emits* is declared, this file
checks that every family name the source *reads back by string* is.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.monitor.dashboard import render_metrics_panel
from repro.obs import MetricsRegistry, wellknown

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: a *full* family name — prefixes (``repro_wal_``) and f-string heads
#: end in an underscore and are not claims about any one family
_FAMILY_NAME = re.compile(r"repro_[a-z0-9_]*[a-z0-9]")


class TestCatalogue:
    def test_every_family_is_a_distinct_module_level_accessor(self):
        names = [family.name for family in wellknown.CATALOGUE]
        assert len(set(names)) == len(names) == 90
        for family in wellknown.CATALOGUE:
            assert getattr(wellknown, family.accessor.__name__) is family.accessor
            assert family.accessor.__name__ in wellknown.__all__
        assert all(hasattr(wellknown, name) for name in wellknown.__all__)

    def test_each_family_is_stated_once_in_the_source(self):
        """One assignment per accessor, one literal per name and help."""
        tree = ast.parse((SRC / "obs" / "wellknown.py").read_text())
        targets = [
            target.id
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
        ]
        literals = [
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        ]
        for family in wellknown.CATALOGUE:
            assert targets.count(family.accessor.__name__) == 1, family.name
            assert literals.count(family.name) == 1, family.name
            assert literals.count(family.help) == 1, family.name

    def test_declare_all_registers_the_catalogue_in_order(self):
        registry = wellknown.declare_all(MetricsRegistry())
        assert [
            (fam.kind, fam.name, fam.help, fam.label_names) for fam in registry.collect()
        ] == [
            (family.kind, family.name, family.help, family.labels)
            for family in wellknown.CATALOGUE
        ]


class TestPanelSections:
    def test_no_declared_family_renders_under_other(self):
        panel = render_metrics_panel(wellknown.declare_all(MetricsRegistry()))
        assert "-- other --" not in panel
        headers = re.findall(r"^-- (.+) --$", panel, flags=re.MULTILINE)
        assert headers == list(wellknown.SECTIONS)

    def test_template_cache_and_executor_families_have_a_section(self):
        """The template-cache families the prefix table never knew about,
        and the pool respawns the sharded executor counts."""
        registry = MetricsRegistry()
        wellknown.template_cache_size(registry).set(3, worker="7")
        wellknown.faults_worker_respawns(registry).inc()
        registry.counter("jobs_total", "jobs").inc()
        sections = render_metrics_panel(registry).split("-- other --")
        assert len(sections) == 2, "an undeclared name still lands in 'other'"
        declared, other = sections
        assert "-- pipeline --" in declared and "-- faults --" in declared
        assert "repro_template_cache_size{worker=7}" in declared
        assert "repro_faults_worker_respawns_total" in declared
        assert "jobs_total" in other and "repro_" not in other


class TestApiReference:
    def test_committed_reference_block_matches_the_catalogue(self):
        api_md = (REPO / "docs" / "API.md").read_text()
        assert api_md.count("<!-- metric-reference:begin") == 1
        assert wellknown.render_reference() in api_md, (
            "docs/API.md's metric reference is stale: replace the block between "
            "the metric-reference markers with the output of "
            "wellknown.render_reference()"
        )


def _context_var_names(tree: ast.AST) -> set[int]:
    """Node ids of the name argument of every ``ContextVar(...)`` call."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            callee = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if callee == "ContextVar":
                found.add(id(node.args[0]))
    return found


class TestReaderSideDrift:
    def test_family_names_read_by_string_are_declared(self):
        """``/control``, the signal reader, the SLO targets and the
        controller look families up by name; a typo there reads 0 (or
        the default) instead of failing, so fail it here."""
        declared = {family.name for family in wellknown.CATALOGUE}
        read, undeclared = 0, []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "wellknown.py":
                continue
            tree = ast.parse(path.read_text())
            not_metrics = _context_var_names(tree)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and _FAMILY_NAME.fullmatch(node.value)
                    and id(node) not in not_metrics
                ):
                    read += 1
                    if node.value not in declared:
                        undeclared.append(f"{path.relative_to(REPO)}:{node.lineno} {node.value}")
        assert read >= 25, f"the scan found only {read} family-name literals"
        assert not undeclared, f"family names not declared in obs/wellknown.py: {undeclared}"
