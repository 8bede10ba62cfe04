"""The spine loads only the code it runs, and every package ``__init__`` is lazy.

Counted guards, each in a fresh interpreter (the suite's own process
has imported half the package by the time a test runs):

- importing the constructors ``benchmarks/spine/spine.py`` wires loads
  none of the heavy modules the spine never calls — scipy (naive Bayes
  runs on numpy arrays), the HTTP and mail stacks, networkx, the
  classifiers the spine does not run, the Tivan simulation;
- the spine's own work — fit, then classify hot and cold lines — and
  ``load_pipeline`` of a saved naive-Bayes model, then classify, run with
  scipy blocked;
- ``import repro.core.message`` loads neither numpy nor the pipeline;
- the classifiers that fit with ``scipy.optimize`` or solve with
  ``scipy.sparse.linalg`` import it in ``fit``, not with their module.

Then the PEP 562 contract every ``repro.<pkg>`` keeps: each ``__all__``
name resolves to the defining module's object, ``dir()`` lists it, an
unknown name is an ``AttributeError``, ``import *`` binds all of it, and a
submodule is an attribute of its package once asked for.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: the ``from repro... import`` lines of ``benchmarks/spine/spine.py``
SPINE_WIRING = textwrap.dedent(
    """
    from repro.core.pipeline import ClassificationPipeline
    from repro.core.template_cache import TemplateCache
    from repro.datagen import CorpusGenerator
    from repro.durability import StreamJournal, WriteAheadLog
    from repro.faults.dlq import DeadLetterQueue
    from repro.ingest import DeficitRoundRobin, LogBroker, SyslogListener
    from repro.ml.bayes import ComplementNB
    from repro.obs import MetricsRegistry, TraceSampler, set_default_registry, wellknown
    from repro.replication import ReplicatedLogStore
    from repro.stream.events import EventEngine
    from repro.stream.fluentd import FluentdForwarder
    from repro.stream.rfc import MAX_LINE_BYTES, safe_parse_line
    from repro.textproc.tfidf import TfidfVectorizer
    """
)

#: modules the spine never calls into
NOT_IN_THE_SPINE = (
    "scipy.sparse",
    "scipy.optimize",
    "scipy.linalg",
    "scipy.sparse.linalg",
    "scipy.special",
    "http.server",
    "smtplib",
    "networkx",
    "repro.ml.linear",
    "repro.ml.svm",
    "repro.obs.httpd",
    "repro.core.serialize",
    "repro.stream.tivan",
)

PACKAGES = sorted(
    name for _finder, name, ispkg in pkgutil.iter_modules(repro.__path__, prefix="repro.")
    if ispkg
)


def _export_table(package) -> dict[str, str]:
    """Export name → submodule, read from the ``__init__``'s ``_lazy_exports`` table."""
    tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
    call = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lazy_exports"
    )
    table = ast.literal_eval(call.args[1])
    return {attr: sub for sub, names in table.items() for attr in names}


def _loaded_after(code: str) -> set[str]:
    """The module names a fresh interpreter holds after running ``code``."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return set(json.loads(proc.stdout.splitlines()[-1]))


#: run first: any later ``import scipy`` raises ``ImportError``
BLOCK_SCIPY = 'import sys\nsys.modules["scipy"] = None\n'

#: the spine's work on the wiring: fit, then 1,000 hot lines (64 templates
#: through the template cache) and 1,000 cold ones (a fresh word each)
SPINE_WORK = SPINE_WIRING + textwrap.dedent(
    """
    import numpy as np
    from repro.datagen.templates import TEMPLATES, fill_slots

    corpus = CorpusGenerator(scale=0.01, seed=0).generate()
    pipe = ClassificationPipeline(
        vectorizer=TfidfVectorizer(), classifier=ComplementNB(),
        template_cache=TemplateCache(4096),
    )
    pipe.fit(corpus.texts, corpus.labels)
    rng = np.random.default_rng(0)
    hot = [fill_slots(TEMPLATES[i], rng) for i in rng.integers(0, 64, size=1000)]
    words = sorted({w for t in TEMPLATES for w in t.text.split() if w.isalpha()})
    cold = [
        " ".join([*rng.choice(words, size=8), "".join(rng.choice(list("abcdefghij"), size=9))])
        for _ in range(1000)
    ]
    for lines in (hot, cold):
        for start in range(0, len(lines), 100):
            results = pipe.classify_batch(lines[start:start + 100])
            assert all(r.category is not None for r in results)
    assert pipe.template_cache.hits > 0
    """
)


def _scipy_modules(loaded: set[str]) -> list[str]:
    return sorted(name for name in loaded if name.split(".")[0] == "scipy")


def test_the_spine_wiring_loads_nothing_it_does_not_run():
    loaded = _loaded_after(SPINE_WIRING)
    assert {"numpy", "repro.ml.bayes", "repro.obs.wellknown"} <= loaded
    assert sorted(loaded.intersection(NOT_IN_THE_SPINE)) == []
    assert _scipy_modules(loaded) == []


def test_the_spine_fits_and_classifies_with_scipy_blocked():
    loaded = _loaded_after(BLOCK_SCIPY + SPINE_WORK)
    assert _scipy_modules(loaded) == ["scipy"]  # the blocking ``None``


def test_a_loaded_naive_bayes_model_classifies_with_scipy_blocked(tmp_path, corpus):
    """The path of ``listen --model-dir``, ``recover`` and ``classify``:
    ``load_pipeline``, then ``classify_batch``."""
    from repro.core.pipeline import ClassificationPipeline
    from repro.core.serialize import save_pipeline
    from repro.ml.bayes import ComplementNB
    from repro.textproc.tfidf import TfidfVectorizer

    pipe = ClassificationPipeline(vectorizer=TfidfVectorizer(), classifier=ComplementNB())
    pipe.fit(corpus.texts, corpus.labels)
    save_pipeline(pipe, tmp_path)
    texts = corpus.texts[:200]
    want = [r.category.value for r in pipe.classify_batch(texts)]
    code = BLOCK_SCIPY + textwrap.dedent(
        f"""
        from repro.core.serialize import load_pipeline
        got = [r.category.value for r in load_pipeline({str(tmp_path)!r}).classify_batch({texts!r})]
        assert got == {want!r}, got
        """
    )
    loaded = _loaded_after(code)
    assert "repro.ml.bayes" in loaded
    assert sorted(loaded & {"repro.ml.linear", "repro.ml.knn", "repro.ml.forest"}) == []
    assert _scipy_modules(loaded) == ["scipy"]


def test_the_message_model_loads_neither_numpy_nor_the_pipeline():
    loaded = _loaded_after("import repro.core.message")
    assert "repro.core.message" in loaded
    assert sorted(loaded & {"numpy", "repro.core.pipeline"}) == []


def test_the_solvers_load_when_a_fit_needs_them_not_before():
    loaded = _loaded_after(
        "import repro.ml.linear, repro.ml.svm, repro.ml.anomaly, repro.llm.embeddings"
    )
    assert sorted(loaded & {"scipy.optimize", "scipy.sparse.linalg", "scipy.linalg"}) == []


def test_there_are_sixteen_packages():
    assert len(PACKAGES) == 16 and "repro.core" in PACKAGES


@pytest.mark.parametrize("name", PACKAGES)
class TestLazyPackage:
    def test_every_export_is_the_defining_modules_object(self, name):
        package = importlib.import_module(name)
        table = _export_table(package)
        assert sorted(table) == sorted(package.__all__)
        assert len(set(package.__all__)) == len(package.__all__)
        for attr, sub in table.items():
            value = getattr(package, attr)
            assert getattr(importlib.import_module(f"{name}.{sub}"), attr) is value, attr
            # bound in the package's globals: the next read is a plain lookup
            assert vars(package)[attr] is value

    def test_dir_lists_every_export(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_an_unknown_name_is_an_attribute_error(self, name):
        package = importlib.import_module(name)
        for attr in ("no_such_export", "__no_such_dunder__"):
            with pytest.raises(AttributeError, match=attr):
                getattr(package, attr)
            assert not hasattr(package, attr)

    def test_star_import_binds_every_export(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        assert all(namespace[attr] is getattr(package, attr) for attr in package.__all__)


def test_a_submodule_is_an_attribute_once_asked_for():
    code = textwrap.dedent(
        """
        import sys
        import repro.core
        assert "repro.core.pipeline" not in sys.modules
        assert repro.core.pipeline.ClassificationPipeline.__name__ == "ClassificationPipeline"
        from repro.obs import wellknown
        assert wellknown is sys.modules["repro.obs.wellknown"]
        """
    )
    assert "repro.core.pipeline" in _loaded_after(code)


def test_the_tokenize_function_is_not_shadowed_by_its_module():
    """``repro.textproc`` exports a function named like its submodule."""
    code = textwrap.dedent(
        """
        import sys
        from repro.textproc.tokenize import Tokenizer
        from repro.textproc import tokenize
        assert tokenize is sys.modules["repro.textproc.tokenize"].tokenize, tokenize
        """
    )
    _loaded_after(code)
