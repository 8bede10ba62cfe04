"""repro — reproduction of "Heterogeneous Syslog Analysis: There Is Hope".

A library for classifying syslog messages from heterogeneous test-bed
clusters into actionable issue categories, comparing the legacy
edit-distance bucketing approach, traditional TF-IDF + ML classifiers,
and (simulated) large-language-model classifiers, on top of a
discrete-event simulation of the paper's log-collection infrastructure.

Subpackages
-----------
``repro.core``
    Taxonomy, message model, classification pipeline, alerting, drift.
``repro.runtime``
    Per-stage timing of the batch-first classification hot path.
``repro.textproc``
    Tokenization, masking normalization, lemmatization, TF-IDF,
    edit distances.
``repro.ml``
    From-scratch sparse-aware classifiers and metrics.
``repro.buckets``
    The legacy Levenshtein bucketing classifier.
``repro.llm``
    Simulated generative LLMs, zero-shot classification, cost model.
``repro.datagen``
    Synthetic heterogeneous syslog corpus and stream generation.
``repro.stream``
    Discrete-event simulation of the Tivan collection pipeline.
``repro.monitor``
    Frequency, positional, and per-architecture analyses.
``repro.experiments``
    Runners reproducing each table/figure of the paper.
"""

import importlib
import sys

__version__ = "1.0.0"

__all__ = ["__version__"]


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for a subpackage whose exports load on first use.

    ``exports`` maps each submodule (named relative to ``package``) to the
    names the package re-exports from it.  Nothing is imported up front
    (PEP 562): the first read of an exported name imports its submodule and
    binds the value in the package's globals, so later reads never come back
    here.  Reading a submodule's own name imports it (``repro.core.pipeline``
    after ``import repro.core``); any other name raises
    :class:`AttributeError`.  A process that wires the spine therefore loads
    the modules it uses, not every sibling a package ``__init__`` names.
    """
    source = {name: f"{package}.{sub}" for sub, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name):
        if name in source:
            value = namespace[name] = getattr(importlib.import_module(source[name]), name)
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__():
        return sorted(namespace.keys() | source.keys())

    return list(source), __getattr__, __dir__
