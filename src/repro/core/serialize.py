"""Model persistence: save and load fitted pipelines without pickle.

§7's first goal is "deploying our trained models on the new data we
stored in our collection system" — which needs durable, inspectable
model artifacts.  Pickle is a code-execution hazard for artifacts that
cross trust boundaries (a model trained on one enclave, deployed on
another), so serialization here is explicit: a JSON manifest for
structure/hyperparameters plus one ``.npz`` for arrays.

Supported estimators: the whole Figure 3 roster (linear family, naive
Bayes, centroid, kNN, random forest) and the TF-IDF vectorizer; a
:class:`~repro.core.pipeline.ClassificationPipeline` combining them is
saved as one directory.
"""

from __future__ import annotations

import importlib
import json
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core.pipeline import ClassificationPipeline
from repro.ml.base import issparse
from repro.textproc.tfidf import HashingVectorizer, TfidfVectorizer
from repro.textproc.vocab import Vocabulary

__all__ = [
    "PipelineLoadError",
    "save_pipeline",
    "load_pipeline",
    "save_classifier",
    "load_classifier",
]

_FORMAT_VERSION = 1


class PipelineLoadError(ValueError):
    """A saved model artifact is missing, truncated, or corrupt.

    Carries *which file* failed and *why*, so a bad ``--model-dir``
    reads as "fix this artifact", not a bare ``KeyError`` deep inside
    numpy.  Subclasses :class:`ValueError` so existing format-version
    handling keeps working.
    """

    def __init__(self, path: str | Path, reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"{self.path}: {reason}")


@contextmanager
def _loading(path: Path, what: str):
    """Translate load-time failures into :class:`PipelineLoadError`."""
    try:
        yield
    except PipelineLoadError:
        raise
    except FileNotFoundError as e:
        missing = e.filename or path
        raise PipelineLoadError(
            missing, f"missing {what} file — is this a saved model directory?"
        ) from e
    except KeyError as e:
        raise PipelineLoadError(path, f"{what} lacks required key {e}") from e
    except json.JSONDecodeError as e:
        raise PipelineLoadError(path, f"{what} is not valid JSON: {e}") from e
    except zipfile.BadZipFile as e:
        raise PipelineLoadError(
            path, f"{what} is truncated or corrupt: {e}"
        ) from e
    except (OSError, ValueError) as e:
        raise PipelineLoadError(path, f"cannot load {what}: {e}") from e

# estimators whose state is (classes_, coef_, intercept_) + init params
_LINEAR_FAMILY = frozenset({"LogisticRegression", "RidgeClassifier", "LinearSVC", "SGDClassifier"})
#: estimator type → its defining module, imported once a manifest names it:
#: loading a naive-Bayes model imports neither the solvers nor scipy
_MODULES = {
    "LogisticRegression": "repro.ml.linear",
    "RidgeClassifier": "repro.ml.linear",
    "LinearSVC": "repro.ml.svm",
    "SGDClassifier": "repro.ml.sgd",
    "ComplementNB": "repro.ml.bayes",
    "MultinomialNB": "repro.ml.bayes",
    "NearestCentroid": "repro.ml.centroid",
    "KNeighborsClassifier": "repro.ml.knn",
    "RandomForestClassifier": "repro.ml.forest",
}
_INIT_PARAMS: dict[str, tuple[str, ...]] = {
    "LogisticRegression": ("C", "max_iter", "tol", "fit_intercept"),
    "RidgeClassifier": ("alpha", "max_iter"),
    "LinearSVC": ("C", "solver", "max_iter", "tol", "seed"),
    "SGDClassifier": ("loss", "alpha", "epochs", "batch_size", "eta0", "power_t", "seed"),
    "ComplementNB": ("alpha", "norm"),
    "MultinomialNB": ("alpha",),
    "NearestCentroid": ("metric",),
    "KNeighborsClassifier": ("n_neighbors", "metric", "batch_rows"),
    "RandomForestClassifier": (
        "n_estimators", "max_depth", "min_samples_split",
        "min_samples_leaf", "max_features", "bootstrap", "seed",
    ),
}


def _estimator(name: str):
    """The class named ``name``, from its module in :data:`_MODULES`."""
    return getattr(importlib.import_module(_MODULES[name]), name)


def _params_of(clf) -> dict:
    return {p: getattr(clf, p) for p in _INIT_PARAMS[type(clf).__name__]}


def save_classifier(clf, directory: str | Path) -> None:
    """Persist a fitted classifier into ``directory``.

    Raises
    ------
    TypeError
        Unsupported estimator type.
    RuntimeError
        Estimator not fitted.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = type(clf).__name__
    if name not in _INIT_PARAMS:
        raise TypeError(f"cannot serialize estimator of type {name}")
    if getattr(clf, "classes_", None) is None:
        raise RuntimeError(f"{name} is not fitted")
    manifest = {
        "format_version": _FORMAT_VERSION,
        "type": name,
        "params": _params_of(clf),
        "classes": np.asarray(clf.classes_).tolist(),
    }
    arrays: dict[str, np.ndarray] = {}
    if name in _LINEAR_FAMILY:
        arrays["coef"] = clf.coef_
        arrays["intercept"] = clf.intercept_
    elif name in ("ComplementNB", "MultinomialNB"):
        arrays["feature_log_prob"] = clf.feature_log_prob_
        arrays["class_log_prior"] = clf.class_log_prior_
    elif name == "NearestCentroid":
        arrays["centroids"] = clf.centroids_
    elif name == "KNeighborsClassifier":
        arrays["yi"] = clf._yi
        arrays["sq"] = clf._sq
        manifest["sparse_X"] = issparse(clf._X)
        if manifest["sparse_X"]:
            import scipy.sparse as sp

            sp.save_npz(directory / "knn_X.npz", clf._X.tocsr())
        else:
            arrays["X"] = np.asarray(clf._X)
    elif name == "RandomForestClassifier":
        manifest["n_trees"] = len(clf.trees_)
        manifest["n_features"] = clf._n_features
        for t, tree in enumerate(clf.trees_):
            arrays[f"t{t}_feature"] = tree.feature
            arrays[f"t{t}_threshold"] = tree.threshold
            arrays[f"t{t}_left"] = tree.left
            arrays[f"t{t}_right"] = tree.right
            arrays[f"t{t}_value"] = tree.value
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
    np.savez_compressed(directory / "arrays.npz", **arrays)


def load_classifier(directory: str | Path):
    """Load a classifier saved by :func:`save_classifier`.

    Raises
    ------
    PipelineLoadError
        Missing/truncated/corrupt artifact files, a manifest lacking a
        required key, an unknown format version, or an unknown
        estimator type — always naming the offending path and reason.
    """
    directory = Path(directory)
    with _loading(directory / "manifest.json", "classifier manifest"):
        manifest = json.loads((directory / "manifest.json").read_text())
        if manifest.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported model format version "
                f"{manifest.get('format_version')!r}"
            )
        name = manifest["type"]
        classes = np.asarray(manifest["classes"])
    with _loading(directory / "arrays.npz", "classifier arrays"):
        arrays = np.load(directory / "arrays.npz", allow_pickle=False)
        return _rebuild_classifier(name, manifest, arrays, classes, directory)


def _rebuild_classifier(name, manifest, arrays, classes, directory):
    if name not in _MODULES:
        raise ValueError(f"unknown estimator type {name!r} in manifest")
    clf = _estimator(name)(**manifest["params"])
    clf.classes_ = classes
    if name in _LINEAR_FAMILY:
        clf.coef_ = arrays["coef"]
        clf.intercept_ = arrays["intercept"]
        return clf
    if name in ("ComplementNB", "MultinomialNB"):
        clf.feature_log_prob_ = arrays["feature_log_prob"]
        clf.class_log_prior_ = arrays["class_log_prior"]
        return clf
    if name == "NearestCentroid":
        clf.centroids_ = arrays["centroids"]
        return clf
    if name == "KNeighborsClassifier":
        clf._yi = arrays["yi"]
        clf._sq = arrays["sq"]
        if manifest["sparse_X"]:
            import scipy.sparse as sp

            clf._X = sp.load_npz(directory / "knn_X.npz")
        else:
            clf._X = arrays["X"]
        return clf
    # the one left in _MODULES: RandomForestClassifier
    from repro.ml.forest import _Tree

    clf._n_features = manifest["n_features"]
    clf.trees_ = [
        _Tree(
            feature=arrays[f"t{t}_feature"],
            threshold=arrays[f"t{t}_threshold"],
            left=arrays[f"t{t}_left"],
            right=arrays[f"t{t}_right"],
            value=arrays[f"t{t}_value"],
        )
        for t in range(manifest["n_trees"])
    ]
    return clf


def _save_vectorizer(vec: TfidfVectorizer, directory: Path) -> None:
    if isinstance(vec, HashingVectorizer):
        # stateless: hyperparameters are the whole artifact (no
        # vocabulary, no IDF array)
        manifest = {
            "kind": "hashing",
            "normalize": vec.normalize,
            "lemmatize": vec.lemmatize,
            "sublinear_tf": vec.sublinear_tf,
            "l2_normalize": vec.l2_normalize,
            "n_features": vec.n_features,
        }
        (directory / "vectorizer.json").write_text(json.dumps(manifest))
        return
    if vec.vocabulary is None or vec.idf_ is None:
        raise RuntimeError("vectorizer is not fitted")
    manifest = {
        "normalize": vec.normalize,
        "lemmatize": vec.lemmatize,
        "sublinear_tf": vec.sublinear_tf,
        "min_df": vec.min_df,
        "max_df_ratio": vec.max_df_ratio,
        "max_features": vec.max_features,
        "l2_normalize": vec.l2_normalize,
        "vocabulary": list(vec.vocabulary.tokens),
    }
    (directory / "vectorizer.json").write_text(json.dumps(manifest))
    np.savez_compressed(directory / "vectorizer.npz", idf=vec.idf_)


def _load_vectorizer(directory: Path) -> TfidfVectorizer:
    with _loading(directory / "vectorizer.json", "vectorizer manifest"):
        manifest = json.loads((directory / "vectorizer.json").read_text())
        kind = manifest.pop("kind", "tfidf")
        if kind == "hashing":
            return HashingVectorizer(**manifest)
        if kind != "tfidf":
            raise ValueError(f"unknown vectorizer kind {kind!r}")
        vocab_tokens = manifest.pop("vocabulary")
        vec = TfidfVectorizer(**manifest)
        vec.vocabulary = Vocabulary(tuple(vocab_tokens))
    with _loading(directory / "vectorizer.npz", "vectorizer arrays"):
        vec.idf_ = np.load(directory / "vectorizer.npz")["idf"]
    return vec


def save_pipeline(pipe: ClassificationPipeline, directory: str | Path) -> None:
    """Persist a fitted pipeline (vectorizer + classifier) to a directory.

    The blacklist pre-filter, when present, is saved as its exemplar
    list.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if not pipe._fitted:
        raise RuntimeError("pipeline is not fitted")
    _save_vectorizer(pipe.vectorizer, directory)
    save_classifier(pipe.classifier, directory / "classifier")
    meta = {"has_blacklist": pipe.blacklist is not None,
            "blacklist_coverage": pipe.blacklist_coverage}
    if pipe.blacklist is not None:
        meta["blacklist_threshold"] = pipe.blacklist.threshold
        meta["blacklist_premask"] = pipe.blacklist.premask
        (directory / "blacklist.json").write_text(
            json.dumps([b.exemplar for b in pipe.blacklist.store.buckets])
        )
    (directory / "pipeline.json").write_text(json.dumps(meta))


def load_pipeline(directory: str | Path) -> ClassificationPipeline:
    """Load a pipeline saved by :func:`save_pipeline`, ready to classify.

    Raises
    ------
    PipelineLoadError
        Any missing, truncated, or corrupt artifact under
        ``directory`` — the error names the file and the reason.
    """
    directory = Path(directory)
    with _loading(directory / "pipeline.json", "pipeline metadata"):
        meta = json.loads((directory / "pipeline.json").read_text())
        blacklist = None
        if meta["has_blacklist"]:
            from repro.buckets.blacklist import BlacklistFilter

            blacklist = BlacklistFilter(
                threshold=meta["blacklist_threshold"],
                premask=meta["blacklist_premask"],
            )
            exemplars = json.loads(
                (directory / "blacklist.json").read_text()
            )
            for exemplar in exemplars:
                blacklist.store.add(exemplar)
    pipe = ClassificationPipeline(
        vectorizer=_load_vectorizer(directory),
        classifier=load_classifier(directory / "classifier"),
        blacklist=blacklist,
        blacklist_coverage=meta.get("blacklist_coverage", 0.9),
    )
    pipe._fitted = True
    return pipe
