"""From-scratch, sparse-aware machine-learning classifiers.

Implements the eight traditional classifiers the paper evaluates
(Figure 3) over TF-IDF features, plus the metrics, model selection, and
resampling utilities the evaluation needs.  Everything takes the
vectorizers' :class:`~repro.ml.base.CsrRows`, ``scipy.sparse`` matrices
or dense ndarrays, and all randomness is routed through explicit seeds.
Naive Bayes runs on ``CsrRows`` with numpy alone; the other estimators
see scipy matrices.

Classifier → module map (paper's Figure 3 order):

- Logistic Regression → :class:`repro.ml.linear.LogisticRegression`
- Ridge Classifier → :class:`repro.ml.linear.RidgeClassifier`
- kNN → :class:`repro.ml.knn.KNeighborsClassifier`
- Random Forest → :class:`repro.ml.forest.RandomForestClassifier`
- Linear SVC → :class:`repro.ml.svm.LinearSVC`
- Log-loss SGD → :class:`repro.ml.sgd.SGDClassifier`
- Nearest Centroid → :class:`repro.ml.centroid.NearestCentroid`
- Complement Naïve Bayes → :class:`repro.ml.bayes.ComplementNB`
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "base": ("Classifier", "CsrRows", "check_Xy"),
    "linear": ("LogisticRegression", "RidgeClassifier"),
    "sgd": ("SGDClassifier",),
    "svm": ("LinearSVC",),
    "knn": ("KNeighborsClassifier",),
    "centroid": ("NearestCentroid",),
    "bayes": ("ComplementNB", "MultinomialNB"),
    "forest": ("DecisionTreeClassifier", "RandomForestClassifier"),
    "metrics": (
        "accuracy_score", "roc_auc_score", "confusion_matrix", "precision_recall_f1",
        "weighted_f1_score", "classification_report",
    ),
    "anomaly": ("PCAAnomalyDetector", "IsolationForest", "DeepLogDetector"),
    "model_selection": ("train_test_split", "stratified_kfold"),
    "preprocessing": ("LabelEncoder",),
    "resample": ("random_oversample", "random_undersample", "adasyn_like_oversample"),
})
