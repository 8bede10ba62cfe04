"""From-scratch, sparse-aware machine-learning classifiers.

Implements the eight traditional classifiers the paper evaluates
(Figure 3) over TF-IDF features, plus the metrics, model selection, and
resampling utilities the evaluation needs.  Everything operates on
``scipy.sparse`` CSR matrices (TF-IDF output) or dense ndarrays, and
all randomness is routed through explicit seeds.

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

from repro.ml.base import Classifier, check_Xy
from repro.ml.linear import LogisticRegression, RidgeClassifier
from repro.ml.sgd import SGDClassifier
from repro.ml.svm import LinearSVC
from repro.ml.knn import KNeighborsClassifier
from repro.ml.centroid import NearestCentroid
from repro.ml.bayes import ComplementNB, MultinomialNB
from repro.ml.forest import DecisionTreeClassifier, RandomForestClassifier
from repro.ml.metrics import (
    accuracy_score,
    roc_auc_score,
    confusion_matrix,
    precision_recall_f1,
    weighted_f1_score,
    classification_report,
)
from repro.ml.anomaly import PCAAnomalyDetector, IsolationForest, DeepLogDetector
from repro.ml.model_selection import train_test_split, stratified_kfold
from repro.ml.preprocessing import LabelEncoder
from repro.ml.resample import random_oversample, random_undersample, adasyn_like_oversample

__all__ = [
    "Classifier",
    "check_Xy",
    "LogisticRegression",
    "RidgeClassifier",
    "SGDClassifier",
    "LinearSVC",
    "KNeighborsClassifier",
    "NearestCentroid",
    "ComplementNB",
    "MultinomialNB",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "accuracy_score",
    "confusion_matrix",
    "precision_recall_f1",
    "weighted_f1_score",
    "classification_report",
    "roc_auc_score",
    "PCAAnomalyDetector",
    "IsolationForest",
    "DeepLogDetector",
    "train_test_split",
    "stratified_kfold",
    "LabelEncoder",
    "random_oversample",
    "random_undersample",
    "adasyn_like_oversample",
]
