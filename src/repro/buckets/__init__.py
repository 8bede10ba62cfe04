"""The legacy Levenshtein-distance bucketing classifier (§3, §4.4.1).

Messages are grouped into buckets of strings within a minimum edit
distance of a bucket *exemplar* (the paper's threshold is 7).  An
administrator labels each bucket once; new messages inherit the label
of the bucket they fall into, and messages matching no bucket queue up
as new exemplars awaiting classification — the re-training burden the
paper set out to eliminate.

:mod:`repro.buckets.blacklist` implements the §5.1 suggestion of a
low-threshold edit-distance pre-filter that drops known-"Unimportant"
messages before the ML classifier runs.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "bucketer": ("Bucket", "BucketStore", "LevenshteinBucketClassifier", "UNCLASSIFIED"),
    "blacklist": ("BlacklistFilter",),
    "drain_classifier": ("DrainTemplateClassifier",),
})
