"""Unit + property tests for edit distances."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.textproc.distance import (
    hamming,
    levenshtein,
    levenshtein_within,
)


def reference_levenshtein(a: str, b: str) -> int:
    """Textbook O(nm) DP, the oracle for property tests."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        curr = [i]
        for j, cb in enumerate(b, 1):
            curr.append(min(prev[j] + 1, curr[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = curr
    return prev[-1]


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,d",
        [
            ("", "", 0),
            ("a", "", 1),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("abc", "abc", 0),
            ("abc", "abd", 1),
            ("saturday", "sunday", 3),
        ],
    )
    def test_known_values(self, a, b, d):
        assert levenshtein(a, b) == d

    def test_paper_example_distance_7(self):
        # §3's point: same meaning, large distance.  The two thermal
        # phrasings from §4.3.1 are far apart in edit distance.
        a = "CPU temperature above threshold, cpu clock throttled."
        b = "CPU 1 Temperature Above Non-Recoverable - Asserted."
        assert levenshtein(a, b) > 7

    def test_unicode(self):
        assert levenshtein("héllo", "hello") == 1


class TestLevenshteinWithin:
    def test_within_returns_distance(self):
        assert levenshtein_within("kitten", "sitting", 3) == 3

    def test_beyond_returns_none(self):
        assert levenshtein_within("kitten", "sitting", 2) is None

    def test_zero_threshold(self):
        assert levenshtein_within("abc", "abc", 0) == 0
        assert levenshtein_within("abc", "abd", 0) is None

    def test_negative_threshold(self):
        assert levenshtein_within("a", "a", -1) is None

    def test_length_prefilter(self):
        assert levenshtein_within("ab", "abcdefgh", 3) is None

    def test_multiset_prefilter_long_strings(self):
        a = "x" * 30
        b = "y" * 30
        assert levenshtein_within(a, b, 5) is None


class TestHamming:
    def test_equal_strings(self):
        assert hamming("abc", "abc") == 0

    def test_known(self):
        assert hamming("karolin", "kathrin") == 3

    def test_empty(self):
        assert hamming("", "") == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal lengths"):
            hamming("ab", "abc")


_short = st.text(alphabet="abcdef", max_size=12)


class TestProperties:
    @given(_short, _short)
    @settings(max_examples=200)
    def test_matches_reference(self, a, b):
        assert levenshtein(a, b) == reference_levenshtein(a, b)

    @given(_short, _short)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(_short, _short)
    def test_bounds(self, a, b):
        d = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(_short, _short, _short)
    @settings(max_examples=100)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(_short, _short, st.integers(min_value=0, max_value=12))
    @settings(max_examples=200)
    def test_within_agrees_with_full(self, a, b, k):
        full = levenshtein(a, b)
        banded = levenshtein_within(a, b, k)
        if full <= k:
            assert banded == full
        else:
            assert banded is None

    @given(_short)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0
