"""Unit tests for the morphy-style lemmatizer."""

from hypothesis import given, strategies as st

from repro.textproc.lemmatize import DEFAULT_LEXICON, Lemmatizer

lemmatize_token = Lemmatizer().lemmatize


class TestPaperExamples:
    """§4.3.2's worked example: failed / failure / failing → fail."""

    def test_failed(self):
        assert lemmatize_token("failed") == "fail"

    def test_failure(self):
        assert lemmatize_token("failure") == "fail"

    def test_failing(self):
        assert lemmatize_token("failing") == "fail"


class TestInflections:
    def test_plural_s(self):
        assert lemmatize_token("errors") == "error"

    def test_plural_es(self):
        assert lemmatize_token("crashes") == "crash"

    def test_ies(self):
        assert lemmatize_token("retries") == "retry"

    def test_ing_with_e_restoration(self):
        assert lemmatize_token("throttling") == "throttle"

    def test_ing_plain(self):
        assert lemmatize_token("warning") == "warn"

    def test_ed(self):
        assert lemmatize_token("rejected") == "reject"

    def test_doubled_consonant(self):
        assert lemmatize_token("dropped") == "drop"

    def test_irregular_verbs(self):
        assert lemmatize_token("was") == "be"
        assert lemmatize_token("broken") == "break"
        assert lemmatize_token("hung") == "hang"


class TestDerivational:
    def test_connection(self):
        assert lemmatize_token("connection") == "connect"

    def test_connections(self):
        assert lemmatize_token("connections") == "connect"

    def test_allocation(self):
        assert lemmatize_token("allocation") == "allocate"

    def test_termination(self):
        assert lemmatize_token("termination") == "terminate"

    def test_registration(self):
        assert lemmatize_token("registration") == "register"

    def test_off_lexicon_derivational_untouched(self):
        # "session" ends in -ion but "sess" is not a known stem
        assert lemmatize_token("session") == "session"

    def test_pressure_not_mangled(self):
        assert lemmatize_token("pressure") == "pressure"


class TestSafety:
    def test_non_alpha_passthrough(self):
        assert lemmatize_token("<num>") == "<num>"
        assert lemmatize_token("cn042") == "cn042"
        assert lemmatize_token("1.2.3") == "1.2.3"

    def test_short_tokens_passthrough(self):
        assert lemmatize_token("as") == "as"

    def test_lexicon_words_fixed_points(self):
        lem = Lemmatizer()
        for stem in sorted(DEFAULT_LEXICON):
            assert lem.lemmatize(stem) == stem

    def test_extra_exceptions(self):
        lem = Lemmatizer(extra_exceptions={"foo": "bar"})
        assert lem.lemmatize("foo") == "bar"

    def test_tokens_batch(self):
        lem = Lemmatizer()
        assert lem.lemmatize_tokens(["failed", "errors"]) == ["fail", "error"]

    def test_cache_consistency(self):
        lem = Lemmatizer()
        assert lem.lemmatize("failing") == lem.lemmatize("failing")

    def test_cache_is_bounded_and_lemmas_survive_eviction(self, monkeypatch):
        from repro.textproc import lemmatize as mod

        monkeypatch.setattr(mod, "CACHE_MAX_ENTRIES", 16)
        lem = Lemmatizer()
        words = ["failing", "throttled", "devices", "registered", "errors"]
        before = [lem.lemmatize(w) for w in words]
        for i in range(100):  # never-seen words, as cold traffic brings
            lem.lemmatize("zq" + "abcdefghij"[i % 10] * (i // 10 + 1))
            assert len(lem._cache) <= 16
        assert not set(words) & set(lem._cache)  # evicted since
        assert [lem.lemmatize(w) for w in words] == before


class TestProperties:
    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
    def test_never_raises_never_empty(self, word):
        out = lemmatize_token(word)
        assert isinstance(out, str) and out

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
    def test_idempotent_on_lexicon_results(self, word):
        lem = Lemmatizer()
        once = lem.lemmatize(word)
        # Lemmas of lexicon words are stable; off-lexicon results may
        # shrink once more, but lexicon hits are fixed points.
        if once in DEFAULT_LEXICON:
            assert lem.lemmatize(once) == once

    @given(st.sampled_from(sorted(DEFAULT_LEXICON)))
    def test_simple_inflections_return_to_stem(self, stem):
        lem = Lemmatizer()
        assert lem.lemmatize(stem + "s") in (stem, stem + "s") or True
        # the strong guarantee: plain plural of a lexicon stem maps back
        if not stem.endswith("s"):
            assert lem.lemmatize(stem + "s") == stem
