"""Unit tests for masking normalization."""

from hypothesis import given, strategies as st

from repro.textproc.normalize import MaskingNormalizer, normalize_message


class TestMaskingRules:
    def test_ipv4(self):
        assert "<ip>" in normalize_message("Connection from 10.1.2.3 refused")
        assert "10.1.2.3" not in normalize_message("Connection from 10.1.2.3 refused")

    def test_ipv4_with_port(self):
        assert normalize_message("peer 192.168.0.4:8080") == "peer <ip>"

    def test_mac_address(self):
        out = normalize_message("dev aa:bb:cc:dd:ee:ff up")
        assert "<mac>" in out

    def test_hex_literal(self):
        assert "<hex>" in normalize_message("flags 0xdeadbeef set")

    def test_long_hex_id(self):
        assert "<hexid>" in normalize_message("sha deadbeefcafe1234 logged")

    def test_absolute_path(self):
        out = normalize_message("opened /var/log/messages now")
        assert "<path>" in out and "/var/log" not in out

    def test_version_string(self):
        assert "<ver>" in normalize_message("slurm 22.05.3 loaded")

    def test_temperature(self):
        out = normalize_message("reading 95C high")
        assert "<temp>" in out

    def test_size(self):
        assert "<size>" in normalize_message("allocated 512 MB total")

    def test_bare_number(self):
        assert normalize_message("retry 17 times") == "retry <num> times"

    def test_time_of_day(self):
        assert "<time>" in normalize_message("at 12:34:56 exactly")

    def test_date(self):
        assert "<date>" in normalize_message("on 2023-07-30 we saw it")

    def test_alnum_identifier_suffix(self):
        assert normalize_message("node cn042 down") == "node cn<num> down"

    def test_alnum_id_preserves_stem(self):
        out = normalize_message("eth0 and sda1 flapped")
        assert "eth<num>" in out and "sda<num>" in out

    def test_collapses_whitespace(self):
        assert normalize_message("a   b\t c") == "a b c"


class TestSameShapeCollapse:
    """Messages differing only in identifying info collapse (§3's goal)."""

    def test_thermal_pair(self):
        a = normalize_message("CPU23 temperature above threshold, cpu clock throttled")
        b = normalize_message("CPU7 temperature above threshold, cpu clock throttled")
        assert a == b

    def test_ssh_pair(self):
        a = normalize_message("Connection closed by 1.2.3.4 port 5555 [preauth]")
        b = normalize_message("Connection closed by 9.8.7.6 port 44321 [preauth]")
        assert a == b

    def test_different_issues_stay_distinct(self):
        a = normalize_message("CPU23 temperature above threshold")
        b = normalize_message("Out of memory: Killed process 1234")
        assert a != b


class TestConfiguration:
    def test_disable_alnum_masking(self):
        n = MaskingNormalizer(mask_alnum_ids=False)
        assert "cn042" in n.normalize("node cn042 down")

    def test_callable(self):
        n = MaskingNormalizer()
        assert n("x 5 y") == "x <num> y"


class TestMemos:
    """The memos behind ``normalize`` evict; they never stop admitting."""

    def test_token_memo_evicts_and_keeps_admitting(self, monkeypatch):
        from repro.textproc import normalize as mod

        monkeypatch.setattr(mod, "TOKEN_MEMO_MAX_ENTRIES", 64)
        memo, shapes = mod._TOKEN_MEMOS[True], mod._SHAPE_MEMOS[True]
        memo.clear()
        shapes.clear()
        norm = MaskingNormalizer()
        for i in range(40):  # 400 distinct tokens: six caps' worth
            line = " ".join(f"garbage{i}x{j}y" for j in range(10))
            assert norm.normalize(line) == norm.normalize_reference(line)
            assert len(memo) <= 64 and len(shapes) <= 64
        norm.normalize("the node cn042 reported for duty again")
        # a token with a digit 2-9 is held by its digit shape
        assert shapes[b"cn011"] == "cn<num>" and "cn042" not in memo
        assert len(memo) <= 64 and len(shapes) <= 64

    def test_pure_digit_tokens_are_not_memoized(self):
        from repro.textproc import normalize as mod

        memo = mod._TOKEN_MEMOS[True]
        assert normalize_message("pid 4242 of 123456789") == "pid <num> of <hexid>"
        assert "4242" not in memo and "123456789" not in memo

    def test_line_memo_is_bounded_and_exact(self, monkeypatch):
        from repro.textproc import normalize as mod

        monkeypatch.setattr(mod, "LINE_MEMO_MAX_ENTRIES", 8)
        lines = mod._LINE_MEMOS[True]
        lines.clear()
        norm = MaskingNormalizer()
        for i in range(50):
            line = f"job {i} finished on cn{i:03d} in {i} s"
            assert norm.normalize(line) == norm.normalize_reference(line)
            assert len(lines) <= 8
        long_line = "x " * 400
        norm.normalize(long_line)
        assert long_line not in lines

    def test_memos_are_not_instance_state(self):
        import pickle

        norm = MaskingNormalizer()
        norm.normalize("node cn042 down")
        assert norm == MaskingNormalizer()
        assert repr(norm) == repr(MaskingNormalizer())
        assert pickle.loads(pickle.dumps(norm)) == norm
        assert vars(norm) == {"mask_alnum_ids": True, "collapse_whitespace": True}

    def test_settings_do_not_share_answers(self):
        keep = MaskingNormalizer(mask_alnum_ids=False)
        mask = MaskingNormalizer()
        for _ in range(2):
            assert mask.normalize("node cn042 down") == "node cn<num> down"
            assert keep.normalize("node cn042 down") == "node cn042 down"


class TestProperties:
    @given(st.text(max_size=300))
    def test_never_raises(self, text):
        out = normalize_message(text)
        assert isinstance(out, str)

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        once = normalize_message(text)
        assert normalize_message(once) == once

    @given(st.integers(min_value=0, max_value=10**9))
    def test_all_integers_masked(self, n):
        assert str(n) not in normalize_message(f"value {n} end").split()
