"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import _read_batches, main


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    assert main(["generate", "--scale", "0.005", "--seed", "1",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def model_dir(corpus_file, tmp_path_factory):
    d = tmp_path_factory.mktemp("cli") / "model"
    assert main(["train", "--corpus", str(corpus_file),
                 "--model-dir", str(d), "--classifier", "cnb"]) == 0
    return d


class TestGenerate:
    def test_writes_jsonl(self, corpus_file):
        rows = [json.loads(l) for l in corpus_file.read_text().splitlines()]
        assert len(rows) > 500
        assert {"text", "label", "hostname", "app", "timestamp"} <= set(rows[0])

    def test_labels_valid(self, corpus_file):
        from repro.core.taxonomy import Category

        rows = [json.loads(l) for l in corpus_file.read_text().splitlines()]
        for row in rows[:50]:
            Category.from_name(row["label"])  # raises if invalid

    def test_prints_summary(self, corpus_file, capsys, tmp_path):
        main(["generate", "--scale", "0.005", "--out", str(tmp_path / "c.jsonl")])
        out = capsys.readouterr().out
        assert "wrote" in out and "THERMAL" in out


class TestReadBatches:
    def test_batches_and_skips_blanks(self):
        """Blank lines are skipped and the last batch may be short."""
        lines = ["one\n", "\n", "two\n", "three\n", "four\n", "five"]
        assert list(_read_batches(iter(lines), 2)) == [
            ("one", "two"), ("three", "four"), ("five",)
        ]

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError, match="positive"):
            list(_read_batches(iter(["a"]), 0))


class TestTrainClassify:
    def test_model_dir_created(self, model_dir):
        assert (model_dir / "pipeline.json").exists()
        assert (model_dir / "classifier" / "manifest.json").exists()

    def test_classify_file(self, model_dir, tmp_path, capsys):
        inp = tmp_path / "msgs.txt"
        inp.write_text(
            "Warning: Socket 2 - CPU 23 throttling\n"
            "Connection closed by 9.9.9.9 port 1234 [preauth]\n"
        )
        assert main(["classify", "--model-dir", str(model_dir),
                     "--input", str(inp)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("Thermal Issue")
        assert out[1].startswith("SSH-Connection")

    def test_classify_stdin(self, model_dir, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("usb 1-2: new USB device number 9\n"))
        assert main(["classify", "--model-dir", str(model_dir)]) == 0
        assert capsys.readouterr().out.startswith("USB-Device")

    def test_classify_jsonl_output(self, model_dir, tmp_path, capsys):
        inp = tmp_path / "msgs.txt"
        inp.write_text(
            "Warning: Socket 2 - CPU 23 throttling\n"
            "\n"
            "Connection closed by 9.9.9.9 port 1234 [preauth]\n"
        )
        assert main(["classify", "--model-dir", str(model_dir),
                     "--input", str(inp), "--jsonl", "--batch-size", "1"]) == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(rows) == 2
        assert rows[0]["category"] == "Thermal Issue"
        assert {"text", "category", "confidence", "filtered"} <= set(rows[0])

    def test_classify_timing_report(self, model_dir, tmp_path, capsys):
        inp = tmp_path / "msgs.txt"
        inp.write_text("Warning: Socket 2 - CPU 23 throttling\n" * 5)
        assert main(["classify", "--model-dir", str(model_dir),
                     "--input", str(inp), "--timing"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 5
        for stage in ("normalize", "vectorize", "predict", "route", "total"):
            assert stage in captured.err

    def test_classify_batch_chunking_matches_unchunked(
        self, model_dir, tmp_path, capsys
    ):
        inp = tmp_path / "msgs.txt"
        inp.write_text(
            "Warning: Socket 2 - CPU 23 throttling\n"
            "usb 1-2: new USB device number 9\n" * 3
        )
        assert main(["classify", "--model-dir", str(model_dir),
                     "--input", str(inp), "--batch-size", "2"]) == 0
        chunked = capsys.readouterr().out
        assert main(["classify", "--model-dir", str(model_dir),
                     "--input", str(inp), "--batch-size", "500"]) == 0
        assert capsys.readouterr().out == chunked

    def test_classify_streams_stdin(self, model_dir, capsys, monkeypatch):
        """A batch is classified and printed before the next one is read:
        a stdin that breaks past its third line still gets the first
        batch's results out."""

        class BrokenPipe(Exception):
            pass

        def lines():
            yield "Warning: Socket 2 - CPU 23 throttling\n"
            yield "usb 1-2: new USB device number 9\n"
            yield "Connection closed by 9.9.9.9 port 1234 [preauth]\n"
            raise BrokenPipe("read past the third line")

        monkeypatch.setattr("sys.stdin", lines())
        with pytest.raises(BrokenPipe):
            main(["classify", "--model-dir", str(model_dir), "--batch-size", "2"])
        out = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[1] for line in out] == [
            "Warning: Socket 2 - CPU 23 throttling",
            "usb 1-2: new USB device number 9",
        ]

    def test_train_with_blacklist(self, corpus_file, tmp_path, capsys):
        d = tmp_path / "bl-model"
        assert main(["train", "--corpus", str(corpus_file), "--model-dir",
                     str(d), "--blacklist"]) == 0
        assert (d / "blacklist.json").exists()

    def test_bad_corpus_row_errors(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"no_text": 1}\n')
        with pytest.raises(SystemExit, match="bad corpus row"):
            main(["train", "--corpus", str(bad), "--model-dir", str(tmp_path / "m")])

    def test_empty_corpus_errors(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        with pytest.raises(SystemExit, match="empty corpus"):
            main(["evaluate", "--corpus", str(empty)])


class TestEvaluate:
    def test_report_printed(self, corpus_file, capsys):
        assert main(["evaluate", "--corpus", str(corpus_file),
                     "--classifier", "cnb"]) == 0
        out = capsys.readouterr().out
        assert "weighted F1:" in out
        assert "Thermal Issue" in out

    def test_batch_size_does_not_change_result(self, corpus_file, capsys):
        assert main(["evaluate", "--corpus", str(corpus_file),
                     "--classifier", "cnb", "--batch-size", "64"]) == 0
        small = capsys.readouterr().out
        assert main(["evaluate", "--corpus", str(corpus_file),
                     "--classifier", "cnb", "--batch-size", "100000"]) == 0
        assert capsys.readouterr().out == small

    def test_timing_report_on_stderr(self, corpus_file, capsys):
        assert main(["evaluate", "--corpus", str(corpus_file),
                     "--classifier", "cnb", "--timing"]) == 0
        captured = capsys.readouterr()
        assert "vectorize" in captured.err and "predict" in captured.err


class TestTables:
    def test_table1(self, capsys):
        assert main(["tables", "table1", "--scale", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "Thermal Issue" in out

    def test_table2(self, capsys):
        assert main(["tables", "table2", "--scale", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "106552" in out  # paper column

    def test_table3(self, capsys):
        assert main(["tables", "table3"]) == 0
        out = capsys.readouterr().out
        assert "falcon-40b" in out and "0.639" not in out.split()[0]

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            main(["tables", "table99"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestReport:
    def test_report_written_with_all_sections(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "--out", str(out), "--scale", "0.008"]) == 0
        text = out.read_text()
        for heading in ("Table 1", "Table 2", "Figure 3", "Figure 2",
                        "Table 3", "Firmware drift", "adaptation",
                        "correlation"):
            assert heading in text, heading
        assert "falcon-40b" in text


class TestSimulate:
    def test_simulation_runs_and_reports(self, model_dir, capsys):
        assert main(["simulate", "--model-dir", str(model_dir),
                     "--duration", "120", "--rate", "3",
                     "--incident"]) == 0
        out = capsys.readouterr().out
        assert "keeping_up=True" in out
        assert "Tivan overview" in out
        assert "categories" in out

    def test_simulate_via_broker_reports_broker_line(self, model_dir, capsys):
        assert main(["simulate", "--model-dir", str(model_dir),
                     "--duration", "120", "--rate", "3"]) == 0
        out = capsys.readouterr().out
        assert "broker: partitions=" in out
        assert "lag=0" in out
        assert "keeping_up=True" in out

    @pytest.mark.parametrize("value", ["0", "-100"])
    def test_non_positive_duration_refused_at_parse_time(
        self, model_dir, tmp_path, value, capsys
    ):
        """A run of no length is refused by the parser: no traceback out
        of the run, and no durable directory a later ``simulate`` would
        refuse to reuse."""
        with pytest.raises(SystemExit):
            main(["simulate", "--model-dir", str(model_dir),
                  "--duration", value, "--rate", "5",
                  "--wal-dir", str(tmp_path / "wal")])
        assert "must be positive" in capsys.readouterr().err
        assert not (tmp_path / "wal" / "meta.json").exists()

    @pytest.mark.parametrize("value", ["1.5", "-0.2"])
    def test_trace_sample_outside_unit_interval_rejected(
        self, model_dir, value, capsys
    ):
        with pytest.raises(SystemExit):
            main(["simulate", "--model-dir", str(model_dir),
                  "--trace-sample", value])
        assert "must be within 0..1" in capsys.readouterr().err


def _listen(tmp_path, argv, send):
    """Run `listen` on a thread, hand the bound ports to ``send``, and
    return the exit code once the command stopped on its own."""
    import threading
    import time

    port_file = tmp_path / "ports.json"
    result = {}

    def run():
        result["code"] = main([
            "listen", "--max-messages", "120", "--duration", "30",
            "--port-file", str(port_file), *argv,
        ])

    thread = threading.Thread(target=run)
    thread.start()
    deadline = time.monotonic() + 10
    while not port_file.exists():
        assert time.monotonic() < deadline, "listener never bound"
        time.sleep(0.02)
    time.sleep(0.1)
    send(json.loads(port_file.read_text()))
    thread.join(timeout=40)
    assert not thread.is_alive(), "listen command did not exit"
    return result["code"]


def _wire_lines():
    from repro.datagen.sender import wire_lines
    from repro.datagen.workload import standard_simulation_events

    events = standard_simulation_events(
        duration_s=10, background_rate=20, seed=4
    )
    return wire_lines([e.message for e in events[:120]])


class TestListen:
    def test_loopback_smoke(self, tmp_path, capsys):
        """`repro-syslog listen` on loopback: real sockets, real lines,
        full accounting in the summary."""
        from repro.datagen.sender import send_tcp, send_udp

        lines = _wire_lines()

        def send(ports):
            send_udp(("127.0.0.1", ports["udp"]), lines[:60])
            send_tcp(("127.0.0.1", ports["tcp"]), lines[60:120])

        assert _listen(tmp_path, [], send) == 0
        out = capsys.readouterr().out
        assert "received=120" in out
        assert "accounted=True" in out
        assert "lag=0" in out
        assert "indexed=120" in out

    def test_classify_at_ingest_with_template_cache(
        self, model_dir, tmp_path, capsys
    ):
        """`listen --model-dir --template-cache` classifies consumed
        records (regression: records carry SyslogMessage, the pipeline
        needs `.text`) and reports cache accounting."""
        import re

        from repro.datagen.sender import send_tcp

        lines = _wire_lines()
        argv = ["--udp-port", "-1", "--model-dir", str(model_dir),
                "--template-cache", "--cache-size", "64"]
        assert _listen(
            tmp_path, argv,
            lambda ports: send_tcp(("127.0.0.1", ports["tcp"]), lines),
        ) == 0
        out = capsys.readouterr().out
        assert "received=120" in out
        assert "classified=120" in out
        m = re.search(r"cache_hits=(\d+) cache_misses=(\d+)", out)
        assert m, out
        assert int(m.group(1)) + int(m.group(2)) == 120

    def test_traces_cover_every_spine_hop(self, tmp_path, capsys):
        """`listen --trace-sample 1.0` consumes through the forwarder,
        so every trace carries the `fluentd.flush` hop between
        `broker.poll` and the store."""
        from repro.datagen.sender import send_tcp
        from repro.obs import (
            Tracer,
            set_default_tracer,
            trace_is_complete,
        )

        lines = _wire_lines()
        tracer = Tracer()
        previous = set_default_tracer(tracer)
        try:
            assert _listen(
                tmp_path, ["--udp-port", "-1", "--trace-sample", "1.0"],
                lambda ports: send_tcp(("127.0.0.1", ports["tcp"]), lines),
            ) == 0
        finally:
            set_default_tracer(previous)
        capsys.readouterr()
        traces = tracer.traces()
        assert len(traces) == 120
        for spans in traces.values():
            names = [s.name for s in spans]
            assert trace_is_complete(names, journal=False), names

    def test_rejects_no_transports(self):
        with pytest.raises(SystemExit, match="at least one"):
            main(["listen", "--udp-port", "-1", "--tcp-port", "-1"])

    def test_refuses_a_policy_that_sets_a_brownout_ladder(self, tmp_path):
        """The listener has no rung to act on: a ladder would climb and
        report a level while nothing is shed."""
        from repro.control import BrownoutPolicy, ControlPolicy, default_listen_policy

        ladder = ControlPolicy(
            tick_every_s=1.0, levers=default_listen_policy().levers,
            brownout=BrownoutPolicy(),
        )
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(ladder.to_dict()))
        with pytest.raises(SystemExit, match="no brownout ladder"):
            main(["listen", "--udp-port", "0", "--tcp-port", "-1", "--rate-limit", "50",
                  "--control-policy", str(path), "--duration", "0.2"])


class TestMetrics:
    def test_classify_writes_prometheus_file(self, model_dir, tmp_path, capsys):
        from repro.obs import MetricsRegistry, use_registry

        inp = tmp_path / "msgs.txt"
        inp.write_text("Warning: Socket 2 - CPU 23 throttling\n" * 5)
        out = tmp_path / "m.prom"
        # fresh registry: the process default carries counts from every
        # earlier test in this module
        with use_registry(MetricsRegistry()):
            assert main(["classify", "--model-dir", str(model_dir),
                         "--input", str(inp), "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        text = out.read_text()
        assert "# TYPE repro_pipeline_stage_seconds histogram" in text
        assert 'repro_pipeline_stage_seconds_bucket{stage="predict",le="+Inf"}' in text
        assert "repro_pipeline_messages_total 5" in text
        # the full schema is declared even for subsystems that never ran
        assert "repro_stream_fluentd_buffer_depth 0" in text

    def test_classify_writes_json_snapshot(self, model_dir, tmp_path, capsys):
        import json as _json

        inp = tmp_path / "msgs.txt"
        inp.write_text("usb 1-2: new USB device number 9\n")
        out = tmp_path / "m.json"
        assert main(["classify", "--model-dir", str(model_dir),
                     "--input", str(inp), "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        snap = _json.loads(out.read_text())
        assert {m["name"] for m in snap["metrics"]} >= {
            "repro_pipeline_stage_seconds", "repro_pipeline_messages_total"
        }

    def test_metrics_subcommand_renders_file(self, model_dir, tmp_path, capsys):
        inp = tmp_path / "msgs.txt"
        inp.write_text("Warning: Socket 2 - CPU 23 throttling\n" * 3)
        prom = tmp_path / "m.prom"
        assert main(["classify", "--model-dir", str(model_dir),
                     "--input", str(inp), "--metrics-out", str(prom)]) == 0
        capsys.readouterr()
        assert main(["metrics", str(prom)]) == 0
        out = capsys.readouterr().out
        assert "repro_pipeline_stage_seconds{stage=predict}" in out
        assert "n=" in out and "p95=" in out

    def test_metrics_subcommand_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="no such snapshot"):
            main(["metrics", str(tmp_path / "nope.prom")])


class TestAssist:
    def test_summary_task(self, model_dir, capsys):
        assert main(["assist", "summary", "--model-dir", str(model_dir)]) == 0
        out = capsys.readouterr().out
        assert "Cluster status summary" in out
        assert "simulated inference cost" in out

    def test_explain_task(self, model_dir, capsys):
        assert main(["assist", "explain", "--model-dir", str(model_dir),
                     "--host", "cn001"]) == 0
        out = capsys.readouterr().out
        assert "cn001" in out

    def test_reply_task(self, model_dir, capsys):
        assert main(["assist", "reply", "--model-dir", str(model_dir),
                     "--question", "Why is cn001 slow?"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Hello,")
        assert "Why is cn001 slow?" in out
