"""Command-line interface.

The deployment surface of §7: generate corpora, train and persist
classification pipelines, classify message streams, evaluate, and
regenerate the paper's tables — all from the shell.

Subcommands
-----------
``generate``   write a labelled synthetic corpus as JSONL
``train``      fit a pipeline on a JSONL corpus and save it
``classify``   classify messages (file or stdin) with a saved pipeline
``evaluate``   train/test evaluation report on a JSONL corpus
``tables``     regenerate paper artifacts (table1|table2|table3|fig3)
``metrics``    pretty-print a metrics snapshot (file, WAL dir, or ops URL)
``simulate``   run the Tivan stream simulation (``--wal-dir`` = durable)
``listen``     bind a real UDP/TCP syslog listener feeding the broker
``recover``    resume a killed durable simulation from its WAL directory
``trace``      render cross-hop trace waterfalls (checkpoint or live server)

Example
-------
::

    repro-syslog generate --scale 0.01 --out corpus.jsonl
    repro-syslog train --corpus corpus.jsonl --model-dir model/ --classifier cnb
    echo "Warning: Socket 2 - CPU 23 throttling" | repro-syslog classify --model-dir model/
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]

_CLASSIFIERS = {
    "logreg": lambda: _ml().LogisticRegression(max_iter=200),
    "ridge": lambda: _ml().RidgeClassifier(),
    "knn": lambda: _ml().KNeighborsClassifier(),
    "forest": lambda: _ml().RandomForestClassifier(n_estimators=40, max_depth=25),
    "svc": lambda: _ml().LinearSVC(),
    "sgd": lambda: _ml().SGDClassifier(),
    "centroid": lambda: _ml().NearestCentroid(),
    "cnb": lambda: _ml().ComplementNB(),
}


def _ml():
    import repro.ml as ml

    return ml


def _positive_int(value: str) -> int:
    """Argparse type for options that must be a positive integer."""
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


def _fraction(value: str) -> float:
    """Argparse type for options that must lie in 0..1."""
    x = float(value)
    if not 0.0 <= x <= 1.0:
        raise argparse.ArgumentTypeError(f"must be within 0..1, got {x}")
    return x


def _add_cache_flags(p) -> None:
    """The template-dedup cache knobs (classify + simulate + listen)."""
    p.add_argument("--template-cache", action="store_true",
                   help="memoize classify results per masked template "
                        "(exact: cached and uncached results are "
                        "bit-for-bit identical)")
    p.add_argument("--cache-size", type=int, default=4096,
                   help="template-cache LRU capacity (default 4096; "
                        "0 disables)")


def _add_telemetry_flags(p) -> None:
    """The shared end-to-end telemetry knobs (simulate + listen)."""
    p.add_argument("--metrics-port", type=int, default=None,
                   help="serve /metrics, /health, and /trace/<id> on this "
                        "port for the duration of the run (0 = ephemeral; "
                        "the bound port is printed to stderr)")
    p.add_argument("--trace-sample", type=_fraction, default=0.0,
                   help="fraction of accepted messages carrying a cross-hop "
                        "trace context, 0..1 (default 0 = tracing off)")
    p.add_argument("--trace-seed", type=int, default=0,
                   help="seed of the deterministic sampling decision "
                        "(same seed + same message ordinal = same verdict)")
    p.add_argument("--slo-file", type=Path, default=None,
                   help="JSON list of SLO targets driving the /metrics "
                        "burn gauges (default: built-in e2e/loss/quorum "
                        "targets; requires --metrics-port)")


def _add_control_flags(p) -> None:
    """The closed-loop control-plane knobs (simulate + listen)."""
    p.add_argument("--control", action="store_true",
                   help="attach the closed-loop overload controller "
                        "(autoscaling + backpressure + brownout) with "
                        "the built-in policy")
    p.add_argument("--control-policy", type=Path, default=None,
                   help="JSON control policy file driving the "
                        "controller (implies --control; see "
                        "repro.control.ControlPolicy)")


def _control_policy(args, *, listen: bool = False):
    """Resolve --control/--control-policy into a ControlPolicy or None."""
    from repro.control import (
        default_listen_policy,
        default_policy,
        load_policy_file,
    )

    path = args.control_policy
    if path is not None:
        try:
            return load_policy_file(path)
        except (OSError, ValueError, KeyError, TypeError) as e:
            raise SystemExit(f"{path}: bad control policy: {e}")
    if args.control:
        return default_listen_policy() if listen else default_policy()
    return None


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-syslog",
        description="Heterogeneous syslog analysis (SC'23 SYSPROS reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a labelled synthetic corpus (JSONL)")
    p.add_argument("--scale", type=float, default=0.01,
                   help="fraction of the paper's 196k-message dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True, help="output JSONL path")

    p = sub.add_parser("train", help="fit and persist a classification pipeline")
    p.add_argument("--corpus", type=Path, required=True, help="JSONL corpus")
    p.add_argument("--model-dir", type=Path, required=True)
    p.add_argument("--classifier", choices=sorted(_CLASSIFIERS), default="cnb")
    p.add_argument("--max-features", type=int, default=2000)
    p.add_argument("--blacklist", action="store_true",
                   help="attach the §5.1 noise blacklist pre-filter")
    p.add_argument("--hashing", action="store_true",
                   help="use the stateless hashed-feature vectorizer "
                        "instead of a learned TF-IDF vocabulary")

    p = sub.add_parser("classify", help="classify messages with a saved pipeline")
    p.add_argument("--model-dir", type=Path, required=True)
    p.add_argument("--input", type=Path, default=None,
                   help="file of messages, one per line (default: stdin)")
    p.add_argument("--batch-size", type=_positive_int, default=500,
                   help="messages classified per batch (input is "
                        "streamed, never fully buffered)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="shard batches across this many worker processes")
    p.add_argument("--jsonl", action="store_true",
                   help="emit one JSON object per message instead of "
                        "the human-readable line format")
    p.add_argument("--timing", action="store_true",
                   help="print the per-stage timing report to stderr")
    p.add_argument("--metrics-out", type=Path, default=None,
                   help="write a metrics snapshot on exit (Prometheus "
                        "text for .prom/.txt, JSON otherwise)")
    _add_cache_flags(p)

    p = sub.add_parser("evaluate", help="train/test evaluation on a corpus")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--classifier", choices=sorted(_CLASSIFIERS), default="cnb")
    p.add_argument("--test-size", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-features", type=int, default=2000)
    p.add_argument("--batch-size", type=_positive_int, default=1000,
                   help="test messages classified per batch")
    p.add_argument("--timing", action="store_true",
                   help="print the per-stage timing report to stderr")
    p.add_argument("--metrics-out", type=Path, default=None,
                   help="write a metrics snapshot on exit (Prometheus "
                        "text for .prom/.txt, JSON otherwise)")

    p = sub.add_parser(
        "metrics",
        help="pretty-print a metrics snapshot written with --metrics-out",
    )
    p.add_argument("snapshot",
                   help="snapshot file (.prom/.txt Prometheus text, "
                        "or the JSON form), a durable-run WAL "
                        "directory (renders the newest checkpoint's "
                        "embedded metrics), or the http://host:port "
                        "URL of a --metrics-port ops server")
    p.add_argument("--watch", type=_positive_int, default=None, metavar="N",
                   help="re-read the source and re-render every N "
                        "seconds until interrupted")
    p.add_argument("--count", type=_positive_int, default=None,
                   help="with --watch: stop after this many renders")

    p = sub.add_parser("tables", help="regenerate a paper artifact")
    p.add_argument("artifact", choices=["table1", "table2", "table3", "fig3"])
    p.add_argument("--scale", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "simulate",
        help="run the Tivan stream simulation with a saved pipeline",
    )
    p.add_argument("--model-dir", type=Path, required=True)
    p.add_argument("--duration", type=float, default=600.0,
                   help="simulated seconds of stream")
    p.add_argument("--rate", type=float, default=5.0,
                   help="background messages per second")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--incident", action="store_true",
                   help="inject a cold-aisle thermal incident mid-run")
    p.add_argument("--fault-plan", type=Path, default=None,
                   help="JSON fault plan armed on the stream and "
                        "classification layers (see repro.faults)")
    p.add_argument("--flush-retries", type=_positive_int, default=None,
                   help="bounded flush retry budget; a head batch "
                        "failing this many times in a row is "
                        "dead-lettered (default: retry forever)")
    p.add_argument("--degrade-backlog", type=_positive_int, default=None,
                   help="classifier backlog at which the cluster sheds "
                        "load to the cheap blacklist path")
    p.add_argument("--store-nodes", type=_positive_int, default=None,
                   help="index through a replicated store over this "
                        "many nodes (default: single in-process store)")
    p.add_argument("--replicas", type=int, default=1,
                   help="copies per shard beyond the primary "
                        "(replicated store only; default 1)")
    p.add_argument("--write-quorum", type=_positive_int, default=None,
                   help="owner copies a write must land on (W; "
                        "default: majority of replicas+1)")
    p.add_argument("--read-quorum", type=_positive_int, default=None,
                   help="owner copies a read must consult (R; "
                        "default: majority of replicas+1)")
    p.add_argument("--metrics-out", type=Path, default=None,
                   help="write a metrics snapshot on exit (Prometheus "
                        "text for .prom/.txt, JSON otherwise)")
    p.add_argument("--wal-dir", type=Path, default=None,
                   help="make the run durable: write-ahead log and "
                        "checkpoints in this directory (resume a "
                        "killed run with `repro-syslog recover`)")
    p.add_argument("--checkpoint-every", type=float, default=60.0,
                   help="simulated seconds between checkpoints "
                        "(durable runs only)")
    p.add_argument("--fsync", choices=["always", "batch", "off"],
                   default="batch",
                   help="WAL fsync policy (durable runs only)")
    p.add_argument("--broker-partitions", type=_positive_int, default=None,
                   help="hash hosts onto this many partitions instead "
                        "of one per host (incompatible with --wal-dir)")
    p.add_argument("--consumers", type=_positive_int, default=1,
                   help="consumer-group members sharing the partitions "
                        "(durable runs need 1)")
    p.add_argument("--load-profile",
                   choices=["standard", "surge", "diurnal", "constant"],
                   default="standard",
                   help="offered-load shape: the standard trace, a "
                        "--load-swing step surge for the middle third, "
                        "a sinusoidal diurnal sweep, or constant Poisson")
    p.add_argument("--load-swing", type=float, default=10.0,
                   help="peak/base offered-load ratio for surge/diurnal "
                        "profiles (default 10)")
    _add_cache_flags(p)
    _add_telemetry_flags(p)
    _add_control_flags(p)

    p = sub.add_parser(
        "listen",
        help="bind a real UDP/TCP syslog listener feeding the broker",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default loopback)")
    p.add_argument("--udp-port", type=int, default=0,
                   help="UDP port (0 = ephemeral, -1 = disabled)")
    p.add_argument("--tcp-port", type=int, default=0,
                   help="TCP port (0 = ephemeral, -1 = disabled)")
    p.add_argument("--rate-limit", type=float, default=None,
                   help="admit rate, messages/second, shared across "
                        "tenants (host/app keys) by deficit-round-robin "
                        "fairness; over it lines are shed "
                        "(default: unlimited)")
    p.add_argument("--burst", type=float, default=None,
                   help="admission pool (default: one second of rate); "
                        "any window of T seconds admits at most "
                        "rate*T + burst + sum(max(1, burst/j), j=1..n) "
                        "lines for n tenants tracked")
    p.add_argument("--max-line-bytes", type=_positive_int, default=8192,
                   help="oversize quarantine threshold")
    p.add_argument("--partitions", type=_positive_int, default=None,
                   help="hash hosts onto this many broker partitions "
                        "(default: one per host)")
    p.add_argument("--duration", type=float, default=None,
                   help="stop after this many wall-clock seconds "
                        "(default: run until --max-messages or ^C)")
    p.add_argument("--max-messages", type=_positive_int, default=None,
                   help="stop once this many lines were received")
    p.add_argument("--port-file", type=Path, default=None,
                   help="write the bound ports as JSON once listening "
                        "(handshake for scripted senders; includes the "
                        "metrics port when --metrics-port is set)")
    p.add_argument("--model-dir", type=Path, default=None,
                   help="classify consumed messages with this saved "
                        "pipeline and store their categories")
    _add_cache_flags(p)
    _add_telemetry_flags(p)
    _add_control_flags(p)

    p = sub.add_parser(
        "trace",
        help="render cross-hop trace waterfalls from a durable run "
             "or a live ops server",
    )
    p.add_argument("trace_id", nargs="?", default=None,
                   help="32-hex trace id to render (default: list the "
                        "traces the source holds)")
    p.add_argument("--wal-dir", type=Path, default=None,
                   help="durable-run WAL directory; spans come from the "
                        "newest checkpoint (run with --trace-sample > 0)")
    p.add_argument("--url", default=None,
                   help="http://host:port of a running --metrics-port "
                        "ops server (fetches /trace endpoints)")
    p.add_argument("--limit", type=_positive_int, default=10,
                   help="traces listed when no trace id is given")

    p = sub.add_parser(
        "recover",
        help="resume a durable simulation from its WAL directory",
    )
    p.add_argument("--wal-dir", type=Path, required=True,
                   help="directory of a simulate --wal-dir run")
    p.add_argument("--store-nodes", type=_positive_int, default=None,
                   help="override the run's replicated-store node "
                        "count (default: the value in meta.json)")
    p.add_argument("--replicas", type=int, default=None,
                   help="override the run's replica count")
    p.add_argument("--write-quorum", type=_positive_int, default=None,
                   help="override the run's write quorum (W)")
    p.add_argument("--read-quorum", type=_positive_int, default=None,
                   help="override the run's read quorum (R)")
    p.add_argument("--metrics-out", type=Path, default=None,
                   help="write a metrics snapshot on exit (Prometheus "
                        "text for .prom/.txt, JSON otherwise)")

    p = sub.add_parser(
        "report",
        help="run every experiment and write a paper-vs-measured report",
    )
    p.add_argument("--out", type=Path, required=True, help="markdown output path")
    p.add_argument("--scale", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "assist",
        help="run a §7 assistant task over a simulated collection window",
    )
    p.add_argument("task", choices=["summary", "explain", "reply"])
    p.add_argument("--model-dir", type=Path, required=True,
                   help="saved classification pipeline for labelling")
    p.add_argument("--host", default="cn001", help="node for explain/reply")
    p.add_argument("--question", default="Is the cluster healthy?",
                   help="admin question for the reply task")
    p.add_argument("--llm", default="Llama-2-70b-chat-hf")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _read_corpus(path: Path):
    from repro.core.taxonomy import Category

    texts: list[str] = []
    labels: list = []
    with path.open() as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                texts.append(row["text"])
                labels.append(Category.from_name(row["label"]))
            except (json.JSONDecodeError, KeyError) as e:
                raise SystemExit(f"{path}:{i + 1}: bad corpus row: {e}")
    if not texts:
        raise SystemExit(f"{path}: empty corpus")
    return texts, labels


def _cmd_generate(args) -> int:
    from repro.datagen.generator import CorpusGenerator

    corpus = CorpusGenerator(scale=args.scale, seed=args.seed).generate()
    with args.out.open("w") as fh:
        for msg, label in zip(corpus.messages, corpus.labels):
            fh.write(json.dumps({
                "text": msg.text,
                "label": label.value,
                "hostname": msg.hostname,
                "app": msg.app,
                "timestamp": msg.timestamp,
            }) + "\n")
    counts = ", ".join(f"{c.name}={n}" for c, n in corpus.counts().items())
    print(f"wrote {len(corpus)} messages to {args.out} ({counts})")
    return 0


def _cmd_train(args) -> int:
    from repro.buckets.blacklist import BlacklistFilter
    from repro.core.pipeline import ClassificationPipeline
    from repro.core.serialize import save_pipeline
    from repro.textproc.tfidf import HashingVectorizer, TfidfVectorizer

    texts, labels = _read_corpus(args.corpus)
    vectorizer = (
        HashingVectorizer()
        if args.hashing
        else TfidfVectorizer(max_features=args.max_features)
    )
    pipe = ClassificationPipeline(
        vectorizer=vectorizer,
        classifier=_CLASSIFIERS[args.classifier](),
        blacklist=BlacklistFilter(threshold=3) if args.blacklist else None,
    )
    pipe.fit(texts, labels)
    save_pipeline(pipe, args.model_dir)
    print(f"trained {args.classifier} on {len(texts)} messages "
          f"-> {args.model_dir}")
    return 0


def _write_metrics(path: Path) -> None:
    """Write the process registry to ``path`` (format by extension)."""
    from repro.obs import write_snapshot
    from repro.obs.wellknown import declare_all

    # declare the full schema first so every snapshot carries all
    # well-known families, zero-valued where a subsystem never ran
    declare_all()
    print(f"wrote metrics snapshot to {write_snapshot(path)}", file=sys.stderr)


def _emit_result(result, *, jsonl: bool) -> None:
    if jsonl:
        print(json.dumps({
            "text": result.text,
            "category": result.category.value,
            "confidence": result.confidence,
            "filtered": result.filtered,
            "quarantined": result.quarantined,
        }))
        return
    conf = f" ({result.confidence:.2f})" if result.confidence is not None else ""
    flag = " [blacklisted]" if result.filtered else ""
    if result.quarantined:
        flag = " [quarantined]"
    print(f"{result.category.value}{conf}{flag}\t{result.text}")


def _attach_cache(pipe, args) -> None:
    """Attach a :class:`TemplateCache` when ``--template-cache`` is set."""
    if args.template_cache:
        from repro.core.template_cache import TemplateCache

        pipe.template_cache = TemplateCache(max_entries=args.cache_size)


def _cmd_classify(args) -> int:
    from contextlib import ExitStack, nullcontext

    from repro.core.serialize import load_pipeline
    from repro.runtime import MessageBatch, ShardedExecutor

    pipe = load_pipeline(args.model_dir)
    # attached before the executor exists, so sharded workers each
    # inherit their own per-worker copy of the cache
    _attach_cache(pipe, args)
    with ExitStack() as stack:
        runner = pipe
        if args.workers > 1:
            runner = stack.enter_context(
                ShardedExecutor(pipe, n_workers=args.workers,
                                chunk_size=max(1, args.batch_size // args.workers),
                                min_parallel=args.batch_size)
            )
        stream = stack.enter_context(
            args.input.open() if args.input else nullcontext(sys.stdin)
        )
        for batch in MessageBatch.read_lines(stream, args.batch_size):
            for result in runner.classify_batch(batch):
                _emit_result(result, jsonl=args.jsonl)
    if args.timing:
        print(pipe.timing_report().render(), file=sys.stderr)
        if pipe.template_cache is not None:
            if args.workers > 1:
                # the workers hold the caches; their counter deltas are
                # mirrored into the parent registry under worker=<pid>,
                # so sum across every worker label
                from repro.obs import wellknown

                def _total(family) -> int:
                    return int(sum(c.value for _, c in family().samples()))

                hits = _total(wellknown.template_cache_hits)
                misses = _total(wellknown.template_cache_misses)
                st = {
                    "hits": hits,
                    "misses": misses,
                    "hit_rate": hits / max(1, hits + misses),
                    "size": _total(wellknown.template_cache_size),
                    "evictions": _total(wellknown.template_cache_evictions),
                }
            else:
                st = pipe.template_cache.stats()
            print(
                f"template cache: hits={st['hits']} misses={st['misses']} "
                f"hit_rate={st['hit_rate']:.3f} size={st['size']} "
                f"evictions={st['evictions']}",
                file=sys.stderr,
            )
    if args.metrics_out:
        _write_metrics(args.metrics_out)
    return 0


def _cmd_evaluate(args) -> int:
    import numpy as np

    from repro.core.pipeline import ClassificationPipeline
    from repro.ml import classification_report, train_test_split, weighted_f1_score
    from repro.runtime import MessageBatch
    from repro.textproc.tfidf import TfidfVectorizer

    texts, labels = _read_corpus(args.corpus)
    y = np.asarray([lab.value for lab in labels])
    tr_txt, te_txt, y_tr, y_te = train_test_split(
        texts, y, test_size=args.test_size, seed=args.seed
    )
    pipe = ClassificationPipeline(
        vectorizer=TfidfVectorizer(max_features=args.max_features),
        classifier=_CLASSIFIERS[args.classifier](),
    )
    pipe.fit(list(tr_txt), list(y_tr))
    pred = np.asarray([
        r.category.value
        for chunk in MessageBatch.of_texts(te_txt).chunks(args.batch_size)
        for r in pipe.classify_batch(chunk)
    ])
    print(classification_report(y_te, pred))
    print(f"\nweighted F1: {weighted_f1_score(y_te, pred):.4f}")
    if args.timing:
        print(pipe.timing_report().render(), file=sys.stderr)
    if args.metrics_out:
        _write_metrics(args.metrics_out)
    return 0


def _http_get(url: str) -> str:
    from urllib.request import urlopen

    try:
        with urlopen(url, timeout=10.0) as resp:
            return resp.read().decode("utf-8")
    except OSError as e:
        raise SystemExit(f"{url}: {e}")


def _render_metrics_source(source: str) -> str:
    """One metrics render from a file, WAL directory, or ops URL."""
    from repro.monitor.dashboard import render_metrics_panel
    from repro.obs import load_snapshot, parse_prometheus

    if source.startswith(("http://", "https://")):
        url = source.rstrip("/")
        if not url.endswith("/metrics"):
            url += "/metrics"
        return render_metrics_panel(parse_prometheus(_http_get(url)), title=url)
    path = Path(source)
    if not path.exists():
        raise SystemExit(f"{path}: no such snapshot file")
    if path.is_dir():
        # a durable-run WAL directory: render the metrics snapshot the
        # newest valid checkpoint carries
        from repro.durability import load_latest_checkpoint

        payload, ckpt = load_latest_checkpoint(path)
        if payload is None:
            raise SystemExit(f"{path}: no valid checkpoint in directory")
        return render_metrics_panel(payload["metrics"], title=str(ckpt))
    try:
        snapshot = load_snapshot(path)
    except ValueError as e:
        raise SystemExit(f"{path}: {e}")
    return render_metrics_panel(snapshot, title=str(path))


def _cmd_metrics(args) -> int:
    import itertools
    import time

    try:
        for i in itertools.count():
            if i:
                time.sleep(args.watch)
                if sys.stdout.isatty():
                    print("\x1b[2J\x1b[H", end="")
            print(_render_metrics_source(args.snapshot))
            if args.watch is None:
                break
            if args.count is not None and i + 1 >= args.count:
                break
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_tables(args) -> int:
    from repro.experiments.common import format_table

    if args.artifact == "table1":
        from repro.experiments.table1 import run_table1, table1_layout

        layout = table1_layout(run_table1(scale=args.scale, seed=args.seed))
    elif args.artifact == "table2":
        from repro.experiments.table2 import run_table2, table2_layout

        layout = table2_layout(run_table2(scale=args.scale, seed=args.seed))
    elif args.artifact == "table3":
        from repro.experiments.table3 import run_table3, table3_layout

        layout = table3_layout(run_table3())
    else:  # fig3
        from repro.experiments.classifiers import fig3_layout, run_classifier_comparison
        from repro.experiments.common import ExperimentData

        data = ExperimentData(scale=args.scale, seed=args.seed)
        layout = fig3_layout(run_classifier_comparison(data))
    print(format_table(*layout))
    return 0


def _start_ops(args):
    """Started :class:`OpsServer` from ``--metrics-port``, or None."""
    port = args.metrics_port
    if port is None:
        return None
    from repro.obs import OpsServer, SloTracker, default_slos, load_slo_file

    slo_path = args.slo_file
    try:
        targets = load_slo_file(slo_path) if slo_path else default_slos()
    except (OSError, ValueError, KeyError) as e:
        raise SystemExit(f"{slo_path}: bad SLO file: {e}")
    server = OpsServer(port=port, slo_tracker=SloTracker(targets)).start()
    print(
        f"ops: serving /metrics /health /trace at {server.url}",
        file=sys.stderr,
    )
    return server


def _build_injector(plan_path):
    """FaultInjector from a ``--fault-plan`` file, or None."""
    from repro.faults import FaultInjector, FaultPlan

    if plan_path is None:
        return None
    try:
        plan = FaultPlan.from_file(plan_path)
    except (OSError, ValueError, KeyError) as e:
        raise SystemExit(f"{plan_path}: bad fault plan: {e}")
    return FaultInjector(plan)


def _run_simulation(config, *, wal_dir=None, injector=None):
    """Build and run the simulation ``config`` describes (simulate/assist).

    Returns ``(cluster, report, conservation)``.  With ``wal_dir`` the
    run is durable: state goes through :mod:`repro.durability` and a
    killed run can be resumed with ``repro-syslog recover``.
    """
    from repro.durability import build_cluster, resume_simulation, run_to_completion

    if wal_dir is not None and (wal_dir / "meta.json").exists():
        raise SystemExit(
            f"{wal_dir}: already holds a durable run — resume it "
            f"with `repro-syslog recover --wal-dir {wal_dir}`"
        )
    try:
        if wal_dir is None:
            cluster = build_cluster(config, injector=injector)
            cluster.load_events(config.events())
        else:
            # meta.json is written only once the build accepted the
            # config: a refused combination leaves nothing to resume
            cluster, _config, _journal = resume_simulation(
                wal_dir, injector=injector, config=config
            )
    except ValueError as e:
        raise SystemExit(str(e))
    report, conservation = run_to_completion(cluster, config)
    return cluster, report, conservation


def _cmd_simulate(args) -> int:
    from repro.durability import SimConfig
    from repro.monitor.dashboard import render_overview

    policy = _control_policy(args)
    config = SimConfig(
        duration_s=args.duration, rate=args.rate, seed=args.seed,
        incident=args.incident, fsync=args.fsync,
        checkpoint_every_s=args.checkpoint_every,
        flush_retry_limit=args.flush_retries,
        degrade_backlog=args.degrade_backlog,
        model_dir=str(args.model_dir),
        store_nodes=args.store_nodes, store_replicas=args.replicas,
        write_quorum=args.write_quorum, read_quorum=args.read_quorum,
        broker_partitions=args.broker_partitions,
        n_consumers=args.consumers,
        trace_sample=args.trace_sample, trace_seed=args.trace_seed,
        template_cache=args.cache_size if args.template_cache else None,
        load_profile=args.load_profile, load_swing=args.load_swing,
        # the policy rides meta.json; every resume rebinds it and
        # restores the journaled controller state (WAL "control"
        # records), so crashed control runs keep their setpoints
        control=policy.to_dict() if policy is not None else None,
    )
    injector = _build_injector(args.fault_plan)
    server = _start_ops(args)
    try:
        cluster, report, conservation = _run_simulation(
            config, wal_dir=args.wal_dir, injector=injector
        )
    finally:
        # the ops thread exists to be scraped *during* the run; stop it
        # before printing so a crash mid-simulation also tears it down
        if server is not None:
            server.stop()
    print(report.headline())
    stats = cluster.forwarder.stats
    if injector is not None or report.degrade_transitions:
        print(
            f"faults: injected={dict(injector.fire_counts()) if injector else {}} "
            f"failed_flushes={stats.failed_flushes} "
            f"abandoned={stats.abandoned_messages} "
            f"dead_lettered={len(cluster.forwarder.dead_letters)}"
        )
    if report.degrade_transitions:
        print(
            f"degraded: classified_degraded={report.classified_degraded} "
            f"transitions={report.degrade_transitions}"
        )
    if cluster.controller is not None:
        print(
            f"control: ticks={report.control_ticks} "
            f"actuations={report.control_actuations} "
            f"flips={report.control_flips} "
            f"worker_seconds={report.control_worker_seconds:.1f} "
            f"brownout_level={report.brownout_level} "
            f"brownout_changes={report.brownout_changes} "
            f"shed={report.shed_messages}"
        )
    if args.template_cache:
        import os

        from repro.obs import wellknown

        worker = str(os.getpid())
        hits = wellknown.template_cache_hits().value(worker=worker)
        misses = wellknown.template_cache_misses().value(worker=worker)
        total = hits + misses
        print(
            f"template cache: hits={int(hits)} misses={int(misses)} "
            f"hit_rate={hits / total if total else 0.0:.3f} "
            f"evictions="
            f"{int(wellknown.template_cache_evictions().value(worker=worker))}"
        )
    print(
        f"broker: partitions={report.broker_partitions} "
        f"published={report.broker_published} "
        f"publish_refused={report.broker_publish_refused} "
        f"polled={report.broker_polled} lag={report.broker_lag} "
        f"commits_lost={report.broker_commits_lost} "
        f"stalls={report.broker_partition_stalls}"
    )
    if hasattr(cluster.store, "node_health"):
        rows = cluster.store.node_health()
        up = sum(1 for r in rows if r["up"])
        print(
            f"store: nodes={len(rows)} up={up} "
            f"W={cluster.store.write_quorum} R={cluster.store.read_quorum} "
            f"hints_pending={cluster.store.hints_pending}"
        )
    if conservation is not None:
        print(conservation.render())
    print()
    print(render_overview(cluster.store, interval_s=max(args.duration / 12, 1.0)))
    if args.metrics_out:
        _write_metrics(args.metrics_out)
    return 0


def _cmd_assist(args) -> int:
    from repro.durability import SimConfig
    from repro.llm.assistant import AdminAssistant
    from repro.llm.models import model_spec

    cluster, _report, _conservation = _run_simulation(SimConfig(
        duration_s=600.0, rate=5.0, seed=args.seed, incident=True,
        model_dir=str(args.model_dir),
    ))
    assistant = AdminAssistant(spec=model_spec(args.llm))
    if args.task == "summary":
        reply = assistant.summarize_status(cluster.store)
    elif args.task == "explain":
        reply = assistant.explain_node(cluster.store, args.host)
    else:
        reply = assistant.draft_admin_reply(args.question, cluster.store, args.host)
    print(reply.text)
    print(f"\n[simulated inference cost: {reply.timing.total_s:.1f}s "
          f"on {reply.timing.n_gpus} GPU(s)]")
    return 0


def _cmd_recover(args) -> int:
    from dataclasses import replace

    from repro.durability import SimConfig, resume_simulation, run_to_completion

    overrides = {
        "store_nodes": args.store_nodes,
        "store_replicas": args.replicas,
        "write_quorum": args.write_quorum,
        "read_quorum": args.read_quorum,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    try:
        config = None
        if overrides:
            # the new topology is persisted (so later resumes agree
            # with it) only once the rebuild accepted it
            config = replace(SimConfig.load(args.wal_dir), **overrides)
        cluster, config, journal = resume_simulation(
            args.wal_dir, config=config
        )
    except (FileNotFoundError, ValueError) as e:
        raise SystemExit(str(e))
    report, conservation = run_to_completion(cluster, config)
    print(
        f"recovered: scanned={journal.wal.recovery.records} WAL records "
        f"(truncated {journal.wal.recovery.truncated_bytes} torn bytes)"
    )
    print(report.headline())
    print(conservation.render())
    if args.metrics_out:
        _write_metrics(args.metrics_out)
    return 0 if conservation.ok else 1


def _cmd_listen(args) -> int:
    """Real-socket intake: listener → broker → forwarder → store.

    Binds the asyncio listener on loopback (or ``--host``), publishes
    accepted messages into a :class:`LogBroker`, and drains it through
    a :class:`FluentdForwarder` into an in-process
    :class:`LogStore` — the assembly ``benchmarks/spine`` measures.
    Stops on ``--duration`` seconds, after ``--max-messages`` received
    lines, or Ctrl-C; then prints the full accounting.
    """
    import asyncio
    import time

    from repro.ingest import LogBroker, SyslogListener
    from repro.stream.events import EventEngine
    from repro.stream.fluentd import FluentdForwarder, classifying_sink, settle
    from repro.stream.opensearch import LogStore

    if args.udp_port < 0 and args.tcp_port < 0:
        raise SystemExit("at least one of --udp-port/--tcp-port must be enabled")

    sampler = None
    if args.trace_sample > 0.0:
        from repro.obs import TraceSampler

        sampler = TraceSampler(args.trace_sample, seed=args.trace_seed)

    pipe = None
    if args.model_dir is not None:
        from repro.core.serialize import load_pipeline

        pipe = load_pipeline(args.model_dir)
        _attach_cache(pipe, args)

    tenant_quota = None
    if args.rate_limit is not None:
        from repro.ingest import DeficitRoundRobin

        # the door's one admission valve: the aggregate budget, dealt
        # round-robin across host/app keys
        tenant_quota = DeficitRoundRobin(args.rate_limit, args.burst)

    broker = LogBroker(n_partitions=args.partitions)
    store = LogStore()
    forwarder = FluentdForwarder(
        engine=EventEngine(), sink=classifying_sink(store, pipe), broker=broker,
        consumer_group="cli", consumer_member="cli-0", clock=time.time,
    )
    listener = SyslogListener(
        broker,
        host=args.host,
        udp_port=None if args.udp_port < 0 else args.udp_port,
        tcp_port=None if args.tcp_port < 0 else args.tcp_port,
        tenant_quota=tenant_quota,
        max_line_bytes=args.max_line_bytes,
        trace_sampler=sampler,
    )
    control_policy = _control_policy(args, listen=True)
    controller = None
    if control_policy is not None:
        from repro.control import Controller, ListenerRateActuator

        if control_policy.brownout is not None:
            raise SystemExit(
                "listen mode has no brownout ladder, the policy sets one"
            )
        if tenant_quota is None:
            raise SystemExit(
                "the 'listener_rate' lever needs --rate-limit to "
                "create the admission valve it actuates"
            )
        controller = Controller(control_policy)
        for lever_policy in control_policy.levers:
            if lever_policy.name != "listener_rate":
                raise SystemExit(
                    f"listen mode can only bind the 'listener_rate' "
                    f"lever, policy names {lever_policy.name!r}"
                )
            controller.bind(lever_policy.name, ListenerRateActuator(tenant_quota))
    server = _start_ops(args)

    async def serve() -> None:
        await listener.start()
        ports = {
            "udp": listener.udp_address[1] if listener.udp_address else None,
            "tcp": listener.tcp_address[1] if listener.tcp_address else None,
            "metrics": server.port if server is not None else None,
        }
        print(f"listening: udp={ports['udp']} tcp={ports['tcp']} "
              f"metrics={ports['metrics']}")
        if args.port_file is not None:
            args.port_file.write_text(json.dumps(ports) + "\n")
        loop = asyncio.get_running_loop()
        deadline = (
            loop.time() + args.duration if args.duration is not None else None
        )
        # batched listener counters flush on a timer too, so /metrics
        # scrapes see trickle traffic, not just every-1024th-line syncs
        next_sync = loop.time() + 1.0
        next_control = (
            loop.time() + controller.policy.tick_every_s
            if controller is not None else None
        )
        try:
            while True:
                await asyncio.sleep(0.05)
                forwarder.consume()
                if loop.time() >= next_sync:
                    listener.sync_metrics()
                    next_sync = loop.time() + 1.0
                if next_control is not None and loop.time() >= next_control:
                    # counters must be registry-fresh before the read
                    listener.sync_metrics()
                    controller.tick(loop.time())
                    next_control = (
                        loop.time() + controller.policy.tick_every_s
                    )
                if deadline is not None and loop.time() >= deadline:
                    break
                if (
                    args.max_messages is not None
                    and listener.stats.received >= args.max_messages
                ):
                    break
        except KeyboardInterrupt:
            pass
        finally:
            await listener.stop()
            settle([forwarder])

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    finally:
        if server is not None:
            server.stop()
    s = listener.stats
    print(
        f"received={s.received} (udp={s.received_udp} tcp={s.received_tcp}) "
        f"accepted={s.accepted} shed={s.shed} oversize={s.oversize} "
        f"parse_errors={s.parse_errors} publish_refused={s.publish_refused} "
        f"accounted={s.accounted()}"
    )
    if tenant_quota is not None:
        print(f"tenants: active={len(tenant_quota)}")
    print(
        f"broker: partitions={len(broker.partitions)} "
        f"published={broker.stats.published} polled={broker.stats.polled} "
        f"lag={broker.lag('cli')} indexed={len(store)}"
    )
    if pipe is not None:
        line = f"classified={pipe.n_classified}"
        if pipe.template_cache is not None:
            st = pipe.template_cache.stats()
            line += (
                f" cache_hits={st['hits']} cache_misses={st['misses']} "
                f"hit_rate={st['hit_rate']:.3f}"
            )
        print(line)
    if controller is not None:
        cs = controller.stats()
        print(
            f"control: ticks={cs['ticks']} "
            f"actuations={sum(cs['actuations'].values())} "
            f"flips={sum(cs['flips'].values())} "
            f"rate={tenant_quota.rate:.0f}"
        )
    if len(listener.dead_letters):
        print(f"dead_letters={len(listener.dead_letters)}")
    return 0


def _print_trace_index(index: list, *, limit: int) -> None:
    if not index:
        print("(no traces)")
        return
    shown = sorted(index, key=lambda r: (-r["hops"], r["trace_id"]))[:limit]
    print(f"{len(index)} trace(s); showing {len(shown)} "
          f"(pass a trace id for its waterfall)")
    for row in shown:
        print(f"  {row['trace_id']}  hops={row['hops']} "
              f"span={row['span_s']:.3f}s  {' > '.join(row['names'])}")


def _cmd_trace(args) -> int:
    """Render trace waterfalls from a checkpoint or a live ops server."""
    from repro.obs import Tracer, render_waterfall

    if (args.wal_dir is None) == (args.url is None):
        raise SystemExit("exactly one of --wal-dir/--url is required")

    if args.url is not None:
        base = args.url.rstrip("/")
        if args.trace_id:
            body = _http_get(f"{base}/trace/{args.trace_id}")
            print(body, end="" if body.endswith("\n") else "\n")
        else:
            _print_trace_index(json.loads(_http_get(f"{base}/trace")),
                               limit=args.limit)
        return 0

    from repro.durability import load_latest_checkpoint

    payload, path = load_latest_checkpoint(args.wal_dir)
    if payload is None:
        raise SystemExit(f"{args.wal_dir}: no valid checkpoint in directory")
    spans = payload.get("spans") or []
    if not spans:
        raise SystemExit(
            f"{path}: checkpoint carries no trace spans "
            f"(simulate with --trace-sample > 0)"
        )
    tracer = Tracer()
    tracer.adopt(spans)
    traces = tracer.traces()
    if args.trace_id:
        if args.trace_id not in traces:
            raise SystemExit(f"trace {args.trace_id}: not found in {path}")
        print(render_waterfall(traces[args.trace_id]))
        return 0
    _print_trace_index(tracer.index(), limit=args.limit)
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.report import write_report

    path = write_report(args.out, scale=args.scale, seed=args.seed)
    print(f"wrote experiment report to {path}")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "classify": _cmd_classify,
    "evaluate": _cmd_evaluate,
    "metrics": _cmd_metrics,
    "tables": _cmd_tables,
    "simulate": _cmd_simulate,
    "listen": _cmd_listen,
    "trace": _cmd_trace,
    "recover": _cmd_recover,
    "assist": _cmd_assist,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `repro-syslog metrics f | head`);
        # the downstream closing early is not an error worth a traceback
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
