#!/usr/bin/env python3
"""The §7 future-work tasks: where LLMs do earn their keep.

Runs a short simulated collection window with an incident, classifies
it, then exercises the three "low frequency tasks" the paper proposes
for LLMs — status summarization, per-node explanation, and admin-email
reply drafting — with the cost model pricing each call against the
per-message classification the paper rejects.

Run:  python examples/assistant_tasks.py
"""

from repro.core import Category, ClassificationPipeline
from repro.datagen import CorpusGenerator, Incident, generate_stream
from repro.llm import AdminAssistant, model_spec
from repro.ml import LogisticRegression
from repro.stream import TivanCluster
from repro.stream.tivan import ClassifierStage


def main() -> None:
    print("Simulating a collection window with a thermal incident...")
    history = CorpusGenerator(scale=0.01, seed=5).generate()
    pipeline = ClassificationPipeline(classifier=LogisticRegression(max_iter=150))
    pipeline.fit(history.texts, history.labels)

    events = generate_stream(
        duration_s=900.0, background_rate=5.0, seed=8,
        incidents=[Incident("door-open", Category.THERMAL, start=300.0,
                            duration=90.0, hostnames=("cn001", "cn002", "cn003"),
                            peak_rate=2.0)],
    )
    cluster = TivanCluster()
    cluster.load_events(events)
    cluster.attach_classifier(ClassifierStage(
        service_time_s=1e-4,
        classify_batch=lambda texts: [r.category for r in pipeline.classify_batch(texts)],
    ))
    cluster.run(930.0)
    print(f"  indexed and classified {len(cluster.store)} messages\n")

    assistant = AdminAssistant(spec=model_spec("meta-llama/Llama-2-70b-chat-hf"))

    print("=== task 1: summarize the system status ===")
    reply = assistant.summarize_status(cluster.store)
    print(reply.text)
    print(f"[simulated cost: {reply.timing.total_s:.1f}s on the 4xA100 node]\n")

    print("=== task 2: explain a node's messages ===")
    reply = assistant.explain_node(cluster.store, "cn001")
    print(reply.text)
    print(f"[simulated cost: {reply.timing.total_s:.1f}s]\n")

    print("=== task 3: draft an admin reply ===")
    reply = assistant.draft_admin_reply(
        "Hi, my jobs on cn001 slowed to a crawl this afternoon — is the "
        "node healthy?", cluster.store, hostname="cn001",
    )
    print(reply.text)
    print(f"[simulated cost: {reply.timing.total_s:.1f}s]\n")

    per_msg = assistant.cost_model.generation_timing(
        assistant.spec, prompt_tokens=250, gen_tokens=20
    ).total_s
    print(
        "Economics: classifying 1M msgs/hour with this model would need "
        f"{per_msg * 1_000_000 / 3600:.0f} node-hours per hour of logs — "
        "impossible. Thirty assistant calls a day cost "
        "under two node-minutes. That is the paper's closing point."
    )


if __name__ == "__main__":
    main()
