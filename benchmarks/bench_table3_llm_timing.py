"""EXP-T3 — Table 3: LLM per-message inference time & messages/hour.

Paper rows: Falcon-7b 0.639 s (5633/h), Falcon-40b 2.184 s (1648/h),
facebook/Bart-Large-MNLI 0.13359 s (26948/h).

The rows are *regenerated* from the roofline cost model (prefill FLOPs,
memory-bound decode, tensor-parallel efficiency) using real token
counts of the full §5.2 prompt — not hard-coded — and must land within
25% of the paper with the correct ordering.  The benchmark times the
cost-model evaluation itself (it must be cheap enough to embed in the
stream simulator).
"""

from conftest import emit

from repro.experiments.common import format_table
from repro.experiments.table3 import PAPER_TABLE3, run_table3, table3_layout


def test_table3_llm_inference_cost(benchmark):
    rows = benchmark(run_table3)

    headers, table = table3_layout(rows)
    emit(
        "Table 3 — LLM classification cost (measured vs paper)",
        format_table(
            # the paper's msgs/h is asserted on below
            headers + ["msgs/h (paper)"],
            [line + [PAPER_TABLE3[r.model][1]] for line, r in zip(table, rows)],
        ),
    )

    # the batching objection: even amortizing weight reads over large
    # batches, generative classification stays far below the test-bed's
    # >1M msgs/hour (§1)
    from repro.llm.costmodel import InferenceCostModel
    from repro.llm.models import model_spec

    cm = InferenceCostModel()
    batch_rows = []
    for name in ("tiiuae/falcon-7b", "tiiuae/falcon-40b"):
        spec = model_spec(name)
        batch_rows.append([name] + [
            int(cm.batched_generation_throughput(
                spec, prompt_tokens=220, gen_tokens=20, batch_size=b
            ))
            for b in (1, 32, 512)
        ])
    emit(
        "Table 3 extension — batched decoding throughput (msgs/hour)",
        format_table(["Model", "batch=1", "batch=32", "batch=512"], batch_rows),
    )
    for row in batch_rows:
        assert max(row[1:]) < 1_000_000  # §6's conclusion survives batching

    times = {r.model: r.inference_time_s for r in rows}
    # ordering
    assert (
        times["facebook/bart-large-mnli"]
        < times["tiiuae/falcon-7b"]
        < times["tiiuae/falcon-40b"]
    )
    # calibration within 25%
    for r in rows:
        paper_t, paper_mph = PAPER_TABLE3[r.model]
        assert abs(r.inference_time_s - paper_t) / paper_t < 0.25, r.model
        assert abs(r.messages_per_hour - paper_mph) / paper_mph < 0.25, r.model
    # the paper's feasibility conclusion: none sustains 1M msgs/hour
    assert all(r.messages_per_hour < 1_000_000 for r in rows)
