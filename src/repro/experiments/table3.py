"""EXP-T3: Table 3 — LLM per-message inference time and throughput.

The paper's rows (on the 4×A100 node, with the excessive-generation
fix — a tight ``max_new_tokens`` cap — in place):

====================================  ==============  =================
model                                 inference time   messages per hour
====================================  ==============  =================
Falcon-7b                             0.639 s          5633
Falcon-40b                            2.184 s          1648
facebook/Bart-Large-MNLI              0.13359 s        26948
====================================  ==============  =================

We regenerate the rows from the roofline cost model using the actual
token counts of the full §5.2 prompt on a real corpus message.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.taxonomy import Category
from repro.llm.costmodel import InferenceCostModel
from repro.llm.models import model_spec
from repro.llm.prompts import PromptConfig, build_prompt
from repro.llm.tokenizer import count_tokens

__all__ = ["Table3Row", "run_table3", "table3_layout", "PAPER_TABLE3"]

#: The paper's measured values, for paper-vs-measured reporting.
PAPER_TABLE3: dict[str, tuple[float, int]] = {
    "tiiuae/falcon-7b": (0.639, 5633),
    "tiiuae/falcon-40b": (2.184, 1648),
    "facebook/bart-large-mnli": (0.13359, 26948),
}


@dataclass(frozen=True)
class Table3Row:
    """One Table 3 row (model, latency, sustained throughput)."""

    model: str
    inference_time_s: float
    messages_per_hour: float
    n_gpus: int


_SAMPLE_MESSAGE = "CPU 1 Temperature Above Non-Recoverable - Asserted. Current temperature: 95C"

_SAMPLE_HINTS = {
    Category.THERMAL: ["processor", "throttled", "sensor", "cpu", "temperature"],
    Category.SSH: ["closed", "preauth", "connection", "port", "user"],
    Category.MEMORY: ["size", "real_memory", "low", "cn", "node"],
    Category.HARDWARE: ["timestamp", "sync", "clock", "system", "event"],
    Category.INTRUSION: ["root", "session", "user", "started", "boot"],
    Category.SLURM: ["version", "update", "slurm", "please", "node"],
    Category.USB: ["usb", "device", "hub", "number", "new"],
    Category.UNIMPORTANT: ["error", "lpi_hbm_nn", "job_argument"],
}


def run_table3(
    *,
    max_new_tokens: int = 20,
    message: str = _SAMPLE_MESSAGE,
    cost_model: InferenceCostModel | None = None,
) -> list[Table3Row]:
    """Regenerate Table 3 from the cost model.

    ``max_new_tokens`` is the paper's excessive-generation fix; raising
    it shows the uncapped cost the paper complained about.
    """
    cm = cost_model or InferenceCostModel()
    prompt = build_prompt(message, config=PromptConfig.full(), hints=_SAMPLE_HINTS)
    prompt_tokens = count_tokens(prompt)
    rows: list[Table3Row] = []
    for name in ("tiiuae/falcon-7b", "tiiuae/falcon-40b"):
        spec = model_spec(name)
        t = cm.generation_timing(
            spec, prompt_tokens=prompt_tokens, gen_tokens=max_new_tokens
        )
        rows.append(
            Table3Row(
                model=name,
                inference_time_s=t.total_s,
                messages_per_hour=t.messages_per_hour,
                n_gpus=t.n_gpus,
            )
        )
    bart = model_spec("facebook/bart-large-mnli")
    t = cm.zero_shot_timing(
        bart, text_tokens=count_tokens(message), n_labels=len(Category)
    )
    rows.append(
        Table3Row(
            model=bart.name,
            inference_time_s=t.total_s,
            messages_per_hour=t.messages_per_hour,
            n_gpus=t.n_gpus,
        )
    )
    return rows


def table3_layout(rows: list[Table3Row]) -> tuple[list[str], list[list]]:
    """Table 3 as ``(headers, rows)``: the paper's seconds beside the model's."""
    return (
        ["Model", "time s (model)", "time s (paper)", "msgs/h (model)"],
        [[r.model, r.inference_time_s, PAPER_TABLE3[r.model][0],
          int(r.messages_per_hour)] for r in rows],
    )
