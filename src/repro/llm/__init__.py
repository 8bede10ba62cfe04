"""Simulated large-language-model classification (§5.2).

The paper evaluates generative LLMs (Falcon-7b/40b) and a zero-shot
entailment model (facebook/bart-large-mnli) as syslog classifiers on a
4×A100 node.  Offline we reproduce both the *behavioural* findings
(alignment failures: invented categories, excessive generation,
role-play continuation; fixed by capping ``max_new_tokens``) and the
*economic* finding (Table 3: per-message latency makes generative
classification infeasible at test-bed message rates) from first
principles:

- :mod:`repro.llm.hardware` / :mod:`repro.llm.costmodel` — a roofline
  latency model (compute-bound prefill, memory-bandwidth-bound decode,
  tensor-parallel efficiency) of the paper's inference node,
- :mod:`repro.llm.tokenizer` — deterministic subword token counting,
- :mod:`repro.llm.embeddings` — PPMI + truncated-SVD word embeddings
  trained on the syslog corpus (the simulator's "understanding"),
- :mod:`repro.llm.zeroshot` — a real entailment-style zero-shot
  classifier over those embeddings (the BART-MNLI analogue),
- :mod:`repro.llm.prompts` — the §5.2 prompt builder (intro, category
  list, TF-IDF hints, format spec, one-shot example),
- :mod:`repro.llm.generative` — the simulated generative model with
  capability- and prompt-dependent accuracy and failure modes,
- :mod:`repro.llm.parse` — response parsing / category alignment.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "hardware": ("GPUSpec", "InferenceNode", "PAPER_NODE", "A100_SXM4_40GB"),
    "costmodel": ("ModelSpec", "InferenceCostModel", "GenerationTiming"),
    "models": ("MODEL_CATALOG", "model_spec"),
    "tokenizer": ("count_tokens", "tokenize_subwords"),
    "embeddings": ("CorpusEmbeddings",),
    "zeroshot": ("ZeroShotClassifier", "ZeroShotResult"),
    "prompts": ("PromptConfig", "build_prompt", "ONE_SHOT_EXAMPLE"),
    "generative": ("SimulatedGenerativeLLM", "GenerationResult"),
    "parse": ("parse_classification", "ParseOutcome"),
    "assistant": ("AdminAssistant", "AssistantReply"),
})
