"""LLM example: effect of quantization on text generation quality (paper Table 4).

Quantizes the Bloom stand-in (a causal LM trained on a synthetic Markov
grammar) with each data format, generates continuations with beam search, and
reports repetition / diversity / grammaticality metrics — the quantitative
version of the paper's qualitative Bloom samples.

All prompts are generated through the serving engine's token-level generation
tier (``engine.generate(prompt, GenerationRequest(...))``), so their decode
steps co-batch each tick instead of running one prompt at a time.

Run with:  python examples/llm_textgen_ptq.py
"""

from repro.evaluation.reporting import format_table
from repro.evaluation.textgen import evaluate_generation_quality
from repro.models.registry import build_task
from repro.quantization import Approach, int8_recipe, quantize_model, standard_recipe
from repro.serving import GenerationRequest, ServingEngine


def main() -> None:
    bundle = build_task("bloom-7b1-lambada")
    print(f"FP32 {bundle.spec.name}: next-token accuracy = {bundle.fp32_metric:.4f}")

    prompts = bundle.eval_data.inputs[:6, :8]
    grammar = bundle.eval_data.extras["transition_probs"][0] if bundle.eval_data.extras else None

    configs = [
        ("FP32", None),
        ("E4M3 static", standard_recipe("E4M3")),
        ("E3M4 static", standard_recipe("E3M4")),
        ("E5M2 direct", standard_recipe("E5M2")),
        ("INT8 dynamic", int8_recipe(approach=Approach.DYNAMIC)),
    ]

    rows = []
    for label, recipe in configs:
        model = bundle.model
        if recipe is not None:
            model = quantize_model(
                bundle.model,
                recipe,
                calibration_data=bundle.calib_data,
                prepare_inputs=bundle.prepare_inputs,
            ).model
        with ServingEngine(model) as engine:
            quality = evaluate_generation_quality(
                model, prompts, transition_probs=grammar, max_new_tokens=24, beam_size=4,
                engine=engine,
            )
            sample = engine.generate(
                prompts[0], GenerationRequest(max_new_tokens=16, beam_size=4)
            ).result()
        rows.append(
            {
                "configuration": label,
                "repetition": quality.repetition,
                "distinct-2": quality.distinct2,
                "grammar log-lik": quality.grammar_loglik,
                "sample continuation": " ".join(str(t) for t in sample[len(prompts[0]):]),
            }
        )

    print()
    print(format_table(rows, title="Generation quality under quantization (beam size 4)"))


if __name__ == "__main__":
    main()
