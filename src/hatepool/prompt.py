"""Zero-shot annotation prompt and label-token probability extraction.

The prompt asks each model to answer with a single digit: ``1`` for the
hate/offensive class, ``2`` for neutral. Class probabilities come from
renormalizing the next-token weights of those two digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ._jsonl import from_json_object

PLACEHOLDER = "{comment}"

DEFAULT_TEMPLATE_TEXT = (
    "You are tasked with annotating speech. Your response must be a single valid number:\n"
    "1 for Hate/Offensive/Sexism/Toxic/Political/COVID-related Hate Speech,\n"
    "2 for Neutral Speech.\n"
    "\n"
    "Provide only the number corresponding to the category. "
    "Do not include any explanation or additional text.\n"
    "Do you think the following comment is Hate/Offensive/Sexism/Toxic/Political/"
    "COVID-related Hate Speech, speech or Neutral speech?\n"
    "\n"
    '"{comment}"\n'
    "\n"
    "Your Answer:"
)


class ExtractionError(ValueError):
    """Raised when neither label token appears in a model's top-k weights."""


@dataclass(frozen=True)
class PromptTemplate:
    """Prompt text plus the token spellings that stand for each class.

    ``hate_aliases``/``neutral_aliases`` pool alternate spellings a
    tokenizer may emit for the same answer (e.g. ``" 1"``, ``"1\\n"``)
    into the corresponding class weight.
    """

    template_text: str = DEFAULT_TEMPLATE_TEXT
    hate_token: str = "1"
    neutral_token: str = "2"
    hate_aliases: tuple[str, ...] = ()
    neutral_aliases: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        count = self.template_text.count(PLACEHOLDER)
        if count != 1:
            raise ValueError(
                f"template must contain exactly one {PLACEHOLDER!r} placeholder, found {count}"
            )
        hate = {self.hate_token, *self.hate_aliases}
        neutral = {self.neutral_token, *self.neutral_aliases}
        overlap = hate & neutral
        if overlap:
            raise ValueError(f"label tokens must be disjoint between classes: {sorted(overlap)}")

    @property
    def hate_tokens(self) -> tuple[str, ...]:
        return (self.hate_token, *self.hate_aliases)

    @property
    def neutral_tokens(self) -> tuple[str, ...]:
        return (self.neutral_token, *self.neutral_aliases)

    @classmethod
    def from_dict(cls, cfg: Mapping) -> "PromptTemplate":
        return from_json_object(cls, cfg, "template")


def render_prompt(template: PromptTemplate, comment: str) -> str:
    """Substitute ``comment`` into the template verbatim.

    Plain substitution, not ``str.format``: comments may legitimately
    contain braces.
    """
    if not comment:
        raise ValueError("comment must be a nonempty string")
    return template.template_text.replace(PLACEHOLDER, comment, 1)


@dataclass(frozen=True)
class ModelProbability:
    """One model's renormalized class probabilities for one text."""

    model_id: str
    p_hate: float
    p_neutral: float

    def __post_init__(self) -> None:
        check_probabilities(self.p_hate, self.p_neutral)


def check_probabilities(p_hate: float, p_neutral: float) -> None:
    """Refuse a probability outside 0-1, or a pair that does not sum to 1 within 1e-9."""
    for name, p in (("p_hate", p_hate), ("p_neutral", p_neutral)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} out of range: {p}")
    if abs(p_hate + p_neutral - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {p_hate} + {p_neutral}")


def extract_label_probabilities(
    token_weights: Mapping[str, float],
    template: PromptTemplate,
    model_id: str = "",
    text_id: str | None = None,
) -> ModelProbability:
    """Renormalize the two label-token weights into class probabilities.

    Weights are nonnegative and need not be normalized (raw probabilities,
    unnormalized exp-logprobs, and scaled copies all give the same result).
    Tokens absent from ``token_weights`` contribute zero; if both classes
    end up with zero weight the text cannot be scored and
    :class:`ExtractionError` is raised.
    """
    def pooled(tokens: tuple[str, ...]) -> float:
        total = 0.0
        for token in tokens:
            weight = float(token_weights.get(token, 0.0))
            if weight < 0:
                raise ValueError(f"negative weight for token {token!r}: {weight}")
            total += weight
        return total

    w_hate = pooled(template.hate_tokens)
    w_neutral = pooled(template.neutral_tokens)
    if w_hate + w_neutral <= 0.0:
        where = f" for text {text_id!r}" if text_id is not None else ""
        raise ExtractionError(
            f"model {model_id!r}{where}: no label token among returned top-k tokens"
        )
    p_hate = w_hate / (w_hate + w_neutral)
    return ModelProbability(model_id=model_id, p_hate=p_hate, p_neutral=1.0 - p_hate)
