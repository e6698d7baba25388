import numpy as np
import pytest

from hatepool import ModelProbability, ProbabilityVector, filtering

MODEL_IDS = ("Gemma2-9B", "Llama3.1-8B", "Mistral-7B", "Qwen2.5-14B")


def make_vector(p_hates, model_ids=MODEL_IDS):
    entries = tuple(
        ModelProbability(model_id=mid, p_hate=p, p_neutral=1.0 - p)
        for mid, p in zip(model_ids, p_hates)
    )
    return ProbabilityVector(entries)


def random_vectors(n, seed, model_ids=MODEL_IDS):
    rng = np.random.default_rng(seed)
    return [make_vector(rng.random(len(model_ids)), model_ids) for _ in range(n)]


@pytest.fixture
def vector():
    return make_vector((0.9, 0.8, 0.2, 0.4))


@pytest.fixture
def small_ranges(monkeypatch):
    """``use(n)`` cuts ``filter``'s worker input into ranges of about ``n`` bytes."""

    def use(n):
        monkeypatch.setattr(filtering, "RANGE_BYTES", n)

    return use
