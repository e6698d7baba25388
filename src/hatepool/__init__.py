"""Annotate multilingual web text for hate speech with a four-model LLM ensemble.

The pipeline: filter exported web-index records down to conversational
content, collect per-class token probabilities from four model endpoints,
combine them (majority vote, probability mean, or a boosted-tree
meta-learner), and evaluate the pooled labels against benchmark datasets.

Public names are resolved on first access (PEP 562), so ``import hatepool``
loads no submodule and each CLI step imports only what it runs.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it provides.
_EXPORTS = {
    "annotations": (
        "AnnotationChunk",
        "AnnotationRow",
        "read_annotation_chunks",
        "read_annotations",
        "write_annotations",
    ),
    "datasets": (
        "BinaryLabel",
        "DatasetSpec",
        "LabeledExample",
        "LabelMappingError",
        "UnknownDatasetError",
        "load_registry",
        "map_label",
    ),
    "ensemble": (
        "ProbabilityVector",
        "mean_hate_score",
        "mean_label",
        "model_votes",
        "vote_hate_score",
        "vote_label",
    ),
    "filtering": (
        "FilterConfig",
        "FilterStats",
        "UrlParseError",
        "WebRecord",
        "filter_records",
        "normalize_url_path",
        "subsample_by_language",
    ),
    "gateway": (
        "AnnotatorEndpoint",
        "QuarantinedText",
        "annotate_batch",
    ),
    "gbdt": (
        "BoostedTrees",
        "MetaLearnerConfig",
        "TreeNode",
        "gbdt_fit",
    ),
    "meta": (
        "MetaLearnerModel",
        "SingleClassError",
        "load_model",
        "predict_meta",
        "predict_meta_many",
        "save_model",
        "train_meta",
        "train_meta_on_vectors",
    ),
    "metrics": (
        "ConfusionCounts",
        "EvaluationReport",
        "GroupSpec",
        "PredictionRow",
        "accuracy",
        "apply_threshold",
        "build_report",
        "confusion",
        "default_groups",
        "delta_report",
        "f1_from_counts",
        "macro_f1",
        "mean_probability_threshold",
        "render_report_table",
    ),
    "mockserver": (
        "MockAnnotatorServer",
        "deterministic_weights",
    ),
    "poolstats": (
        "PoolSummary",
        "pool_statistics",
        "render_pool_table",
    ),
    "prompt": (
        "DEFAULT_TEMPLATE_TEXT",
        "ExtractionError",
        "ModelProbability",
        "PromptTemplate",
        "extract_label_probabilities",
        "render_prompt",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
