"""Evaluation toolkit for infrared people counting.

Model predictions arrive as manifest files; the toolkit scores them
(count accuracy, MSE, MAE, matched-point distance), tunes detector
thresholds, extracts locations from activation maps, preprocesses raw IR
frames, and drives dataset-size and inference-speed experiments.
"""

from ircount.assignment import (
    CostMatrix,
    MatchResult,
    hungarian,
    match_points,
    matching_objective,
)
from ircount.camloc import (
    ActivationMap,
    Component,
    LocateResult,
    binarize,
    find_components,
    locate_people,
    sample_inside,
)
from ircount.corpus import (
    BoundingBox,
    CountLabel,
    Dataset,
    ImageRecord,
    ManifestError,
    PointAnnotation,
    annotation_to_count,
    boxes_to_points,
    load_manifest,
    save_manifest,
    split_dataset,
)
from ircount.harness import (
    BenchStats,
    FractionCurve,
    ProcessPredictor,
    SynthScene,
    ablate_fractions,
    bench_fps,
    break_even,
    synth_scene,
)
from ircount.metrics import (
    CountPair,
    MaedConfig,
    MetricsReport,
    count_metrics,
    decide_count_classification,
    decide_count_regression,
    maed,
    per_class_accuracy,
)
from ircount.postprocess import (
    ThresholdCurve,
    confidence_filter,
    iou,
    nms,
    tune_threshold,
)
from ircount.preprocess import Frame, normalize_unit, winsorize

__version__ = "0.1.0"

__all__ = [
    "ActivationMap",
    "BenchStats",
    "BoundingBox",
    "Component",
    "CostMatrix",
    "CountLabel",
    "CountPair",
    "Dataset",
    "FractionCurve",
    "Frame",
    "ImageRecord",
    "LocateResult",
    "MaedConfig",
    "ManifestError",
    "MatchResult",
    "MetricsReport",
    "PointAnnotation",
    "ProcessPredictor",
    "SynthScene",
    "ThresholdCurve",
    "ablate_fractions",
    "annotation_to_count",
    "bench_fps",
    "binarize",
    "boxes_to_points",
    "break_even",
    "confidence_filter",
    "count_metrics",
    "decide_count_classification",
    "decide_count_regression",
    "find_components",
    "hungarian",
    "iou",
    "load_manifest",
    "locate_people",
    "maed",
    "match_points",
    "matching_objective",
    "nms",
    "normalize_unit",
    "per_class_accuracy",
    "sample_inside",
    "save_manifest",
    "split_dataset",
    "synth_scene",
    "tune_threshold",
    "winsorize",
]
