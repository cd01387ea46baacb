"""Calibration measurement and recalibration for autoregressive structured prediction."""

from .errors import (
    FeatureError,
    FitError,
    MetricError,
    ModelError,
    ParseError,
    SeqcalError,
    ValidationError,
)
from .features import COVERAGE_THRESHOLD, attention_entropy, coverage, enrich, enrich_batch, ensure_features
from .metrics import (
    GroupMetrics,
    PartitionSpec,
    ece,
    export_reliability,
    head_tail_curve,
    nll,
    partitioned_metric,
    weighted_ece,
)
from .records import (
    BinningConfig,
    LogBatch,
    ReliabilityHistogram,
    SequenceRecord,
    StepFeatures,
    TokenRecord,
    densify,
    parse_log_line,
    read_log,
    read_log_file,
    serialize_record,
    validate_record,
    write_log_file,
)
from .recalibrate import (
    CalibratedModel,
    CalibratorParams,
    ScalarNet,
    SingleTemperature,
    TrainConfig,
    apply_calibrator,
    apply_single_temperature,
    calibration_gradient,
    calibration_nll,
    eos_correction,
    fit_calibrator,
    fit_single_temperature,
    golden_section,
    load_params,
    recalibrate_log,
    save_params,
    single_temperature_nll,
)
from .sequence import (
    BeamConfig,
    Hypothesis,
    RescoringModel,
    ScoringModel,
    beam_search,
    corpus_bleu,
    expected_bleu,
    sample_sequence,
    sentence_bleu,
    strip_eos,
    structured_ece,
)
from .toybench import (
    DistortionSpec,
    SequenceCalibrationResult,
    ToyTaskSpec,
    beam_sweep,
    build_true_model,
    distort,
    emit_log_batch,
    emit_logs,
    flatten,
    sequence_calibration_experiment,
)

__version__ = "0.1.0"
