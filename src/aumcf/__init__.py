"""Nonparametric estimation and inference for the area under the mean
cumulative function (AUMCF) with recurrent events and a terminal event."""

from .core import (
    ArmDataset,
    EventRecord,
    Status,
    StudyDataset,
    SubjectHistory,
    TruncationError,
    ValidationError,
    arm_truncation_message,
    ingest_arm_datasets,
    ingest_records,
    read_arms_csv,
    read_records_csv,
    read_study_csv,
    study_to_records,
    validate_truncation,
    write_records_csv,
)
from .estimation import (
    ArmFit,
    StepFunction,
    area_under_step,
    aumcf,
    event_rate_increments,
    fit_arm,
    km_survival,
    mcf,
    nelson_aalen_terminal,
    rmst,
    time_lost_per_subject,
)
from .inference import (
    ContrastResult,
    InfluenceSet,
    RatioUndefinedError,
    arm_variance,
    contrast_difference,
    contrast_ratio,
    fit_influence,
    ghosh_lin_Q,
    influence_values,
    weighted_contrast,
)
from .augmentation import (
    AugmentedResult,
    SingularCovariateError,
    augmentation_weights,
    augmented_contrast,
)
from .simulation import (
    OperatingCharacteristics,
    ScenarioConfig,
    TrueValues,
    bootstrap_se,
    generate_dataset,
    run_operating_characteristics,
    simulate_subject,
    survival_bias_sensitivity,
    true_value_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "ArmDataset", "EventRecord", "Status", "StudyDataset", "SubjectHistory",
    "TruncationError", "ValidationError", "arm_truncation_message",
    "ingest_arm_datasets", "ingest_records", "read_arms_csv", "read_records_csv",
    "read_study_csv", "study_to_records", "validate_truncation",
    "write_records_csv",
    "ArmFit", "StepFunction", "area_under_step", "aumcf", "event_rate_increments",
    "fit_arm", "km_survival", "mcf", "nelson_aalen_terminal", "rmst",
    "time_lost_per_subject",
    "ContrastResult", "InfluenceSet", "RatioUndefinedError", "arm_variance",
    "contrast_difference", "contrast_ratio", "fit_influence", "ghosh_lin_Q",
    "influence_values", "weighted_contrast",
    "AugmentedResult", "SingularCovariateError", "augmentation_weights",
    "augmented_contrast",
    "OperatingCharacteristics", "ScenarioConfig", "TrueValues", "bootstrap_se",
    "generate_dataset", "run_operating_characteristics", "simulate_subject",
    "survival_bias_sensitivity", "true_value_oracle",
]
