"""Nonparametric estimation and inference for the area under the mean
cumulative function (AUMCF) with recurrent events and a terminal event."""

from .core import (
    ArmDataset,
    Status,
    StudyDataset,
    TruncationError,
    ValidationError,
    arm_truncation_message,
    read_arms_csv,
    read_study_csv,
    write_records_csv,
)
from .estimation import (
    ArmFit,
    StepFunction,
    area_under_step,
    aumcf,
    fit_arm,
    fit_influence,
    influence_values,
    km_survival,
    mcf,
    rmst,
    time_lost_per_subject,
)
from .inference import (
    AugmentedResult,
    ContrastResult,
    RatioUndefinedError,
    SingularCovariateError,
    arm_variance,
    augmentation_weights,
    augmented_contrast,
    contrast_difference,
    contrast_ratio,
    weighted_contrast,
)
from .simulation import (
    OperatingCharacteristics,
    ScenarioConfig,
    TrueValues,
    bootstrap_se,
    generate_dataset,
    run_operating_characteristics,
    survival_bias_sensitivity,
    true_value_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "ArmDataset", "Status", "StudyDataset",
    "TruncationError", "ValidationError", "arm_truncation_message",
    "read_arms_csv", "read_study_csv", "write_records_csv",
    "ArmFit", "StepFunction", "area_under_step", "aumcf", "fit_arm",
    "km_survival", "mcf", "rmst", "time_lost_per_subject",
    "ContrastResult", "RatioUndefinedError", "arm_variance",
    "contrast_difference", "contrast_ratio", "fit_influence",
    "influence_values", "weighted_contrast",
    "AugmentedResult", "SingularCovariateError", "augmentation_weights",
    "augmented_contrast",
    "OperatingCharacteristics", "ScenarioConfig", "TrueValues", "bootstrap_se",
    "generate_dataset", "run_operating_characteristics",
    "survival_bias_sensitivity", "true_value_oracle",
]
