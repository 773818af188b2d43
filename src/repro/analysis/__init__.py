"""Statistics and validation for the paper's evaluation figures."""

from .stats import (
    PAPER_PERCENTILES,
    RangeSummary,
    cdf_points,
    percentile_grid,
    relative_variation,
    summarize_ranges,
    weighted_range_average,
)
from .validation import RangeValidation, validate_many, validate_range

__all__ = [
    "PAPER_PERCENTILES",
    "RangeSummary",
    "RangeValidation",
    "cdf_points",
    "percentile_grid",
    "relative_variation",
    "summarize_ranges",
    "validate_many",
    "validate_range",
    "weighted_range_average",
]
