"""Error types shared across the package.

Each error carries a short machine-readable ``code`` used by the CLI to
build error JSON and pick exit codes.
"""

from __future__ import annotations


class CoalescentError(Exception):
    code = "INTERNAL"

    def __init__(self, message: str = "", **context):
        super().__init__(message or self.code)
        self.context = context


class ToleranceNotMet(CoalescentError):
    code = "TOLERANCE_NOT_MET"


class ZeroTotalRate(CoalescentError):
    code = "ZERO_TOTAL_RATE"


class ZeroRate(CoalescentError):
    code = "ZERO_RATE"


class SizeOverflow(CoalescentError):
    code = "SIZE_OVERFLOW"


class DimensionTooLow(CoalescentError):
    code = "DIMENSION_TOO_LOW"


class ZeroRateDeadlock(CoalescentError):
    code = "ZERO_RATE_DEADLOCK"


class IncompatibleVariants(CoalescentError):
    code = "INCOMPATIBLE_VARIANTS"


class TruncationUnstable(CoalescentError):
    code = "TRUNCATION_UNSTABLE"


class BudgetExceeded(CoalescentError):
    code = "BUDGET_EXCEEDED"


class EngineBuildFailed(CoalescentError):
    code = "ENGINE_BUILD_FAILED"
