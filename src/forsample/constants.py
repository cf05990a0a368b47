"""Pinned absolute constants for the schedule planners.

The complexity guarantees hold up to unnamed universal constants; running
code has to pick them.  This module is the single place they live.  The
defaults were calibrated once on the 1-D standard-Gaussian end-to-end run
(LSI case, delta = 0.05, 10^4 chains) so that the measured total-variation
error lands at or below delta, and then frozen.  Every experiment report
embeds the constants it ran with, so a recalibration is always visible in
the output.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class PlanConstants:
    """Every tunable absolute constant used by the planners.

    c_eta_first / c_eta_zeroth : multiplier C in the step-size formulas
        1/(C eta) = (beta^2 d^s L + beta^2 L^2)^(1/(1+s)) + M^2 L  and
        1/(C eta) = (beta d^s)^(2/(1+s)) (1 + (Delta + L)/d) L,  L = log(N/delta).
    c_n : prefactor on the outer-iteration count of each assumption case
        (default 2, giving the end-to-end run a measured margin below its
        total-variation budget).
    c_step : multiplier in the tilt step condition (rgo.tilt_eta_bound).
    b_first / b_zeroth : estimator range B for the two modes.  The
        zeroth-order default 3 makes the inner truncation level B/3 = 1,
        matching the batch-size rule phi_1.
    m_grid_ratio / m_grid_points : geometric grid the first-order planner
        scans for the truncation level M (starting at the noise's exact
        first moment).
    phi_cap : largest batch size the tail-bound inversion will consider.
    """

    c_eta_first: float = 1.0
    c_eta_zeroth: float = 1.0
    c_n: float = 2.0
    c_step: float = 64.0
    b_first: float = 1.0
    b_zeroth: float = 3.0
    m_grid_ratio: float = 1.15
    m_grid_points: int = 110
    phi_cap: int = 10 ** 9

    def __post_init__(self):
        for name in ("c_eta_first", "c_eta_zeroth", "c_n", "c_step", "b_first",
                     "b_zeroth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive, got {getattr(self, name)!r}")
        if self.m_grid_ratio <= 1.0:
            raise ValueError(f"m_grid_ratio: must be > 1, got {self.m_grid_ratio!r}")
        for name in ("m_grid_points", "phi_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1, got {getattr(self, name)!r}")

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_CONSTANTS = PlanConstants()
