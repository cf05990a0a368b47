"""Pinned absolute constants for the schedule planners.

Complexity guarantees hold up to unnamed universal constants, which running
code has to pick.  The tunable ones live here, calibrated once on the 1-D
standard-Gaussian end-to-end run (LSI, delta = 0.05, 10^4 chains) so that
the measured total-variation error lands at or below delta, then frozen;
every report embeds them.  The fixed ones sit with their formulas and show
through the schedule: 64 in ``sampler.gradient_norm_bound``, 10 in
``prox.prox_residual_bound``, ``sampler._TAIL_SPLIT``, and 8 in
``prox.default_k_iters``, whose base is the prox map's contraction factor
rho = eta L / (2 + eta L) (``prox.relaxation``), read off the potential.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .fors import _POISSON_INVERSION_MAX_LAM


@dataclass(frozen=True)
class PlanConstants:
    """Every tunable absolute constant used by the planners.

    c_eta_first / c_eta_zeroth : multiplier C in the step-size formulas
        1/(C eta) = (beta^2 d^s L + beta^2 L^2)^(1/(1+s)) + M^2 L  and
        1/(C eta) = (beta d^s)^(2/(1+s)) (1 + (Delta + L)/d) L,  L = log(N/delta).
    c_n : prefactor on the outer-iteration count of each assumption case
        (default 2, giving the end-to-end run a measured margin below its
        total-variation budget).
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
    b_first: float = 1.0
    b_zeroth: float = 3.0
    m_grid_ratio: float = 1.15
    m_grid_points: int = 110
    phi_cap: int = 10 ** 9

    def __post_init__(self):
        for name in ("c_eta_first", "c_eta_zeroth", "c_n", "b_first", "b_zeroth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive, got {getattr(self, name)!r}")
        for name in ("b_first", "b_zeroth"):  # the loop inverts Poisson(2B) exactly
            if 2 * getattr(self, name) > _POISSON_INVERSION_MAX_LAM:
                raise ValueError(f"{name}: must be <= {_POISSON_INVERSION_MAX_LAM / 2:g}, "
                                 f"got {getattr(self, name)!r}")
        if self.m_grid_ratio <= 1.0:
            raise ValueError(f"m_grid_ratio: must be > 1, got {self.m_grid_ratio!r}")
        for name in ("m_grid_points", "phi_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1, got {getattr(self, name)!r}")

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_CONSTANTS = PlanConstants()
