"""ddlab: desk-scale verification lab for wave-type equations u_tt + P(D)u = 0."""

from .symbol import (
    SymbolPoly, HypothesisReport, Witness,
    check_hypotheses, derivative, principal_part, parse_symbol, to_literal,
    sphere_directions,
)
from .spectral import GridSpec, WaveState, make_grid, propagate, energy
from .kernel import (
    QuadConfig, KernelSample, KernelBoundReport, eval_kernel, check_bound,
)
from .decay import (
    ExponentQuery, DecayFit, lq_norm, weak_lq_norm, theoretical_exponent,
    fit_power_law, verify_lp_lq,
)
from .regions import IndexPoint, IndexRegion, mu_q, build_region, classify

__version__ = "0.1.0"
