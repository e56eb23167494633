"""Exact enumeration of Deutsch paths.

Nonnegative lattice paths with up-step +1 and down-steps -1, -3, -5, ...
(and their right-to-left reversal), enumerated three independent ways:
dynamic programming in a bounded strip, Cramer determinant series, and
closed binomial forms, all cross-validated against a brute-force oracle.
"""

from .closed import (
    area_coeff,
    area_convolution,
    area_gf,
    binom,
    cat3,
    count_lr_closed,
    count_rl_closed,
    f_closed,
    g_closed,
)
from .errors import ConsistencyError, VerificationFailure
from .oracle import area_check, enumerate_paths, generate_closed, reverse_check
from .series import IntPoly, TRational, ZSeries, coeff_x, t_series, zseries_of
from .strip import (
    CountTable,
    Direction,
    bounded_f,
    bounded_g,
    delta,
    deltas_direct,
    det_d,
    det_direct,
    dp_counts,
    dp_rows,
    seq_a,
    seq_b,
    sequence_terms,
    solve_system,
    stabilized,
)

__version__ = "0.1.0"
