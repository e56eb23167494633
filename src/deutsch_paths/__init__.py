"""Exact enumeration of Deutsch paths.

Nonnegative lattice paths with up-step +1 and down-steps -1, -3, -5, ...
(and their right-to-left reversal), enumerated three independent ways:
dynamic programming in a bounded strip, Cramer determinant series, and
closed binomial forms, all cross-validated against a brute-force oracle.

The API is the modules (`deutsch_paths.strip`, `.closed`, `.series`,
`.oracle`, `.roots`, `.verify`, `.cli`); this package root re-exports
nothing.
"""

__version__ = "0.1.0"
