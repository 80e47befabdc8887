"""Dimension caps and work bounds.

They live apart from ``core`` so that the CLI can build its parser, and
choose the BLAS thread count, before numpy loads. ``core`` re-exports them.
"""

DEFAULT_PURE_CAP = 2 ** 20      # max amplitudes of any pure state we build
DEFAULT_DENSITY_CAP = 2 ** 12   # max side length of any density matrix
_MAX_PLAN_BITS = 64             # log2 of the largest prepared state any merge plan may ask for
MAX_TRIALS = 10_000             # most trials monte_carlo_merge and `merge --trials` run
MAX_RESTARTS = 1_000            # most restarts of one EP search and of `sideinfo --restarts`
