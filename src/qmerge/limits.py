"""Dimension caps and work bounds, their one comparison, the preset
grammar of ``--state``, and the defaults the CLI's parser shares with the
library.

Every cap and bound is compared, and its refusal worded, by
:func:`within_cap`, which raises every :class:`DimensionCapError`; a file
loader only puts the file's path first. :func:`read_preset` is the one
reader of preset text: ``presets.parse_state`` builds the state it names,
and the CLI counts its entries to choose the BLAS thread count. Nothing here
imports numpy, so the CLI can do that, and build its parser, before numpy
loads. ``DEFAULT_SLACK_BITS`` and ``DEFAULT_RESTARTS`` live here for the
same reason: the parser's ``--slack`` and ``--restarts`` read them, and so
do :func:`~qmerge.merging.plan_merge`, :func:`~qmerge.merging.monte_carlo_merge`
and :func:`~qmerge.applications.entanglement_of_purification`.
"""

import math

DEFAULT_PURE_CAP = 2 ** 20      # max amplitudes of any pure state we build
DEFAULT_DENSITY_CAP = 2 ** 12   # max side length of any density matrix
_MAX_PLAN_BITS = 64             # log2 of the largest prepared state any merge plan may ask for
MAX_TRIALS = 10_000             # most trials monte_carlo_merge and `merge --trials` run
MAX_RESTARTS = 1_000            # most restarts of one EP search and of `sideinfo --restarts`
DEFAULT_SLACK_BITS = 1.0        # bits a merge plan backs its block off the rate by
DEFAULT_RESTARTS = 4            # restarts of one EP search

# each fixed preset's size: a pure one's amplitudes, a mixed one's matrix side
# (never near the 2^12 side cap, so the pure cap is the one that binds)
FIXED_PRESETS = {"epr": 4, "cc": 4, "cc-pure": 8, "example1": 4, "example1-pure": 8}


class DimensionCapError(RuntimeError):
    """A requested computation would exceed the configured dimension cap."""


def within_cap(what: str, count: int, cap: int) -> None:
    """Refuse ``count`` when it is over ``cap``: the one place a dimension cap
    or work bound is compared and its refusal worded, as
    ``<what>: <count> over the <cap> cap``. Python prints no int of over 4300
    digits, so a count that long shows as ``2^b+``, b its bit length less 1."""
    if count > cap:
        shown = count if count.bit_length() < 14_000 else f"2^{count.bit_length() - 1}+"
        raise DimensionCapError(f"{what}: {shown} over the {cap} cap")


def read_preset(source: str, cap: int) -> tuple[str, tuple]:
    """Read ``ghz:m`` as ``("ghz", (m,))`` and ``random-pure:d1xd2x...:seed``
    as ``("random-pure", (dims, seed))``, holding the state's amplitudes to
    ``cap``. Any other text comes back as ``(source, ())``, a name of
    ``FIXED_PRESETS`` once its size is held to ``cap`` as a state file's
    would be. Malformed text raises ``ValueError`` before any count is
    compared."""
    if source.startswith("ghz:"):
        try:
            m = int(source[len("ghz:"):])
        except ValueError:
            raise ValueError(f"bad preset {source!r}, expected ghz:m") from None
        # 2^m amplitudes are over cap exactly when m is over ⌊log2 cap⌋, so
        # 2^m is never formed
        within_cap("ghz qubits", m, cap.bit_length() - 1)
        return "ghz", (m,)
    if source.startswith("random-pure:"):
        try:
            _, dims_part, seed_part = source.split(":")
            dims = tuple(int(d) for d in dims_part.split("x"))
            seed = int(seed_part)
            if min(dims) < 1 or seed < 0:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"bad preset {source!r}, expected random-pure:d1xd2x...:seed"
            ) from None
        within_cap("random-pure amplitudes", math.prod(dims), cap)
        return "random-pure", (dims, seed)
    if source in FIXED_PRESETS:
        within_cap("fixed preset size", FIXED_PRESETS[source], cap)
    return source, ()
