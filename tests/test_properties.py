"""Property tests: every string given to a numeric CLI flag ends in exit 0, 2
or 3 with one stderr line and no traceback, and partial traces commute with
reordering subsystems.

Examples are derandomized, so every run checks the same inputs.
"""

import contextlib
import csv
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qmerge.cli import main
from qmerge.core import partial_trace
from conftest import permute_subsystems, random_density, random_pure_state

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def run_cli(argv):
    """``main`` with stdout and stderr captured; argparse exits count as codes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def check_outcome(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if code == 0:
        assert err == ""
        if "csv" in argv:
            widths = {len(row) for row in csv.reader(io.StringIO(out))}
            assert len(widths) == 1, widths
        else:
            json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err
        assert "error: " in err and "Traceback" not in err


# the characters numbers are written with, plus separators, letters, an
# Arabic-Indic digit (int() accepts it), a non-breaking space and a newline
CHARS = "0123456789+-.,eE_xXnaifINF ١\u00a0\n\x00é"


def numbers():
    """Flag text: strings over CHARS, integers and float reprs (nan, inf, 1e+300)."""
    return st.one_of(st.text(CHARS, max_size=10), st.integers().map(str),
                     st.floats().map(repr))


FORMATS = st.sampled_from(["json", "csv"])
# a 256-amplitude cap keeps every accepted merge at n <= 4 for epr
SMALL_MERGE = ("merge", "--dim-cap", "256")


@FIXED
@given(st.one_of(numbers(), st.lists(numbers(), max_size=3).map(",".join)), FORMATS)
def test_point_strings(text, fmt):
    check_outcome(["region", "--state", "epr", f"--point={text}", "--format", fmt])


# the upper end stays small because a curve emits one row per copy count
@FIXED
@given(st.one_of(numbers(), st.builds("{}..{}".format, st.integers(-2, 12),
                                      st.integers(-2, 40))), FORMATS)
def test_curve_strings(text, fmt):
    check_outcome([*SMALL_MERGE, "--state", "epr", "--seed", "1", f"--curve={text}",
                   "--format", fmt])


# S(A|B) = 1 on example1-pure, so the slack enters the EPR boost
@FIXED
@given(numbers(), FORMATS)
def test_slack_strings(text, fmt):
    check_outcome([*SMALL_MERGE, "--state", "example1-pure", "-n", "1", "--seed", "1",
                   f"--slack={text}", "--format", fmt])


@FIXED
@given(numbers(), FORMATS)
def test_seed_strings(text, fmt):
    check_outcome([*SMALL_MERGE, "--state", "epr", "-n", "1", f"--seed={text}",
                   "--format", fmt])


@FIXED
@given(numbers(), FORMATS)
def test_copy_count_strings(text, fmt):
    check_outcome([*SMALL_MERGE, "--state", "epr", "--seed", "1", f"-n={text}",
                   "--format", fmt])


@st.composite
def reorderings(draw):
    m = draw(st.integers(1, 4))
    parts = [(f"P{i}", draw(st.integers(1, 3))) for i in range(m)]
    labels = [label for label, _ in parts]
    order = draw(st.permutations(labels))
    keep = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=m, unique=True))
    return parts, order, keep, draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


@FIXED
@given(reorderings())
def test_partial_trace_commutes_with_reordering(case):
    parts, order, keep, pure, seed = case
    rng = np.random.default_rng(seed)
    if pure:
        psi = random_pure_state(rng, parts)
        moved, rho = permute_subsystems(psi, order).density(), psi.density()
    else:
        rho = random_density(rng, parts)
        moved = permute_subsystems(rho, order)
    traced_after = partial_trace(moved, keep)
    traced_first = permute_subsystems(partial_trace(rho, keep),
                                      [label for label in order if label in keep])
    assert traced_after.layout == traced_first.layout
    np.testing.assert_allclose(traced_after.matrix, traced_first.matrix, atol=1e-12)
