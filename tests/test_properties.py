"""Property tests: every string given to a numeric CLI flag, every state or
channel file and every ``ghz:``/``random-pure:`` preset ends in exit 0, 2 or 3
with one stderr line and no traceback; the CLI's BLAS thread choice counts a
preset as the parser does; partial traces commute with reordering
subsystems; complementary parts of a pure state have equal entropy; and
strong subadditivity holds.

Examples are derandomized, so every run checks the same inputs.
"""

import contextlib
import csv
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmerge.cli import ONE_THREAD_MAX_ENTRIES, _small_state, main
from qmerge.core import partial_trace
from qmerge.entropy import subset_entropy, von_neumann_entropy
from qmerge.limits import DimensionCapError
from qmerge.presets import parse_state
from conftest import permute_subsystems, random_density, random_pure_state, ssa_margin

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


def check_outcome(argv, names=""):
    """The exit, stdout and stderr contract; a failure's one line must
    contain ``names``."""
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
        assert names in err, err
    return code


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


# ends past 64 exit 2 at once; the rest emit at most one row per copy count
@FIXED
@given(st.one_of(numbers(), st.builds("{}..{}".format, st.integers(-2, 12),
                                      st.integers(-2, 80))), FORMATS)
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


# any JSON value, nested a little, and the numbers a file entry could hold
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)
ENTRIES = st.one_of(st.sampled_from([0, 1, -1, 0.5, 1 + 1e-3, 1e308, -1e-320, "0.5"]),
                    st.integers(), st.floats(), JSON)


def mutate(draw, doc, count):
    """Make ``count`` changes: drop a field, replace it by any JSON value,
    shorten a list field or replace one of its entries; the 're' and 'im'
    entries most often."""
    for _ in range(count):
        key = draw(st.sampled_from([*doc, "re", "im", "re", "im"]))
        how = draw(st.sampled_from(["drop", "value", "entry", "entry", "truncate"]))
        if key not in doc:
            continue
        if how == "drop":
            del doc[key]
        elif how == "value" or not (isinstance(doc[key], list) and doc[key]):
            doc[key] = draw(JSON)
        elif how == "entry":
            doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(ENTRIES)
        else:
            doc[key] = doc[key][:-1]
    return doc


@st.composite
def state_docs(draw):
    """A pure or mixed state file of up to three parts, and whether it was
    left valid."""
    parts = [(f"P{i}", draw(st.integers(1, 3))) for i in range(draw(st.integers(1, 3)))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["pure", "mixed"]))
    if kind == "pure":
        data = random_pure_state(rng, parts).amplitudes
    else:
        data = random_density(rng, parts).matrix.reshape(-1)
    doc = {"labels": [label for label, _ in parts], "dims": [d for _, d in parts],
           "kind": kind, "re": data.real.tolist(), "im": data.imag.tolist()}
    count = draw(st.integers(0, 2))
    return mutate(draw, doc, count), count == 0


@st.composite
def channel_docs(draw):
    """A channel file for cc-pure's B (dimension 2), mostly mutated: a valid
    one runs a whole EP search."""
    out_dim, env_dim = draw(st.sampled_from([(2, 1), (1, 2), (2, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = out_dim * env_dim
    g = rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))
    data = np.linalg.qr(g)[0].T.reshape(-1)  # column-major, columns by input
    doc = {"input": "B", "output": "U", "out_dim": out_dim, "env_dim": env_dim,
           "re": data.real.tolist(), "im": data.imag.tolist()}
    return mutate(draw, doc, draw(st.sampled_from([0] + [1] * 7 + [2] * 4)))


def check_file(doc, argv):
    """Write ``doc`` as JSON and run ``argv`` on it; errors must name the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return check_outcome([arg.replace("FILE", path) for arg in argv], "input.json")


FILES = settings(FIXED, max_examples=150)


@FILES
@given(state_docs())
def test_state_files(case):
    doc, valid = case
    code = check_file(doc, ["report", "--state", "FILE", "--dim-cap", "64"])
    assert code == 0 or not valid


@settings(FIXED, max_examples=100)  # a valid channel costs a whole EP search
@given(channel_docs())
def test_channel_files(doc):
    check_file(doc, ["sideinfo", "--state", "cc-pure", "--channel", "FILE", "--seed", "1",
                     "--restarts", "1"])


def preset_strings():
    """``ghz:``/``random-pure:`` followed by free text or the grammar's shape."""
    text = st.text("0123456789x:-+ _.١", max_size=12)
    dims = st.lists(st.integers(-1, 5).map(str), min_size=1, max_size=4).map("x".join)
    random_pure = st.builds("{}:{}".format, dims, st.integers(-1, 2 ** 70))
    return st.one_of(st.builds("ghz:{}".format, st.one_of(text, st.integers(-2, 12))),
                     st.builds("random-pure:{}".format, st.one_of(text, random_pure)))


# the cap keeps accepted states at 64 amplitudes, so reports stay cheap
@FIXED
@given(preset_strings())
def test_preset_strings(source):
    check_outcome(["report", "--state", source, "--max-subset", "1", "--dim-cap", "64"])


# one count: a preset is small for the BLAS thread choice exactly when the
# parser, held to the same bound, admits it; text it rejects counts as small
@settings(FIXED, max_examples=200)
@given(preset_strings())
@example("ghz:12")
@example("ghz:13")
@example("random-pure:64x64:1")
@example("random-pure:64x65:1")
@example("random-pure:64x65:-1")
def test_the_thread_choice_counts_a_preset_as_the_parser_does(source):
    try:
        parse_state(source, ONE_THREAD_MAX_ENTRIES)
    except DimensionCapError:
        assert not _small_state(source)
    except ValueError as err:
        form = "ghz:m" if source.startswith("ghz:") else "random-pure:d1xd2x...:seed"
        assert str(err) in (f"bad preset {source!r}, expected {form}",
                            "GHZ needs at least 2 parties")
        assert _small_state(source)
    else:
        assert _small_state(source)


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


@st.composite
def bipartitions(draw):
    m = draw(st.integers(2, 4))
    parts = [(f"P{i}", draw(st.integers(1, 3))) for i in range(m)]
    labels = [label for label, _ in parts]
    side = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=m - 1, unique=True))
    return parts, side, draw(st.integers(0, 2 ** 32 - 1))


@FIXED
@given(bipartitions())
def test_purification_duality(case):
    parts, side, seed = case
    psi = random_pure_state(np.random.default_rng(seed), parts)
    rest = [label for label, _ in parts if label not in side]
    rho = psi.density()
    # each side reduced from the full projector, so neither borrows the other
    s_side = von_neumann_entropy(partial_trace(rho, side))
    s_rest = von_neumann_entropy(partial_trace(rho, rest))
    assert abs(s_side - s_rest) <= 1e-9
    assert abs(subset_entropy(psi, side) - s_side) <= 1e-9


@FIXED
@given(st.lists(st.integers(1, 3), min_size=3, max_size=3), st.integers(1, 27),
       st.integers(0, 2 ** 32 - 1))
def test_strong_subadditivity(dims, rank, seed):
    parts = list(zip("ABC", dims))
    rho = random_density(np.random.default_rng(seed), parts, rank=rank)
    assert ssa_margin(rho, "A", "B", "C") >= -1e-9
