"""Each default value has one home. The CLI's parser and the library read
the same ``qmerge.limits`` constants, and a parameter that only tests left
unset has no default: the seed a run draws from, the parties that play
Alice and Bob, and the merge and E_p settings are the caller's."""

import inspect

import pytest

from qmerge import applications, core, limits, merging, presets
from qmerge.cli import _build_parser


# the least argv each command parses; parsing opens no file
_ARGV = {
    "entropy": ["entropy", "--state", "epr", "--of", "A"],
    "merge": ["merge", "--state", "epr", "-n", "1", "--seed", "0"],
    "sideinfo": ["sideinfo", "--state", "epr", "--channel", "chan.json", "--seed", "0"],
}


def _default(func, name: str):
    return inspect.signature(func).parameters[name].default


@pytest.mark.parametrize("command, dest, home", [
    ("merge", "slack", "DEFAULT_SLACK_BITS"),
    ("sideinfo", "restarts", "DEFAULT_RESTARTS"),
    ("entropy", "dim_cap", "DEFAULT_PURE_CAP"),
    ("merge", "dim_cap", "DEFAULT_PURE_CAP"),
])
def test_each_cli_default_is_its_limits_constant(command, dest, home):
    args = _build_parser().parse_args(_ARGV[command])
    assert getattr(args, dest) is getattr(limits, home)


@pytest.mark.parametrize("func, name, home", [
    (merging.plan_merge, "slack_bits", "DEFAULT_SLACK_BITS"),
    (merging.monte_carlo_merge, "slack_bits", "DEFAULT_SLACK_BITS"),
    (merging.monte_carlo_merge, "dim_cap", "DEFAULT_PURE_CAP"),
    (applications.entanglement_of_purification, "restarts", "DEFAULT_RESTARTS"),
])
def test_each_library_default_is_its_limits_constant(func, name, home):
    assert _default(func, name) is getattr(limits, home)


@pytest.mark.parametrize("func, names", [
    (applications.eoa, ("alice", "bob")),
    (applications.entanglement_of_purification, ("alice", "u_label", "rng")),
    (applications.side_info_rates, ("restarts", "cap_out", "cap_env", "rng")),
    (merging.monte_carlo_merge, ("seed",)),
    (merging.run_merge_exhaustive, ("rng", "unitary", "dim_cap")),
    (merging._setup, ("unitary",)),
    (presets.load_state_file, ("pure_cap",)),
], ids=lambda x: getattr(x, "__name__", None))
def test_the_caller_passes_what_no_default_stands_for(func, names):
    params = inspect.signature(func).parameters
    assert [n for n in names if params[n].default is not inspect.Parameter.empty] == []


def test_monte_carlo_merge_takes_its_seed_by_name():
    assert inspect.signature(merging.monte_carlo_merge).parameters["seed"].kind \
        is inspect.Parameter.KEYWORD_ONLY


@pytest.mark.parametrize("maker", [core.ChannelSpec.identity, core.ChannelSpec.full_trace])
def test_the_baseline_channels_keep_their_label(maker):
    assert list(inspect.signature(maker).parameters) == ["label", "dim"]
    assert maker("U", 2).output_label == "U"
