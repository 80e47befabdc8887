"""Command-line behavior: presets, formats, determinism and exit codes."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import qmerge
from qmerge.applications import mac_region
from qmerge.cli import _emit_json, main
from qmerge.core import PureState, partial_trace
from qmerge.limits import FIXED_PRESETS, DimensionCapError
from qmerge.presets import load_channel_file, parse_state
from conftest import TIED_CUTS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


IDENTITY_CHANNEL = {
    "input": "B", "output": "U", "out_dim": 2, "env_dim": 1,
    "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0, 0.0, 0.0, 0.0],
}


def edge_bell_file(tmp_path) -> str:
    """A mixed A,B file (2x2) holding (1+3ε)|Φ+⟩⟨Φ+| − ε·(the other three Bell
    projectors), ε = 0.9e-9: every eigenvalue is at least −0.9e-9, above the
    PSD floor, and the largest is 1 + 2.7e-9."""
    eps = 0.9e-9
    phi = np.array([1, 0, 0, 1]) / math.sqrt(2)
    rho = (1 + 4 * eps) * np.outer(phi, phi) - eps * np.eye(4)
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"labels": ["A", "B"], "dims": [2, 2], "kind": "mixed",
                                "re": list(rho.ravel()), "im": [0.0] * 16}))
    return str(path)


def floor_file(tmp_path, parties: int) -> str:
    """A mixed file on ``parties`` qubits A, B, C: |0…0⟩⟨0…0| with every
    other diagonal entry at −ε and the first at 1 + (2^parties − 1)·ε, with
    ε = 1e-9 (the PSD floor) for two parties and 0.9e-9 for three. The file
    is accepted, but its marginals have eigenvalues near −d·ε, where d is
    the traced-out dimension."""
    eps = {2: 1e-9, 3: 0.9e-9}[parties]
    d = 2 ** parties
    rho = np.diag([1 + (d - 1) * eps] + [-eps] * (d - 1))
    path = tmp_path / f"floor{parties}.json"
    path.write_text(json.dumps({"labels": list("ABC"[:parties]), "dims": [2] * parties,
                                "kind": "mixed", "re": list(rho.ravel()), "im": [0.0] * d * d}))
    return str(path)


class TestParseState:
    @pytest.mark.parametrize("name", FIXED_PRESETS)
    def test_every_fixed_name_is_built(self, name):
        assert parse_state(name).dim in (4, 8)

    @pytest.mark.parametrize("name", FIXED_PRESETS)
    def test_a_fixed_preset_is_held_to_the_cap_its_file_is_held_to(self, name, tmp_path,
                                                                   capsys):
        # a pure preset's amplitudes and a mixed one's side, as for a file
        state, cap = parse_state(name), FIXED_PRESETS[name]
        pure = isinstance(state, PureState)
        data = state.amplitudes if pure else state.matrix.ravel()
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"labels": list(state.layout.labels),
                                    "dims": list(state.layout.dims),
                                    "kind": "pure" if pure else "mixed",
                                    "re": data.real.tolist(), "im": data.imag.tolist()}))
        assert parse_state(name, cap).dim == parse_state(str(path), cap).dim == cap
        for source in (name, str(path)):
            with pytest.raises(DimensionCapError, match=f": {cap} over the {cap - 1} cap$"):
                parse_state(source, cap - 1)
        code, out, err = run_cli(capsys, "entropy", "--state", name, "--of", "A",
                                 "--dim-cap", str(cap - 1))
        assert (code, out) == (3, "") and err.endswith(f": {cap} over the {cap - 1} cap\n")

    @pytest.mark.parametrize("source", ["ghz", "random-pure"])
    def test_a_kind_without_its_arguments_names_a_file(self, source):
        with pytest.raises(ValueError, match=f"^unknown preset or missing file '{source}'"):
            parse_state(source)

    def test_epr_amplitudes(self):
        psi = parse_state("epr")
        np.testing.assert_allclose(psi.amplitudes,
                                   np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-12)

    def test_cc_pure_is_the_printed_purification(self):
        psi = parse_state("cc-pure")
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / np.sqrt(2)
        np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-12)
        assert psi.layout.labels == ("A", "B", "R")

    def test_cc_matches_cc_pure_reduction(self):
        rho = parse_state("cc")
        reduced = partial_trace(parse_state("cc-pure").density(), ("A", "B"))
        assert np.abs(rho.matrix - reduced.matrix).max() < 1e-12

    def test_random_pure_is_deterministic(self):
        a = parse_state("random-pure:2x2x2:42")
        b = parse_state("random-pure:2x2x2:42")
        assert a.amplitudes.tobytes() == b.amplitudes.tobytes()
        assert a.layout.labels == ("A", "B", "R")

    def test_ghz_labels(self):
        psi = parse_state("ghz:4")
        assert psi.layout.labels == ("A", "B", "C1", "C2")

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            parse_state("nope")

    def test_state_file_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        amps = np.array([1, 0, 0, 1]) / np.sqrt(2)
        path.write_text(json.dumps({
            "labels": ["A", "B"], "dims": [2, 2], "kind": "pure",
            "re": list(amps.real), "im": list(amps.imag),
        }))
        psi = parse_state(str(path))
        np.testing.assert_allclose(psi.amplitudes, amps, atol=1e-12)

    def test_state_file_norm_gate(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "labels": ["A"], "dims": [2], "kind": "pure",
            "re": [1.0, 1.0], "im": [0.0, 0.0],
        }))
        with pytest.raises(ValueError, match="norm"):
            parse_state(str(path))

    def test_malformed_file_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"labels": [,]}')
        with pytest.raises(ValueError, match=r":1:\d+"):
            parse_state(str(path))

    def test_channel_file_column_major(self, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(IDENTITY_CHANNEL))
        ch = load_channel_file(str(path))
        np.testing.assert_allclose(ch.isometry, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("source", [
        "random-pure:2x2", "random-pure:2xa:1", "random-pure:2x2:s", "random-pure:2x2:1:2",
        "random-pure:0x2:1", "random-pure:-2x-2:1", "random-pure:2x2:-1",
    ])
    def test_malformed_random_pure_names_the_form(self, source):
        with pytest.raises(ValueError, match=re.escape("random-pure:d1xd2x...:seed")):
            parse_state(source)

    def test_ghz_checked_against_the_pure_cap(self):
        assert parse_state("ghz:3", pure_cap=8).dim == 8
        with pytest.raises(DimensionCapError, match="^ghz qubits: 4 over the 3 cap$"):
            parse_state("ghz:4", pure_cap=8)

    def test_mixed_file_side_follows_the_pure_cap(self, capsys, tmp_path):
        # a library caller gets the side cap the CLI applies, min(pure cap, 2^12)
        path = tmp_path / "mixed16.json"
        path.write_text(json.dumps({
            "labels": ["A", "B", "C", "D"], "dims": [2, 2, 2, 2], "kind": "mixed",
            "re": (np.eye(16) / 16).reshape(-1).tolist(), "im": [0] * 256}))
        assert parse_state(str(path), pure_cap=16).dim == 16
        message = f"{path}: mixed file side: 16 over the 8 cap"
        with pytest.raises(DimensionCapError, match=f"^{re.escape(message)}$"):
            parse_state(str(path), pure_cap=8)
        code, out, err = run_cli(capsys, "entropy", "--state", str(path), "--of", "A",
                                 "--dim-cap", "8")
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_channel_file_rejects_non_finite(self, tmp_path, bad):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps({**IDENTITY_CHANNEL, "im": [0.0, bad, 0.0, 0.0]}))
        with pytest.raises(ValueError, match="finite"):
            load_channel_file(str(path))


class TestEntropyCommand:
    @pytest.mark.parametrize("state,expected", [
        ("epr", "-1.000000000000"),
        ("example1", "+1.000000000000"),
        ("cc", "+0.000000000000"),
    ])
    def test_worked_examples_formatting(self, capsys, state, expected):
        code, out, _ = run_cli(capsys, "entropy", "--state", state,
                               "--of", "A", "--given", "B")
        assert code == 0
        assert out == expected + "\n"

    def test_plain_subset_entropy(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--state", "epr", "--of", "A")
        assert code == 0 and out.strip() == "+1.000000000000"

    def test_entropy_of_an_accepted_state_is_never_negative(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "entropy", "--state", edge_bell_file(tmp_path),
                               "--of", "A,B")
        assert (code, out) == (0, "+0.000000000000\n")


RANDOM_17_QUBITS = "random-pure:" + "x".join(["2"] * 17) + ":1"


class TestReportCommand:
    def test_max_subset_lists_the_small_subsets_in_counting_order(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--state", "ghz:3", "--max-subset", "2")
        assert code == 0
        entries = json.loads(out)["subsets"]
        assert [e["subset"] for e in entries] == ["A", "B", "A,B", "C1", "A,C1", "B,C1"]
        for e in entries:
            assert abs(e["entropy"] - 1.0) < 1e-12
            assert abs(e["conditional_on_rest"] + 1.0) < 1e-12

    def test_over_the_subset_cap_exits_3_before_any_entropy(self, capsys, monkeypatch):
        def no_entropy(*args):
            raise AssertionError("an entropy was computed before the subset cap")

        monkeypatch.setattr(qmerge.entropy, "subset_entropy", no_entropy)
        code, out, err = run_cli(capsys, "report", "--state", RANDOM_17_QUBITS)
        assert (code, out, err) == (3, "", "error: subsets: 131071 over the 65535 cap\n")

    def test_max_subset_counts_against_the_cap(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--state", RANDOM_17_QUBITS,
                               "--max-subset", "2", "--format", "csv")
        assert code == 0 and len(out.splitlines()) == 1 + 17 + 136

    def test_region_on_seventeen_parties_still_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "region", "--state", RANDOM_17_QUBITS)
        assert code == 3 and out == "" and len(err.splitlines()) == 1


class TestMergeCommand:
    def test_exhaustive_hadamard_cc(self, capsys):
        code, out, _ = run_cli(capsys, "merge", "--state", "cc-pure", "-n", "1",
                               "--seed", "1", "--exhaustive", "--basis", "hadamard",
                               "--slack", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["plan"]["outcome_count"] == 2
        for outcome in doc["outcomes"]:
            assert abs(outcome["achieved_fidelity"] - 1.0) < 1e-6
            assert outcome["cbits"] == 1.0
            assert outcome["epr_net_bits"] == 0.0

    @pytest.mark.parametrize("argv,count", [
        (("--state", "ghz:4", "-n", "5", "--exhaustive", "--seed", "1"), 32),
        (("--state", "cc-pure", "-n", "2", "--seed", "1", "--exhaustive", "--basis", "hadamard",
          "--slack", "0"), 4),
    ], ids=["ghz4-n5", "cc-pure-hadamard"])
    def test_every_printed_outcome_achieves_its_uhlmann_fidelity(self, capsys, argv, count):
        # two exhaustive scans on the CLI's own stream, the README's among
        # them: Bob's recovery reaches Uhlmann's bound on every outcome
        code, out, _ = run_cli(capsys, "merge", *argv)
        outcomes = json.loads(out)["outcomes"]
        assert code == 0 and len(outcomes) == count
        assert max(abs(o["achieved_fidelity"] - o["uhlmann_fidelity"]) for o in outcomes) <= 1e-12

    def test_seeded_runs_byte_identical(self, capsys):
        argv = ("merge", "--state", "random-pure:2x2x2:3", "-n", "2",
                "--seed", "42", "--trials", "4")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first.encode() == second.encode()

    def test_outcome_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "merge", "--state", "epr", "-n", "1",
                            "--seed", "5", "--slack", "0")
        doc = json.loads(out)
        reparsed = json.loads(json.dumps(doc))
        assert reparsed == doc

    def test_curve_csv_has_header(self, capsys):
        code, out, _ = run_cli(capsys, "merge", "--state", "epr", "--seed", "1",
                               "--curve", "1..2", "--trials", "2",
                               "--format", "csv", "--slack", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n,trials,block_dim")
        assert len(lines) == 3

    def test_skipped_row_is_null_in_json_and_empty_in_csv(self, capsys):
        # n=6 needs 2^22 prepared amplitudes, over the 2^20 cap
        argv = ("merge", "--state", "random-pure:2x2x2:11", "--curve", "5..6",
                "--trials", "3", "--seed", "11")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        row = json.loads(out)["curve"][1]
        assert row["n"] == 6 and row["skipped"] is True
        assert [k for k, v in row.items() if v is None] == [
            "epr_net_bits", "cbits", "fidelity_mean", "fidelity_median", "fidelity_min",
            "decoupling_mean", "decoupling_median", "decoupling_min"]
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0 and out.splitlines()[2] == "6,0,0,0,0,,,,,,,,,True"

    def test_empty_curve_is_header_only_csv(self, capsys):
        code, out, _ = run_cli(capsys, "merge", "--state", "epr", "--seed", "1",
                               "--curve", "3..2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["n,trials,block_dim,outcome_count,k_boost,"
                                    "epr_net_bits,cbits,fidelity_mean,fidelity_median,"
                                    "fidelity_min,decoupling_mean,decoupling_median,"
                                    "decoupling_min,skipped"]

    def test_empty_curve_checks_the_parties_as_one_copy_count_does(self, capsys):
        # a state without B exits 2 whether its curve is empty or not
        state = ("merge", "--state", "random-pure:2:1", "--seed", "1")
        results = [run_cli(capsys, *state, *copies)
                   for copies in (("--curve", "3..1"), ("--curve", "1..2"), ("-n", "1"))]
        assert results == [(2, "", "error: unknown subsystem label 'B'\n")] * 3

    def test_mixed_state_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "merge", "--state", "cc", "-n", "1", "--seed", "1")
        assert code == 2 and out == "" and "pure" in err

    def test_dim_cap_flag_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "merge", "--state", "epr", "-n", "4",
                                 "--seed", "1", "--dim-cap", "32")
        assert code == 3 and out == ""

    def test_cap_is_not_read_from_the_environment(self, capsys, monkeypatch):
        # --dim-cap is the one route to the pure cap
        monkeypatch.setenv("QMERGE_DIM_CAP", "32")
        code, out, err = run_cli(capsys, "merge", "--state", "epr", "-n", "4", "--seed", "1")
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("basis", ["haar", "hadamard"])
    def test_alice_basis_over_the_cap_exits_3_before_building_it(
            self, capsys, monkeypatch, basis):
        # the prepared state has 2^20 amplitudes, within the cap, but Alice's
        # basis and marginal are 2^20 x 2^20; neither basis may be formed
        def no_basis(dim, *_):
            raise AssertionError(f"{dim}x{dim} basis formed")

        monkeypatch.setattr(qmerge.merging, "haar_unitary", no_basis)
        monkeypatch.setattr(qmerge.merging, "hadamard_basis", no_basis)
        code, out, err = run_cli(capsys, "merge", "--state", "random-pure:1024x1x1:1", "-n", "2",
                                 "--seed", "1", "--basis", basis)
        assert (code, out) == (3, "")
        assert err == "error: Alice's basis entries: 1099511627776 over the 1048576 cap\n"

    @pytest.mark.parametrize("basis,message,shown", [
        ("haar", "Unable to allocate 16.0 TiB", "Unable to allocate 16.0 TiB"),
        ("hadamard", "", "out of memory"),
    ], ids=["haar-flag", "hadamard-flag"])
    def test_cap_raised_beyond_the_machine_exits_3(
            self, capsys, monkeypatch, basis, message, shown):
        # a 2^41 cap admits Alice's 2^20 x 2^20 arrays, which no machine
        # holds; the stubs raise where they would be allocated, and
        # allocate nothing
        def out_of_memory(*_, **__):
            raise MemoryError(message)

        monkeypatch.setattr(qmerge.merging, "merge_trials", out_of_memory)
        monkeypatch.setattr(qmerge.merging, "hadamard_basis", out_of_memory)
        code, out, err = run_cli(capsys, "merge", "--state", "random-pure:1024x1x1:1", "-n", "2",
                                 "--seed", "1", "--basis", basis, "--dim-cap", str(2 ** 41))
        assert (code, out, err) == (3, "", f"error: {shown}\n")

    @pytest.mark.parametrize("state,n,code,match", [
        ("random-pure:1x1:0", "64", 0, ""),
        ("random-pure:1x1:0", "65", 2, "n must be <= 64"),
        ("random-pure:1x1:0", "1000000000", 2, "n must be <= 64"),
        ("epr", "65", 3, "prepared state bits: 130 over the 64 cap"),
    ])
    def test_copy_counts_bounded_at_64(self, capsys, state, n, code, match):
        # a one-dimensional state passes the 2^64-amplitude check at any n
        got, out, err = run_cli(capsys, "merge", "--state", state, "-n", n, "--seed", "1")
        assert got == code
        if code:
            assert out == "" and len(err.splitlines()) == 1 and match in err
        else:
            assert json.loads(out)["plan"]["n"] == 64


class TestOneEntropyPerCut:
    """``report``, ``region`` and ``eoa`` read one entropy per cut of a pure
    state: one eigen-solve each, and one value for a subset and its
    complement."""

    @pytest.mark.parametrize("source", TIED_CUTS)
    def test_report_entropy_is_minus_conditional_on_rest(self, capsys, source):
        code, out, _ = run_cli(capsys, "report", "--state", source)
        proper = json.loads(out)["subsets"][:-1]
        assert code == 0 and len(proper) == 2 ** len(source.split("x")) - 2
        assert [e["subset"] for e in proper if e["entropy"] != -e["conditional_on_rest"]] == []

    @pytest.mark.parametrize("argv, solves", [
        (("report", "--state", "ghz:12"), 2 ** 11 - 1),
        (("region", "--state", "ghz:12"), 2 ** 11 - 1),
        (("eoa", "--state", "ghz:14"), 2 ** 12),
    ])
    def test_one_eigen_solve_per_cut(self, capsys, monkeypatch, argv, solves):
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        code, _, _ = run_cli(capsys, *argv)
        assert (code, len(calls)) == (0, solves)

    def test_region_and_report_share_the_subsets_bound(self, capsys):
        code, out, err = run_cli(capsys, "region", "--state", "ghz:13")
        assert (code, err) == (0, "")
        bounds = {c["subset"]: c["bound"] for c in json.loads(out)["constraints"]}
        _, out, _ = run_cli(capsys, "report", "--state", "ghz:13")
        assert bounds == {e["subset"]: e["conditional_on_rest"]
                          for e in json.loads(out)["subsets"]}
        assert len(bounds) == 2 ** 13 - 1


class TestRegionCommand:
    def test_epr_region_constraints(self, capsys):
        _, out, _ = run_cli(capsys, "region", "--state", "epr")
        doc = json.loads(out)
        bounds = {c["subset"]: c["bound"] for c in doc["constraints"]}
        assert abs(bounds["A"] + 1.0) < 1e-9
        assert abs(bounds["B"] + 1.0) < 1e-9
        assert abs(bounds["A,B"]) < 1e-9
        assert len(doc["corner_points"]) == 2

    def test_point_membership(self, capsys):
        _, out, _ = run_cli(capsys, "region", "--state", "epr", "--point=-1,1")
        doc = json.loads(out)
        assert doc["point"]["contained"] is True
        _, out, _ = run_cli(capsys, "region", "--state", "epr", "--point=-2,0")
        doc = json.loads(out)
        assert doc["point"]["contained"] is False
        assert "A" in doc["point"]["violations"]
        code, out, _ = run_cli(capsys, "region", "--state", "epr", "--point=1,-1.5",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["subset,bound,satisfied", "A,-1.0,True", "B,-1.0,False",
                                    '"A,B",0.0,False']

    def test_state_at_the_psd_floor(self, capsys, tmp_path):
        # its largest eigenvalue is above 1; clamped, S(A,B) is 0, not negative
        code, out, _ = run_cli(capsys, "region", "--state", edge_bell_file(tmp_path))
        assert code == 0
        bounds = [c["bound"] for c in json.loads(out)["constraints"]]
        assert bounds == [-1.0, -1.0, 0.0]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
    def test_non_finite_point_rejected_naming_the_flag(self, capsys, rate, fmt):
        with pytest.raises(SystemExit) as exc:
            main(["region", "--state", "epr", f"--point={rate},1", "--format", fmt])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("qmerge region: error: argument --point: ")

    def test_mac_flag_infers_decoder_group(self, capsys):
        _, out, _ = run_cli(capsys, "region", "--state", "ghz:3", "--mac")
        doc = json.loads(out)
        assert doc["kind"] == "mac"
        assert [c["subset"] for c in doc["constraints"]] == ["A", "B", "A,B"]

    def test_mac_bounds_are_the_library_region(self, capsys):
        # GHZ on A, B, C1, C2: mac_region and `region --mac` both take the
        # decoder (C1, C2)
        _, out, _ = run_cli(capsys, "region", "--state", "ghz:4", "--mac")
        printed = [c["bound"] for c in json.loads(out)["constraints"]]
        library = mac_region(parse_state("ghz:4").density())
        assert printed == [1.0, 1.0, 1.0]
        np.testing.assert_allclose([c.bound for c in library.constraints], printed, atol=1e-9)

    @pytest.mark.parametrize("spec", ["ghz:3", "random-pure:2x2x2:3", "random-pure:2x2x2x2:1"])
    def test_mac_decoder_is_every_other_party(self, capsys, spec):
        # decoder C, R or (C1, C2): the library and the CLI give one region
        _, out, _ = run_cli(capsys, "region", "--state", spec, "--mac")
        printed = [(c["subset"], c["bound"]) for c in json.loads(out)["constraints"]]
        library = mac_region(parse_state(spec).density())
        assert [s for s, _ in printed] == ["A", "B", "A,B"]
        np.testing.assert_allclose([c.bound for c in library.constraints],
                                   [b for _, b in printed], atol=1e-12)

    def test_mac_without_a_decoder_exits_2_as_the_library_raises(self, capsys):
        message = "decoder must be a non-empty label set"
        with pytest.raises(ValueError, match=f"^{message}$"):
            mac_region(parse_state("epr").density())
        code, out, err = run_cli(capsys, "region", "--state", "epr", "--mac")
        assert (code, out, err) == (2, "", f"error: {message}\n")


def printed_numbers(out: str, fmt: str) -> list[float]:
    """Every float literal of a JSON document, or every CSV field that parses
    as a number."""
    if fmt == "json":
        found = []
        json.loads(out, parse_float=lambda text: found.append(float(text)) or float(text))
        return found
    fields = [f for row in csv.reader(io.StringIO(out)) for f in row]
    return [float(f) for f in fields if re.fullmatch(r"-?\d+(\.\d+)?(e-?\d+)?", f)]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["report example1", "region edge"])
def test_a_zero_entropy_prints_as_positive_zero(capsys, tmp_path, command, fmt):
    # S(B) of example1 and S(A,B) of the edge Bell file are 0 from −(1·log2 1)
    name, state = command.split()
    state = edge_bell_file(tmp_path) if state == "edge" else state
    code, out, _ = run_cli(capsys, name, "--state", state, "--format", fmt)
    values = printed_numbers(out, fmt)
    assert code == 0 and 0.0 in values
    assert [v for v in values if v == 0 and math.copysign(1.0, v) < 0] == []


@pytest.mark.parametrize("parties,command", [
    (2, "entropy --of A --given B"), (2, "report"), (2, "region"), (3, "report"),
    (3, "region"), (3, "region --mac"), (3, "entropy --of A --given B,C"),
])
def test_marginals_of_a_state_at_the_psd_floor(capsys, tmp_path, parties, command):
    # a state the door accepts is not checked again: its marginals below the
    # floor are clamped, and every entropy of |0…0⟩⟨0…0| prints as 0
    name, *flags = command.split()
    code, out, err = run_cli(capsys, name, "--state", floor_file(tmp_path, parties), *flags)
    values = [float(out)] if name == "entropy" else printed_numbers(out, "json")
    assert (code, err) == (0, "") and values
    assert all(v == 0.0 and math.copysign(1.0, v) > 0 for v in values)


class TestEoaCommand:
    def test_ghz4(self, capsys):
        code, out, _ = run_cli(capsys, "eoa", "--state", "ghz:4",
                               "--alice", "A", "--bob", "B")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"] - 1.0) < 1e-9
        assert len(doc["cuts"]) == 4

    def test_overlapping_groups_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "eoa", "--state", "ghz:4",
                                 "--alice", "A,C1", "--bob", "C1")
        assert code == 2 and out == ""
        assert err == "error: alice and bob overlap on ['C1']\n"


class TestSideinfoCommand:
    def test_identity_channel(self, capsys, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(IDENTITY_CHANNEL))
        code, out, _ = run_cli(capsys, "sideinfo", "--state", "cc-pure",
                               "--channel", str(path), "--seed", "2",
                               "--restarts", "2")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["r_a"]) < 1e-9
        assert doc["ep"]["restarts_used"] == 2

    def test_deterministic(self, capsys, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(IDENTITY_CHANNEL))
        argv = ("sideinfo", "--state", "cc-pure", "--channel", str(path),
                "--seed", "7", "--restarts", "2")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_readme_example_pinned(self, capsys, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(IDENTITY_CHANNEL))
        code, out, _ = run_cli(capsys, "sideinfo", "--state", "cc-pure", "--channel", str(path),
                               "--seed", "2", "--restarts", "4")
        assert code == 0
        ep = json.loads(out)["ep"]
        assert abs(ep["value"] - 1.0) < 1e-12
        assert ep["restarts_used"] == 4 and ep["converged"] is True
        # ρ_AU = cc: S(A) = S(U) = S(AU) = 1 bit
        assert abs(ep["lower"] - 0.5) < 1e-12 and abs(ep["upper"] - 1.0) < 1e-12
        assert ep["value"] <= ep["restart_min"] <= ep["restart_max"] < 1 + 1e-9

    def test_readme_example_output(self, capsys, tmp_path):
        # the README's sideinfo command, on its channel, prints its JSON block
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (argv,) = re.findall(r"^qmerge (sideinfo .*)$", text, re.M)
        (channel,) = re.findall(r'`(\{"input".*?\})`', text)
        block = re.search(r"For the `sideinfo`.*?```json\n(.*?)```", text, re.S).group(1)
        path = tmp_path / "chan.json"
        path.write_text(channel)
        code, out, _ = run_cli(capsys, *argv.replace("chan.json", str(path)).split())
        assert code == 0

        def match(got, want):
            if isinstance(want, dict):
                assert list(got) == list(want)
                for key in want:
                    match(got[key], want[key])
            elif isinstance(want, float):
                assert abs(got - want) <= 1e-12, (got, want)
            else:
                assert got == want

        match(json.loads(out), json.loads(block))

    def test_csv_appends_the_bracket_after_the_json_order(self, capsys, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(IDENTITY_CHANNEL))
        argv = ("sideinfo", "--state", "cc-pure", "--channel", str(path), "--seed", "2",
                "--restarts", "1")
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        header, row = out.splitlines()
        assert header == ("r_a,r_b,ep_value,ep_restarts,ep_converged,"
                          "ep_lower,ep_upper,ep_restart_min,ep_restart_max")
        _, out, _ = run_cli(capsys, *argv)
        doc = json.loads(out)
        assert row.split(",")[5:] == [str(v) for v in list(doc["ep"].values())[3:]]

    def test_search_over_the_cap_exits_3_before_drawing(self, capsys, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(IDENTITY_CHANNEL))
        code, out, err = run_cli(capsys, "sideinfo", "--state", "cc-pure", "--channel", str(path),
                                 "--seed", "2", "--cap-out", "1000", "--cap-env", "1000")
        assert code == 3 and out == "" and len(err.splitlines()) == 1
        assert "entries" in err


    def test_many_qubit_state_never_forms_its_density(self, capsys, tmp_path, monkeypatch):
        # 13 qubits: |ψ⟩⟨ψ| would have side 8192, over the 4096 density cap,
        # while ρ over A and B has side 4
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(IDENTITY_CHANNEL))

        def no_density(psi):
            raise AssertionError(f"|ψ⟩⟨ψ| of side {psi.dim} formed")

        monkeypatch.setattr(PureState, "density", no_density)
        code, out, _ = run_cli(capsys, "sideinfo", "--state", "random-pure:" + "x".join("2" * 13)
                               + ":1", "--channel", str(path), "--seed", "2", "--restarts", "1")
        assert code == 0 and json.loads(out)["ep"]["restarts_used"] == 1

    def test_output_over_the_density_cap_exits_3_before_contracting(
            self, capsys, tmp_path, monkeypatch):
        # B has dimension 1 on random-pure:2x1x2: an out_dim of 4096 makes ρ′
        # over A and U of side 8192, over the 4096 density cap
        path = tmp_path / "chan.json"
        path.write_text(json.dumps({"input": "B", "output": "U", "out_dim": 4096, "env_dim": 1,
                                    "re": [1.0] + [0.0] * 4095, "im": [0.0] * 4096}))

        def no_contraction(*args, **kwargs):
            raise AssertionError("channel contracted")

        monkeypatch.setattr(qmerge.core, "stinespring_contract", no_contraction)
        monkeypatch.setattr(qmerge.applications, "stinespring_contract", no_contraction)
        code, out, err = run_cli(capsys, "sideinfo", "--state", "random-pure:2x1x2:1",
                                 "--channel", str(path), "--seed", "2")
        assert (code, out, err) == (3, "", "error: sideinfo density side: 8192 over the 4096 cap\n")

class TestErrorPaths:
    def test_unknown_preset_exits_2_with_empty_stdout(self, capsys):
        code, out, err = run_cli(capsys, "entropy", "--state", "nope", "--of", "A")
        assert code == 2 and out == "" and "unknown preset" in err

    def test_unknown_label_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "entropy", "--state", "epr", "--of", "Z")
        assert code == 2 and out == ""

    def test_nan_state_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({
            "labels": ["A", "B"], "dims": [2, 2], "kind": "pure",
            "re": [math.nan, 0.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0, 0.0],
        }))
        code, out, err = run_cli(capsys, "entropy", "--state", str(path),
                                 "--of", "A", "--given", "B")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "finite" in err

    def test_eigenvalue_below_the_floor_is_printed_as_a_plain_float(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({"labels": ["A", "B"], "dims": [2, 1], "kind": "mixed",
                                    "re": [1, 0.5, 0.5, 0], "im": [0, 0, 0, 0]}))
        code, out, err = run_cli(capsys, "entropy", "--state", str(path), "--of", "A")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: minimum eigenvalue -0.20710678118654754 below -1e-09\n"

    def test_ghz_over_the_cap_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "entropy", "--state", "ghz:4", "--of", "A",
                                 "--dim-cap", "8")
        assert code == 3 and out == "" and len(err.splitlines()) == 1

    def test_a_huge_ghz_exits_3_at_once_with_a_short_line(self, capsys):
        # 2^1000000000 is neither formed nor printed: the qubits are counted
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "entropy", "--state", "ghz:1000000000", "--of", "A")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (3, "", "error: ghz qubits: 1000000000 over the 20 cap\n")
        assert len(err) < 200

    def test_a_product_too_long_to_print_still_exits_3(self, capsys):
        # three 2000-digit dimensions multiply to a 6000-digit count
        dims = "x".join(["9" * 2000] * 3)
        code, out, err = run_cli(capsys, "entropy", "--state", f"random-pure:{dims}:1", "--of", "A")
        assert (code, out) == (3, "")
        assert re.fullmatch(r"error: random-pure amplitudes: 2\^19931\+ over the 1048576 cap\n", err)

    @pytest.mark.parametrize("flags", [
        ("-n", "1", "--trials", "0"),
        ("--curve", "0..2"),
        ("--curve", "3..x"),
        ("-n", "1", "--slack", "inf"),
        ("-n", "1", "--slack", "nan"),
        ("-n", "1", "--slack", "-1"),
        ("-n", "1", "--dim-cap", "0"),
        (),
        ("-n", "2", "--curve", "1..1"),
        ("--curve", "1..2", "--exhaustive"),
        ("--curve", "1..2", "--basis", "hadamard"),
        ("--curve", "1..2", "--basis", "hadamard", "--exhaustive"),
        ("-n", "1", "--exhaustive", "--trials", "3"),
        ("--curve", "1..65"),
        ("--curve", "65..1"),
        ("--curve", "1..2", "--trials", "10001"),
    ])
    def test_bad_merge_flags_rejected_at_parse_time(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["merge", "--state", "epr", "--seed", "1", *flags])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "Traceback" not in captured.err and "error:" in captured.err

    def test_json_output_is_strict(self):
        with pytest.raises(ValueError):
            _emit_json({"value": math.inf})

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--state", "epr"])  # missing --of
        assert exc.value.code == 2


PURE_EPR = {"labels": ["A", "B"], "dims": [2, 2], "kind": "pure",
            "re": [0.7071067811865476, 0, 0, 0.7071067811865476], "im": [0, 0, 0, 0]}


class TestFileShapes:
    @pytest.mark.parametrize("kind,fields", [
        ("state", {"labels": "AB"}),
        ("state", {"labels": ["A", "B", "C"]}),
        ("state", {"labels": ["A", 1]}),
        ("state", {"dims": "22"}),
        ("state", {"dims": [2.5, 2]}),
        ("state", {"dims": [2, 0]}),
        ("state", {"dims": [True, 2]}),
        ("state", {"re": 0.5}),
        ("channel", {"out_dim": "2"}),
        ("channel", {"out_dim": 2.0}),
        ("channel", {"env_dim": 0}),
        # entries must be JSON numbers, and no larger than 1: every entry
        # of a normalized state, density matrix or isometry is
        ("state", {"re": [{}, 0, 0, 0.7071067811865476]}),
        ("state", {"re": [[1], 0, 0, 0]}),
        ("state", {"re": ["0.7071067811865476", 0, 0, "0.7071067811865476"]}),
        ("state", {"re": [True, 0, 0, 0]}),
        ("state", {"re": [1e308, 0, 0, 1e308]}),
        ("state", {"re": [0.5, 10 ** 400, 0, 0.5]}),
        ("state", {"labels": ["A"], "dims": [2], "kind": "mixed",
                   "re": [0.5, 1e308, 1e308, 0.5], "im": [0, 0, 0, 0]}),
        ("channel", {"re": [1e308, 0, 0, 1e308]}),
        ("channel", {"re": [], "im": []}),
        ("channel", {"input": ["B"]}),
        ("channel", {"output": ["U"]}),
        ("channel", {"output": ""}),
        # errors of the state types name the file too
        ("state", {"labels": ["A", ""]}),
        ("state", {"labels": ["A", "A"]}),
        # a mixed matrix must be Hermitian within the file tolerance
        ("state", {"labels": ["A"], "dims": [2], "kind": "mixed",
                   "re": [0.5, 0.4, -0.4, 0.5], "im": [0, 0, 0, 0]}),
    ])
    def test_bad_shape_exits_2_with_one_line(self, capsys, tmp_path, kind, fields):
        base = PURE_EPR if kind == "state" else IDENTITY_CHANNEL
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({**base, **fields}))
        if kind == "state":
            argv = ("entropy", "--state", str(path), "--of", "A", "--given", "B")
        else:
            argv = ("sideinfo", "--state", "cc-pure", "--channel", str(path),
                    "--seed", "1", "--restarts", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning lines before the error
            code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and path.name in err

    def test_non_object_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, out, err = run_cli(capsys, "entropy", "--state", str(path), "--of", "A")
        assert code == 2 and out == "" and len(err.splitlines()) == 1


@pytest.mark.parametrize("value", ["0", "abc"])
def test_stale_env_cap_is_ignored(capsys, monkeypatch, value):
    # a value the old QMERGE_DIM_CAP route refused changes nothing now
    expected = run_cli(capsys, "entropy", "--state", "epr", "--of", "A")
    monkeypatch.setenv("QMERGE_DIM_CAP", value)
    assert run_cli(capsys, "entropy", "--state", "epr", "--of", "A") == expected
    assert expected[0] == 0 and expected[2] == ""


@pytest.mark.parametrize("argv", [
    ("report", "--state", "ghz:3", "--max-subset", "-1"),
    ("report", "--state", "ghz:3", "--max-subset", "0"),
    ("sideinfo", "--state", "cc-pure", "--channel", "c.json", "--seed", "1", "--restarts", "0"),
    ("sideinfo", "--state", "cc-pure", "--channel", "c.json", "--seed", "1", "--cap-out", "0"),
    ("sideinfo", "--state", "cc-pure", "--channel", "c.json", "--seed", "1", "--cap-env", "x"),
    ("merge", "--state", "epr", "-n", "1", "--trials", "0", "--seed", "1"),
    ("merge", "--state", "epr", "--seed", "1"),
    ("merge", "--state", "epr", "-n", "2", "--curve", "1..1", "--seed", "1"),
    ("merge", "--state", "epr", "--curve", "1..2", "--exhaustive", "--seed", "1"),
    ("merge", "--state", "epr", "--curve", "1..2", "--basis", "hadamard", "--seed", "1"),
    ("entropy", "--state", "epr"),
])
def test_usage_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"qmerge {argv[0]}: error: ")


@pytest.mark.parametrize("argv", [
    ("merge", "--state", "epr", "-n", "1", "--seed", "-1"),
    ("sideinfo", "--state", "cc-pure", "--channel", "c.json", "--seed", "-1"),
])
def test_negative_seed_rejected_naming_the_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == (f"qmerge {argv[0]}: error: argument --seed: "
                            "expected an integer >= 0, got '-1'\n")


@pytest.mark.parametrize("argv,flag,limit", [
    (("merge", "--state", "epr", "-n", "1", "--seed", "1", "--trials", "10001"),
     "--trials", "1..10000"),
    (("sideinfo", "--state", "cc-pure", "--channel", "c.json", "--seed", "2",
      "--restarts", "1001"), "--restarts", "1..1000"),
])
def test_work_bounds_rejected_by_the_parser(capsys, monkeypatch, argv, flag, limit):
    # the parser refuses the count before any state is loaded or work begins
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(qmerge.presets, "parse_state", refuse)
    monkeypatch.setattr(qmerge.merging, "merge_trials", refuse)
    monkeypatch.setattr(qmerge.merging, "monte_carlo_merge", refuse)
    monkeypatch.setattr(qmerge.applications, "side_info_rates", refuse)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == (f"qmerge {argv[0]}: error: argument {flag}: "
                            f"expected an integer in {limit}, got '{argv[-1]}'\n")


def _fresh_python(code: str, *args: str, **env) -> str:
    """Run ``python -c code args...`` in a new interpreter that imports this
    qmerge, with ``env`` over the caller's environment; its stdout."""
    src = os.path.dirname(os.path.dirname(qmerge.__file__))
    env = {**os.environ, "PYTHONPATH": src, **env}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_cli_import_loads_no_scipy():
    code = ("import sys, qmerge.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code).strip() == "[]"


@pytest.mark.parametrize("module", ["qmerge", "qmerge.cli"])
def test_import_loads_no_numpy(module):
    # the CLI sets the BLAS thread count before numpy loads; `python -m
    # qmerge.cli` and the console script both import these first
    assert _fresh_python(f"import sys, {module}; print('numpy' in sys.modules)") == "False\n"


def test_every_exported_name_resolves_and_is_listed():
    # each name of the package surface is read from its submodule on lookup
    listed = dir(qmerge)
    for name in qmerge.__all__:
        getattr(qmerge, name)
        assert name in listed, name


@pytest.mark.parametrize("name", ["mutual_information", "coherent_information", "ssa_margin",
                                  "ensemble_reference_check"])
def test_test_oracles_are_not_exported(name):
    # these live in the tests' conftest, not in the package
    with pytest.raises(AttributeError):
        getattr(qmerge, name)


@pytest.mark.parametrize("argv,absent", [
    (["entropy", "--state", "epr", "--of", "A", "--given", "B"],
     ["qmerge.applications", "qmerge.merging"]),
    (["merge", "--state", "cc-pure", "-n", "2", "--seed", "1", "--exhaustive",
      "--basis", "hadamard", "--slack", "0"],
     ["qmerge.applications"]),
], ids=["entropy", "merge"])
def test_each_command_loads_only_the_modules_it_runs(argv, absent):
    code = ("import contextlib, io, sys\n"
            "from qmerge.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "print(*sorted(m for m in sys.modules if m.startswith('qmerge.')))")
    loaded = _fresh_python(code).split()
    assert "qmerge.cli" in loaded and not set(absent) & set(loaded)


@pytest.mark.parametrize("argv", [
    ["merge", "--state", "random-pure:2x2x2:11", "--curve", "5..6", "--trials", "3",
     "--seed", "11"],
    ["merge", "--state", "example1-pure", "-n", "3", "--exhaustive", "--seed", "4"],
], ids=["curve", "exhaustive"])
def test_stdout_does_not_depend_on_the_callers_blas_threads(argv):
    # on a small state the CLI overwrites the thread variables before numpy
    # loads, so these lines, whose last bits moved with the thread count,
    # print one text
    code = f"import sys\nfrom qmerge.cli import main\nsys.exit(main({argv!r}))"
    one, two = (_fresh_python(code, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert one == two and one


THREAD_PROBE = ("import contextlib, io, os, sys\n"
                "if sys.argv[1] == 'numpy-first': import numpy\n"
                "from qmerge.cli import main\n"
                "if sys.argv[2:]:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert main(sys.argv[2:]) == 0\n"
                "print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))")


@pytest.mark.parametrize("argv,threads", [
    (["run", "entropy", "--state", "ghz:12", "--of", "A"], "1 1"),
    (["run", "entropy", "--state", "ghz:13", "--of", "A"], "2 None"),
    (["run", "report", "--state", "random-pure:64x64:1"], "1 1"),
    (["run", "report", "--state", "random-pure:64x65:1"], "2 None"),
    (["run", "merge", "--state", "cc-pure", "-n", "2", "--seed", "1"], "1 1"),
    (["numpy-first", "entropy", "--state", "epr", "--of", "A"], "2 None"),
    (["import-only"], "2 None"),
], ids=["ghz12", "ghz13", "random4096", "random4160", "merge", "numpy-loaded", "import"])
def test_one_blas_thread_only_for_a_command_on_a_small_state(argv, threads):
    # the caller asks for 2 threads: only a command on a state of at most
    # ONE_THREAD_MAX_ENTRIES entries, run before numpy loads, overrides that
    assert _fresh_python(THREAD_PROBE, *argv, OPENBLAS_NUM_THREADS="2") == threads + "\n"


def test_a_state_file_is_small_by_its_size(tmp_path):
    from qmerge.cli import ONE_THREAD_MAX_ENTRIES, _small_state

    path = tmp_path / "state.json"
    path.write_bytes(b" " * (4 * ONE_THREAD_MAX_ENTRIES))  # room for that many entries
    assert _small_state(str(path))
    path.write_bytes(b" " * (4 * ONE_THREAD_MAX_ENTRIES + 1))
    assert not _small_state(str(path))
    assert _small_state(str(tmp_path / "missing.json"))  # fails later, as usage


def test_a_preset_name_wins_over_a_large_file_of_that_name(tmp_path, monkeypatch):
    # parse_state builds the preset epr, not the file, so the threads follow
    # the 4-entry preset; ./epr names the file, and is sized as one
    from qmerge.cli import ONE_THREAD_MAX_ENTRIES, _small_state

    (tmp_path / "epr").write_bytes(b" " * (4 * ONE_THREAD_MAX_ENTRIES + 1))
    monkeypatch.chdir(tmp_path)
    argv = ["run", "entropy", "--state", "epr", "--of", "A", "--given", "B"]
    assert _fresh_python(THREAD_PROBE, *argv, OPENBLAS_NUM_THREADS="2") == "1 1\n"
    assert _small_state("epr") and not _small_state("./epr")


def test_library_sideinfo_does_not_depend_on_blas_threads():
    # a library caller keeps its own thread count; the stacked EP restarts
    # still give the same bytes under one thread and two
    code = ("import sys\n"
            "import numpy as np\n"
            "from qmerge import presets, side_info_rates, stream_rng, ChannelSpec\n"
            "r = side_info_rates(presets.cc_purification(),\n"
            "                    ChannelSpec('B', np.eye(2), 'U', 2, 1),\n"
            "                    restarts=4, cap_out=None, cap_env=None, rng=stream_rng(2))\n"
            "assert 'qmerge.cli' not in sys.modules\n"
            "print(repr((r.r_a, r.r_b, r.ep.value, r.ep.lower, r.ep.upper,\n"
            "            r.ep.restart_min, r.ep.restart_max)))\n"
            "print(r.ep.channel.isometry.tobytes().hex())")
    one, two = (_fresh_python(code, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert one == two and one
