"""CLI surface: flags, formats, exit codes, seed reporting."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hlcert import (
    TrialConfig,
    alternating_max,
    check_khinchin,
    search_extremal,
    steinhaus_moment,
    verify_proof_chain,
)
from hlcert import cli as cli_module
from hlcert.cli import _COMMANDS, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_text(capsys):
    code, out, _ = run(capsys, "constants", "--q", "2", "--field", "real")
    assert code == EXIT_OK
    assert "value: 1.0" in out
    assert "q0: 1.847" in out


def test_constants_json_round_trip(capsys):
    code, out, _ = run(capsys, "constants", "--q", "1", "--field", "complex", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.8862269254527586, rel=1e-12)
    assert json.loads(json.dumps(payload)) == payload


def test_exponents_command(capsys):
    code, out, _ = run(capsys, "exponents", "--m", "3", "--p", "4", "--lambda0", "1")
    assert code == EXIT_OK
    assert "s: 2.0" in out
    assert "eta1: 4.0" in out
    assert "constant: 1.9999999999999998" in out or "constant: 2.0" in out


def test_region_empty(capsys):
    code, out, _ = run(capsys, "region", "--m", "2", "--lambda0", "1")
    assert code == EXIT_OK
    assert "empty: True" in out


def test_region_p_inf_upper(capsys):
    code, out, _ = run(capsys, "region", "--m", "2", "--lambda0", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["upper"] == "inf"
    assert payload["empty"] is False


def test_transfer_command(capsys):
    code, out, _ = run(
        capsys, "transfer", "--p-list", "4,4,4", "--q-list", "inf,inf,inf",
        "--lambda0", "1", "--s", "2",
    )
    assert code == EXIT_OK
    assert "eta1: 4.0" in out


def test_transfer_hypothesis_failure_is_usage_error(capsys):
    code, _, err = run(
        capsys, "transfer", "--p-list", "2,2,2", "--q-list", "inf,inf,inf",
        "--lambda0", "1", "--s", "9",
    )
    assert code == EXIT_USAGE
    assert "deficiency" in err


@pytest.mark.parametrize("flag, field", [("--s", "s"), ("--lambda0", "lambda0")])
def test_transfer_nan_input_is_usage_error_naming_the_field(capsys, flag, field):
    # "--s nan" used to print "s = nan must be >= eta2 = 2"
    argv = {"--p-list": "4,4,4", "--q-list": "inf,inf,inf", "--lambda0": "1", "--s": "2"}
    argv[flag] = "nan"
    code, out, err = run(capsys, "transfer", *[x for kv in argv.items() for x in kv])
    assert code == EXIT_USAGE
    assert out == ""
    assert f"{field} must be >= 1, got nan" in err


def test_classical_command(capsys):
    code, out, _ = run(capsys, "classical", "--m", "2", "--p", "inf", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["hl_high"] == pytest.approx(4.0 / 3.0)
    assert payload["hl_low"] is None


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--m", "3", "--n", "2", "--p", "4", "--lambda0", "1",
        "--trials", "10", "--restarts", "2", "--seed", "5", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert payload["seed"] == 5
    assert payload["trials"] == 10


def test_verify_deterministic_bytes(capsys):
    argv = [
        "verify", "--m", "3", "--n", "2", "--p", "4", "--lambda0", "1",
        "--trials", "8", "--restarts", "2", "--seed", "5", "--format", "json",
    ]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_verify_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "--m", "3", "--n", "2", "--p", "4", "--lambda0", "1",
        "--trials", "4", "--restarts", "2", "--seed", "5", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("trial,kind,seed,")
    assert len(lines) == 5


def test_verify_draws_and_prints_seed(capsys):
    code, out, _ = run(
        capsys, "verify", "--m", "3", "--n", "2", "--p", "4", "--lambda0", "1",
        "--trials", "2", "--restarts", "2",
    )
    assert code == EXIT_OK
    assert out.startswith("# seed: ")


@pytest.mark.parametrize("argv", [
    ("verify", "--m", "3", "--n", "2", "--p", "4", "--lambda0", "1", "--trials", "2"),
    ("search", "--m", "3", "--n", "2", "--p", "4", "--lambda0", "1", "--budget", "2"),
    ("sweep", "--m", "3", "--p", "4", "--grid", "1"),
    ("contraction-check", "--m", "2", "--N", "3", "--t", "2"),
])
def test_seed_of_2_32_or_more_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", str(2**32 + 5))
    assert code == EXIT_USAGE
    assert out == "" and "seed" in err
    code, _, _ = run(capsys, *argv, "--seed", str(2**32 - 1))
    assert code == EXIT_OK


def test_verify_inadmissible_is_usage_error(capsys):
    code, _, err = run(
        capsys, "verify", "--m", "2", "--n", "2", "--p", "4", "--lambda0", "1",
        "--trials", "2",
    )
    assert code == EXIT_USAGE
    assert "inadmissible" in err


def test_search_command(capsys):
    code, out, _ = run(
        capsys, "search", "--m", "3", "--n", "2", "--p", "4", "--lambda0", "1",
        "--budget", "20", "--seed", "3", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert 0.0 < payload["best_ratio_conservative"] <= 2.0 + 1e-9


def test_search_dump_tensor(tmp_path, capsys):
    out_path = tmp_path / "best.json"
    code, _, _ = run(
        capsys, "search", "--m", "2", "--n", "2", "--p", "inf", "--lambda0", "2",
        "--budget", "10", "--seed", "3", "--dump-tensor", str(out_path),
    )
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["m"] == 2 and payload["n"] == 2
    assert len(payload["coeffs"]) == 4


def test_sweep_csv(capsys):
    code, out, _ = run(
        capsys, "sweep", "--m", "2", "--p", "4", "--grid", "1.0,1.5,2.0",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("lambda0,")
    assert len(lines) == 4


@pytest.mark.parametrize("argv, flag", [
    (["khinchin-check", "--a", "1,x", "--q", "1.5", "--seed", "1"], "--a"),
    (["transfer", "--p-list", "4,x", "--q-list", "inf,inf", "--lambda0", "1", "--s", "2"],
     "--p-list"),
    (["transfer", "--p-list", "4,4", "--q-list", "inf,x", "--lambda0", "1", "--s", "2"],
     "--q-list"),
    (["sweep", "--m", "2", "--p", "4", "--grid", "1,x"], "--grid"),
    (["sweep", "--m", "2", "--p", "4", "--grid", "1:x:3"], "--grid"),
    (["exponents", "--m", "3", "--p", "x", "--lambda0", "1"], "--p"),
    (["sweep", "--m", "2", "--p", "4", "--grid", "1:2:x"], "--grid"),
    (["khinchin-check", "--field", "complex", "--a", "1,x", "--q", "1.5", "--seed", "1"], "--a"),
])
def test_a_number_that_does_not_parse_is_named_by_its_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: cannot parse {flag} value 'x'\n"


@pytest.mark.parametrize("argv, empty", [
    (["classical", "--m", "2", "--p", "inf"], "hl_low"),
    (["khinchin-check", "--a", "1,1", "--q", "1", "--seed", "1"], "stderr"),
])
def test_key_value_csv_prints_a_null_as_an_empty_cell(capsys, argv, empty):
    # the rule of the sweep's CSV: the JSON null is an empty cell, not "None"
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "key,value"
    rows = dict(line.split(",", 1) for line in lines[1:])
    assert list(rows) == sorted(rows)
    assert rows[empty] == ""
    assert "None" not in out
    _, json_out, _ = run(capsys, *argv, "--format", "json")
    assert json.loads(json_out)[empty] is None


def test_a_grid_count_that_is_not_an_integer_is_named_by_its_flag(capsys):
    code, out, err = run(capsys, "sweep", "--m", "2", "--p", "4", "--grid", "1:2:2.5")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: cannot parse --grid value '2.5'\n"


@pytest.mark.parametrize("argv, empty", [
    (["classical", "--m", "2", "--p", "inf"], "hl_low"),
    (["classical", "--m", "2", "--p", "3"], "hl_high"),
    (["khinchin-check", "--a", "1,1", "--q", "1", "--seed", "1"], "stderr"),
])
def test_text_prints_a_null_as_an_empty_value(capsys, argv, empty):
    # the CSV cell rule: a null is an empty value, never "None"
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert f"{empty}: \n" in out
    assert "None" not in out


# one seeded run of each command that takes --seed; each is cheap
_SEEDED = {
    "verify": ["verify", "--m", "3", "--n", "2", "--p", "4", "--lambda0", "1",
               "--trials", "2", "--restarts", "2"],
    "search": ["search", "--m", "3", "--n", "2", "--p", "4", "--lambda0", "1", "--budget", "10"],
    "sweep": ["sweep", "--m", "3", "--p", "4", "--grid", "1,1.5", "--trials", "1"],
    "khinchin-check": ["khinchin-check", "--a", "1,2,3", "--q", "1.5", "--field", "complex",
                       "--samples", "2000"],
    "contraction-check": ["contraction-check", "--m", "2", "--N", "3", "--t", "2"],
    "chain-check": ["chain-check", "--lambda0", "1"],
}


def _without_elapsed(out):
    # verify's text report carries its wall-clock time
    return [line for line in out.splitlines() if not line.startswith("elapsed_seconds:")]


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("command", list(_SEEDED))
def test_a_drawn_seed_heads_text_and_csv_and_reproduces_the_run(capsys, command, fmt):
    code, out, _ = run(capsys, *_SEEDED[command], "--format", fmt)
    assert code == EXIT_OK
    header, *rest = _without_elapsed(out)
    assert header.startswith("# seed: ")
    seed = header[len("# seed: "):]
    assert 0 <= int(seed) < 2**32
    code, again, _ = run(capsys, *_SEEDED[command], "--seed", seed, "--format", fmt)
    assert code == EXIT_OK
    assert _without_elapsed(again) == rest
    assert rest


@pytest.mark.parametrize("command", list(_SEEDED))
def test_json_with_a_drawn_seed_is_the_payload_alone(capsys, command):
    code, out, _ = run(capsys, *_SEEDED[command], "--format", "json")
    assert code == EXIT_OK
    assert "# seed" not in out
    json.loads(out)


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_a_table_only_sweep_prints_no_seed_header(capsys, fmt):
    code, out, _ = run(capsys, "sweep", "--m", "3", "--p", "4", "--grid", "1,1.5", "--format", fmt)
    assert code == EXIT_OK
    assert out.startswith("lambda0,")


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("command", ["contraction-check", "khinchin-check", "chain-check"])
def test_a_run_whose_seed_feeds_no_stream_prints_no_seed_header(capsys, tmp_path, command, fmt):
    # a tensor file skips `generate`, and the real khinchin check and the
    # real chain enumerate exactly, so a drawn seed changes nothing
    path = tmp_path / "signs.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "field": "real", "coeffs": [1, 1, 1, -1]}))
    argv = {
        "contraction-check": ["contraction-check", "--t", "2", "--tensor", str(path)],
        "khinchin-check": ["khinchin-check", "--a", "1,2,3", "--q", "1.5"],
        "chain-check": ["chain-check", "--lambda0", "1", "--tensor", str(path)],
    }[command]
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == EXIT_OK
    assert "# seed" not in out
    code, seeded, _ = run(capsys, *argv, "--seed", "1", "--format", fmt)
    assert code == EXIT_OK
    assert seeded == out


def test_sweep_grid_spec(capsys):
    code, out, _ = run(
        capsys, "sweep", "--m", "3", "--p", "4", "--grid", "1:2:5", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [row["lambda0"] for row in payload] == [1.0, 1.25, 1.5, 1.75, 2.0]


@pytest.mark.parametrize("grid, message", [
    ("1:2:-3", "--grid count must be >= 1, got -3\n"),   # printed an empty table, exit 0
    ("1:2:0", "--grid count must be >= 1, got 0\n"),
    ("1:2", "grid spec must be start:stop:count, got '1:2'\n"),
])
def test_sweep_grid_spec_without_rows_is_usage_error(capsys, grid, message):
    code, out, err = run(capsys, "sweep", "--m", "3", "--p", "4", "--grid", grid)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_sweep_grid_spec_of_one_row_is_its_start(capsys):
    code, out, _ = run(
        capsys, "sweep", "--m", "3", "--p", "4", "--grid", "1.5:2:1", "--format", "json",
    )
    assert code == EXIT_OK
    assert [row["lambda0"] for row in json.loads(out)] == [1.5]


def test_khinchin_check_huge_coefficients_pass(capsys):
    # A_q * l2 overflows at these entries unless the check runs on a scaled copy
    code, out, _ = run(
        capsys, "khinchin-check", "--a", "1e160,1e160", "--q", "1.5", "--seed", "1",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["lhs"] == pytest.approx(2.0**0.5 * 1e160 * 2.0 ** (0.5 - 1.0 / 1.5))


def test_khinchin_check_soft_miss_prints_report_and_exits_2(capsys):
    # a complex Monte-Carlo miss (sampling noise at this seed) is reported,
    # not raised, and fails the command like a failed chain-check
    a = ",".join(repr(complex(z)) for z in np.exp(2j * np.pi * np.arange(5) / 5))
    code, out, err = run(
        capsys, "khinchin-check", "--a", a, "--q", "1.924", "--field", "complex",
        "--samples", "6243", "--seed", "172", "--format", "json",
    )
    assert code == EXIT_VIOLATION
    assert json.loads(out)["passed"] is False
    assert "VIOLATION" not in err


def test_khinchin_check_command(capsys):
    code, out, _ = run(
        capsys, "khinchin-check", "--a", "1,1", "--q", "1", "--seed", "1",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["ratio"] == pytest.approx(1.0, abs=1e-12)


def test_contraction_check_complex_tensor_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(
        {"m": 2, "n": 2, "field": "complex", "coeffs": [[1, 5], [0, 0], [0, 0], [1, 0]]}
    ))
    code, out, err = run(capsys, "contraction-check", "--t", "2", "--tensor", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert "real coefficients only" in err


def test_contraction_check_command(capsys):
    code, out, _ = run(
        capsys, "contraction-check", "--m", "2", "--N", "3", "--t", "2", "--seed", "5",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("document, message", [
    ({"m": 2, "n": 2, "field": "real"},
     "a tensor is a JSON object with keys ('m', 'n', 'field', 'coeffs'), missing ['coeffs']"),
    ([1, 0, 0, 1], "a tensor is a JSON object with keys ('m', 'n', 'field', 'coeffs'), "
                   "missing ['m', 'n', 'field', 'coeffs']"),
    ({"m": 2, "n": 2, "field": "complex", "coeffs": [1, 0, 0, 1]},
     "complex coeffs must be a flat list of [re, im] pairs of numbers, got [1, 0, 0, 1]"),
    ({"m": 2, "n": 2, "field": "complex", "coeffs": [[1, 0], [0, 0], [0, 0], 1]},
     "complex coeffs must be a flat list of [re, im] pairs of numbers"),
    ({"m": 2, "n": 2, "field": "real", "coeffs": [1, {}, 0, 1]},
     "real coeffs must be a flat list of numbers"),
    ({"m": None, "n": 2, "field": "real", "coeffs": [1, 0, 0, 1]},
     "tensor m and n must be JSON integers, got m=None, n=2"),
    ({"m": 2, "n": 2, "field": 1, "coeffs": [1, 0, 0, 1]}, "unknown scalar field 1"),
])
def test_a_malformed_tensor_file_is_usage_error(capsys, tmp_path, document, message):
    # a missing key or a bad entry escaped main as a KeyError or TypeError traceback
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    for argv in (["chain-check", "--lambda0", "1.5"], ["contraction-check", "--t", "2"]):
        code, out, err = run(capsys, *argv, "--tensor", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: {message}")


def test_a_cli_tensor_draws_nothing_the_monte_carlo_samples_draw(capsys, monkeypatch):
    # the tensor came from generate(..., seed), the stream SeedSequence([seed, 0])
    # that the samples read: at seed 7 its 27 steinhaus phases were the
    # first samples' phases.  It is now the stream [seed, 2].
    from hlcert import ScalarField, generate
    from hlcert.chaos import _steinhaus_phases

    seen = []

    def chain(S, *args, **kwargs):
        seen.append(S)
        return verify_proof_chain(S, *args, **kwargs)

    monkeypatch.setattr(cli_module, "verify_proof_chain", chain)
    code, _, _ = run(
        capsys, "chain-check", "--m", "3", "--n", "3", "--lambda0", "1.5", "--field", "complex",
        "--kind", "steinhaus", "--samples", "100", "--seed", "7", "--format", "json",
    )
    assert code == EXIT_OK
    (S,) = seen
    stream = np.random.default_rng(np.random.SeedSequence([7, 0]))
    phases = _steinhaus_phases(stream.random(27))
    assert np.abs(S.coeffs.reshape(-1) - phases).min() > 1e-3
    drawn = generate("steinhaus", 3, 3, ScalarField.COMPLEX, np.random.SeedSequence([7, 2]))
    assert np.array_equal(S.coeffs, drawn.coeffs)


def test_contraction_check_from_tensor_file(tmp_path, capsys):
    from hlcert import ScalarField, generate, tensor_to_json

    T = generate("signs", 2, 3, ScalarField.REAL, 7)
    path = tmp_path / "tensor.json"
    path.write_text(tensor_to_json(T))
    code, out, _ = run(
        capsys, "contraction-check", "--t", "1", "--tensor", str(path), "--seed", "0",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True


def test_chain_check_command(capsys):
    code, out, _ = run(
        capsys, "chain-check", "--m", "3", "--n", "2", "--lambda0", "1.5", "--p", "5",
        "--seed", "9", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["links"]) == 5


def test_chain_check_takes_s_or_p_not_both(capsys):
    # --s used to win silently over --p, with exit 0
    with pytest.raises(SystemExit) as excinfo:
        main(["chain-check", "--m", "3", "--n", "2", "--lambda0", "1.5",
              "--s", "3", "--p", "5", "--seed", "9"])
    assert excinfo.value.code == EXIT_USAGE
    assert "argument --p: not allowed with argument --s" in capsys.readouterr().err


def test_chain_check_huge_tensor_passes(capsys, tmp_path):
    # |S|^s overflows at these entries unless the chain runs on a scaled copy
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(
        {"m": 2, "n": 2, "field": "real", "coeffs": [1e160, 1e160, 1e160, -1e160]}
    ))
    code, out, _ = run(
        capsys, "chain-check", "--tensor", str(path), "--lambda0", "1", "--s", "2",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["norm_lower"] == 2e160


def test_chain_check_at_a_large_s_passes(capsys, tmp_path):
    # the l_s sum of this Gaussian tensor at s = 1e4 used to overflow, into a
    # false VIOLATION (exit 2) and then a usage error (exit 1)
    from hlcert import ScalarField, generate, tensor_to_json

    path = tmp_path / "g.json"
    path.write_text(tensor_to_json(generate("gaussian", 3, 3, ScalarField.REAL, 1)))
    code, out, err = run(
        capsys, "chain-check", "--tensor", str(path), "--lambda0", "1.5", "--s", "10000",
        "--seed", "1",
    )
    assert code == EXIT_OK
    assert "passed: True" in out
    assert err == ""


def test_chain_check_negative_seed_is_usage_error(capsys, tmp_path):
    # a real chain draws nothing, but the seed rule holds for every chain
    path = tmp_path / "signs.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "field": "real", "coeffs": [1, 1, 1, -1]}))
    code, _, err = run(
        capsys, "chain-check", "--tensor", str(path), "--lambda0", "1", "--seed", "-1",
    )
    assert code == EXIT_USAGE
    assert "seed must be a non-negative integer" in err


def test_chain_check_s_below_two_usage_error(capsys):
    code, _, err = run(
        capsys, "chain-check", "--m", "2", "--n", "2", "--lambda0", "1", "--s", "1.5",
        "--seed", "1",
    )
    assert code == EXIT_USAGE
    assert "s >= 2" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ["contraction-check", "--m", "2", "--N", "3", "--seed", "1", "--t"],
        ["chain-check", "--m", "2", "--n", "2", "--lambda0", "1.5", "--seed", "1", "--s"],
        ["chain-check", "--m", "2", "--n", "2", "--lambda0", "1.5", "--field", "complex",
         "--samples", "100", "--seed", "1", "--s"],
        ["khinchin-check", "--a", "1,2", "--seed", "1", "--q"],
    ],
)
def test_non_finite_exponent_is_usage_error(capsys, argv, value):
    # contraction-check --t inf used to report a false VIOLATION (exit 2),
    # chain-check --s nan a failed Holder link with NaN in its report
    code, out, err = run(capsys, *argv, value)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("t", ["700", "3000"])
def test_contraction_check_at_a_large_exponent_passes(capsys, t):
    # |chaos|^t overflowed here: this printed "moment: inf" and "passed:
    # True", then exited 1 with a usage error; it now passes with the
    # library's finite moment
    from hlcert import ScalarField, check_contraction, generate

    code, out, err = run(
        capsys, "contraction-check", "--m", "2", "--N", "3", "--t", t, "--seed", "1",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert err == ""
    T = generate("gaussian", 2, 3, ScalarField.REAL, np.random.SeedSequence([1, 2]))
    want = check_contraction(T.coeffs, float(t))
    assert json.loads(out) == json.loads(json.dumps(want.to_jsonable()))
    assert want.passed and np.isfinite(want.moment)


def test_contraction_check_with_underflowing_powers_passes(capsys, tmp_path):
    # |chaos|^t underflows to 0: this exited 2 with "VIOLATION" and an
    # L_10000.0 norm of 0.0, then 1 with a usage error; the moment is
    # 0.85 * ((1 + (0.65 / 0.85)^t) / 2)^(1/t)
    path = tmp_path / "v.json"
    path.write_text('{"m": 1, "n": 2, "field": "real", "coeffs": [0.75, 0.1]}')
    code, out, err = run(
        capsys, "contraction-check", "--tensor", str(path), "--t", "10000", "--seed", "1",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert err == ""
    report = json.loads(out)
    assert report["passed"] is True
    assert report["moment"] == pytest.approx(0.8499410845315305, rel=1e-12)


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["region", "--m", "2", "--lambda0", "1", "--bogus"])
    assert excinfo.value.code == EXIT_USAGE


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(capsys, jobs):
    # the run's TrialConfig rejects it, for both subcommands that take --jobs
    for argv in (
        ["verify", "--m", "3", "--n", "2", "--p", "4", "--lambda0", "1",
         "--trials", "2", "--seed", "1"],
        ["sweep", "--m", "2", "--p", "4", "--grid", "1.0,1.5"],
    ):
        code, _, err = run(capsys, *argv, "--jobs", jobs)
        assert code == EXIT_USAGE
        assert "jobs must be >= 1" in err


@pytest.mark.parametrize("flags, message", [
    (["--kinds", ","], "kinds must name at least one"),
    (["--restarts", "0"], "restarts must be >= 1"),
    (["--kinds", "gaussian,bogus"], "unknown generator kind 'bogus'"),
])
def test_verify_bad_run_settings_are_usage_errors(capsys, flags, message):
    code, out, err = run(
        capsys, "verify", "--m", "3", "--n", "2", "--p", "4", "--lambda0", "1",
        "--trials", "2", "--seed", "1", "--format", "json", *flags,
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("flag, value", [("--max-iters", "5"), ("--tol", "1e-3")])
def test_the_ascent_convergence_rule_is_not_a_flag(capsys, flag, value):
    # every restart runs to its own convergence, by hlcert.norms' own rule
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--m", "3", "--n", "2", "--p", "4", "--lambda0", "1",
              "--trials", "2", "--seed", "1", flag, value])
    assert excinfo.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def _parser_defaults(command):
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    return {a.dest: a.default for a in subparsers.choices[command]._actions}


def test_cli_defaults_are_the_library_defaults():
    # each run default is written once, in the library, and the flags read it
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    verify = _parser_defaults("verify")
    config = TrialConfig()
    assert (verify["trials"], verify["restarts"], verify["jobs"]) == (
        config.trials, config.restarts, config.jobs
    )
    assert tuple(verify["kinds"].split(",")) == config.kinds
    assert config.restarts == default(alternating_max, "restarts")
    assert _parser_defaults("search")["budget"] == default(search_extremal, "budget")
    samples = default(verify_proof_chain, "mc_samples")
    assert _parser_defaults("chain-check")["samples"] == samples
    assert _parser_defaults("khinchin-check")["samples"] == samples
    assert default(check_khinchin, "samples") == samples
    assert default(steinhaus_moment, "samples") == samples


def test_search_negative_budget_is_usage_error(capsys):
    code, out, err = run(
        capsys, "search", "--m", "3", "--n", "2", "--p", "4", "--lambda0", "1",
        "--budget", "-5", "--seed", "1",
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: budget must be >= 0")


def test_sweep_negative_trials_is_usage_error(capsys):
    # used to exit 0 and print the table with no certification
    code, out, err = run(
        capsys, "sweep", "--m", "3", "--p", "4", "--grid", "1,1.2", "--trials", "-3",
        "--seed", "1",
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: trials must be >= 0")


def test_jobs_non_integer_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--m", "3", "--n", "2", "--p", "4", "--lambda0", "1",
              "--trials", "2", "--seed", "1", "--jobs", "abc"])
    assert excinfo.value.code == EXIT_USAGE
    assert "argument --jobs: invalid int value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["constants", "--q", "1.5"],
    ["search", "--m", "3", "--n", "2", "--p", "4", "--lambda0", "1", "--budget", "2"],
    ["khinchin-check", "--a", "1,1", "--q", "1"],
    ["chain-check", "--lambda0", "1"],
])
def test_jobs_only_where_workers_run(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main(command + ["--jobs", "2"])
    assert excinfo.value.code == EXIT_USAGE
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_domain_error_exits_one(capsys):
    code, _, err = run(capsys, "constants", "--q", "0.5")
    assert code == EXIT_USAGE
    assert "error" in err


def test_invalid_p_string(capsys):
    code, _, err = run(capsys, "exponents", "--m", "3", "--p", "four", "--lambda0", "1")
    assert code == EXIT_USAGE


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    ["constants", "--q", "1.5"],
    ["region", "--m", "2", "--lambda0", "2"],
    ["exponents", "--m", "3", "--p", "inf", "--lambda0", "2"],
    ["transfer", "--p-list", "2,2", "--q-list", "inf,inf", "--lambda0", "1", "--s", "2"],
    ["classical", "--m", "3", "--p", "inf"],
    ["verify", "--m", "3", "--n", "2", "--p", "inf", "--lambda0", "2", "--trials", "2",
     "--restarts", "2", "--seed", "1"],
    ["search", "--m", "3", "--n", "2", "--p", "inf", "--lambda0", "2", "--budget", "2",
     "--seed", "1"],
    ["sweep", "--m", "3", "--p", "inf", "--grid", "1:2:3", "--trials", "1", "--seed", "1"],
    ["khinchin-check", "--a", "1,2", "--q", "1.5", "--seed", "1"],
    ["contraction-check", "--t", "2", "--seed", "1"],
    ["chain-check", "--lambda0", "1", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_json_output_is_strict_json(capsys, argv):
    # an infinite value prints as "inf": strict parsers reject Infinity
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    json.loads(out, parse_constant=_reject_constant)


def test_transfer_json_prints_an_infinite_eta1_as_inf(capsys):
    _, out, _ = run(
        capsys, "transfer", "--p-list", "2,2", "--q-list", "inf,inf", "--lambda0", "1",
        "--s", "2", "--format", "json",
    )
    assert out == '{"deficiency": 1.0, "eta1": "inf", "eta2": 2.0}\n'


@pytest.mark.parametrize("argv, code, stream, text", [
    (["constants", "--q", "2"], EXIT_OK, "stdout", "q0"),
    (["verify", "--m", "3", "--n", "2", "--p", "2", "--lambda0", "1", "--seed", "1"],
     EXIT_USAGE, "stderr", "error:"),
])
def test_python_m_hlcert_runs_main_in_a_fresh_process(argv, code, stream, text):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "hlcert", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code
    assert text in getattr(proc, stream)


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_command_help_formats_and_exits_zero(capsys, command):
    # argparse formats a help string only when asked
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: hlcert {command}")
