import cmath
import json
import math
import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import random_hermitian
from qparam.cli import COMMANDS, build_parser, main
from qparam.jones import BraidWord, jones_exact
from qparam.linalg import matrix_to_json

Z_JSON = matrix_to_json(np.diag([1.0, -1.0]))


@pytest.fixture
def sum_z_file(tmp_path):
    data = {
        "n": 4, "locality": 1, "a": 2.5, "b": 3.5,
        "terms": [{"qubits": [i], "matrix": Z_JSON} for i in range(4)],
    }
    path = tmp_path / "ham.json"
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_refused(capsys, tmp_path, document, *argv):
    """(exit code, seconds, error line) of a run on ``document`` (no --input
    if None) that must end with an error message and no report or traceback.

    A refusal made up front prints ``error: <message>``; the catch-all that
    also exits 4 prints the exception type first, as in
    ``error: MemoryError``, so the line tells the two apart."""
    if document is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(document))
        argv = (argv[0], "--input", str(path), *argv[1:])
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    return code, elapsed, captured.err.splitlines()[0]


class TestHamCommands:
    def test_ham_decide_yes(self, capsys, sum_z_file):
        code, out = run(capsys, "ham-decide", "--input", sum_z_file, "--k", "1")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["verdict"] == "YES"
        assert report["result"]["lambda_min"] == pytest.approx(2.0)

    def test_ham_decide_no(self, capsys, tmp_path, sum_z_file):
        with open(sum_z_file) as fh:
            data = json.load(fh)
        data["a"], data["b"] = 0.5, 1.5
        path = tmp_path / "no.json"
        path.write_text(json.dumps(data))
        code, out = run(capsys, "ham-decide", "--input", str(path), "--k", "1")
        assert code == 1

    def test_ham_min_reports_config(self, capsys, sum_z_file):
        code, out = run(capsys, "ham-min", "--input", sum_z_file, "--k", "2")
        assert code == 0
        report = json.loads(out)
        assert report["config"]["k"] == 2
        assert "mode" not in report["config"]
        assert report["result"]["lambda_min"] == pytest.approx(0.0)

    def test_frustration_free_sector_decides_yes(self, capsys, tmp_path):
        # |1><1| on every qubit and -3|111><111| on qubits 0-2: at weight 3
        # the state |1110...0> has energy 3 - 3 = 0, the minimum
        ones = matrix_to_json(np.diag([0.0, 1.0]))
        triple = matrix_to_json(np.diag([0.0] * 7 + [-3.0]))
        data = {
            "n": 30, "locality": 3, "a": 0.5, "b": 1.0,
            "terms": [{"qubits": [i], "matrix": ones} for i in range(30)]
            + [{"qubits": [0, 1, 2], "matrix": triple}],
        }
        path = tmp_path / "ff.json"
        path.write_text(json.dumps(data))
        code, out = run(capsys, "ham-decide", "--input", str(path), "--k", "3")
        result = json.loads(out)["result"]
        assert code == 0
        assert result["verdict"] == "YES"
        assert result["lambda_min"] == pytest.approx(0.0, abs=1e-10)

    def test_termless_sector_is_zero(self, capsys, tmp_path):
        data = {"n": 20, "locality": 1, "a": -1.0, "b": 1.0, "terms": []}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(data))
        code = main(["ham-decide", "--input", str(path), "--k", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        assert json.loads(captured.out)["result"]["lambda_min"] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_repeated_runs_print_identical_reports(self, capsys, tmp_path, rng):
        terms = []
        for _ in range(12):
            qubits = sorted(int(q) for q in rng.choice(18, size=2, replace=False))
            terms.append({"qubits": qubits,
                          "matrix": matrix_to_json(random_hermitian(rng, 4))})
        data = {"n": 18, "locality": 2, "a": -1.0, "b": 1.0, "terms": terms}
        path = tmp_path / "ham.json"
        path.write_text(json.dumps(data))
        outputs = {run(capsys, "ham-decide", "--input", str(path), "--k", "4")[1]
                   for _ in range(3)}
        assert len(outputs) == 1


class TestErrorPaths:
    def test_missing_file(self, capsys, tmp_path):
        code, _ = run(
            capsys, "ham-decide", "--input", str(tmp_path / "nope.json"),
            "--k", "1",
        )
        assert code == 3

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run(capsys, "ham-decide", "--input", str(path), "--k", "1")
        assert code == 3

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 3

    def test_resource_error_exit_code(self, capsys, tmp_path):
        # 16 crossings at even positions give 2^16 matchings of 66 ends,
        # just over the bracket's 2^22 entries
        braid = {"strands": 66, "word": list(range(2, 34, 2))}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(braid))
        code, _ = run(capsys, "jones-exact", "--input", str(path), "--k", "5")
        assert code == 4

    def test_oversized_sector_refused_up_front(self, capsys, tmp_path):
        # C(200, 100) ~ 9e58 states: refused before any allocation
        data = {
            "n": 200, "locality": 1, "a": 0.0, "b": 1.0,
            "terms": [{"qubits": [i], "matrix": Z_JSON} for i in range(4)],
        }
        code, elapsed, line = run_refused(capsys, tmp_path, data, "ham-decide",
                                          "--k", "100")
        assert code == 4
        assert elapsed < 1.0
        assert not line.startswith("error: MemoryError")

    @pytest.mark.parametrize("document, argv", [
        ({"n": 10**9, "locality": 1, "a": 0, "b": 1, "terms": []},
         ["ham-decide", "--k", str(5 * 10**8)]),
        ({"num_qubits": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
         ["decode-witness", "--n", str(10**6), "--k", str(5 * 10**5)]),
        ({"witness_qubits": 10**6, "ancilla_qubits": 0, "accept_qubit": 0,
          "gates": []},
         ["hwqcs-decide", "--k", str(5 * 10**5), "--a", "0.1", "--b", "0.9"]),
        # C(40, 20) ~ 1.4e11 sector states, over the restriction's entry limit
        ({"n": 40, "locality": 1, "a": 0, "b": 1,
          "terms": [{"qubits": [0], "matrix": Z_JSON}]}, ["ham-decide", "--k", "20"]),
        # 2^30 amplitudes (16 GiB) from a 5-qubit rank register
        ({"num_qubits": 5, "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 31},
         ["decode-witness", "--n", "30", "--k", "1"]),
        # 15.6M sampled paths × 300 ancilla wires, 4.7 GB of bools
        ({"witness_qubits": 4, "ancilla_qubits": 300, "accept_qubit": 4,
          "gates": [{"name": "X", "targets": [4 + i]} for i in range(300)],
          "classical_only": True},
         ["gapp-estimate", "--tau", "0.00075", "--delta", "0.025", "--seed", "1"]),
    ], ids=["ham-decide", "decode-witness", "hwqcs-decide", "restriction-entries",
            "decode-witness-qubits", "gap-path-wires"])
    def test_oversized_weight_parameter_refused_up_front(self, capsys, tmp_path,
                                                         document, argv):
        # C(n, k) at the first three sizes takes seconds; n past 63 bits is
        # refused first
        code, elapsed, line = run_refused(capsys, tmp_path, document, *argv)
        assert code == 4
        assert elapsed < 1.0
        assert not line.startswith("error: MemoryError")

    def test_lanczos_non_convergence_exits_4(self, capsys, tmp_path, monkeypatch):
        def stall(*args, **kwargs):
            raise spla.ArpackNoConvergence("stalled", np.array([]), None)

        monkeypatch.setattr(spla, "eigsh", stall)
        document = {"n": 4, "locality": 1, "a": 0, "b": 1,
                    "terms": [{"qubits": [0], "matrix": Z_JSON}]}
        code, _, _ = run_refused(capsys, tmp_path, document, "ham-decide", "--k", "1")
        assert code == 4

    @pytest.mark.parametrize("strands", [4000, 2**22 + 2],
                             ids=["float-overflow", "first-matching-over-limit"])
    def test_oversized_bracket_refused(self, capsys, tmp_path, strands):
        # 4000 strands: 2000 unlinked loops, |δ|^1999 ~ 1e417 at k=5
        code, elapsed, line = run_refused(capsys, tmp_path,
                                          {"strands": strands, "word": []},
                                          "jones-exact", "--k", "5")
        assert code == 4
        assert elapsed < 1.0
        assert not line.startswith("error: MemoryError")

    @pytest.mark.parametrize("path_bits", [64, 70])
    def test_gap_estimate_beyond_index_bits_refused(self, capsys, tmp_path,
                                                   path_bits):
        circuit = {
            "witness_qubits": path_bits, "ancilla_qubits": 1,
            "accept_qubit": path_bits,
            "gates": [{"name": "CX", "controls": [0], "targets": [path_bits]}],
            "classical_only": True,
        }
        code, elapsed, line = run_refused(capsys, tmp_path, circuit, "gapp-estimate",
                                          "--seed", "1")
        assert code == 4
        assert elapsed < 1.0
        assert not line.startswith("error: MemoryError")

    def test_dense_mode_on_large_sector_refused_up_front(self, capsys, tmp_path):
        # C(40, 4) = 91390: decided by the sparse solver; a dense copy would
        # need about 133 GB, and no flag asks for one
        data = {
            "n": 40, "locality": 1, "a": 0.0, "b": 1.0,
            "terms": [{"qubits": [i], "matrix": Z_JSON} for i in range(4)],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        code, out = run(capsys, "ham-decide", "--input", str(path), "--k", "4")
        assert code == 0
        assert json.loads(out)["result"]["lambda_min"] == pytest.approx(-4.0, abs=1e-8)
        code, _, _ = run_refused(capsys, tmp_path, data, "ham-decide",
                                 "--k", "4", "--mode", "dense")
        assert code == 3

    @pytest.mark.parametrize("strands, crossings", [(24, 150), (32, 100)])
    def test_long_bracket_word_refused(self, capsys, tmp_path, rng, strands,
                                       crossings):
        letters = rng.integers(1, strands, size=crossings)
        signs = rng.choice([-1, 1], size=crossings)
        braid = {"strands": strands, "word": (letters * signs).tolist()}
        code, elapsed, line = run_refused(capsys, tmp_path, braid, "jones-exact",
                                          "--k", "5")
        assert code == 4
        assert elapsed < 1.0
        assert not line.startswith("error: MemoryError")

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", ["amp-estimate", "gapp-estimate", "jones"])
    def test_seed_outside_64_bits_is_usage_error(self, capsys, tmp_path, command,
                                                 seed):
        document, extra = {
            "amp-estimate": ({"unitary": Z_JSON}, []),
            "gapp-estimate": ({
                "witness_qubits": 1, "ancilla_qubits": 1, "accept_qubit": 1,
                "gates": [{"name": "CX", "controls": [0], "targets": [1]}],
                "classical_only": True,
            }, []),
            "jones": ({"strands": 4, "word": [1]}, ["--k", "5"]),
        }[command]
        code, _, _ = run_refused(capsys, tmp_path, document, command, *extra,
                                 "--seed", seed)
        assert code == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv, flag", [
        (["wqcs-decide", "--k", "1", "--b", "1"], "--a"),
        (["hwqcs-decide", "--k", "1", "--a", "0.5"], "--b"),
        (["amp-estimate", "--seed", "1"], "--tau"),
        (["gapp-estimate", "--seed", "1"], "--delta"),
        (["amp-estimate", "--seed", "1", "--lower-bound", "0.5"], "--epsilon"),
        (["amp-estimate", "--seed", "1", "--epsilon", "0.1"], "--lower-bound"),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_non_finite_number_argument_is_usage_error(self, capsys, tmp_path,
                                                       argv, flag, value):
        circuit = {
            "witness_qubits": 1, "ancilla_qubits": 1, "accept_qubit": 1,
            "gates": [{"name": "CX", "controls": [0], "targets": [1]}],
            "classical_only": True,
        }
        document = {"unitary": Z_JSON} if argv[0] == "amp-estimate" else circuit
        code, _, _ = run_refused(capsys, tmp_path, document, *argv, flag, value)
        assert code == 3

    @pytest.mark.parametrize("blocks, block_size, bits", [
        ("-1", "-1", "1"), ("0", "0", ""), ("0", "4", ""), ("2", "0", ""),
    ])
    def test_onehot_counts_below_one_are_usage_errors(self, capsys, tmp_path,
                                                      blocks, block_size, bits):
        code, _, _ = run_refused(capsys, tmp_path, None, "onehot-decode",
                                 "--blocks", blocks, "--block-size", block_size,
                                 "--bits", bits)
        assert code == 3


class TestParserReuse:
    @pytest.mark.parametrize("bad", [
        ["jones", "--k", "five"], ["jones", "--bogus"], ["no-such-command"],
        ["jones", "--input", "in.json"],
    ], ids=["bad-type", "unknown-flag", "unknown-command", "missing-k"])
    def test_usage_error_leaves_next_request_unchanged(self, capsys, tmp_path,
                                                       bad):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"strands": 4, "word": [1, -2, 3]}))
        argv = ["jones", "--input", str(path), "--k", "5", "--seed", "9"]
        build_parser.cache_clear()
        alone = run(capsys, *argv)
        build_parser.cache_clear()
        assert main(bad) == 3
        assert capsys.readouterr().err.startswith("error:")
        assert run(capsys, *argv) == alone
        assert alone[0] == 0


class TestInputDocumentErrors:
    HAMILTONIAN = {
        "n": 2, "locality": 1, "a": 0.0, "b": 1.0,
        "terms": [{"qubits": [1], "matrix": Z_JSON}],
    }

    @pytest.mark.parametrize("argv", [
        ["gapp-exact"], ["gapp-estimate", "--seed", "1"],
        ["amp-estimate", "--seed", "1"], ["ham-decide", "--k", "1"],
        ["jones", "--k", "5", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_non_object_document_is_usage_error(self, capsys, tmp_path, argv):
        code, _, _ = run_refused(capsys, tmp_path, [1, 2], *argv)
        assert code == 3

    @pytest.mark.parametrize("field, value", [
        ("n", "four"), ("n", 3.5), ("locality", True), ("qubits", [1.0]),
        ("a", "nan"), ("a", float("nan")), ("b", float("inf")),
        ("qubits", [1, 1]),
        # the NaN couples |0> and |1>, so it lies outside the weight-1 sector
        ("matrix", [[[1.0, 0.0], [float("nan"), 0.0]],
                    [[float("nan"), 0.0], [-1.0, 0.0]]]),
    ], ids=["string-n", "float-n", "bool-locality", "float-qubit",
            "string-a", "nan-a", "inf-b", "duplicate-qubits",
            "nan-off-sector-entry"])
    def test_hamiltonian_field_is_usage_error(self, capsys, tmp_path, field, value):
        data = json.loads(json.dumps(self.HAMILTONIAN))
        if field in ("qubits", "matrix"):
            data["terms"][0][field] = value
        else:
            data[field] = value
        code, _, _ = run_refused(capsys, tmp_path, data, "ham-decide", "--k", "1")
        assert code == 3

    @pytest.mark.parametrize("braid", [
        {"strands": "four", "word": []}, {"strands": 4.0, "word": [1]},
        {"strands": 4, "word": [1.5]},
    ], ids=["string-strands", "float-strands", "float-letter"])
    def test_braid_field_is_usage_error(self, capsys, tmp_path, braid):
        code, _, _ = run_refused(capsys, tmp_path, braid, "jones", "--k", "5",
                                 "--seed", "1")
        assert code == 3

    @pytest.mark.parametrize("num_qubits", [1.0, "1", True, 2**70, 10**11],
                             ids=["float", "string", "bool", "2^70", "10^11"])
    @pytest.mark.parametrize("argv", [
        ["encode-witness", "--k", "1"],
        ["decode-witness", "--k", "1", "--n", "2"],
    ], ids=lambda argv: argv[0])
    def test_state_qubit_count_is_usage_error(self, capsys, tmp_path, argv,
                                              num_qubits):
        state = {"num_qubits": num_qubits, "amplitudes": [[0.0, 0.0], [1.0, 0.0]]}
        code, elapsed, _ = run_refused(capsys, tmp_path, state, *argv)
        assert code == 3
        assert elapsed < 1.0  # 2**num_qubits is never computed


    @pytest.mark.parametrize("part", [10**400, True, "1", float("nan")],
                             ids=["huge-int", "bool", "string", "nan"])
    @pytest.mark.parametrize("where", ["unitary", "gate", "term", "encode-state",
                                       "decode-state"])
    def test_matrix_part_is_usage_error(self, capsys, tmp_path, part, where):
        matrix = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [part, 0.0]]]
        if where == "encode-state":
            # the part is the amplitude of |1>, the weight-1 sector
            document = {"num_qubits": 1, "amplitudes": matrix[1]}
            argv = ["encode-witness", "--k", "1"]
        elif where == "decode-state":
            # ... and of rank 1 of C(2, 1) = 2, not padding
            document = {"num_qubits": 1, "amplitudes": matrix[1]}
            argv = ["decode-witness", "--k", "1", "--n", "2"]
        elif where == "unitary":
            document, argv = {"unitary": matrix}, ["amp-estimate", "--seed", "1"]
        elif where == "gate":
            document = {"witness_qubits": 1, "ancilla_qubits": 0,
                        "accept_qubit": 0, "gates": [
                            {"name": "UNITARY", "targets": [0], "matrix": matrix}]}
            argv = ["weft"]
        else:
            document = json.loads(json.dumps(self.HAMILTONIAN))
            document["terms"][0]["matrix"] = matrix
            argv = ["ham-decide", "--k", "1"]
        code, _, _ = run_refused(capsys, tmp_path, document, *argv)
        assert code == 3

    @pytest.mark.parametrize("amplitudes, argv", [
        ([[float("nan"), 0.0], [1.0, 0.0]], ["encode-witness", "--k", "1"]),
        ([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [float("nan"), 0.0]],
         ["decode-witness", "--k", "1", "--n", "3"]),
    ], ids=["nan-off-sector", "nan-in-padding"])
    def test_nan_amplitude_outside_the_checked_support_is_usage_error(
        self, capsys, tmp_path, amplitudes, argv
    ):
        # NaN > tolerance is false, so only the reader can refuse it
        state = {"num_qubits": len(amplitudes).bit_length() - 1,
                 "amplitudes": amplitudes}
        code, _, _ = run_refused(capsys, tmp_path, state, *argv)
        assert code == 3

    @pytest.mark.parametrize("document, argv", [
        ({"unitary": matrix_to_json(np.eye(3))}, ["amp-estimate", "--seed", "1"]),
        ({"unitary": Z_JSON}, ["amp-estimate", "--seed", "1", "--epsilon", "0.1"]),
        ({"unitary": Z_JSON}, ["amp-estimate", "--seed", "1", "--epsilon", "0",
                               "--lower-bound", "0.5"]),
        # C(3, 1) = 3 ranks need a 2-qubit register
        ({"num_qubits": 1, "amplitudes": [[0.0, 0.0], [1.0, 0.0]]},
         ["decode-witness", "--k", "1", "--n", "3"]),
        (None, ["onehot-decode", "--blocks", "1", "--block-size", "2",
                "--bits", "1x"]),
        ({"witness_qubits": 2, "ancilla_qubits": 1, "accept_qubit": 2, "gates": []},
         ["hwqcs-decide", "--k", "1", "--a", "0.5", "--b", "0.5"]),
        ({"witness_qubits": 0, "ancilla_qubits": 1, "accept_qubit": 0, "gates": [],
          "classical_only": True}, ["gapp-exact"]),
    ], ids=["3x3-unitary", "epsilon-without-lower-bound", "zero-epsilon",
            "wrong-register-size",
            "non-bitstring", "a-equals-b", "no-path-bits"])
    def test_invalid_request_is_usage_error(self, capsys, tmp_path, document,
                                            argv):
        code, _, _ = run_refused(capsys, tmp_path, document, *argv)
        assert code == 3

    @pytest.mark.parametrize("flag", ["no", 1, False, None])
    def test_classical_only_must_be_true(self, capsys, tmp_path, flag):
        gap = {"witness_qubits": 1, "ancilla_qubits": 1, "accept_qubit": 1,
               "gates": [{"name": "CX", "controls": [0], "targets": [1]}],
               "classical_only": flag}
        code, _, _ = run_refused(capsys, tmp_path, gap, "gapp-exact")
        assert code == 3


class TestBackstop:
    """Any exception the commands do not map is exit 4, never a NO verdict."""

    CIRCUIT = {"witness_qubits": 1, "ancilla_qubits": 0, "accept_qubit": 0,
               "gates": [{"name": "X", "targets": [0]}]}

    @pytest.mark.parametrize("error", [RuntimeError("boom"), MemoryError()],
                             ids=["runtime", "memory"])
    def test_unexpected_exception_exits_4(self, capsys, tmp_path, monkeypatch,
                                          error):
        def fail(circuit):
            raise error

        monkeypatch.setattr("qparam.cli.circuit_metrics", fail)
        code, _, line = run_refused(capsys, tmp_path, self.CIRCUIT, "weft")
        assert code == 4
        assert line.startswith(f"error: {type(error).__name__}")

    def test_non_finite_report_exits_4(self, capsys, tmp_path, monkeypatch):
        class Metrics:
            def to_json(self):
                return {"weft": float("nan")}

        monkeypatch.setattr("qparam.cli.circuit_metrics", lambda c: Metrics())
        code, _, _ = run_refused(capsys, tmp_path, self.CIRCUIT, "weft")
        assert code == 4


class TestSamplerLimits:
    AMP = {"unitary": matrix_to_json(np.eye(2))}
    BRAID = {"strands": 4, "word": [1, -2]}

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["amp-estimate", "jones"])
    def test_non_finite_tau_is_usage_error(self, capsys, tmp_path, command, tau):
        document, extra = (self.AMP, []) if command == "amp-estimate" \
            else (self.BRAID, ["--k", "5"])
        code, _, _ = run_refused(capsys, tmp_path, document, command, *extra,
                                 "--tau", tau, "--seed", "1")
        assert code == 3

    GAP = {"witness_qubits": 1, "ancilla_qubits": 1, "accept_qubit": 1,
           "gates": [{"name": "CX", "controls": [0], "targets": [1]}],
           "classical_only": True}
    HUGE_TAU = {"amp-estimate": (AMP, []), "gapp-estimate": (GAP, []),
                "jones": (BRAID, ["--k", "5"])}

    @pytest.mark.parametrize("command", HUGE_TAU)
    def test_huge_tau_takes_one_sample(self, capsys, tmp_path, command):
        # τ² overflows past 1.3e154; every τ ≥ 64 already takes one sample
        document, extra = self.HUGE_TAU[command]
        path = tmp_path / "in.json"
        path.write_text(json.dumps(document))
        code, out = run(capsys, command, "--input", str(path), *extra,
                        "--tau", "1e200", "--seed", "1")
        assert code == 0
        assert json.loads(out)["result"]["samples"] == 1

    @pytest.mark.parametrize("command", HUGE_TAU)
    def test_infinite_bound_is_usage_error(self, capsys, tmp_path, command):
        # τ·√2 (τ·2^p for the gap) overflows: no Inf reaches the report
        document, extra = self.HUGE_TAU[command]
        code, _, line = run_refused(capsys, tmp_path, document, command, *extra,
                                    "--tau", "1.7e308", "--seed", "1")
        assert code == 3
        assert "bound past the float range" in line

    def test_oversized_sample_count_refused_up_front(self, capsys, tmp_path):
        # m(1e-5, 0.025) ~ 8.8e10 samples, past SAMPLE_LIMIT = 2^24
        code, elapsed, line = run_refused(capsys, tmp_path, self.AMP, "amp-estimate",
                                          "--tau", "1e-5", "--seed", "1")
        assert code == 4
        assert elapsed < 1.0
        assert not line.startswith("error: MemoryError")

    @pytest.mark.parametrize("scale, code, message", [
        ("1e300", 3, "epsilon 1e+300 times lower bound 1e+300"),
        ("1e-200", 4, "samples for tau 5e-324: 3.59E+647 exceeds limit 16777216"),
        ("1e-160", 4, "samples for tau 7.07e-321: 1.75E+641 exceeds limit 16777216"),
    ], ids=["product-overflows", "tau-underflows", "tau-subnormal"])
    def test_multiplicative_tau_out_of_range(self, capsys, tmp_path, scale, code,
                                             message):
        # τ = ε·L/√2: an ε·L past the float range is a usage error; a τ that
        # underflows to 0 is too small to schedule, like any subnormal τ
        exit_code, _, line = run_refused(capsys, tmp_path, self.AMP, "amp-estimate",
                                         "--epsilon", scale, "--lower-bound", scale,
                                         "--seed", "1")
        assert exit_code == code
        assert line.startswith(f"error: {message}")

    def test_tiny_tau_refusal_names_tau(self, capsys, tmp_path):
        # 2·ln(2/δ)/τ² passes the float range below τ ≈ 1e-154: the line
        # gives the count to 3 digits after the τ that asked for it
        code, _, line = run_refused(capsys, tmp_path, self.AMP, "amp-estimate",
                                    "--tau", "1e-160", "--seed", "1")
        assert code == 4
        assert line == "error: samples for tau 1e-160: 8.76E+320 exceeds limit 16777216"

    def test_oversized_path_model_refused_up_front(self, capsys, tmp_path):
        # C(30, 15) ~ 1.55e8 walks: refused once one step passes the limit
        braid = {"strands": 30, "word": [1, 2, -3]}
        code, elapsed, line = run_refused(capsys, tmp_path, braid, "jones", "--k", "31",
                                          "--seed", "1")
        assert code == 4
        assert elapsed < 1.0
        assert not line.startswith("error: MemoryError")

    def test_long_word_refused_up_front(self, capsys, tmp_path, rng):
        # (2 + 256) × 100001 entry steps pass 2^24 before the first walk
        letters = rng.integers(1, 10, size=100_000)
        signs = rng.choice([-1, 1], size=letters.size)
        braid = {"strands": 10, "word": (letters * signs).tolist()}
        code, elapsed, line = run_refused(capsys, tmp_path, braid, "jones", "--k", "7",
                                          "--seed", "1")
        assert code == 4
        assert elapsed < 1.0
        assert not line.startswith("error: MemoryError")


class TestCircuitInputErrors:
    CIRCUIT = {
        "witness_qubits": 2, "ancilla_qubits": 1, "accept_qubit": 2,
        "gates": [{"name": "CX", "controls": [0], "targets": [2]}],
    }

    HWQCS = ("hwqcs-decide", "--k", "1", "--a", "0.1", "--b", "0.9")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_unitary_is_usage_error(self, capsys, tmp_path, bad):
        circuit = dict(self.CIRCUIT, gates=[{
            "name": "UNITARY", "targets": [0],
            "matrix": [[[bad, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }])
        code, _, _ = run_refused(capsys, tmp_path, circuit, *self.HWQCS)
        assert code == 3

    @pytest.mark.parametrize("field, value", [
        ("targets", [1.5]), ("targets", [True]), ("controls", ["0"]),
        ("witness_qubits", "four"), ("ancilla_qubits", 1.0),
        ("accept_qubit", False),
    ], ids=["float-target", "bool-target", "string-control", "string-count",
            "float-count", "bool-accept"])
    def test_non_integer_wire_or_count_is_usage_error(
        self, capsys, tmp_path, field, value
    ):
        circuit = json.loads(json.dumps(self.CIRCUIT))
        if field in ("targets", "controls"):
            circuit["gates"][0][field] = value
        else:
            circuit[field] = value
        code, _, _ = run_refused(capsys, tmp_path, circuit, *self.HWQCS)
        assert code == 3

    @pytest.mark.parametrize("gate", [
        {"name": "H", "targets": [0], "matrix": Z_JSON},
        {"name": "X", "targets": [0], "matrix": [[[1.0, 0.0]]]},
        {"name": "CX", "controls": [0], "targets": [2], "matrix": Z_JSON},
    ], ids=["H-with-Z", "X-with-1x1", "CX-with-Z"])
    def test_matrix_on_named_gate_is_usage_error(self, capsys, tmp_path, gate):
        # only UNITARY reads its matrix; a named gate would run as its name
        code, _, _ = run_refused(capsys, tmp_path, dict(self.CIRCUIT, gates=[gate]),
                                 *self.HWQCS)
        assert code == 3

    @pytest.mark.parametrize("gate", [
        {"name": "CX", "targets": [0, 2]},
        {"name": "CZ", "controls": [0, 1], "targets": [2]},
        {"name": "SWAP", "controls": [0], "targets": [2]},
    ], ids=["CX", "CZ", "SWAP"])
    def test_bad_wire_count_is_usage_error(self, capsys, tmp_path, gate):
        code, _, _ = run_refused(capsys, tmp_path, dict(self.CIRCUIT, gates=[gate]),
                                 *self.HWQCS)
        assert code == 3

    def test_oversized_circuit_refused_up_front(self, capsys, tmp_path):
        # 2^40 amplitudes would need 16 TiB
        circuit = dict(self.CIRCUIT, ancilla_qubits=38, accept_qubit=39)
        code, elapsed, line = run_refused(capsys, tmp_path, circuit, "hwqcs-decide",
                                          "--k", "1", "--a", "0.1", "--b", "0.9")
        assert code == 4
        assert elapsed < 1.0
        assert not line.startswith("error: MemoryError")


class TestEstimatorCommands:
    def test_amp_estimate(self, capsys, tmp_path):
        path = tmp_path / "amp.json"
        path.write_text(json.dumps({"unitary": matrix_to_json(np.eye(2))}))
        code, out = run(
            capsys, "amp-estimate", "--input", str(path),
            "--tau", "0.1", "--delta", "0.05", "--seed", "9",
        )
        assert code == 0
        report = json.loads(out)
        value = complex(*report["result"]["value"])
        assert abs(value - 1.0) <= 0.1 * math.sqrt(2)
        assert report["config"]["seed"] == 9
        assert report["config"]["epsilon"] is None
        assert report["config"]["lower_bound"] is None
        assert report["config"]["tau"] == report["result"]["tau"] == 0.1
        # multiplicative mode runs τ = ε·L/√2, and the config echoes that τ
        code, out = run(
            capsys, "amp-estimate", "--input", str(path), "--epsilon", "0.2",
            "--lower-bound", "0.5", "--seed", "9",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["mode"] == "multiplicative"
        assert report["result"]["tau"] == pytest.approx(0.2 * 0.5 / math.sqrt(2))
        assert report["config"]["tau"] == report["result"]["tau"]

    def test_seed_drawn_and_echoed_when_absent(self, capsys, tmp_path):
        path = tmp_path / "amp.json"
        path.write_text(json.dumps({"unitary": matrix_to_json(np.eye(2))}))
        code, out = run(
            capsys, "amp-estimate", "--input", str(path),
            "--tau", "0.5", "--delta", "0.2",
        )
        assert code == 0
        assert isinstance(json.loads(out)["config"]["seed"], int)

    def test_gapp_exact(self, capsys, tmp_path):
        circuit = {
            "witness_qubits": 3, "ancilla_qubits": 1, "accept_qubit": 3,
            "gates": [{"name": "X", "controls": [], "targets": [3]}],
            "classical_only": True,
        }
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(circuit))
        code, out = run(capsys, "gapp-exact", "--input", str(path))
        assert code == 0
        assert json.loads(out)["result"]["gap"] == 8

    def test_gapp_estimate(self, capsys, tmp_path):
        circuit = {
            "witness_qubits": 3, "ancilla_qubits": 1, "accept_qubit": 3,
            "gates": [{"name": "X", "controls": [], "targets": [3]}],
            "classical_only": True,
        }
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(circuit))
        code, out = run(
            capsys, "gapp-estimate", "--input", str(path),
            "--tau", "0.3", "--delta", "0.1", "--seed", "2",
        )
        assert code == 0
        assert json.loads(out)["result"]["value"] == pytest.approx(8.0)


class TestGadgetCommands:
    def test_weft(self, capsys, tmp_path):
        circuit = {
            "witness_qubits": 3, "ancilla_qubits": 0, "accept_qubit": 2,
            "gates": [
                {"name": "TOFFOLI", "controls": [0, 1], "targets": [2]},
            ],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(circuit))
        code, out = run(capsys, "weft", "--input", str(path))
        assert code == 0
        assert json.loads(out)["result"] == {"depth": 1, "size": 1, "weft": 1}

    @pytest.mark.parametrize("gates, metrics", [
        ([], {"depth": 0, "size": 0, "weft": 0}),
        ([{"name": "TOFFOLI", "controls": [0, 1], "targets": [10**9 - 1]}],
         {"depth": 1, "size": 1, "weft": 1}),
    ], ids=["no-gates", "gate-on-last-wire"])
    def test_weft_costs_gates_not_wires(self, capsys, tmp_path, gates, metrics):
        # per-wire levels for 10^9 wires would take about 16 GB
        circuit = {"witness_qubits": 10**9, "ancilla_qubits": 0,
                   "accept_qubit": 0, "gates": gates}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(circuit))
        start = time.perf_counter()
        code, out = run(capsys, "weft", "--input", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out)["result"] == metrics

    def test_encode_decode_roundtrip(self, capsys, tmp_path):
        amps = [[0.0, 0.0]] * 16
        amps[0b0011] = [1.0, 0.0]
        state = {"num_qubits": 4, "amplitudes": amps}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        code, out = run(capsys, "encode-witness", "--input", str(path), "--k", "2")
        assert code == 0
        compressed = json.loads(out)["result"]
        assert compressed["num_qubits"] == 3
        path2 = tmp_path / "compressed.json"
        path2.write_text(json.dumps(compressed))
        code, out = run(
            capsys, "decode-witness", "--input", str(path2),
            "--k", "2", "--n", "4",
        )
        assert code == 0
        decoded = json.loads(out)["result"]
        assert decoded["amplitudes"][0b0011] == [1.0, 0.0]

    def test_onehot_accept_and_reject(self, capsys):
        code, out = run(
            capsys, "onehot-decode", "--bits", "0100",
            "--blocks", "1", "--block-size", "4",
        )
        assert code == 0
        assert json.loads(out)["result"]["decoded"] == "01"
        code, out = run(
            capsys, "onehot-decode", "--bits", "0011",
            "--blocks", "1", "--block-size", "4",
        )
        assert code == 1

    def test_qcs_deciders(self, capsys, tmp_path):
        circuit = {
            "witness_qubits": 2, "ancilla_qubits": 1, "accept_qubit": 2,
            "gates": [{"name": "CX", "controls": [0], "targets": [2]}],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(circuit))
        for cmd in ("wqcs-decide", "hwqcs-decide"):
            code, out = run(
                capsys, cmd, "--input", str(path),
                "--k", "1", "--a", "0.1", "--b", "0.9",
            )
            assert code == 0
            assert json.loads(out)["result"]["max_acceptance"] == pytest.approx(1.0)

    def test_witness_free_hwqcs_table_key_is_empty(self, capsys, tmp_path):
        # the one weight-0 string of an empty witness register is ""
        circuit = {
            "witness_qubits": 0, "ancilla_qubits": 1, "accept_qubit": 0,
            "gates": [{"name": "X", "controls": [], "targets": [0]}],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(circuit))
        code, out = run(capsys, "hwqcs-decide", "--input", str(path),
                        "--k", "0", "--a", "0.1", "--b", "0.9")
        assert code == 0
        assert json.loads(out)["result"]["table"] == {"": 1.0}

    def test_qmak_decide(self, capsys, tmp_path):
        circuit = {
            "witness_qubits": 1, "ancilla_qubits": 1, "accept_qubit": 1,
            "gates": [{"name": "X", "controls": [], "targets": [1]}],
        }
        path = tmp_path / "v.json"
        path.write_text(json.dumps(circuit))
        code, out = run(capsys, "qmak-decide", "--input", str(path), "--k", "1")
        assert code == 0
        assert json.loads(out)["result"]["accept_probability"] == pytest.approx(1.0)


class TestJonesCommands:
    def test_jones_exact_unlink(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"strands": 4, "word": []}))
        code, out = run(capsys, "jones-exact", "--input", str(path), "--k", "5")
        assert code == 0
        value = complex(*json.loads(out)["result"]["jones"])
        t = cmath.exp(2j * math.pi / 5)
        assert value == pytest.approx(-(t**0.5) - t**-0.5, abs=1e-9)

    def test_jones_sampled_within_bound(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"strands": 4, "word": []}))
        code, out = run(
            capsys, "jones", "--input", str(path), "--k", "5",
            "--tau", "0.05", "--seed", "11",
        )
        assert code == 0
        result = json.loads(out)["result"]
        value = complex(*result["jones"])
        exact = jones_exact(BraidWord(4, ()), 5)
        assert abs(value - exact) <= result["bound"]

    def test_jones_on_twenty_strands(self, capsys, tmp_path, rng):
        # 14041 sector walks at k=7; the full model has 70755
        word = (rng.integers(1, 20, size=60) * rng.choice([-1, 1], size=60)).tolist()
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"strands": 20, "word": word}))
        code, out = run(capsys, "jones", "--input", str(path), "--k", "7",
                        "--seed", "5")
        assert code == 0
        result = json.loads(out)["result"]
        exact = jones_exact(BraidWord(20, tuple(word)), 7)
        assert abs(complex(*result["jones"]) - exact) <= result["bound"]

    @pytest.mark.parametrize("command", ["jones", "jones-exact"])
    def test_level_beyond_float_range_is_usage_error(self, capsys, tmp_path,
                                                     command):
        code, _, _ = run_refused(capsys, tmp_path, {"strands": 4, "word": [1]},
                                 command, "--k", str(10**400))
        assert code == 3

    def test_determinism_across_runs(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"strands": 4, "word": [1, -2, 3]}))
        outputs = set()
        for _ in range(3):
            code, out = run(
                capsys, "jones", "--input", str(path), "--k", "5",
                "--tau", "0.1", "--seed", "123",
            )
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1


CIRCUIT = {"witness_qubits": 2, "ancilla_qubits": 1, "accept_qubit": 2,
           "gates": [{"name": "CX", "controls": [0], "targets": [2]}]}
GAP = dict(CIRCUIT, classical_only=True)
STATE = {"num_qubits": 2, "amplitudes": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0],
                                         [0.0, 0.0]]}
HAMILTONIAN = {"n": 2, "locality": 1, "a": -0.5, "b": 0.5,
               "terms": [{"qubits": [0], "matrix": Z_JSON}]}
HAM_KEYS = ["a", "b", "dim", "k", "lambda_min", "verdict"]
ESTIMATE_KEYS = ["bound", "delta", "mode", "samples", "seed", "tau", "value"]
SLICE_KEYS = ["a", "b", "k", "max_acceptance", "verdict"]
STATE_KEYS = ["amplitudes", "num_qubits"]
JONES_KEYS = ["jones", "k", "strands", "word_length", "writhe"]

# command: (argv after the command, input document or None, config keys,
# result keys); the config echoes every flag of the command
REPORT_KEYS = {
    "ham-min": (["--k", "1"], HAMILTONIAN, ["input", "k"], HAM_KEYS),
    "ham-decide": (["--k", "1"], HAMILTONIAN, ["input", "k"], HAM_KEYS),
    "amp-estimate": (["--seed", "1"], {"unitary": Z_JSON},
                     ["delta", "epsilon", "input", "lower_bound", "seed", "tau"],
                     ESTIMATE_KEYS),
    "gapp-estimate": (["--seed", "1"], GAP, ["delta", "input", "seed", "tau"],
                      ESTIMATE_KEYS),
    "gapp-exact": ([], GAP, ["input"], ["gap", "path_bits"]),
    "qmak-decide": (["--k", "2"], CIRCUIT, ["input", "k"],
                    ["accept_probability", "k", "trace", "verdict"]),
    "weft": ([], CIRCUIT, ["input"], ["depth", "size", "weft"]),
    "encode-witness": (["--k", "1"], STATE, ["input", "k"], STATE_KEYS),
    "decode-witness": (["--k", "1", "--n", "2"], {
        "num_qubits": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]],
    }, ["input", "k", "n"], STATE_KEYS),
    "onehot-decode": (["--bits", "0100", "--blocks", "1", "--block-size", "4"],
                      None, ["bits", "block_size", "blocks"],
                      ["decoded"]),
    "wqcs-decide": (["--k", "1", "--a", "0.1", "--b", "0.9"], CIRCUIT,
                    ["a", "b", "input", "k"], SLICE_KEYS),
    "hwqcs-decide": (["--k", "1", "--a", "0.1", "--b", "0.9"], CIRCUIT,
                     ["a", "b", "input", "k"], SLICE_KEYS + ["table"]),
    "jones": (["--k", "5", "--seed", "1"], {"strands": 4, "word": [1, -2]},
              ["delta", "input", "k", "seed", "tau"],
              JONES_KEYS + ["bound", "samples"]),
    "jones-exact": (["--k", "5"], {"strands": 4, "word": [1, -2]},
                    ["input", "k"], JONES_KEYS),
}


class TestReportKeys:
    def test_every_command_is_pinned(self):
        assert sorted(REPORT_KEYS) == sorted(COMMANDS)

    @pytest.mark.parametrize("command", sorted(REPORT_KEYS))
    def test_config_and_result_keys(self, capsys, tmp_path, command):
        argv, document, config_keys, result_keys = REPORT_KEYS[command]
        if document is not None:
            path = tmp_path / "in.json"
            path.write_text(json.dumps(document))
            argv = ["--input", str(path), *argv]
        code, out = run(capsys, command, *argv)
        assert code == 0
        report = json.loads(out)
        assert report["command"] == command
        assert sorted(report["config"]) == config_keys
        assert sorted(report["result"]) == sorted(result_keys)

    @pytest.mark.parametrize("command", sorted(REPORT_KEYS))
    def test_input_flag_only_where_a_document_is_read(self, capsys, command):
        argv, document, _, _ = REPORT_KEYS[command]
        if document is None:
            assert main([command, "--input", "in.json", *argv]) == 3
            assert "unrecognized arguments: --input" in capsys.readouterr().err
        else:
            assert main([command, *argv]) == 3
            assert "required: --input" in capsys.readouterr().err
