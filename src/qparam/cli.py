"""Command-line front end: seeded, reproducible runs with JSON reports.

Exit codes: 0 = YES/success, 1 = NO, 2 = PROMISE_VIOLATED,
3 = usage or parse error, 4 = resource or convergence error or any other
failure (an `error:` line on stderr, no traceback).
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import secrets
import sys
from collections.abc import Callable
from typing import NamedTuple

from .circuits import (
    REJECT,
    QuantumCircuit,
    StateVector,
    circuit_metrics,
    decode_weight_witness,
    encode_weight_witness,
    one_hot_block_decode,
)
from .decision import Verdict
from .errors import ConvergenceError, InvalidInputError, ResourceError
from .estimators import (
    GapInstance,
    decide_hamming_weight_qcs_exact,
    decide_weight_qcs_exact,
    estimate_amplitude,
    estimate_amplitude_multiplicative,
    estimate_gap,
    exact_gap,
    qmak_decide,
)
from .hamiltonian import (LocalHamiltonian, decide_weight_k_local_hamiltonian,
                          weight_k_min_eigenvalue)
from .jones import BraidWord, estimate_jones, jones_exact, writhe
from .linalg import json_finite, matrix_from_json, matrix_to_json

EXIT_YES = 0
EXIT_NO = 1
EXIT_PROMISE_VIOLATED = 2
EXIT_USAGE = 3
EXIT_RESOURCE = 4

_VERDICT_EXIT = {
    Verdict.YES: EXIT_YES,
    Verdict.NO: EXIT_NO,
    Verdict.PROMISE_VIOLATED: EXIT_PROMISE_VIOLATED,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidInputError(message)


def finite(text: str) -> float:
    """A real-valued argument; NaN and Inf are refused as in JSON fields."""
    return json_finite(float(text), "argument")


def _emit(command: str, config: dict, result: dict) -> None:
    report = {"command": command, "config": config, "result": result}
    # a NaN or Inf that got past the input checks fails here, not in stdout
    print(json.dumps(report, sort_keys=True, indent=2, allow_nan=False))


def _document(args) -> dict:
    """The JSON object in the ``--input`` file."""
    path = args.input
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError(f"{path} must hold a JSON object")
    return data


def _read(args, kind):
    """The input document parsed by ``kind.from_json``."""
    return kind.from_json(_document(args))


# Handlers: args -> (result JSON, exit code). They reach the library through
# this module's globals at call time, so a test or tracer that rebinds one
# of those names sees every call.

def _decided(decision) -> tuple[dict, int]:
    return decision.to_json(), _VERDICT_EXIT[decision.verdict]


def _ham_min(args):
    return weight_k_min_eigenvalue(_read(args, LocalHamiltonian), args.k).to_json(), EXIT_YES


def _ham_decide(args):
    return _decided(decide_weight_k_local_hamiltonian(_read(args, LocalHamiltonian), args.k))


def _amp_estimate(args):
    data = _document(args)
    try:
        unitary = matrix_from_json(data["unitary"])
    except KeyError as exc:
        raise InvalidInputError("input must contain a 'unitary' matrix") from exc
    prep = QuantumCircuit.from_json(data["prep"]) if "prep" in data else None
    if args.epsilon is None:
        report = estimate_amplitude(unitary, prep, args.tau, args.delta, args.seed)
    elif args.lower_bound is None:
        raise InvalidInputError("--lower-bound is required with --epsilon")
    else:
        report = estimate_amplitude_multiplicative(
            unitary, prep, args.epsilon, args.delta, args.lower_bound, args.seed
        )
    args.tau = report.tau  # echo the τ that ran: ε·L/√2 in multiplicative mode
    return report.to_json(), EXIT_YES


def _gapp_estimate(args):
    instance = _read(args, GapInstance)
    return estimate_gap(instance, args.tau, args.delta, args.seed).to_json(), EXIT_YES


def _gapp_exact(args):
    instance = _read(args, GapInstance)
    return {"gap": exact_gap(instance), "path_bits": instance.path_bits}, EXIT_YES


def _qmak_decide(args):
    return _decided(qmak_decide(_read(args, QuantumCircuit), args.k))


def _weft(args):
    return circuit_metrics(_read(args, QuantumCircuit)).to_json(), EXIT_YES


def _encode_witness(args):
    state = _read(args, StateVector)
    return encode_weight_witness(state.num_qubits, args.k, state).to_json(), EXIT_YES


def _decode_witness(args):
    state = _read(args, StateVector)
    return decode_weight_witness(args.n, args.k, state).to_json(), EXIT_YES


def _onehot_decode(args):
    decoded = one_hot_block_decode(args.blocks, args.block_size, args.bits)
    return {"decoded": decoded}, EXIT_NO if decoded == REJECT else EXIT_YES


def _wqcs_decide(args):
    circuit = _read(args, QuantumCircuit)
    return _decided(decide_weight_qcs_exact(circuit, args.k, args.a, args.b))


def _hwqcs_decide(args):
    circuit = _read(args, QuantumCircuit)
    return _decided(decide_hamming_weight_qcs_exact(circuit, args.k, args.a, args.b))


def _braid_fields(braid: BraidWord, k: int, value: complex) -> dict:
    return {"jones": matrix_to_json(value), "writhe": writhe(braid), "k": k,
            "word_length": len(braid.word), "strands": braid.strands}


def _jones(args):
    braid = _read(args, BraidWord)
    report = estimate_jones(braid, args.k, args.tau, args.delta, args.seed)
    result = _braid_fields(braid, args.k, report.value)
    result.update(bound=report.bound, samples=report.samples)
    return result, EXIT_YES


def _jones_exact(args):
    braid = _read(args, BraidWord)
    return _braid_fields(braid, args.k, jones_exact(braid, args.k)), EXIT_YES


class Command(NamedTuple):
    help: str
    handler: Callable
    flags: tuple  # (flag, add_argument keywords) in help order


_INPUT = ("--input", {"required": True, "help": "input JSON path"})
_K = ("--k", {"type": int, "required": True})
_A_B = (("--a", {"type": finite, "required": True}),
        ("--b", {"type": finite, "required": True}))
_SAMPLED = (("--tau", {"type": finite, "default": 0.05}),
            ("--delta", {"type": finite, "default": 0.025}),
            ("--seed", {"type": int, "default": None}))

COMMANDS = {
    "ham-min": Command("smallest weight-k eigenvalue of a local Hamiltonian",
                       _ham_min, (_INPUT, _K)),
    "ham-decide": Command("decide the weight-k local-Hamiltonian slice",
                          _ham_decide, (_INPUT, _K)),
    "amp-estimate": Command("Hadamard-test amplitude estimate", _amp_estimate, (
        _INPUT, *_SAMPLED,
        ("--epsilon", {"type": finite, "default": None,
                       "help": "relative error (switches to multiplicative mode)"}),
        ("--lower-bound", {"type": finite, "default": None, "help":
                           "asserted lower bound on |q| for multiplicative mode"}),
    )),
    "gapp-estimate": Command("Monte-Carlo gap estimate", _gapp_estimate,
                             (_INPUT, *_SAMPLED)),
    "gapp-exact": Command("exact gap by path enumeration", _gapp_exact, (_INPUT,)),
    "qmak-decide": Command("maximally-mixed-witness decision", _qmak_decide,
                           (_INPUT, _K)),
    "weft": Command("weft/depth/size metrics of a circuit", _weft, (_INPUT,)),
    "encode-witness": Command("compress a weight-k state to its rank register",
                              _encode_witness, (_INPUT, _K)),
    "decode-witness": Command("expand a rank-register state", _decode_witness,
                              (_INPUT, _K, ("--n", {"type": int, "required": True}))),
    "onehot-decode": Command("decode blockwise one-hot strings", _onehot_decode, (
        ("--bits", {"required": True}),
        ("--blocks", {"type": int, "required": True}),
        ("--block-size", {"type": int, "required": True}),
    )),
    "wqcs-decide": Command("exact weight-k circuit-satisfiability decision",
                           _wqcs_decide, (_INPUT, _K, *_A_B)),
    "hwqcs-decide": Command(
        "exact Hamming-weight-k circuit-satisfiability decision",
        _hwqcs_decide, (_INPUT, _K, *_A_B)),
    "jones": Command("sampled Jones-polynomial value at t = e^{2πi/k}", _jones,
                     (_INPUT, *_SAMPLED, _K)),
    "jones-exact": Command("exact Jones-polynomial value via the bracket",
                           _jones_exact, (_INPUT, _K)),
}


@functools.cache
def build_parser() -> _Parser:
    """The command parser, built once per process: parsing leaves it as it is."""
    parser = _Parser(prog="qparam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, spec in command.flags:
            p.add_argument(flag, **spec)
    return parser


def _run(args) -> int:
    """Run one parsed request; its report echoes every flag of the command,
    with a seed drawn here when the command takes one and none was given.

    The cyclic garbage collector is paused while the handler runs. An input
    tree holds no cycles, yet its many small lists (a 256×256 matrix is
    65 536 ``[re, im]`` pairs) set off collections that traverse all of it;
    by the time collection resumes, the handler has converted and dropped
    it, so the next collection does not walk it either.
    """
    if "seed" in vars(args) and args.seed is None:
        args.seed = secrets.randbits(63)
    collecting = gc.isenabled()
    gc.disable()
    try:
        result, code = COMMANDS[args.command].handler(args)
    finally:
        if collecting:
            gc.enable()
    config = {key: value for key, value in vars(args).items() if key != "command"}
    _emit(args.command, config, result)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:  # MemoryError too: a fault is never a NO verdict
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
