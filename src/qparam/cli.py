"""Command-line front end: seeded, reproducible runs with JSON reports.

Exit codes: 0 = YES/success, 1 = NO, 2 = PROMISE_VIOLATED,
3 = usage or parse error, 4 = resource or convergence error or any other
failure (an `error:` line on stderr, no traceback).
"""
from __future__ import annotations

import argparse
import functools
import json
import secrets
import sys

from .circuits import (
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
    estimate_amplitude,
    estimate_amplitude_multiplicative,
    estimate_gap,
    exact_gap,
    qmak_decide,
)
from .hamiltonian import LocalHamiltonian, decide_weight_k_local_hamiltonian
from .jones import BraidWord, estimate_jones, jones_exact, writhe
from .linalg import json_finite, matrix_from_json

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


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc


def finite(text: str) -> float:
    """A real-valued argument; NaN and Inf are refused as in JSON fields."""
    return json_finite(float(text), "argument")


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = secrets.randbits(63)
    return seed


def _emit(command: str, config: dict, result: dict) -> None:
    report = {"command": command, "config": config, "result": result}
    # a NaN or Inf that got past the input checks fails here, not in stdout
    print(json.dumps(report, sort_keys=True, indent=2, allow_nan=False))


@functools.cache
def build_parser() -> _Parser:
    """The command parser, built once per process: parsing leaves it as it is."""
    parser = _Parser(prog="qparam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, *, tau=False, delta=False, seed=False, k=False,
            a_b=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=False, help="input JSON path")
        if tau:
            p.add_argument("--tau", type=finite, default=0.05)
        if delta:
            p.add_argument("--delta", type=finite, default=0.025)
        if seed:
            p.add_argument("--seed", type=int, default=None)
        if k:
            p.add_argument("--k", type=int, required=True)
        if a_b:
            p.add_argument("--a", type=finite, required=True)
            p.add_argument("--b", type=finite, required=True)
        return p

    cmd("ham-min", "smallest weight-k eigenvalue of a local Hamiltonian", k=True)
    cmd("ham-decide", "decide the weight-k local-Hamiltonian slice", k=True)

    p = cmd("amp-estimate", "Hadamard-test amplitude estimate",
            tau=True, delta=True, seed=True)
    p.add_argument("--epsilon", type=finite, default=None,
                   help="relative error (switches to multiplicative mode)")
    p.add_argument("--lower-bound", type=finite, default=None,
                   help="asserted lower bound on |q| for multiplicative mode")

    cmd("gapp-estimate", "Monte-Carlo gap estimate",
        tau=True, delta=True, seed=True)
    cmd("gapp-exact", "exact gap by path enumeration")
    cmd("qmak-decide", "maximally-mixed-witness decision", k=True)
    cmd("weft", "weft/depth/size metrics of a circuit")
    cmd("encode-witness", "compress a weight-k state to its rank register",
        k=True)
    p = cmd("decode-witness", "expand a rank-register state", k=True)
    p.add_argument("--n", type=int, required=True)
    p = cmd("onehot-decode", "decode blockwise one-hot strings")
    p.add_argument("--bits", required=True)
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--block-size", type=int, required=True)
    cmd("wqcs-decide", "exact weight-k circuit-satisfiability decision",
        k=True, a_b=True)
    cmd("hwqcs-decide", "exact Hamming-weight-k circuit-satisfiability decision",
        k=True, a_b=True)
    cmd("jones", "sampled Jones-polynomial value at t = e^{2πi/k}",
        tau=True, delta=True, seed=True, k=True)
    cmd("jones-exact", "exact Jones-polynomial value via the bracket", k=True)
    return parser


def _require_input(args) -> dict:
    if not args.input:
        raise InvalidInputError("--input is required for this command")
    data = _load_json(args.input)
    if not isinstance(data, dict):
        raise InvalidInputError(f"{args.input} must hold a JSON object")
    return data


def _config(args, **extra) -> dict:
    out = {"input": args.input}
    for key in ("tau", "delta", "seed", "k", "a", "b"):
        if hasattr(args, key):
            out[key] = getattr(args, key)
    out.update(extra)
    return out


def _run(args) -> int:
    command = args.command

    if command in ("ham-min", "ham-decide"):
        ham = LocalHamiltonian.from_json(_require_input(args))
        decision = decide_weight_k_local_hamiltonian(ham, args.k)
        _emit(command, _config(args), decision.to_json())
        if command == "ham-decide":
            return _VERDICT_EXIT[decision.verdict]
        return EXIT_YES

    if command == "amp-estimate":
        data = _require_input(args)
        try:
            unitary = matrix_from_json(data["unitary"])
        except KeyError as exc:
            raise InvalidInputError("input must contain a 'unitary' matrix") from exc
        prep = QuantumCircuit.from_json(data["prep"]) if "prep" in data else None
        seed = _resolve_seed(args)
        if args.epsilon is not None:
            if args.lower_bound is None:
                raise InvalidInputError(
                    "--lower-bound is required with --epsilon"
                )
            report = estimate_amplitude_multiplicative(
                unitary, prep, args.epsilon, args.delta, args.lower_bound, seed
            )
        else:
            report = estimate_amplitude(unitary, prep, args.tau, args.delta, seed)
        _emit(command, _config(args, seed=seed), report.to_json())
        return EXIT_YES

    if command in ("gapp-estimate", "gapp-exact"):
        instance = GapInstance.from_json(_require_input(args))
        if command == "gapp-exact":
            _emit(command, _config(args), {"gap": exact_gap(instance),
                                           "path_bits": instance.path_bits})
            return EXIT_YES
        seed = _resolve_seed(args)
        report = estimate_gap(instance, args.tau, args.delta, seed)
        _emit(command, _config(args, seed=seed), report.to_json())
        return EXIT_YES

    if command == "qmak-decide":
        verifier = QuantumCircuit.from_json(_require_input(args))
        decision = qmak_decide(verifier, args.k)
        _emit(command, _config(args), decision.to_json())
        return _VERDICT_EXIT[decision.verdict]

    if command == "weft":
        circuit = QuantumCircuit.from_json(_require_input(args))
        _emit(command, _config(args), circuit_metrics(circuit).to_json())
        return EXIT_YES

    if command == "encode-witness":
        state = StateVector.from_json(_require_input(args))
        out = encode_weight_witness(state.num_qubits, args.k, state)
        _emit(command, _config(args), out.to_json())
        return EXIT_YES

    if command == "decode-witness":
        state = StateVector.from_json(_require_input(args))
        out = decode_weight_witness(args.n, args.k, state)
        _emit(command, _config(args, n=args.n), out.to_json())
        return EXIT_YES

    if command == "onehot-decode":
        decoded = one_hot_block_decode(args.blocks, args.block_size, args.bits)
        _emit(
            command,
            _config(args, bits=args.bits, blocks=args.blocks,
                    block_size=args.block_size),
            {"decoded": decoded},
        )
        return EXIT_YES if decoded != "REJECT" else EXIT_NO

    if command in ("wqcs-decide", "hwqcs-decide"):
        from .estimators import (
            decide_hamming_weight_qcs_exact,
            decide_weight_qcs_exact,
        )
        circuit = QuantumCircuit.from_json(_require_input(args))
        decide = (decide_weight_qcs_exact if command == "wqcs-decide"
                  else decide_hamming_weight_qcs_exact)
        decision = decide(circuit, args.k, args.a, args.b)
        _emit(command, _config(args), decision.to_json())
        return _VERDICT_EXIT[decision.verdict]

    if command in ("jones", "jones-exact"):
        braid = BraidWord.from_json(_require_input(args))
        if command == "jones-exact":
            value = jones_exact(braid, args.k)
            _emit(command, _config(args), {
                "jones": [value.real, value.imag],
                "writhe": writhe(braid),
                "k": args.k,
                "word_length": len(braid.word),
                "strands": braid.strands,
            })
            return EXIT_YES
        seed = _resolve_seed(args)
        report = estimate_jones(braid, args.k, args.tau, args.delta, seed)
        value = report.value
        _emit(command, _config(args, seed=seed), {
            "jones": [value.real, value.imag],
            "bound": report.bound,
            "writhe": writhe(braid),
            "k": args.k,
            "samples": report.samples,
            "word_length": len(braid.word),
            "strands": braid.strands,
        })
        return EXIT_YES

    raise InvalidInputError(f"unknown command {command!r}")


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
