"""Span tracer that wraps qparam's public functions from outside the package.

``Tracer.install`` replaces each traced function at every module binding that
callers look it up through (``qparam.circuits.simulate`` and
``qparam.estimators.simulate`` are the same function bound twice), and
methods on their class. ``uninstall`` puts the originals back. Nothing under
``src/`` changes.

Each traced call opens a span (name, start, end, parent, request id). Spans
are held in memory and written out by the caller at the end of the run. A
span's self time is its duration minus the time of the traced calls made
inside it. "Hot" functions, called thousands of times per request (one gate
application), record self time and call counts but no span of their own.

Layer metrics are sums of per-request aggregates: ``<name>.self`` (seconds),
``<name>.calls``, ``<name>.raised`` and the counters that ``count`` hooks add.
A traced name that the package no longer has is skipped, and a metric all of
whose sources are missing reads as absent (``None``).
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from collections.abc import Iterator
from math import comb

import scipy.sparse as sp


def _states(tracer, args, kwargs, result):
    tracer.add("weightenum.states", len(result))


def _restrict(tracer, args, kwargs, result):
    tracer.add("hamiltonian.sector_dim", result.shape[0])
    nnz = result.nnz if sp.issparse(result) else int((result != 0).sum())
    tracer.add("hamiltonian.nnz", nnz)


def _min_eig(tracer, args, kwargs, result):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "dense")
    lanczos = mode == "iterative" and args[0].shape[0] > 2
    tracer.add("linalg.lanczos_calls" if lanczos else "linalg.dense_calls", 1)


def _gate(tracer, args, kwargs, result):
    num_qubits = args[1] if len(args) > 1 else kwargs["num_qubits"]
    # one read and one write of the 2^n complex128 state per application
    tracer.add("circuits.bytes_moved_computed", 2 * 2**num_qubits * 16)


def _qmak_witnesses(tracer, args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    tracer.add("estimators.witnesses_simulated", 2**k)


def _slice_witnesses(tracer, args, kwargs, result):
    circuit = args[0] if args else kwargs["circuit"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    tracer.add("estimators.witnesses_simulated", comb(circuit.witness_qubits, k))


def _amp_samples(tracer, args, kwargs, result):
    tracer.add("estimators.samples_drawn", 2 * result.samples)  # Re and Im


def _gap_samples(tracer, args, kwargs, result):
    tracer.add("estimators.samples_drawn", result.samples)


def _paths(tracer, args, kwargs, result):
    tracer.add("estimators.paths_evaluated", len(result))


def _bracket(tracer, args, kwargs, result):
    diagram = args[0] if args else kwargs["diagram"]
    tracer.add("jones.bracket_states", 2 ** len(diagram.crossings))


def _path_dim(tracer, args, kwargs, result):
    tracer.add("jones.path_dim", result.shape[0])


# (module, name, mode, count hook). Modes: "span" records a span; "hot"
# records self time and calls only; "count" runs the hook without timing, so
# the call's time stays in its caller's self time.
TRACED = [
    ("cli", "main", "span", None),
    ("weightenum", "WeightEnumeration.indices", "span", _states),
    ("weightenum", "WeightEnumeration.strings", "span", _states),
    ("hamiltonian", "restrict_to_weight", "span", _restrict),
    ("hamiltonian", "decide_weight_k_local_hamiltonian", "span", None),
    ("linalg", "min_eigenvalue", "span", _min_eig),
    ("linalg", "full_spectrum", "span", None),
    ("linalg", "require_hermitian", "span", None),
    ("circuits", "simulate", "span", None),
    ("circuits", "acceptance_probability", "span", None),
    ("circuits", "apply_gate_matrix", "hot", _gate),
    ("circuits", "hadamard_test_circuit", "span", None),
    ("circuits", "circuit_metrics", "span", None),
    ("estimators", "qmak_operator", "span", _qmak_witnesses),
    ("estimators", "qmak_decide", "span", None),
    ("estimators", "decide_weight_qcs_exact", "span", _slice_witnesses),
    ("estimators", "decide_hamming_weight_qcs_exact", "span", _slice_witnesses),
    ("estimators", "estimate_amplitude", "span", _amp_samples),
    ("estimators", "estimate_amplitude_multiplicative", "span", None),
    ("estimators", "estimate_gap", "span", _gap_samples),
    ("estimators", "exact_gap", "span", None),
    ("estimators", "GapInstance.evaluate", "count", _paths),
    ("jones", "kauffman_bracket", "span", _bracket),
    ("jones", "jones_exact", "span", None),
    ("jones", "plat_closure", "span", None),
    ("jones", "PathModel.__post_init__", "span", None),
    ("jones", "ajl_braid_unitary", "span", _path_dim),
    ("jones", "plat_amplitude", "span", None),
    ("jones", "estimate_jones", "span", None),
]


def _self(*names):
    return [f"{n}.self" for n in names]


def _calls(*names):
    return [f"{n}.calls" for n in names]


# Layer metric -> (unit, aggregate keys summed, traced names it needs).
LAYER_METRICS = {
    "cli.self_s": ("s", _self("cli.main"), ["cli.main"]),
    "cli.calls": ("count", _calls("cli.main"), ["cli.main"]),
    "weightenum.enumerate_s": (
        "s", _self("weightenum.WeightEnumeration.indices",
                   "weightenum.WeightEnumeration.strings"),
        ["weightenum.WeightEnumeration.indices",
         "weightenum.WeightEnumeration.strings"]),
    "weightenum.states": (
        "count", ["weightenum.states"],
        ["weightenum.WeightEnumeration.indices",
         "weightenum.WeightEnumeration.strings"]),
    "hamiltonian.restrict_s": ("s", _self("hamiltonian.restrict_to_weight"),
                               ["hamiltonian.restrict_to_weight"]),
    "hamiltonian.sector_dim": ("count", ["hamiltonian.sector_dim"],
                               ["hamiltonian.restrict_to_weight"]),
    "hamiltonian.nnz": ("count", ["hamiltonian.nnz"],
                        ["hamiltonian.restrict_to_weight"]),
    "linalg.min_eigenvalue_s": ("s", _self("linalg.min_eigenvalue"),
                                ["linalg.min_eigenvalue"]),
    "linalg.dense_calls": ("count", ["linalg.dense_calls"],
                           ["linalg.min_eigenvalue"]),
    "linalg.lanczos_calls": ("count", ["linalg.lanczos_calls"],
                             ["linalg.min_eigenvalue"]),
    "linalg.hermitian_check_s": ("s", _self("linalg.require_hermitian"),
                                 ["linalg.require_hermitian"]),
    "linalg.full_spectrum_s": ("s", _self("linalg.full_spectrum"),
                               ["linalg.full_spectrum"]),
    "circuits.simulate_s": (
        "s", _self("circuits.simulate", "circuits.acceptance_probability"),
        ["circuits.simulate", "circuits.acceptance_probability"]),
    "circuits.simulate_calls": ("count", _calls("circuits.simulate"),
                                ["circuits.simulate"]),
    "circuits.gate_apply_s": ("s", _self("circuits.apply_gate_matrix"),
                              ["circuits.apply_gate_matrix"]),
    "circuits.gates_applied": ("count", _calls("circuits.apply_gate_matrix"),
                               ["circuits.apply_gate_matrix"]),
    "circuits.bytes_moved_computed": ("B", ["circuits.bytes_moved_computed"],
                                      ["circuits.apply_gate_matrix"]),
    "circuits.hadamard_circuit_s": ("s", _self("circuits.hadamard_test_circuit"),
                                    ["circuits.hadamard_test_circuit"]),
    "estimators.witness_engine_s": (
        "s", _self("estimators.qmak_operator",
                   "estimators.decide_weight_qcs_exact",
                   "estimators.decide_hamming_weight_qcs_exact"),
        ["estimators.qmak_operator", "estimators.decide_weight_qcs_exact",
         "estimators.decide_hamming_weight_qcs_exact"]),
    "estimators.witnesses_simulated": (
        "count", ["estimators.witnesses_simulated"],
        ["estimators.qmak_operator", "estimators.decide_weight_qcs_exact",
         "estimators.decide_hamming_weight_qcs_exact"]),
    "estimators.sampling_s": (
        "s", _self("estimators.estimate_amplitude",
                   "estimators.estimate_amplitude_multiplicative",
                   "estimators.estimate_gap"),
        ["estimators.estimate_amplitude", "estimators.estimate_gap"]),
    "estimators.samples_drawn": (
        "count", ["estimators.samples_drawn"],
        ["estimators.estimate_amplitude", "estimators.estimate_gap"]),
    "estimators.exact_gap_s": ("s", _self("estimators.exact_gap"),
                               ["estimators.exact_gap"]),
    "estimators.paths_evaluated": ("count", ["estimators.paths_evaluated"],
                                   ["estimators.GapInstance.evaluate"]),
    "jones.bracket_s": ("s", _self("jones.kauffman_bracket"),
                        ["jones.kauffman_bracket"]),
    "jones.bracket_states": ("count", ["jones.bracket_states"],
                             ["jones.kauffman_bracket"]),
    "jones.path_model_s": ("s", _self("jones.PathModel.__post_init__"),
                           ["jones.PathModel.__post_init__"]),
    "jones.path_dim": ("count", ["jones.path_dim"], ["jones.ajl_braid_unitary"]),
    "jones.braid_unitary_s": ("s", _self("jones.ajl_braid_unitary"),
                              ["jones.ajl_braid_unitary"]),
    "jones.estimate_self_s": ("s", _self("jones.estimate_jones"),
                              ["jones.estimate_jones"]),
}
for _module in ("cli", "weightenum", "hamiltonian", "linalg", "circuits",
                "estimators", "jones"):
    _names = [f"{m}.{n}" for m, n, _, _ in TRACED if m == _module]
    LAYER_METRICS[f"{_module}.raised"] = (
        "count", [f"{n}.raised" for n in _names], _names)


class Tracer:
    def __init__(self, traced=TRACED):
        self.traced = traced
        self.spans: list[tuple] = []
        self.request = None
        self.current: dict[str, float] = defaultdict(float)
        self.history: list[tuple] = []
        self.present: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._replaced: list[tuple] = []
        self._wrappers: dict[str, tuple] = {}
        self._resolve()

    # -- aggregates -------------------------------------------------------
    def add(self, key: str, value: float) -> None:
        self.current[key] += value

    def begin(self, request_id) -> None:
        self.request = request_id

    def end(self) -> None:
        """File the current request's aggregates under its request id."""
        self.history.append((self.request, dict(self.current)))
        self.current = defaultdict(float)

    def per_pass(self) -> dict[str, float]:
        """Each aggregate's mean per run of a request, summed over the mix,
        so that a value is what one pass of the mix costs."""
        sums: dict = defaultdict(lambda: defaultdict(float))
        runs: dict = defaultdict(int)
        for request_id, values in self.history:
            runs[request_id] += 1
            for key, value in values.items():
                sums[request_id][key] += value
        out: dict[str, float] = defaultdict(float)
        for request_id, values in sums.items():
            for key, value in values.items():
                out[key] += value / runs[request_id]
        return dict(out)

    # -- spans --------------------------------------------------------------
    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        self._next_id += 1
        frame = [self._next_id, name, parent, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, hot: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, parent, start, child = frame
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self.current[f"{name}.self"] += duration - child
        self.current[f"{name}.calls"] += 1
        if not hot:
            self.spans.append((span_id, name, start, end, parent, self.request))

    def _count(self, hook, args, kwargs, result) -> None:
        """Run a count hook with its time kept out of every open span.

        A hook that no longer fits the traced function's arguments or result
        is counted in ``trace.hook_errors`` instead of failing the request.
        """
        start = time.perf_counter()
        try:
            hook(self, args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.current["trace.hook_errors"] += 1
        if self._stack:
            self._stack[-1][4] += time.perf_counter() - start

    def _wrap(self, name: str, fn, mode: str, hook):
        tracer = self

        if mode == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer._count(hook, args, kwargs, result)
                return result
            return counted

        hot = mode == "hot"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            drained = False
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, Iterator):
                    # a lazy result does its work while it is consumed;
                    # drain it inside the span so the span holds that work
                    result, drained = list(result), True
            except Exception:
                tracer.current[f"{name}.raised"] += 1
                raise
            finally:
                tracer._exit(frame, hot)
            if hook is not None:
                tracer._count(hook, args, kwargs, result)
            return iter(result) if drained else result
        return traced

    # -- installation -------------------------------------------------------
    def _resolve(self) -> None:
        """Find each traced object; names the package lacks are absent."""
        for module, attr, mode, hook in self.traced:
            name = f"{module}.{attr}"
            try:
                owner = importlib.import_module(f"qparam.{module}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = owner.__dict__[leaf] if path else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            if not callable(fn):
                self.absent.append(name)
                continue
            self.present.add(name)
            self._wrappers[name] = (owner if path else None, leaf, fn,
                                    self._wrap(name, fn, mode, hook))

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "qparam" or key.startswith("qparam.")]
        for owner, leaf, fn, wrapper in self._wrappers.values():
            if owner is not None:  # a method: its class is the one binding
                setattr(owner, leaf, wrapper)
                self._replaced.append((owner, leaf, fn))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._replaced.append((module, key, fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._replaced):
            setattr(owner, key, fn)
        self._replaced.clear()

    # -- results --------------------------------------------------------------
    def layer_metrics(self) -> dict[str, tuple]:
        """{metric: (value per pass, or None if absent; unit)}."""
        per_pass = self.per_pass()
        out = {}
        for metric, (unit, keys, needs) in LAYER_METRICS.items():
            if not any(name in self.present for name in needs):
                out[metric] = (None, unit)
                continue
            out[metric] = (sum(per_pass.get(key, 0.0) for key in keys), unit)
        return out

    def span_records(self):
        for span_id, name, start, end, parent, request in self.spans:
            yield {"id": span_id, "name": name, "start": start, "end": end,
                   "parent": parent, "request": request}
