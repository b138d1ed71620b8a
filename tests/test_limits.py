"""Every desk-scale limit refuses through ``errors.require_within``.

The boundary table sets each limit to the exact size of a small request:
the request must run at the limit and be refused one below it, with a
message that names the limit, so a ``>`` that turned into ``>=`` fails here.
Requests that are cheap at the real limit use its real value. The AST tests
keep ``raise ResourceError`` in one place and the README Limits table in step
with the constants that ``require_within`` is given.
"""
import ast
import importlib
import math
import re
from pathlib import Path

import pytest

from qparam import circuits, estimators, hamiltonian, jones, weightenum
from qparam.errors import ResourceError, require_within
from qparam.jones import BraidWord, PathModel, plat_closure
from qparam.states import StateVector
from test_estimators import always_reject, parity, reject_verifier
from test_hamiltonian import sum_z

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qparam"
A = complex(math.cos(0.3), -math.sin(0.3))
# 3 path bits, each CX-ed into the ancilla: wires 0-3 held
PARITY = parity(3)


# id: (module, limit constant, amount of the request, the request)
BOUNDARIES = {
    "weight-enumeration-bits": (
        weightenum, "INDEX_BITS", 63, lambda: weightenum.WeightEnumeration(63, 1)),
    # C(4, 2) = 6 states × (1 + 2 entries for each of four 1-local terms)
    "restriction-entries": (
        hamiltonian, "RESTRICT_ENTRY_LIMIT", 54,
        lambda: hamiltonian.restrict_to_weight(sum_z(4), 2)),
    "decoded-qubits": (
        circuits, "DECODE_QUBIT_LIMIT", 20,
        lambda: circuits.decode_weight_witness(20, 1, StateVector.basis(5, 0))),
    # 2·ln(e²)/1² = 4 samples exactly
    "samples": (
        estimators, "SAMPLE_LIMIT", 4,
        lambda: estimators.sample_count(1.0, 2 / math.e**2)),
    "exact-gap-path-bits": (
        estimators, "EXACT_GAP_LIMIT", 20,
        lambda: estimators.exact_gap(always_reject(20))),
    "estimate-gap-path-bits": (
        estimators, "INDEX_BITS", 63,
        lambda: estimators.estimate_gap(always_reject(63), 0.5, 0.5, seed=1)),
    # 2^3 paths × (8 B index + 8 B temporary + 4 wires)
    "exact-gap-entries": (
        estimators, "GAP_ENTRY_LIMIT", 160, lambda: estimators.exact_gap(PARITY)),
    # 4 samples × (8 B index + 8 B temporary + 4 wires)
    "estimate-gap-entries": (
        estimators, "GAP_ENTRY_LIMIT", 80,
        lambda: estimators.estimate_gap(PARITY, 1.0, 2 / math.e**2, seed=1)),
    "qmak-qubits": (
        estimators, "QMAK_QUBIT_LIMIT", 12,
        lambda: estimators.qmak_operator(reject_verifier(2, 10), 2)),
    "slice-decider-qubits": (
        estimators, "QMAK_QUBIT_LIMIT", 12,
        lambda: estimators.decide_hamming_weight_qcs_exact(
            reject_verifier(2, 10), 1, 0.1, 0.9)),
    "path-model-strands": (
        jones, "INDEX_BITS", 4, lambda: PathModel(4, 5, closed=True)),
    # one walk, one column: (2 + 256) × (100 letters + 1), before the first walk
    "path-model-work-first": (
        jones, "PATH_MODEL_WORK_LIMIT", 258 * 101,
        lambda: PathModel(2, 5, closed=True, letters=100)),
    # 5 walks × (mask + 5 columns) at the last step: (30 + 256) × 2, past the
    # 258 × 2 checked before the first walk
    "path-model-work-step": (
        jones, "PATH_MODEL_WORK_LIMIT", 286 * 2, lambda: PathModel(4, 5, letters=1)),
    # 1 matching of 8 ends, no crossings
    "bracket-first-matching": (
        jones, "BRACKET_ENTRY_LIMIT", 8,
        lambda: jones.kauffman_bracket(plat_closure(BraidWord(8, ())), A)),
    # 4 matchings × 8 ends × 2 after the second crossing, past 8 × 4 up front
    "bracket-crossing": (
        jones, "BRACKET_ENTRY_LIMIT", 64,
        lambda: jones.kauffman_bracket(plat_closure(BraidWord(8, (2, 4, 6))), A)),
}


@pytest.mark.parametrize("module, name, amount, run",
                         BOUNDARIES.values(), ids=BOUNDARIES.keys())
def test_limit_admits_its_value_and_refuses_one_more(monkeypatch, module, name,
                                                     amount, run):
    monkeypatch.setattr(module, name, amount)
    run()
    monkeypatch.setattr(module, name, amount - 1)
    with pytest.raises(ResourceError, match=f" exceeds limit {amount - 1}$"):
        run()


def test_require_within_message():
    require_within(5, 5, "widgets")
    with pytest.raises(ResourceError, match="^widgets 6 exceeds limit 5$"):
        require_within(6, 5, "widgets")


def resource_raises(path: Path):
    """(function, message literal or None) of each ``raise ResourceError``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if ast.unparse(exc).split(".")[-1] == "ResourceError":
                args = getattr(node.exc, "args", [])
                message = (args[0].value if args and isinstance(args[0], ast.Constant)
                           else None)
                found.append((function, message))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_resource_error_is_raised_only_by_require_within():
    # the bracket's float-range refusal is not a size limit
    raises = {path.name: resource_raises(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in raises.items() if found} == {
        "errors.py": [("require_within", None)],
        "jones.py": [("kauffman_bracket", "bracket value is beyond the float range")],
    }


def require_within_limits() -> set[str]:
    """``module.NAME`` of every limit passed to ``require_within`` in the
    package, named by the module that assigns the constant."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    owner = {target.id: module for module, tree in trees.items()
             for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name)}
    limits = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == "require_within"):
                limit = node.args[1]
                assert isinstance(limit, ast.Name), ast.unparse(node)
                limits.add(f"{owner[limit.id]}.{limit.id}")
    return limits


def readme_limit_rows() -> list[tuple[str, str]]:
    """(constant, value) of each row of the README Limits table."""
    text = (ROOT / "README.md").read_text()
    table = text.split("## Limits", 1)[1].split("| Constant |", 1)[1]
    rows = []
    for line in table.splitlines()[2:]:
        if not line.startswith("|"):
            break
        # an escaped \| inside a cell is a literal bar, not a column break
        cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        rows.append((cells[0].strip("`"), cells[2]))
    return rows


def test_readme_limits_table_names_every_limit_and_its_value():
    rows = readme_limit_rows()
    assert {constant for constant, _ in rows} == require_within_limits()
    for constant, value in rows:
        module, name = constant.split(".")
        base, _, power = re.fullmatch(r"(\d+)(\^(\d+))?", value).groups()
        expected = int(base) ** int(power or 1)
        assert getattr(importlib.import_module(f"qparam.{module}"), name) == expected
