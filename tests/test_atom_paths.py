"""The estimator's stages build their atoms from the angle-addition table.

``fft_init``, ``order_control`` and ``pipeline`` are parsed, not imported.
None of them may name ``design_matrix`` or call numpy's ``exp``, either of
which costs N complex exps per atom where ``signal_model.atom_table`` takes
about 2*sqrt(N).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "linespec"
GUARDED = ("fft_init", "order_control", "pipeline")
NUMPY = {"np", "numpy"}


def _direct_exp_uses(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and node.id == "design_matrix":
            found.append(f"line {node.lineno}: design_matrix")
        elif isinstance(node, ast.Attribute) and node.attr == "design_matrix":
            found.append(f"line {node.lineno}: .design_matrix")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "design_matrix" or (node.module in NUMPY and alias.name == "exp"):
                    found.append(f"line {node.lineno}: imports {alias.name}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "exp"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in NUMPY
        ):
            found.append(f"line {node.lineno}: {node.func.value.id}.exp(...)")
    return found


@pytest.mark.parametrize("module", GUARDED)
def test_stage_builds_no_atom_by_direct_exp(module):
    assert _direct_exp_uses(PACKAGE / f"{module}.py") == []


def test_the_guard_sees_each_direct_exp_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "from numpy import exp\n"
        "from .signal_model import design_matrix\n"
        "from . import signal_model\n"
        "a = np.exp(1j)\n"
        "b = signal_model.design_matrix([0.1], 4)\n"
    )
    lines = sorted(use.split(":")[0] for use in _direct_exp_uses(bad))
    assert lines == ["line 2", "line 3", "line 5", "line 6"]
