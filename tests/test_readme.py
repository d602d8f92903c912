"""The README's Python and shell examples run as written and its public names exist."""

import contextlib
import importlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from linespec.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
SHELL = re.findall(r"```\n(.*?)```", README.read_text(), flags=re.DOTALL)


def _run(block: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    return out.getvalue()


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    _run(BLOCKS[index])


def test_library_example_prints_the_documented_order():
    # At seed 0 the example prints the true order, 3. Without the pipeline's
    # look-ahead it printed 4: the tone at 0.37 came back as two nodes
    # (0.3621 and 0.3711) that the merge test does not fuse; polished, one
    # of them fails the prune test. The README's comment and the paragraph
    # under the example say 3 and name the three frequencies.
    (block,) = [b for b in BLOCKS if "estimate_spectrum(" in b]
    lines = _run(block).splitlines()
    assert lines[0] == "3"
    assert "print(report.k_hat)                  # 3\n" in block
    assert [line.split()[0] for line in lines[1:4]] == ["0.0995", "0.2202", "0.3701"]
    assert "at 0.0995, 0.2202 and\n0.3701" in README.read_text()


def test_readme_shell_examples_run(tmp_path, monkeypatch, capsys):
    # Runs the heredoc and every `linespec` line but the two `linespec experiment`
    # ones, which take minutes at their default trial counts.
    monkeypatch.chdir(tmp_path)
    ran = []
    for block in SHELL:
        for name, body in re.findall(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\n", block, flags=re.S):
            json.loads(body)
            (tmp_path / name).write_text(body)
        for line in block.splitlines():
            if line.startswith("linespec ") and not line.startswith("linespec experiment"):
                assert main(shlex.split(line)[1:]) == 0, line
                ran.append(line.split()[1])
    capsys.readouterr()
    assert ran == ["simulate", "estimate", "gradcheck"]
    assert json.loads((tmp_path / "report.json").read_text())["k_hat"] >= 1


def test_public_stage_names_exist():
    # Every backticked name in a bullet of the "Each stage is public" list
    # must be an attribute of that bullet's module.
    section = README.read_text().split("Each stage is public", 1)[1].split("\n\n")[1]
    bullets = re.findall(r"^- `(linespec\.\w+)`:(.*?)(?=^- |\Z)", section, flags=re.M | re.S)
    assert len(bullets) == 7
    for module, text in bullets:
        mod = importlib.import_module(module)
        names = re.findall(r"`(\w+)`", text)
        assert names, module
        missing = [name for name in names if not hasattr(mod, name)]
        assert not missing, f"{module} lacks {missing}"
