import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "uncovered.py"


def test_reports_exactly_the_statement_no_test_runs(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "def sign(x):\n"
        '    """-1, 0 or 1 by the sign of x."""\n'
        "    if x < 0:\n"
        "        return -1\n"
        "    if (x ==\n"
        "            0):\n"
        "        return 0\n"
        "    return 1\n")
    (tmp_path / "test_fixture.py").write_text(
        "from pkg.mod import sign\n\n\n"
        "def test_sign():\n"
        "    assert sign(3) == 1 and sign(0) == 0\n")
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    run = subprocess.run(
        [sys.executable, str(TOOL), str(pkg), "--", str(tmp_path / "test_fixture.py"),
         "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "1 passed" in run.stdout
    reported = [line for line in run.stdout.splitlines() if line.startswith(str(pkg))]
    assert reported == [f"{pkg / 'mod.py'}:4: return -1"]
