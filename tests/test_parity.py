"""tools/parity.py: an unchanged tree reports no difference, and a change
that alters documents is reported request by request."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=parity", "-c", "user.email=parity@example.org",
                    *args], cwd=cwd, check=True, capture_output=True)


def _parity(cwd):
    return subprocess.run([sys.executable, "tools/parity.py", "--against", "HEAD",
                           "--only", "corpus", "--limit", "40"],
                          cwd=cwd, capture_output=True, text=True)


def test_parity_reports_only_changed_documents(tmp_path):
    shutil.copytree(ROOT / "src" / "edrkit", tmp_path / "src" / "edrkit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "parity.py", tmp_path / "tools" / "parity.py")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "base")

    same = _parity(tmp_path)
    assert same.returncode == 0, same.stderr
    assert same.stdout.splitlines() == ["40 requests against HEAD: 0 differ"]

    # a toy change: JSON documents with their keys unsorted
    cli = tmp_path / "src" / "edrkit" / "cli.py"
    text = cli.read_text()
    assert "sort_keys=True" in text
    cli.write_text(text.replace("sort_keys=True", "sort_keys=False"))
    changed = _parity(tmp_path)
    assert changed.returncode == 1, changed.stderr
    *differ, summary = changed.stdout.splitlines()
    assert differ and all(": document differs" in line for line in differ)
    assert differ[0].startswith("corpus/")
    assert summary == f"40 requests against HEAD: {len(differ)} differ"
