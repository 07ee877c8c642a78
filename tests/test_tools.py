"""The repository's tools: ``tools/src_size.py``, which every line delta
in CHANGES.md is measured with."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_src_size_report(tmp_path):
    """Run from another directory, the script prints its four lines, and
    the figures agree with each other and with the tree."""
    script = ROOT / "tools" / "src_size.py"
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    lines = proc.stdout.splitlines()
    assert len(lines) == 4, proc.stdout
    physical = int(re.fullmatch(r"physical lines: (\d+)", lines[0])[1])
    code = int(re.fullmatch(r"code lines: (\d+)", lines[1])[1])
    settable = re.fullmatch(
        r"settable values: (\d+) \((\d+) parameters with a default \+ "
        r"(\d+) dataclass fields \+ (\d+) argparse options \+ (\d+) "
        r"environment variables\)", lines[2])
    by_caller = int(re.fullmatch(r"settable by a caller: (\d+)",
                                 lines[3])[1])
    total, *parts = map(int, settable.groups())
    assert 0 < code <= physical
    assert physical == sum(len(path.read_text().splitlines()) for path
                           in (ROOT / "src" / "pbftkit").rglob("*.py"))
    assert sum(parts) == total
    assert by_caller <= total
