"""Each demo runs to completion in a fresh interpreter and prints what its
golden file under ``tests/golden/demos/`` holds, byte for byte.

To regenerate the golden files from the code in ``src``:

    python tests/test_demos.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def _golden(demo: Path) -> Path:
    return GOLDEN / f"{demo.stem}.txt"


def run(demo: Path) -> subprocess.CompletedProcess:
    """One run of the demo in a fresh interpreter, with ``src`` first on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )


def test_demos_found():
    assert len(DEMOS) >= 5
    assert sorted(GOLDEN.glob("*.txt")) == [_golden(demo) for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    r = run(demo)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()
    assert r.stdout == _golden(demo).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        r = run(demo)
        if r.returncode:
            sys.exit(f"{demo.name} exited {r.returncode}:\n{r.stderr}")
        _golden(demo).write_text(r.stdout, encoding="utf-8")
        print(f"wrote {_golden(demo)}", file=sys.stderr)
