"""Golden fixed-seed artifact hashes.

`tests/reference_hashes.txt` holds the lines `scripts/reference_hashes.py`
printed for this tree, under a fingerprint of the host that printed them.
numpy's OpenBLAS picks its kernels per CPU, so another host may sum in
another order: the comparison runs only when every fingerprint field
matches, and skips naming the field that differs otherwise. A hash that
moved always fails, naming every artifact that moved. A change that moves
bytes on purpose rewrites the file in the same diff:

    PYTHONPATH=src python3 tests/test_reference_hashes.py > tests/reference_hashes.txt
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "reference_hashes.txt"


def host_fingerprint() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    if Path("/proc/cpuinfo").exists():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine(),
            "cpu": cpu}


def current_hashes() -> str:
    """The script's output for this tree's src, BLAS pinned to one thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "reference_hashes.py"),
                           str(ROOT / "src")], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


def read_golden() -> tuple[dict[str, str], dict[str, str]]:
    fingerprint, hashes = {}, {}
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(" ", 1)
            fingerprint[key] = value
        elif line.strip():
            name, digest = line.split()
            hashes[name] = digest
    return fingerprint, hashes


def test_reference_hashes_unchanged():
    fingerprint, golden = read_golden()
    ours = host_fingerprint()
    for key, value in fingerprint.items():
        if ours.get(key) != value:
            pytest.skip(f"host {key} is {ours.get(key)!r}, the golden file's {value!r}")
    now = dict(line.split() for line in current_hashes().splitlines() if line.strip())
    moved = sorted(name for name in golden.keys() | now.keys()
                   if golden.get(name) != now.get(name))
    assert not moved, f"fixed-seed artifacts moved: {moved}"


if __name__ == "__main__":
    for key, value in host_fingerprint().items():
        print(f"# {key} {value}")
    sys.stdout.write(current_hashes())
