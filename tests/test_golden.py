"""The output bytes, pinned: every file of one fixed set of CLI runs has the
sha256 recorded in golden.json, at 1 and at 2 BLAS threads.

The set: `simulate` of random, sffm and the fixed checkpoint
(perfbench/inputs/checkpoint.json, 8 episodes each), `eval` of the
checkpoint, `compare` of sffm against it, and `train --algo cem` and
`--algo ppo` at `--iters 2 --seed 0`, all at the default config; each
`report.json` is hashed without its `wall_clock_s`. Each command runs in a
fresh process, in one directory per thread count, with the checkpoint copied
in so that every path a file records is relative.

The hashes hold for the numpy and BLAS build that golden.json names; under
another build the test fails and says so. A change that moves the bytes on
purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and says which hashes moved and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
CHECKPOINT = ROOT / "perfbench" / "inputs" / "checkpoint.json"

COMMANDS = [
    ["simulate", "--policy", "random", "--episodes", "8", "--out", "sim_random"],
    ["simulate", "--policy", "sffm", "--episodes", "8", "--out", "sim_sffm"],
    ["simulate", "--policy", "checkpoint.json", "--episodes", "8",
     "--out", "sim_checkpoint"],
    ["eval", "--policy", "checkpoint.json", "--episodes", "8",
     "--out", "eval.json"],
    ["compare", "--policy-a", "sffm", "--policy-b", "checkpoint.json",
     "--episodes", "8", "--out", "compare"],
    ["train", "--algo", "cem", "--iters", "2", "--seed", "0", "--out", "cem"],
    ["train", "--algo", "ppo", "--iters", "2", "--seed", "0", "--out", "ppo"],
]


def build() -> dict[str, str]:
    """The numpy and BLAS build the outputs are computed with."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def outputs(out: Path, blas_threads: int) -> dict[str, bytes]:
    """Run the set in `out` at `blas_threads` BLAS threads; every file it
    wrote by its path relative to `out`, the checkpoint copy left out."""
    pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads),
           "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    out.mkdir(parents=True)
    shutil.copyfile(CHECKPOINT, out / "checkpoint.json")
    for args in COMMANDS:
        subprocess.run([sys.executable, "-m", "ssbl.cli", *args], cwd=out,
                       env=env, check=True, capture_output=True)
    files = {}
    for path in sorted(out.rglob("*")):
        name = path.relative_to(out).as_posix()
        if path.is_file() and name != "checkpoint.json":
            data = path.read_bytes()
            if path.name == "report.json" and b'"wall_clock_s"' in data:
                report = json.loads(data)
                del report["wall_clock_s"]
                data = json.dumps(report, sort_keys=True).encode()
            files[name] = data
    return files


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _line_digests(data: bytes) -> str:
    """The first 8 hex digits of each line's sha256, concatenated: enough to
    find the first line that moved."""
    return "".join(_sha(line)[:8] for line in data.splitlines())


def digests(files: dict[str, bytes]) -> dict[str, dict]:
    """Per file its sha256 and, for a JSONL file, its line digests."""
    return {name: {"sha256": _sha(data),
                   **({"lines": _line_digests(data)} if name.endswith(".jsonl") else {})}
            for name, data in files.items()}


def _first_line(a: list, b: list) -> int:
    """1-based number of the first line at which a and b differ."""
    return next((i + 1 for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)) + 1)


def _where(name: str, line: int) -> str:
    what = "the header" if line == 1 else f"the record of tick {line - 1}"
    return f"{name}: first differs at line {line} ({what})"


def check_same(a: dict[str, bytes], b: dict[str, bytes], how: str) -> None:
    assert sorted(a) == sorted(b), f"{how}: file sets differ"
    moved = [_where(name, _first_line(a[name].splitlines(), b[name].splitlines()))
             if name.endswith(".jsonl") else name
             for name in a if a[name] != b[name]]
    assert not moved, f"{how}, bytes differ in " + "; ".join(moved)


def check_golden(files: dict[str, bytes], golden: dict[str, dict]) -> None:
    assert sorted(files) == sorted(golden), (
        f"the set wrote {sorted(files)}, golden.json has {sorted(golden)}")
    moved = []
    for name, entry in digests(files).items():
        want = golden[name]
        if entry["sha256"] != want["sha256"]:
            if "lines" in want:
                chunks = [[d[i:i + 8] for i in range(0, len(d), 8)]
                          for d in (entry["lines"], want["lines"])]
                name = _where(name, _first_line(*chunks))
            moved.append(name)
    assert not moved, "bytes moved from golden.json in " + "; ".join(moved)


@pytest.mark.slow
def test_outputs_match_golden_at_1_and_2_blas_threads(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert golden["build"] == build(), (
        f"golden.json pins the bytes of numpy/BLAS build {golden['build']}, "
        f"this is {build()}: the hashes do not carry across builds")
    one = outputs(tmp_path / "threads1", 1)
    two = outputs(tmp_path / "threads2", 2)
    check_same(one, two, "1 against 2 BLAS threads")
    check_golden(one, golden["files"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"build": build(), "files": digests(outputs(Path(tmp) / "set", 1))}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {len(doc['files'])} files")
