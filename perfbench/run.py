"""Benchmark entry point: run one workload in a fresh, hash-pinned interpreter.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_plan --seed 1 --seconds 20 --trace 0

The workload runs in a child interpreter started with a pinned
``PYTHONHASHSEED`` (plans differ in the last bit across hash seeds, see
``README.md``) and ``PYTHONPATH=src``, so every run starts from a cold
process: module-level memos warmed by one run cannot flatter another.
The child's output is passed through; its last line is the JSON result.

``--record`` regenerates the reference plans instead of measuring, and
``--python-hash-seed`` overrides the pinned hash seed (used once to check
that the references hold under a second seed).
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

#: Hash seed every measured run and every recorded reference uses.
PINNED_HASH_SEED = 0

#: A run must end well inside the 180 s a caller allows it.
CHILD_TIMEOUT_S = 170.0

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--python-hash-seed", type=int, default=PINNED_HASH_SEED)
    known, rest = parser.parse_known_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(known.python_hash_seed)
    env["PYTHONPATH"] = str(ROOT / "src")
    command = [sys.executable, str(HERE / "bench.py"), *rest]
    signal.signal(signal.SIGTERM, _terminate)
    with subprocess.Popen(command, cwd=ROOT, env=env) as child:
        try:
            return child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {CHILD_TIMEOUT_S:.0f}s", file=sys.stderr)
            return 3
        finally:
            # Whatever ends this process, the child ends first.
            if child.poll() is None:
                child.kill()
                child.wait()


def _terminate(signum: int, _frame: object) -> None:
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
