"""decoygraph benchmark.

    python3 perfbench/run.py --workload search|replay|sweep [...] --seed N --seconds S --trace 0|1

Run from the root of a decoygraph checkout; the program is imported from its
`src/` directory. Each workload runs in fresh child processes (child.py), one
at a time. For each workload a readable report is printed, followed by one
JSON line: with --trace 0 it holds every end-to-end metric, with --trace 1 the
per-layer metrics of a traced run instead. With one workload, that JSON line
is the last line of standard output.
Workloads, metrics and their expected movements are described in README.md
next to this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# set-ups per untraced run; setup_s is their median
SETUPS = 3
# every child together must end within this many seconds
TIME_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, args, root: Path, deadline: float, setup_only: bool) -> dict:
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spawned-at", repr(time.monotonic()),
    ]
    if setup_only:
        command.append("--setup-only")
    proc = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{workload} did not finish within {TIME_LIMIT_S:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("search", "replay", "sweep"), nargs="+", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "decoygraph" / "__init__.py").is_file():
        print("error: src/decoygraph not found; run from the root of a decoygraph checkout", file=sys.stderr)
        return 2
    for workload in args.workload:
        if not run_workload(workload, args, root):
            return 1
    return 0


def run_workload(workload: str, args, root: Path) -> bool:
    """Run one workload in fresh children and print its report and result line."""
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(run_child(workload, args, root, deadline, setup_only=True)["setup_s"])
        result = run_child(workload, args, root, deadline, setup_only=False)
    except (ChildFailed, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    setups.append(result["setup_s"])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"workload {workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"  setup_s per child: {', '.join(f'{s:.3f}' for s in setups)}")
    for line in result["report"]:
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": dict(sorted(metrics.items())),
    }), flush=True)
    return True


if __name__ == "__main__":
    sys.exit(main())
