"""Smoke test of the benchmark itself, at the smallest sizes.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

For every workload it runs ``run.py --tiny`` twice untraced and twice
traced at one seed, and checks that each run exits 0 with every metric of
``BENCHMARK.json`` reported and correct, and that the quality metrics
(``hr10``, ``r10at50``, ``core.model.self_hr10``) are identical across the
two runs.  Last it checks that the benchmark refuses to run, with a
non-zero exit and no result line, in a directory holding only
``BENCHMARK.json`` and ``perfbench/``.  Exit status 0 means all passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUALITY = ("hr10", "r10at50", "core.model.self_hr10")
SEED = 3


def _run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            results = []
            for _ in range(2):
                proc = _run(workload, trace)
                if proc.returncode != 0:
                    problems.append(f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                    break
                out = json.loads(proc.stdout.strip().splitlines()[-1])
                names = [m["name"] for m in wanted]
                if not out["correct"] or sorted(out["metrics"]) != sorted(names):
                    problems.append(f"{workload} trace={trace}: incorrect or incomplete: {out}")
                results.append(out["metrics"])
            if len(results) == 2:
                for name in QUALITY:
                    if name in results[0] and results[0][name] != results[1][name]:
                        problems.append(f"{workload}: {name} differs between runs: "
                                        f"{results[0][name]} vs {results[1][name]}")
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAILED'}", flush=True)

    bare = ROOT / ".perfbench-smoke"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("serve-miss", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        print(f"bare directory refused: {'ok' if proc.returncode else 'FAILED'}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
