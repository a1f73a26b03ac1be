"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-miss --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer metrics.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exit status: 0 when every check passed, 1 when a check failed (the
failed checks are listed on standard error), 2 when the run could not be
made at all, for example without the program's source next to this
directory.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import faulthandler  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: A run that has not ended by then dumps its threads' stacks and exits.
WATCHDOG_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    return parser.parse_args(argv)


def _children() -> list:
    """Pids of live child processes of this process."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; the fields after it do not.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def _shm() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no program source or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    shm_before = _shm()

    import workloads  # the program's modules load here, inside set-up time

    import_s = time.perf_counter() - _START
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run, tiny = workloads.WORKLOADS[args.workload]
    sizes = {"sizes": tiny} if args.tiny else {}
    report = run(args.seed, args.seconds, bool(args.trace), **sizes)

    # Clean exit: no stray threads, child processes or shared-memory files.
    stray = [t.name for t in threading.enumerate() if t is not threading.main_thread() and not t.daemon]
    report.check("clean-exit-threads", not stray)
    report.check("clean-exit-children", not _children())
    report.check("clean-exit-shm", not (_shm() - shm_before))

    values = dict(report.metrics)
    if not args.trace:
        values["setup_s"] = import_s + values["setup_s"]
        values["ok_share"] = (report.attempted - report.failed) / report.attempted
        values["peak_rss_mb"] = workloads.peak_rss_mb()
    metrics, missing = {}, []
    for item in wanted:
        value = values.get(item["name"])
        if value is None:
            missing.append(item["name"])
        metrics[item["name"]] = {"value": value, "unit": item["unit"]}
    if missing:
        print(f"perfbench: not measured: {', '.join(missing)}", file=sys.stderr)
        if not args.trace:
            report.check("end-to-end-metrics-present", False)
    for note in report.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    for name, count in sorted(report.failures.items()):
        print(f"perfbench: check failed: {name} x{count}", file=sys.stderr)
    correct = report.failed == 0
    print(json.dumps({"correct": correct, "attempted": report.attempted, "failed": report.failed,
                      "metrics": metrics}))
    faulthandler.cancel_dump_traceback_later()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
