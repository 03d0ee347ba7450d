"""Run one workload of the end-to-end benchmark and print its result.

    python3 perfbench/run.py --workload tpcc-sim --seed 1 --seconds 10 \\
        --trace 0

Run from the root of a checkout; the program is imported from its
``src`` directory.  The report lines go to standard output, and the last
line is one JSON object::

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

``--trace 0`` reports every ``end_to_end`` metric of ``BENCHMARK.json``
and ``--trace 1`` every ``per_layer`` metric.  The exit code is 0 only
when every correctness gate passed; otherwise the failures go to
standard error and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

WORKLOADS = ("ycsb-threaded", "tpcc-sim", "ch-sim")
_SIM_BENCHMARKS = {"tpcc-sim": "tpcc", "ch-sim": "chbenchmark"}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")
    return args


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, and only that."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SOURCE}")
    sys.path[:0] = [str(SOURCE), str(HERE)]
    # Knobs that would reconfigure the driver are fixed by the benchmark.
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    import repro
    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, "
            f"not from {SOURCE}")


def _expected_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    entries = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def main(argv: list[str]) -> int:
    args = _parse(argv)
    _import_program()
    import stats
    import workloads
    from instrument import pair_cost_ns

    expected = _expected_metrics(bool(args.trace))
    if args.workload == "ycsb-threaded":
        report = workloads.run_ycsb(args.seed, args.seconds,
                                    bool(args.trace))
    else:
        report = workloads.run_sim(_SIM_BENCHMARKS[args.workload],
                                   args.seed, args.seconds,
                                   bool(args.trace))
    if not args.trace:
        report.notes.append(
            f"txn time timer: one time.thread_time pair costs "
            f"{pair_cost_ns():.0f} ns")
    for line in report.notes:
        print(line)
    report.check(report.attempted >= 1, "no transaction was attempted")
    measured = {name: unit for name, (_value, unit)
                in report.metrics.items()}
    report.check(measured == expected,
                 f"reported metrics {sorted(measured.items())} differ from "
                 f"BENCHMARK.json {sorted(expected.items())}")
    report.check(all(stats.valid_name(name) and stats.valid_unit(unit)
                     for name, unit in measured.items()),
                 "invalid metric name or unit")
    if not report.correct:
        for error in report.errors:
            print(f"perfbench: FAILED: {error}", file=sys.stderr)
        return 1
    for name, (value, unit) in sorted(report.metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
