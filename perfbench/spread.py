"""Run workloads repeatedly and print each metric's spread beside its bound.

    python3 perfbench/spread.py --seeds 1-10                  # every workload
    python3 perfbench/spread.py --workloads mc-cell --seeds 1-5

Each (workload, seed) pair is one ``run.py`` invocation with the run length
of BENCHMARK.json.  For every end-to-end metric the table shows the median
over seeds, the quartile spread ``(Q3 - Q1) / median`` as
``statistics.quantiles(n=4)`` gives it, and the metric's bound; a spread
above a third of its bound is flagged, since two sets of runs then risk
disagreeing by more than the bound.  Results also go to
``.perfbench/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from common import OUT, ROOT, median, quartile_spread


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = parser.parse_args(argv)

    worst = 0.0
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(spec, workload, seed)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        Path(OUT / f"spread-{workload}.json").write_text(json.dumps(results, indent=1))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {len(results)} runs, all correct: "
              f"{all(r['correct'] for r in results)}, failed shares {shares}")
        print(f"  {'metric':32} {'median':>12} {'spread':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            spread, bound = quartile_spread(values), metric["bound"]
            worst = max(worst, spread / bound)
            flag = "  <-- above bound/3" if spread > bound / 3 else ""
            print(f"  {metric['name']:32} {median(values):12.6g} {spread:8.3f} "
                  f"{bound:6.2f}{flag}")
    print(f"\nworst spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
