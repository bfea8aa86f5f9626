#!/usr/bin/env python3
"""Repeat workloads over several seeds and compare their spread with the bounds.

    python3 perfbench/steady.py --workload sweep-small --seeds 1-10
    python3 perfbench/steady.py --seeds 1-10 --save first.json
    python3 perfbench/steady.py --seeds 1-10 --against first.json

Each run is ``perfbench/run.py`` in its own process, one after the other,
with ``run_seconds`` from ``BENCHMARK.json``.  For every end-to-end
metric the report gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  ``--against`` compares the medians with a saved set:
a median worse by more than the bound fails.  The exit code is 1 when a
run fails, an answer is wrong, a spread exceeds its bound or a median got
worse by more than its bound.  The spread of ``setup_s`` is reported but
never fails: set-up time is judged only by the shift of its median, so
that work moved into set-up shows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--save", type=Path, help="write the measured values here")
    parser.add_argument("--against", type=Path, help="compare medians with a saved set")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    earlier = json.loads(args.against.read_text()) if args.against else {}

    ok = True
    values: dict[str, dict[str, list[float]]] = {}
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, bench["run_seconds"])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            ok &= result["correct"] and result["failed"] == 0
        values[workload] = {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs]
                            for m in bench["end_to_end"]}
        print(f"{'metric':14s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} "
              f"{'bound':>6s}  verdict")
        for m in bench["end_to_end"]:
            v = values[workload][m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            if spread < m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "too wide"
                ok &= m["name"] == "setup_s"
            old = earlier.get(workload, {}).get(m["name"])
            if old:
                shift = (med - statistics.median(old)) / statistics.median(old)
                if m["better"] == "higher":
                    shift = -shift
                verdict += f"; {shift:+.1%} against the saved median"
                ok &= shift <= m["bound"]
            print(f"{m['name']:14s} {med:11.5f} {q1:11.5f} {q3:11.5f} {spread:7.3f} "
                  f"{m['bound']:6.2f}  {verdict}")
    if args.save:
        args.save.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
