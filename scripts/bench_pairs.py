#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, one workload at a time.

    python3 scripts/bench_pairs.py --base ../parent --seeds 1-10
    python3 scripts/bench_pairs.py --base ../parent --workload cli-fixtures \\
        --seeds 1-10,13 --out BENCH_change.json

Pair k runs ``perfbench/run.py --trace 0`` at seed k of ``--seeds`` in
the base checkout and in this one, the change, each in its own process
and with its own ``perfbench/``, one after the other; the base runs
first in the even pairs and the change first in the odd ones.  Both sides use
``run_seconds`` from this checkout's ``BENCHMARK.json``.

For every end-to-end metric the report gives each side's median and
quartiles (``statistics.quantiles(values, n=4)``), the change of the
median against the base, and how many pairs the change won and tied, a
win being a better value by the metric's direction.  ``gain`` marks a
metric whose change won at least nine tenths of the pairs and whose
medians differ by more than the distance between the base's quartiles;
``worse`` marks a median worse than the base's by more than the
metric's bound.  Below the metrics it gives each side's median
``attempted``, the number of case executions a run fitted into its
time: perfbench keeps every answer, so ``peak_rss_mb`` grows with it,
and a faster side reads a higher peak for that reason alone.  The exit
code is 1 when a run fails, gives a wrong answer or reports a failed
case.  ``--out`` writes every pair's metrics and the summary as JSON,
with the platform and a digest of each checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def source_digest(checkout: Path) -> str:
    """sha256 over the relative paths and bytes of the checkout's ``src/`` Python files."""
    h = hashlib.sha256()
    src = checkout / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout.name} {workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def summarise(metric: dict, base: list[float], change: list[float]) -> dict:
    """Medians, quartiles, the relative shift of the median and the pair wins."""
    sign = 1 if metric["better"] == "lower" else -1
    b_q1, _, b_q3 = statistics.quantiles(base, n=4)
    c_q1, _, c_q3 = statistics.quantiles(change, n=4)
    b_med, c_med = statistics.median(base), statistics.median(change)
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    ties = sum(c == b for b, c in zip(base, change))
    shift = (c_med - b_med) / b_med if b_med else 0.0
    return {
        "better": metric["better"], "bound": metric["bound"],
        "base": {"median": b_med, "q1": b_q1, "q3": b_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "shift": shift, "wins": wins, "ties": ties, "pairs": len(base),
        "gain": wins >= 0.9 * len(base) and sign * (b_med - c_med) > b_q3 - b_q1,
        "worse": sign * shift > metric["bound"],
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout measured as the base")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out", type=Path, help="write the pairs and the summary here")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two pairs")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sides = {"base": args.base.resolve(), "change": ROOT}
    seconds = bench["run_seconds"]

    ok = True
    record = {
        "command": "perfbench/run.py --trace 0", "run_seconds": seconds,
        "platform": {"machine": platform.machine(), "system": platform.system(),
                     "python": platform.python_version(), "cpus": os.cpu_count()},
        "src_sha256": {side: source_digest(path) for side, path in sides.items()},
        "workloads": {},
    }
    for workload in workloads:
        pairs = []
        for k, seed in enumerate(args.seeds):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, seconds)
                ok &= pair[side]["correct"] and pair[side]["failed"] == 0
            pairs.append(pair)
            wall = {side: pair[side]["metrics"]["wall_s"]["value"] for side in sides}
            print(f"{workload} seed {seed} ({order[0]} first): wall_s base {wall['base']:.4f} "
                  f"change {wall['change']:.4f}; failed {pair['base']['failed']}/"
                  f"{pair['change']['failed']}", flush=True)
        summary = {
            m["name"]: summarise(m, *([p[side]["metrics"][m["name"]]["value"] for p in pairs]
                                      for side in ("base", "change")))
            for m in bench["end_to_end"]
        }
        attempted = {side: statistics.median(p[side]["attempted"] for p in pairs)
                     for side in sides}
        record["workloads"][workload] = {"pairs": pairs, "summary": summary,
                                         "attempted_median": attempted}
        print(f"{'metric':12s} {'base median':>11s} {'[q1, q3]':>22s} {'change median':>13s} "
              f"{'[q1, q3]':>22s} {'shift':>7s} {'wins':>6s}  verdict")
        for name, s in summary.items():
            b, c = s["base"], s["change"]
            verdict = "gain" if s["gain"] else "worse" if s["worse"] else "-"
            print(f"{name:12s} {b['median']:11.5f} [{b['q1']:9.5f}, {b['q3']:9.5f}] "
                  f"{c['median']:13.5f} [{c['q1']:9.5f}, {c['q3']:9.5f}] {s['shift']:+7.1%} "
                  f"{s['wins']:3d}/{s['pairs']:<2d}  {verdict}", flush=True)
        print(f"{'attempted':12s} {attempted['base']:11.1f} {'':22s} "
              f"{attempted['change']:13.1f} {'':22s} executions (median), "
              "which peak_rss_mb grows with", flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
