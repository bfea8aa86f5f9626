#!/usr/bin/env python3
"""Run one mayerpath benchmark workload and print its metrics.

    python3 perfbench/run.py --workload betti-random --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` next to this directory, in this
process, with one thread.  Cases run closed loop: the next case starts
when the previous one has finished.  A run generates the workload's
corpus from the seed, warms the process-level caches on one small input
per N, then cycles through the corpus case by case until every case ran
once and ``--seconds`` have passed, so the last pass usually stops part
way.  Every answer is checked, outside the timed region: against the
digests ``expected.json`` stores for seeds 0-10 and for every
``cli-fixtures`` seed, and otherwise independently (the dense oracle for
``betti-random``, definitional checks for the classifications).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
pass that only records which complexes each case creates (its wall time
is the untraced reference) and then traced passes, and reports the
per-layer metrics; the spans go to ``perfbench/out/``.  The last line of
standard output is one JSON object.  The exit code is 1 when any answer
is wrong or the library cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

T0 = time.perf_counter()
BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

WORKLOADS = ("betti-random", "sweep-small", "cli-fixtures", "classify-random")
CASE_BUDGET_S = 60.0     # a case running longer is stopped and counts as failed
START_LIMIT_S = 110.0    # no timed case starts later than this after launch
END_LIMIT_S = 170.0      # every case and check is stopped by this time after launch
SETUP_REPEATS = 5


def import_library():
    """Import mayerpath from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "mayerpath" / "__init__.py").is_file():
        raise SystemExit(f"error: no mayerpath sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mayerpath
    if Path(mayerpath.__file__).resolve().parent != SRC / "mayerpath":
        raise SystemExit(f"error: imported mayerpath from {mayerpath.__file__}")
    import cases
    import corpus
    return cases, corpus


class CaseTimeout(BaseException):
    """Raised by the per-case alarm; BaseException so no library handler eats it."""


def _alarm(signum, frame):
    raise CaseTimeout


def clear_caches() -> None:
    """Empty every process-level lru_cache of the library."""
    for name, module in list(sys.modules.items()):
        if name == "mayerpath" or name.startswith("mayerpath."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_case(run, case):
    """(answer or None, seconds, status) for one case under the time budget."""
    budget = min(CASE_BUDGET_S, T0 + END_LIMIT_S - time.perf_counter())
    signal.setitimer(signal.ITIMER_REAL, max(budget, 0.001))
    start = time.perf_counter()
    try:
        answer, status = run(case), "ok"
    except CaseTimeout:
        answer, status = None, "over budget"
    except Exception as exc:  # an error the case did not expect
        answer, status = None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return answer, time.perf_counter() - start, status


class Measurement:
    """Answers and times of every case execution."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.times: dict[str, list[float]] = {c.id: [] for c in corpus.cases}
        self.answers: dict[str, list] = {c.id: [] for c in corpus.cases}
        self.failures: list[tuple[str, str]] = []

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.times.values())

    def run(self, run, seconds: float, before=None, after=None) -> float:
        """Cycle through the corpus until every case ran once and ``seconds`` passed.

        Returns the elapsed time.  The heap is collected before each case,
        outside its timing, so no case pays for its predecessor's garbage.
        """
        cases = self.corpus.cases
        start = time.perf_counter()
        for k in itertools.count():
            late = time.perf_counter() > T0 + START_LIMIT_S
            if k >= len(cases) and (late or time.perf_counter() - start >= seconds):
                break
            case = cases[k % len(cases)]
            if late:
                answer, took, status = None, CASE_BUDGET_S, "not started in time"
            else:
                gc.collect()
                if before:
                    before(case, len(self.times[case.id]))
                answer, took, status = run_case(run, case)
                if after:
                    after(case, answer)
            if status != "ok":
                self.failures.append((case.id, status))
                took = max(took, CASE_BUDGET_S)
            self.times[case.id].append(took)
            self.answers[case.id].append(answer)
        return time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, time) of the slowest case that still has ten cases beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return 50.0, statistics.median(ordered)
    return 100 * (n - 10) / n, ordered[n - 11]


def check_answers(workload: str, m: Measurement, cases, expected: dict,
                  ) -> tuple[dict[str, bool], str]:
    """Which cases answered correctly, and how that was decided."""
    stored = expected.get(workload, {})
    if not stored.get("seed_independent"):
        stored = stored.get("seeds", {}).get(str(m.corpus.seed), {})
        if stored.get("corpus") != m.corpus.digest():
            stored = {}
    use_stored = "answers" in stored
    verdict: dict[str, bool] = {}
    for case in m.corpus.cases:
        answers = [a for a in m.answers[case.id] if a is not None]
        if not answers:
            continue
        digests = {cases.digest(a) for a in answers}
        if len(digests) != 1:
            verdict[case.id] = False          # passes disagree
        elif use_stored and case.id in stored["answers"]:
            verdict[case.id] = digests == {stored["answers"][case.id]}
        elif time.perf_counter() > T0 + END_LIMIT_S - 1:
            m.failures.append((case.id, "not checked in time"))
        else:
            answer, _, status = run_case(
                lambda c: cases.independent_check(workload, c, answers[0]), case)
            if status != "ok":
                m.failures.append((case.id, f"check {status}"))
            else:
                verdict[case.id] = bool(answer)
    return verdict, "stored digests" if use_stored else "independent checks"


def end_to_end(m: Measurement, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    per_case = [statistics.median(t) for t in m.times.values()]
    p, tail_value = tail(per_case)
    metrics = {
        "wall_s": (math.fsum(per_case), "s"),
        "case_p50_s": (statistics.median(per_case), "s"),
        "case_tail_s": (tail_value, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {"tail_percentile": p, "cases": len(per_case)}
    return metrics, notes


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "fraction"
    if metric == "cli.out_bytes":
        return "bytes"
    return "count"


def traced_run(m: Measurement, run, args, start: float) -> tuple[dict, float]:
    """One discovery pass (the untraced reference), then traced executions."""
    import tracing
    tracer = tracing.Tracer()
    tracer.install_discovery()
    try:
        m.run(run, 0.0, before=lambda c, k: tracer.begin(c.id, k, discovery=True),
              after=lambda c, answer: tracer.end_discovery(c.id))
    finally:
        tracer.restore()
    untraced_s = math.fsum(t[0] for t in m.times.values())
    executions: dict[str, list[dict]] = {c.id: [] for c in m.corpus.cases}

    def after(case, answer):
        layer = tracer.end()
        layer["cli.out_bytes"] = answer.get("bytes", 0) if answer else 0
        executions[case.id].append(layer)

    tracer.install()
    try:
        remaining = args.seconds - (time.perf_counter() - start)
        m.run(run, max(remaining, 0.0), before=lambda c, k: tracer.begin(c.id, k), after=after)
    finally:
        tracer.restore()
    tracer.write(BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl", start)
    executions = {cid: runs for cid, runs in executions.items() if runs}
    return tracing.summarize(executions, untraced_s), untraced_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cases, corpus_mod = import_library()
    import_s = time.perf_counter() - T0
    signal.signal(signal.SIGALRM, _alarm)
    run = cases.RUNNERS[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        corpus = corpus_mod.make_corpus(args.workload, args.seed)
        clear_caches()
        for N in sorted({c.N for c in corpus.cases if c.N >= 2}):
            run(cases.warm_case(args.workload, N))
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    m = Measurement(corpus)
    start = time.perf_counter()
    if args.trace:
        layer, untraced_s = traced_run(m, run, args, start)
    else:
        m.run(run, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdict, how = check_answers(args.workload, m, cases, expected)
    wrong = [cid for cid, ok in verdict.items() if not ok]
    wrong_runs = sum(len(m.times[cid]) for cid in wrong)
    attempted = m.attempted
    failed_ids = {cid for cid, _ in m.failures}
    failed = len(m.failures)

    print(f"workload {args.workload}  seed {args.seed}  corpus {corpus.digest()}  "
          f"{len(corpus.cases)} cases, {attempted} executions, checked by {how}")
    for cid, status in m.failures[:10]:
        print(f"  failed {cid}: {status}")
    for cid in wrong[:10]:
        print(f"  wrong answer: {cid}")
    if args.trace:
        metrics = {k: (v, unit_of(k)) for k, v in sorted(layer.items())}
        self_sum = layer["trace.layer_self_frac"] * untraced_s
        print(f"  layer self times sum to {self_sum:.4f} s against the untraced corpus "
              f"time {untraced_s:.4f} s; tracing overhead {layer['trace.overhead_frac']:.1%}")
    else:
        metrics, notes = end_to_end(m, setup_s, peak_rss_mb)
        print(f"  case_tail_s is p{notes['tail_percentile']:.1f} of {notes['cases']} cases "
              "(each case at its median time)")
    print(f"  failed_frac {failed / attempted:.4f}  wrong_frac {wrong_runs / attempted:.4f}  "
          f"({len(failed_ids)} failed and {len(wrong)} wrong of {len(corpus.cases)} cases)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
