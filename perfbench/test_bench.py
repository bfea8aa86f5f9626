"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import cases  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

RANDOM_WORKLOADS = ("betti-random", "sweep-small", "classify-random")


@pytest.mark.parametrize("workload", sorted(corpus.GENERATORS))
def test_same_seed_gives_same_corpus(workload):
    assert corpus.make_corpus(workload, 7).digest() == corpus.make_corpus(workload, 7).digest()


@pytest.mark.parametrize("workload", RANDOM_WORKLOADS)
def test_other_seed_gives_other_corpus(workload):
    assert corpus.make_corpus(workload, 7).digest() != corpus.make_corpus(workload, 8).digest()


def test_case_selection_never_reads_a_clock(monkeypatch):
    def no_clock(*args):
        raise AssertionError("case selection read a clock")

    for name in ("time", "perf_counter", "monotonic", "process_time", "thread_time",
                 "time_ns", "perf_counter_ns", "monotonic_ns", "process_time_ns"):
        monkeypatch.setattr(time, name, no_clock)
    digests = {w: corpus.make_corpus(w, 3).digest() for w in corpus.GENERATORS}
    monkeypatch.undo()
    assert digests == {w: corpus.make_corpus(w, 3).digest() for w in corpus.GENERATORS}


def test_cases_sit_in_their_bands():
    for case in corpus.betti_random(5).cases:
        lo, hi = corpus.BETTI_BANDS[case.N]
        assert lo <= sum(corpus.walk_counts(case.vertices, case.edges, 3 + case.N - 1)) <= hi
        assert not any((v, u) in set(case.edges) for u, v in case.edges)


def test_expected_answers_match_the_recorded_corpora():
    expected = json.loads((BENCH / "expected.json").read_text())
    for workload in RANDOM_WORKLOADS:
        assert sorted(expected[workload]["seeds"], key=int) == [
            str(s) for s in corpus.RECORDED_SEEDS]
        for seed in corpus.RECORDED_SEEDS:
            c = corpus.make_corpus(workload, seed)
            stored = expected[workload]["seeds"][str(seed)]
            assert stored["corpus"] == c.digest()
            assert sorted(stored["answers"]) == sorted(x.id for x in c.cases)
    cli_ids = {x.id for x in corpus.cli_fixtures(0).cases}
    assert set(expected["cli-fixtures"]["answers"]) == cli_ids


def test_oracle_check_rejects_a_wrong_table():
    case = corpus.betti_random(1).cases[0]
    answer = cases.run_betti(case)
    assert cases.independent_check("betti-random", case, answer)
    answer["betti"][0][2] += 1
    assert not cases.independent_check("betti-random", case, answer)


@pytest.fixture(scope="module")
def classified():
    case = corpus.classify_random(1).cases[1]
    answer = cases.run_classify(case)
    assert cases.independent_check("classify-random", case, answer)
    assert answer["clusters"] and answer["special"]["connecting"]
    return case, answer


def _tampered(answer, change):
    answer = json.loads(json.dumps(answer))
    change(answer)
    return answer


@pytest.mark.parametrize("change", [
    lambda a: a["omega2"].pop(),
    lambda a: a["special"]["connecting"].pop(),
    lambda a: a["special"]["complementary"].append([0, 0]),
    lambda a: a["clusters"].pop(),
    lambda a: a["truncated"].append(a["clusters"][0]["endpoints"]),
    lambda a: a["z1"]["generators"].pop(),
    lambda a: a["z1"].update(kernel_dim=a["z1"]["kernel_dim"] - 1),
    lambda a: a["z1"].update(shortfall=a["z1"]["shortfall"] + 1),
], ids=["omega2", "connecting", "complementary", "cluster", "truncated", "z1-generator",
        "kernel-dim", "shortfall"])
def test_classification_check_rejects_a_wrong_answer(classified, change):
    case, answer = classified
    assert not cases.independent_check("classify-random", case, _tampered(answer, change))


@pytest.mark.parametrize("n", [11, 48, 144, 225])
def test_tail_leaves_exactly_ten_cases_beyond(n):
    times = [float(i) for i in range(n, 0, -1)]
    p, value = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert p == pytest.approx(100 * (n - 10) / n)


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    m = run.Measurement(corpus.Corpus(0, [corpus.Case("a", 2)]))
    m.times["a"] = [1.0]
    metrics, _ = run.end_to_end(m, 0.1, 20.0)
    assert [e["name"] for e in bench["end_to_end"]] == list(metrics)
    assert [e["unit"] for e in bench["end_to_end"]] == [u for _, u in metrics.values()]
    tracer = tracing.Tracer()
    tracer.begin("a", 0)
    layer = tracing.summarize({"a": [tracer.end()]}, 1.0)
    assert [e["name"] for e in bench["per_layer"]] == sorted(layer)
    assert [e["unit"] for e in bench["per_layer"]] == [run.unit_of(k) for k in sorted(layer)]
