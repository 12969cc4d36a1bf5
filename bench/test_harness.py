"""Self-tests of the benchmark harness.  Run: ``python3 -m pytest bench``."""
import json
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _small_catalog_op():
    hk = run.import_hopfkit()
    ops = workloads.setup_catalog(hk, 1, None)
    return next(op for op in ops if op.name == "C2/idx:1")


def test_wrong_expectation_counts_as_failed():
    good = _small_catalog_op()
    laws = good.expected[0]
    wrong = replace(good, name="wrong", expected=((laws[0] + 1,) + laws[1:],) + good.expected[1:])
    raises = replace(good, name="raises", run=lambda: 1 / 0)
    result = run.measure([good, wrong, raises], seconds=0, min_passes=1)
    assert result.attempted == 3
    assert [name for name, _ in result.failures] == ["wrong", "raises"]
    assert len(result.done) == 1


def test_end_to_end_reports_every_listed_metric():
    op = _small_catalog_op()
    result = run.measure([op], seconds=0, min_passes=1)
    (name, order, wall, units), = result.done
    assert (name, order) == ("C2/idx:1", 2) and wall > 0 and units > 0
    assert len(result.refs) == 1
    metrics, _ = run.end_to_end("catalog", result, 1, [0.1])
    assert list(metrics) == [name for name, _ in run.END_TO_END]


def test_traced_counts_repeat_exactly():
    op = _small_catalog_op()
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            result = run.measure([op], seconds=0, min_passes=1, tracer=tracer)
        finally:
            tracer.uninstall()
        assert not result.failures
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    # every law of the five pinned reports, each counted once
    assert counts[0]["structures.laws_checked"] == sum(r[0] for r in op.expected)
    assert counts[0]["fields.mul_calls"] > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
