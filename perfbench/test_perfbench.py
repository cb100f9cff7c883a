"""Self-tests of the benchmark: span arithmetic, patching, generator, contract.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import sys
import tempfile
import types

import pytest

import run
import spans
import workloads
from speed import Speedometer


def _synthetic_package(monkeypatch):
    """pkg.core defines inner and outer; pkg.user binds inner by name."""
    pkg = types.ModuleType("synthpkg")
    core = types.ModuleType("synthpkg.core")
    exec(
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return inner(x) + inner(x)\n",
        core.__dict__,
    )
    user = types.ModuleType("synthpkg.user")
    user.inner = core.inner
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    targets = [spans.Target("core.outer", "core", "outer"),
               spans.Target("core.inner", "core", "inner", ordered=True)]
    return core, user, targets


def _tick_clock():
    t = [0.0]

    def clock():
        t[0] += 1.0
        return t[0]

    return clock


def test_self_time_of_a_synthetic_nested_call(monkeypatch):
    core, user, targets = _synthetic_package(monkeypatch)
    original_inner = core.inner
    rec = spans.SpanRecorder(spans.span_names(targets), clock=_tick_clock())
    with spans.installed(rec, package="synthpkg", targets=targets):
        assert core.outer(1) == 4
        assert user.inner(1) == 2  # bound by name in another module
    # ticks: outer 1..6 holds inner 2..3 and 4..5; user.inner 7..8
    calls, total, own = rec.summary()
    assert list(calls) == [1, 3]
    assert list(total) == [5.0, 3.0]
    assert list(own) == [3.0, 3.0]
    assert list(rec.parent) == [-1, 0, 0, -1]
    roots = sum(e - s for e, s, p in zip(rec.end, rec.start, rec.parent) if p < 0)
    assert own.sum() == roots
    assert core.inner is original_inner and user.inner is original_inner


def test_a_reference_out_of_reach_is_refused(monkeypatch):
    core, user, targets = _synthetic_package(monkeypatch)
    user.table = {"inner": core.inner}
    rec = spans.SpanRecorder(spans.span_names(targets))
    with pytest.raises(RuntimeError, match="synthpkg.user.table"):
        with spans.installed(rec, package="synthpkg", targets=targets):
            pass
    assert core.inner is user.table["inner"]


def test_every_target_exists_in_the_program():
    run.locate_program()
    missing = []
    rec = spans.SpanRecorder(spans.span_names())
    with spans.installed(rec, warn=missing.append):
        pass
    assert missing == []


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_output_bytes_identical_with_tracing_on_and_off(workload):
    cli = run.locate_program()
    with tempfile.TemporaryDirectory() as tmp:
        scene = workloads.generate(workload, 3, tmp)[0][0]
        speed = Speedometer()
        plain = run.run_scene(cli, scene, speed)
        rec = spans.SpanRecorder(spans.span_names())
        with spans.installed(rec):
            traced = run.run_scene(cli, scene, speed)
    assert plain.failed == traced.failed == 0
    assert plain.digest == traced.digest
    assert len(rec) > 0


def test_generator_moves_work_but_not_its_amount():
    with tempfile.TemporaryDirectory() as tmp:
        docs_a, again, other = (
            [s.doc for copy in workloads.generate("congruence", seed, tmp) for s in copy]
            for seed in (5, 5, 6)
        )
    assert docs_a == again
    assert docs_a != other
    for x, y in zip(docs_a, other):
        assert [ax["count"] for ax in x["grid"]["axes"]] == \
            [ax["count"] for ax in y["grid"]["axes"]]
        assert x.get("stratify", {}).get("count") == y.get("stratify", {}).get("count")


def test_benchmark_json_names_what_the_runner_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
