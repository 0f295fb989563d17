"""Self-test of the benchmark's tracer and of BENCHMARK.json's metric lists.

    python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    tr = Tracer()
    tr.spans = [
        Span("root", 0.0, 10.0, None, "c"),
        Span("child", 1.0, 4.0, 0, "c"),
        Span("leaf", 2.0, 3.5, 1, "c"),
        Span("child", 5.0, 9.0, 0, "c"),
    ]
    lay = tr.layers()
    assert lay["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert lay["child"] == {"calls": 2, "total_s": 7.0, "self_s": 5.5}
    assert lay["leaf"] == {"calls": 1, "total_s": 1.5, "self_s": 1.5}


def test_written_spans_keep_parents_and_cases():
    tr = Tracer()
    tr.case = "c1"
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spans.jsonl")
        tr.write(path)
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
    assert [(r["name"], r["parent"], r["case"]) for r in rows] == [
        ("outer", None, "c1"), ("inner", 0, "c1")
    ]
    assert rows[0]["start"] <= rows[1]["start"] <= rows[1]["end"] <= rows[0]["end"]


def _fake_module():
    mod = types.ModuleType("perfbench_fake_layer")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    sys.modules[mod.__name__] = mod
    return mod


def test_wrapped_calls_nest_count_and_are_restored():
    mod = _fake_module()
    inner, outer = mod.inner, mod.outer
    tr = Tracer([
        ("perfbench_fake_layer.outer", "outer", None, False),
        ("perfbench_fake_layer.inner", "inner", lambda t, r: t.add("sum", r), False),
    ])
    tr.install_all()
    try:
        assert mod.outer(1) == 4
        assert mod.outer(2) == 6
    finally:
        tr.uninstall()
    assert (mod.inner, mod.outer) == (inner, outer)
    assert [(s.name, s.parent) for s in tr.spans] == [
        ("outer", None), ("inner", 0), ("outer", None), ("inner", 2)
    ]
    assert tr.counts["sum"] == 5
    lay = tr.layers()
    assert abs(lay["outer"]["self_s"] + lay["inner"]["total_s"] - lay["outer"]["total_s"]) < 1e-9


def test_missing_targets_and_reshaped_results_are_absent_not_fatal():
    mod = _fake_module()
    tr = Tracer([
        ("perfbench_fake_layer.gone", "gone", None, False),
        ("perfbench_no_such_module.f", "nomod", None, False),
        ("perfbench_fake_layer.inner", "inner", lambda t, r: r.nodes, False),
    ])
    tr.install_all()
    try:
        assert mod.inner(1) == 2
    finally:
        tr.uninstall()
    assert set(tr.absent) == {"gone", "nomod", "inner result"}
    values = layers.per_layer(tr, 1, [1.0], [1.0])
    assert set(values) == {m[0] for m in layers.METRICS}


def test_benchmark_json_matches_what_run_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        m[:3] for m in layers.METRICS
    ]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END.items())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
