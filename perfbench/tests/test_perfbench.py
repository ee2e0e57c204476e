"""Tests of the benchmark itself: run them with `python -m pytest perfbench/tests`."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import spans
import spread
import workloads
from styleswap import decoding, model

ROOT = Path(run.__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {
    "pipeline": {"tasks": "headline", "n_task": 40, "n_style": 40, "step1_epochs": 1,
                 "step2_epochs": 1, "patience": 1, "max_out_len": 6},
    "train": {"tasks": "headline", "n_task": 40, "n_style": 40, "step1_epochs": 1,
              "step2_epochs": 1, "patience": 1},
    "decode": {"tasks": "headline", "n_task": 40, "n_style": 20, "max_out_len": 6},
}


# ---------------------------------------------------------------------------
# BENCHMARK.json and metric names


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_well_formed():
    s = spec()
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]] + [w["name"] for w in s["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in s["end_to_end"] + s["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m


def test_spec_matches_the_code():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in s["per_layer"]] == \
        [(name, unit) for name, unit, _ in layers.METRICS]
    setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])


def _spread_set(path: Path, runs: dict) -> Path:
    summary = {"decode/pass_s": {"median": 1.0}}
    path.write_text(json.dumps({"runs": runs, "summary": summary}))
    return path


def test_compare_counts_a_failed_run_as_disagreement(tmp_path):
    ok = {"decode/1": {"digest": "d"}}
    failed = {"decode/1": {"failed": True}}
    assert spread.compare(_spread_set(tmp_path / "a", ok), _spread_set(tmp_path / "b", ok)) == 0
    for a, b in ((ok, failed), (failed, failed), (ok, {})):
        assert spread.compare(_spread_set(tmp_path / "a", a), _spread_set(tmp_path / "b", b)) == 1


# ---------------------------------------------------------------------------
# span arithmetic


def synthetic_spans():
    # root [0,10] -> a [1,4], b [5,9] -> c [6,7]
    names = ["bench.pass", "cli.a", "model.b", "autograd.c"]
    return spans.Spans(names, np.array([0, 1, 2, 3], dtype=np.int32),
                       np.array([0.0, 1.0, 5.0, 6.0]), np.array([10.0, 4.0, 9.0, 7.0]),
                       np.array([-1, 0, 0, 2], dtype=np.int32))


def test_self_time_subtracts_child_spans():
    sp = synthetic_spans()
    assert sp.self_time().tolist() == [3.0, 3.0, 3.0, 1.0]
    assert sp.self_time().sum() == sp.duration[0]


def test_ancestry_queries():
    sp = synthetic_spans()
    assert sp.child_of("bench.pass").tolist() == [False, True, True, False]
    assert sp.under("bench.pass").tolist() == [False, True, True, True]
    assert sp.under("model.b").tolist() == [False, False, False, True]
    assert sp.under("no.such").tolist() == [False] * 4


def test_tracer_records_nested_spans_in_order():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    sp = tracer.freeze()
    assert [sp.names[i] for i in sp.name] == ["outer", "inner"]
    assert sp.parent.tolist() == [-1, 0]
    assert (sp.self_time() >= 0).all()


# ---------------------------------------------------------------------------
# percentile choice


@pytest.mark.parametrize("n, pct", [(1, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
                                    (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert spans.tail_percentile(n) == pct


def test_timing_summary_reports_count():
    summary = spans.timing_summary(np.arange(1, 201, dtype=float))
    assert summary["n"] == 200 and summary["tail_pct"] == 90.0
    assert summary["p50"] == pytest.approx(100.5)
    assert spans.timing_summary([])["n"] == 0


# ---------------------------------------------------------------------------
# wrapping


def test_patching_covers_from_imports_and_is_undone():
    original = model.decode_logits_batch
    tracer = spans.Tracer()
    with spans.patched(tracer, layers.REQUIRED, layers.SPECIAL):
        assert model.decode_logits_batch is not original
        assert decoding.decode_logits_batch is model.decode_logits_batch
    assert model.decode_logits_batch is original
    assert decoding.decode_logits_batch is original
    assert tracer.absent == []


def test_missing_function_is_skipped_and_reported_absent(monkeypatch):
    monkeypatch.delattr(decoding, "beam_core")
    tracer = spans.Tracer()
    with spans.patched(tracer, layers.REQUIRED + ["model.no_such_function"], layers.SPECIAL):
        pass
    assert "decoding.beam_core" in tracer.absent
    assert "model.no_such_function" in tracer.absent
    values, absent, _ = layers.derive(tracer, 0.0)
    assert "decoding.scorer_calls" in absent and values["decoding.scorer_calls"] == 0.0
    assert "autograd.backward_calls" not in absent


# ---------------------------------------------------------------------------
# set-up samples spread over a run


@pytest.mark.parametrize("elapsed, seconds, due", [(0.0, 40.0, 0), (0.1, 40.0, 1), (4.0, 40.0, 1),
                                                   (20.0, 40.0, 5), (39.0, 40.0, 10),
                                                   (50.0, 40.0, 10), (0.0, 0.0, 10)])
def test_setup_samples_are_spread_evenly_over_the_run(elapsed, seconds, due):
    assert run.SETUPS == 10
    assert run.setups_due(elapsed, seconds) == due


# ---------------------------------------------------------------------------
# tiny-size smoke runs of every workload


@pytest.fixture(params=list(workloads.WORKLOADS))
def tiny(request, monkeypatch, tmp_path):
    cls = workloads.WORKLOADS[request.param]
    monkeypatch.setattr(cls, "sizes", TINY[request.param])
    state = workloads.RunState(seed=3, log_path=tmp_path / "cli.log")
    yield cls(state), state, tmp_path
    state.close()


def test_untraced_smoke(tiny):
    wl, state, tmp = tiny
    import_s, setup_s, passes = run.untraced(wl, state, tmp / "plain", seconds=0.0)
    assert state.correct, state.problems
    assert len(import_s) == len(setup_s) == run.SETUPS and len(passes) == run.MIN_PASSES
    assert passes[0]["digest"] == passes[1]["digest"]
    assert state.attempted > 0 and state.failed == 0
    for name, (value, unit, better) in wl.metrics(passes).items():
        assert np.isfinite(value), name


def test_traced_smoke_holds_predicted_zeros(tiny):
    wl, state, tmp = tiny
    tracer, passes, values, absent, sampling = run.traced(wl, state, tmp / "traced", 0.0)
    assert state.correct, state.problems
    assert absent == []
    assert set(values) == set(layers.UNITS)
    assert set(sampling) == {"training.step_ms", "decoding.sentence_ms"}
    assert values["trace.coverage"] == pytest.approx(1.0, abs=0.1)
    if wl.name == "decode":
        assert values["autograd.backward_calls"] == 0 and values["training.steps"] == 0
        assert values["decoding.sentences"] > 0
    if wl.name == "train":
        assert values["decoding.scorer_calls"] == 0
        assert values["training.steps"] > 0
    if wl.name == "pipeline":
        assert values["metrics.train_ngram_lm_calls"] > 0


def _exit_code(argv):
    return 1


def _raise(argv):
    raise RuntimeError("broken")


def _usage_error(argv):
    raise SystemExit(2)


@pytest.mark.parametrize("main", [_exit_code, _raise, _usage_error])
def test_faulty_program_fails_the_run(tiny, monkeypatch, main):
    wl, state, tmp = tiny
    monkeypatch.setattr(workloads.cli, "main", main)
    with pytest.raises(workloads.OperationFailed):
        run.untraced(wl, state, tmp / "broken", seconds=0.0)
    assert not state.correct and state.failed == 1


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decode",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
