"""Self-test of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench -q

Runs in well under a minute: the workloads are shrunk to a few documents
and one epoch, and every timed loop runs a single op.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import phicon  # noqa: E402
import phicon.augment  # noqa: E402
import phicon.corpus  # noqa: E402

import compare  # noqa: E402
import run  # noqa: E402
from layers import METRICS, RUN_METRICS, Target, per_layer  # noqa: E402
from tracing import Tracer, installed  # noqa: E402
from workloads import (  # noqa: E402
    AugmentFine, CheckFailed, Headline, TagFine, WORKLOADS,
)

TINY = {
    "headline": Headline(docs=40, n_seeds=2, epochs=2),
    "augment_fine": AugmentFine(docs=12, alpha=2),
    "tag_fine": TagFine(train_docs=12, test_docs=20, epochs=1),
}


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(name, tmp_path, traced: bool) -> dict:
    runner = run.Runner(TINY[name], seed=1, seconds=0, workdir=str(tmp_path))
    body = runner.run_traced() if traced else runner.run_plain()
    assert runner.errors == []
    return body


def test_self_time_is_duration_minus_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.timed("inner", lambda: None, keep=False)
    outer = tracer.timed("outer", lambda: (inner(), inner()))
    outer()
    # outer opens at 0 and closes at 5; each inner call lasts one tick.
    assert tracer.stats["inner"] == [2, 2, 2]
    assert tracer.stats["outer"] == [1, 5, 3]
    assert tracer.spans == [(1, 0, "outer", 0, 5)]


def test_wrappers_cover_every_import_site_and_are_removed():
    original = phicon.corpus.validate_bio
    targets = [
        Target("phicon.corpus", "validate_bio", "corpus.validate_bio",
               hot=True),
        Target("phicon.corpus", "no_such_function", "corpus.gone"),
        Target("phicon.no_such_module", "f", "gone.f"),
    ]
    sentence = phicon.Sentence((phicon.Token("Ann", phicon.Label("B", "NAME")),))
    tracer = Tracer()
    with installed(tracer, targets) as absent:
        assert phicon.augment.validate_bio is not original
        assert phicon.augment.validate_bio is phicon.corpus.validate_bio
        assert phicon.validate_bio is phicon.corpus.validate_bio
        phicon.corpus.extract_entities(sentence)  # corpus' own global
        phicon.augment.validate_bio(sentence)  # augment's import
    assert absent == ["corpus.gone", "gone.f"]
    assert phicon.corpus.validate_bio is original
    assert phicon.augment.validate_bio is original
    assert tracer.stats["corpus.validate_bio"][0] == 2


def test_metrics_of_an_absent_function_are_marked_not_fatal():
    values, missing = per_layer(Tracer(), [Tracer()], ["corpus.validate_bio"])
    assert missing == ["corpus.validate_bio.calls",
                       "corpus.validate_bio.calls_per_sentence"]
    assert values["corpus.validate_bio.calls"] == 0.0
    assert len(values) == len(METRICS)


def test_benchmark_json_matches_the_harness():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    expected = [(m.name, m.unit, m.better) for m in METRICS] + \
        [(n, u, b) for n, u, b, _ in RUN_METRICS]
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == expected


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    body = _run(name, tmp_path, traced=False)
    assert list(body["metrics"]) == [n for n, _ in run.END_TO_END]
    assert all(v > 0 for v in body["metrics"].values())
    assert len(body["samples"]["setup_s"]) >= run.SETUPS


def test_traced_counts_repeat_exactly(tmp_path):
    first = _run("augment_fine", tmp_path, traced=True)
    second = _run("augment_fine", tmp_path, traced=True)
    names = [m["name"] for m in _bench()["per_layer"]]
    assert list(first["metrics"]) == names
    assert first["absent"] == []
    assert first["metrics"]["corpus.validate_bio.calls"] > 0
    counted = [m.name for m in METRICS if m.unit in ("count", "ratio")]
    assert {n: first["metrics"][n] for n in counted} == \
        {n: second["metrics"][n] for n in counted}


def test_traced_headline_reaches_the_tagger_layers(tmp_path):
    metrics = _run("headline", tmp_path, traced=True)["metrics"]
    for name in ("tagger.train.s", "tagger.featurize.calls",
                 "lexicon.registry_resolve.entries_built",
                 "evaluate.cross_dataset_eval.s", "evaluate.f1_phicon"):
        assert metrics[name] > 0, name


def test_augment_check_rejects_a_foreign_replacement(tmp_path):
    w = TINY["augment_fine"]
    state = w.setup(1, str(tmp_path))
    raw = w.op(state)
    w.outcome(state, raw)
    path = state["paths"]["records"]
    with open(path, encoding="utf-8") as f:
        records = [json.loads(line) for line in f]
    rec = next(r for r in records if r["replacements"])
    rec["replacements"][0][4] = "Nobody-In-Any-Lexicon"
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(json.dumps(r) + "\n" for r in records)
    fresh = w.setup(1, str(tmp_path))
    with pytest.raises(CheckFailed, match="not in the"):
        w.outcome(fresh, raw)
    with pytest.raises(CheckFailed, match="differ from the first op"):
        w.outcome(state, raw)


def test_headline_check_requires_phicon_to_beat_baseline():
    result = phicon.ExperimentResult(
        "a->b", 0.2, 2, {"baseline": [0.8], "phicon": [0.7]},
        {"baseline": 0.8, "phicon": 0.7})
    with pytest.raises(CheckFailed, match="does not beat baseline"):
        Headline().outcome({}, [result])


def test_tag_check_rejects_a_misreported_f1(tmp_path):
    w = TINY["tag_fine"]
    state = w.setup(1, str(tmp_path))
    code, text = w.op(state)
    w.outcome(state, (code, text))
    state.pop("checked_digest")
    with pytest.raises(CheckFailed, match="eval printed F1"):
        w.outcome(state, (code, text.replace("micro-F1: 0.", "micro-F1: 1.")))


def test_setup_in_child_returns_its_state_and_reports_failure():
    assert run._in_child(dict, [("tokens", 3)]) == {"tokens": 3}
    with pytest.raises(RuntimeError, match="child process"):
        run._in_child(int, "not a number")


def _traced(seed, counts, src="s"):
    return {"workload": "w", "trace": 1, "seed": seed, "started_at": seed,
            "env": {"src_sha256": src}, "counts": counts}


def test_traced_counts_must_repeat_across_runs(tmp_path):
    out = tmp_path / "results.jsonl"
    earlier = [_traced(1, {"a.calls": 2}), _traced(2, {"a.calls": 5}),
               _traced(1, {"a.calls": 3}, src="other sources")]
    out.write_text("".join(json.dumps(r) + "\n" for r in earlier))
    assert run.counts_differ(str(out), _traced(1, {"a.calls": 2})) == []
    assert len(run.counts_differ(str(out), _traced(2, {"a.calls": 4}))) == 1
    assert compare.counts_repeat(earlier) == \
        "not checked (no seed has two traced runs)"
    assert compare.counts_repeat(earlier + [_traced(2, {"a.calls": 4})]) == \
        "DIFFER for 1 of 1 repeated seeds"


def _record(workload, started, wall, seed=1):
    return {"workload": workload, "trace": 0, "seed": seed,
            "started_at": started, "failed": 0, "digests": ["d"],
            "quality": {},
            "result": {"metrics": {"wall_s": {"value": wall}}}}


WALL = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]


def test_compare_claims_only_with_ten_pairs_won_nine_times():
    parent, change = [], []
    for i in range(10):  # alternate which side starts each pair
        a, b = (2 * i, 2 * i + 1) if i % 2 else (2 * i + 1, 2 * i)
        parent.append(_record("w", a, 1.0 + 0.001 * i))
        change.append(_record("w", b, 0.8 if i else 1.2))
    rows = compare.compare(parent, change, WALL)
    assert rows[0]["pairs"] == 10 and rows[0]["wins"] == 9
    assert rows[0]["verdict"] == "improved"
    assert rows[1]["verdict"] == "identical in 10 same-seed pairs"
    change[1] = _record("w", change[1]["started_at"], 1.5)
    assert compare.compare(parent, change, WALL)[0]["verdict"] != "improved"
    rows = compare.compare(parent[:9], change[:9], WALL)
    assert rows[0]["verdict"].startswith("unresolved")


def test_compare_flags_a_regression_beyond_the_bound():
    parent = [_record("w", 2 * i, 1.0) for i in range(10)]
    change = [_record("w", 2 * i + 1, 1.2) for i in range(10)]
    assert compare.compare(parent, change, WALL)[0]["verdict"] == "regressed"


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "headline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

