"""Tests of the benchmark's own references, checks and tracer.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import os
import warnings

import numpy as np
import pytest

import checks
import gen
import run
import tracing
import worker
from citenoise import analyze, build_similarity, builtin_fixture, omission_indicator
from citenoise import io as cio

ROOT = os.path.dirname(run.BENCH)


def _author_rows(system):
    return np.array([ai for _, ai in system.citing_papers])


@pytest.mark.parametrize("name", ["table1", "table2", "table3"])
def test_analyze_reference_matches_fixture_tables(name):
    system = builtin_fixture(name)
    ref = checks.analyze_reference(system.realized, system.accurate, _author_rows(system))
    report = analyze(system)
    for key in checks.SUMMARY_KEYS:
        assert ref[key] == pytest.approx(getattr(report, key), abs=1e-12)
    np.testing.assert_allclose(ref["author_error_rate"], report.author_error_rates, atol=1e-12)
    np.testing.assert_allclose(ref["author_pattern_noise"], report.author_pattern_noise, atol=1e-12)
    assert ref["tc"].tolist() == [c.tc for c in report.cited_paper_stats]
    assert ref["ec"].tolist() == [c.ec for c in report.cited_paper_stats]
    assert ref["bias_direction"] == report.bias_direction.value


def test_analyze_reference_golden_values():
    system = builtin_fixture("table1")
    ref = checks.analyze_reference(system.realized, system.accurate, _author_rows(system))
    assert ref["sigma_ln"] == pytest.approx(0.0611, abs=5e-5)
    assert ref["sigma_pn"] == pytest.approx(0.1693, abs=5e-5)
    assert ref["sigma_sys"] == pytest.approx(0.18, abs=5e-5)
    assert ref["bias"] == pytest.approx(-0.6, abs=1e-12)
    assert ref["tc"].tolist() == [6, 7, 5, 4, 1]
    assert ref["ec"].tolist() == [10, 5, 2, 4, 5]
    system = builtin_fixture("table3")
    ref = checks.analyze_reference(system.realized, system.accurate, _author_rows(system))
    assert ref["sigma_ln"] == pytest.approx(0.50, abs=0.005)
    assert ref["sigma_pn"] == 0.0
    assert ref["bias"] == 0.0


def test_round_half_up_and_boundaries():
    assert checks.round_half_up(0.125) == 0.13
    assert checks.round_half_up(-0.125) == -0.13
    assert checks.round_half_up(0.12499999) == 0.12
    # A reference at a boundary accepts either printed neighbour.
    assert set(checks.printed_candidates(0.125)) == {0.12, 0.13}
    assert set(checks.printed_candidates(0.3)) == {0.3}
    assert checks._printed_ok("0.00", 0.0) and checks._printed_ok("-0.00", -0.001)


def _random_similarity(rng, n):
    # Scores on a coarse grid and timestamps from a small range, so equal
    # scores and equal timestamps both occur.
    raw = rng.integers(0, 4, (n, n)) / 4
    scores = np.maximum(raw, raw.T)
    np.fill_diagonal(scores, 1.0)
    ids = [f"p{v}" for v in rng.permutation(n).tolist()]
    stamps = rng.integers(0, max(1, n // 2), n).tolist()
    return ids, stamps, scores


@pytest.mark.parametrize("seed", range(40))
def test_omission_reference_matches_program(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 14))
    k = int(rng.integers(1, 5))
    ids, stamps, scores = _random_similarity(rng, n)
    cites = rng.integers(0, 2, (n, n))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        flags = omission_indicator(build_similarity(ids, stamps, scores), cites, k)
    records, n_warnings = checks.omission_reference(ids, stamps, scores, cites, k)
    assert records == [[c, e, v] for (c, e), v in sorted(flags.flags.items())]
    assert n_warnings == len(caught)


def _write_system_and_report(tmp_path, rng):
    n_authors, j, k = 4, 12, 7
    author = np.concatenate([np.arange(n_authors), rng.integers(0, n_authors, j - n_authors)])
    author_ids = [f"a{i}" for i in range(n_authors)]
    system = cio.build_system(
        author_ids, [(f"p{r}", a) for r, a in enumerate(author.tolist())],
        [f"c{c}" for c in range(k)], rng.integers(0, 2, (j, k)), rng.integers(0, 2, (j, k)),
    )
    path = tmp_path / "system.json"
    cio.save_system(system, path)
    report = analyze(system)
    (tmp_path / "report.json").write_text(cio.dump_json(cio.report_to_document(report, system)))
    (tmp_path / "report.txt").write_text(cio.report_to_table(report, system))
    return checks.read_json_system(path)


def test_analyze_checks_accept_program_output_and_reject_changes(tmp_path):
    system = _write_system_and_report(tmp_path, np.random.default_rng(3))
    assert checks.check_analyze_json(system, tmp_path / "report.json") == []
    assert checks.check_analyze_table(system, tmp_path / "report.txt") == []

    doc = json.loads((tmp_path / "report.json").read_text())
    doc["authors"][1]["pattern_noise"] += 1e-6
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    assert checks.check_analyze_json(system, tmp_path / "bad.json")

    lines = (tmp_path / "report.txt").read_text().splitlines()
    lines[-3] = lines[-3].replace("mean_TC   ", "mean_TC   1")
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    assert checks.check_analyze_table(system, tmp_path / "bad.txt")


def test_omission_check_rejects_a_flipped_flag(tmp_path):
    gen.generate("omissions", 5, str(tmp_path))
    sim = json.loads((tmp_path / "sim.json").read_text())
    cites = json.loads((tmp_path / "cites.json").read_text())
    ids = [p["id"] for p in sim["papers"]]
    stamps = [p["timestamp"] for p in sim["papers"]]
    records, n_warnings = checks.omission_reference(ids, stamps, sim["scores"], cites["cites"], 5)
    doc = {"k": 5, "flags": [{"citing": c, "earlier": e, "flag": v} for c, e, v in records]}
    (tmp_path / "flags.json").write_text(json.dumps(doc))
    args = (tmp_path / "sim.json", tmp_path / "cites.json", 5, tmp_path / "flags.json")
    assert checks.check_omissions(*args, n_warnings) == []
    assert checks.check_omissions(*args, n_warnings + 1)
    doc["flags"][100]["flag"] ^= 1
    (tmp_path / "flags.json").write_text(json.dumps(doc))
    assert checks.check_omissions(*args, n_warnings)


def test_simulate_retest_op_passes_its_check_and_a_change_fails_it(tmp_path):
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    meta = gen.generate("simulate_retest", 5, str(inputs))
    op, _ = worker.make_op("simulate_retest", str(inputs), meta)
    op(str(out))
    config = json.loads((inputs / "config.json").read_text())
    assert checks.check_simulate_retest(config, str(out)) == []

    retest = json.loads((out / "retest.json").read_text())
    retest["occasion_sigma"] *= 1.05
    (out / "retest.json").write_text(json.dumps(retest))
    assert checks.check_simulate_retest(config, str(out))


def test_tracer_nests_spans_and_restores_bindings(tmp_path):
    import citenoise.cli
    import citenoise.io
    import citenoise.model

    originals = (citenoise.io.build_system, citenoise.model.build_system, citenoise.cli.analyze)
    cio.save_system(builtin_fixture("table1"), tmp_path / "t1.json")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 7
        code = citenoise.cli.run_cli(["analyze", "--input", str(tmp_path / "t1.json"),
                                      "--out", str(tmp_path / "r.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (citenoise.io.build_system, citenoise.model.build_system, citenoise.cli.analyze) == originals
    by_name = {s.name: s for s in tracer.spans}
    assert set(by_name) == {"cli.run_cli", "io.load_system", "model.build_system", "metrics.analyze",
                            "io.report_to_document", "io.dump_json"}
    assert by_name["model.build_system"].parent == by_name["io.load_system"].id
    assert by_name["io.load_system"].parent == by_name["cli.run_cli"].id
    assert {s.op for s in tracer.spans} == {7}
    stats = tracing.summarize(tracer.spans, 1)
    assert stats["io.load_system"]["self_s"] < stats["io.load_system"]["s"]
    assert stats["model.build_system"]["counts"] == {"cells": 50}


def test_benchmark_json_metrics_are_computed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
    values, _ = worker.layer_metrics([], 1, 1.0, 1.0, 0, 0)
    assert {m["name"] for m in bench["per_layer"]} <= set(values)
