"""End-to-end acceptance checks.

Each test covers one release criterion at its stated tolerance and prints
a PASS line (pytest shows them with -s / on failure). Golden values for
the three bundled fixtures are the published table statistics; everything
randomized is seeded and checked against closed-form or brute-force
oracles.
"""

import json
import math
import time

import numpy as np
import pytest

from citenoise import (
    GenerativeConfig,
    aggregation_curve,
    analyze,
    builtin_fixture,
    decompose_pattern_noise,
    generate_system,
    omission_indicator,
    parse_justification_table,
    replicate_decisions,
    serialize_justification_table,
    audit_justification,
    canonicalize_key,
)
from citenoise import io as cio
from citenoise.cli import run_cli
from citenoise.metrics import BiasDirection

from systems import random_system
from test_audit import brute_force_flags, flag_dict, random_similarity


def ok(name, detail=""):
    print(f"PASS {name}" + (f" ({detail})" if detail else ""))


def test_criterion_1_table1_golden():
    start = time.monotonic()
    r = analyze(builtin_fixture("table1"))
    tol = 0.005
    assert r.pa_mean == pytest.approx(0.54, abs=tol)
    assert r.pe_mean == pytest.approx(0.46, abs=tol)
    assert r.sigma_ln == pytest.approx(0.06, abs=tol)
    assert r.sigma_pn == pytest.approx(0.17, abs=tol)
    assert r.sigma_sys == pytest.approx(0.18, abs=tol)
    for got, want in zip(r.author_error_rates, (0.53, 0.50, 0.40)):
        assert got == pytest.approx(want, abs=tol)
    for got, want in zip(r.author_pattern_noise, (0.25, 0.10, 0.13)):
        assert got == pytest.approx(want, abs=tol)
    assert [c.tc for c in r.cited_paper_stats] == [6, 7, 5, 4, 1]
    assert [c.ec for c in r.cited_paper_stats] == [10, 5, 2, 4, 5]
    assert r.mean_ec == pytest.approx(5.2, abs=1e-12)
    assert r.mean_tc == pytest.approx(4.6, abs=1e-12)
    assert r.bias == pytest.approx(-0.6, abs=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    ok("criterion 1: table1 golden reproduction", f"{elapsed:.3f}s")


def test_criterion_2_table3_golden():
    r = analyze(builtin_fixture("table3"))
    assert r.sigma_ln == pytest.approx(0.50, abs=0.005)
    assert r.sigma_pn == 0.0
    assert r.bias == 0.0
    assert len(r.cited_paper_stats) == 5
    assert all(c.tc == c.ec for c in r.cited_paper_stats)
    assert r.pe_mean == pytest.approx(0.55, abs=0.005)
    ok("criterion 2: table3 golden reproduction")


def test_criterion_3_table2_derived():
    r = analyze(builtin_fixture("table2"))
    assert r.bias == 0.0
    assert r.mean_tc == r.mean_ec == 7.5
    assert r.sigma_pn == 0.0
    assert [c.tc for c in r.cited_paper_stats] == [10, 5, 5, 10]
    assert [c.ec for c in r.cited_paper_stats] == [5, 10, 10, 5]
    # derived aggregates, diverging from the table's printed 0.60/0.50
    assert r.pa_mean == pytest.approx(0.50, abs=1e-12)
    assert r.sigma_ln == 0.0
    ok("criterion 3: table2 derived reproduction")


def test_criterion_4_pythagorean_identity():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        s = random_system(rng, max_authors=8, max_papers=30, max_cited=15)
        r = analyze(s)
        ln, pn = r.sigma_ln, r.sigma_pn
        assert abs(r.sigma_sys**2 - (ln**2 + pn**2)) < 1e-9
        pe_rows = np.abs(s.realized - s.accurate).mean(axis=1)
        total_var = float(((pe_rows - pe_rows.mean()) ** 2).mean())
        assert abs(total_var - (ln**2 + pn**2)) < 1e-9
    ok("criterion 4: pythagorean + total-variance identities on 1000 systems")


def test_criterion_5_aggregation_law():
    start = time.monotonic()
    rows = aggregation_curve(
        GenerativeConfig(seed=55, should_cite_prob=0.3), [10, 40, 100, 400, 1000], 10000
    )
    by_n = {n: emp for n, emp, _ in rows}
    for n, emp, theo in rows:
        if n in (10, 100, 1000):
            assert abs(emp - theo) / theo < 0.10
    for n in (10, 100):
        ratio = by_n[n] / by_n[4 * n]
        assert 1.7 <= ratio <= 2.3
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    ok("criterion 5: aggregation law", f"{elapsed:.2f}s")


def test_criterion_6_level_noise_recovery():
    errors = []
    for seed in range(50):
        config = GenerativeConfig(
            seed=seed, n_authors=60, papers_per_author=10, n_cited=40,
            should_cite_prob=0.5, base_error=0.3, level_spread=0.15,
        )
        system, latent = generate_system(config)
        truth = latent.author_level_std()
        errors.append(abs(analyze(system).sigma_ln - truth) / truth)
    median = float(np.median(errors))
    assert median < 0.20
    ok("criterion 6: level-noise recovery", f"median rel err {median:.4f}")


def test_criterion_7_test_retest_decomposition():
    config = GenerativeConfig(
        seed=77, n_authors=40, papers_per_author=5, n_cited=30,
        should_cite_prob=0.5, base_error=0.3, interaction_spread=0.2,
        replicates=100,
    )
    realized, latent = replicate_decisions(config)
    stable, _ = decompose_pattern_noise(realized, latent)
    truth = latent.stable_pattern_std()
    rel = abs(stable - truth) / truth
    assert rel < 0.15

    flat = GenerativeConfig(
        seed=78, n_authors=40, papers_per_author=5, n_cited=30,
        should_cite_prob=0.5, base_error=0.3, replicates=100,
    )
    stable0, _ = decompose_pattern_noise(*replicate_decisions(flat))
    assert stable0 < 0.02
    ok(
        "criterion 7: test-retest decomposition",
        f"rel err {rel:.4f}, null stable {stable0:.4f}",
    )


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_8_omission_oracle_equivalence():
    rng = np.random.default_rng(8)
    mismatches = 0
    for _ in range(100):
        sim = random_similarity(rng, 20)
        cites = rng.integers(0, 2, (20, 20))
        for k in (1, 3, 5):
            got = flag_dict(sim, omission_indicator(sim, cites, k))
            if got != brute_force_flags(sim, cites, k):
                mismatches += 1
    assert mismatches == 0
    ok("criterion 8: omission indicator oracle equivalence", "0 mismatches")


def test_criterion_9_audit_set_algebra():
    rng = np.random.default_rng(9)
    universe = [f"ref{i}" for i in range(40)]
    for _ in range(50):
        refs = {k for k in universe if rng.random() < 0.6}
        intext = [k for k in universe if rng.random() < 0.5]
        justified = [k for k in universe if rng.random() < 0.4]
        entries = parse_justification_table(
            "Cited work | Section | Knowledge flowed\n"
            + "".join(f"{k} | S | why\n" for k in justified)
        )
        report = audit_justification(refs, intext, entries)
        c = canonicalize_key
        assert set(report.unjustified_citations) == {c(k) for k in intext} - {
            c(k) for k in justified
        }
        assert set(report.orphan_justifications) == {c(k) for k in justified} - {
            c(k) for k in refs
        }
        assert parse_justification_table(
            serialize_justification_table(entries)
        ) == entries
    ok("criterion 9: audit set algebra + JT round-trip")


def test_criterion_10_determinism_and_round_trips(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "seed": 101, "n_authors": 4, "papers_per_author": 3, "n_cited": 6,
        "base_error": 0.25, "level_spread": 0.05, "replicates": 8,
    }))
    commands = [
        ["simulate", "--config", str(config_path)],
        ["retest", "--config", str(config_path)],
        ["aggregate", "--config", str(config_path), "--ns", "10,100,1000",
         "--trials", "2000"],
    ]
    for idx, argv in enumerate(commands):
        a = tmp_path / f"run{idx}_a.out"
        b = tmp_path / f"run{idx}_b.out"
        assert run_cli([*argv, "--out", str(a)]) == 0
        assert run_cli([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    rng = np.random.default_rng(10)
    for _ in range(10):
        s = random_system(rng)
        jp = tmp_path / "sys.json"
        cio.save_system(s, jp)
        loaded = cio.load_system(jp)
        assert loaded == s
        cio.save_system_csv(loaded, tmp_path / "R.csv", tmp_path / "A.csv")
        reloaded = cio.load_system_csv(tmp_path / "R.csv", tmp_path / "A.csv")
        # CSV recovers authors in first-appearance order; a second pass
        # through both formats must be lossless
        cio.save_system(reloaded, jp)
        assert cio.load_system(jp) == reloaded
        cio.save_system_csv(reloaded, tmp_path / "R2.csv", tmp_path / "A2.csv")
        assert cio.load_system_csv(tmp_path / "R2.csv", tmp_path / "A2.csv") == reloaded
        assert np.array_equal(reloaded.realized, s.realized)
        assert np.array_equal(reloaded.accurate, s.accurate)
    ok("criterion 10: seeded determinism and I/O round-trips")


def test_bias_direction_labels():
    # direction labeling follows the arithmetic: table1 is under-cited
    assert analyze(builtin_fixture("table1")).bias_direction is BiasDirection.UNDER
