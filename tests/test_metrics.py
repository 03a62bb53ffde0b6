import dataclasses
import math

import numpy as np
import pytest

from citenoise import (
    BiasDirection,
    NoiseReport,
    analyze,
    build_system,
    builtin_fixture,
    citation_bias,
)

from systems import random_system

TABLE3_SIGMA_LN = math.sqrt(330 / 1331)  # frozen from the fixture's row data


def perfect_system():
    a = [[1, 0, 1], [0, 1, 1]]
    return build_system(["x"], [("p", 0), ("q", 0)], ["c", "d", "e"], a, a)


def brute_force_decomposition(system):
    """Direct recomputation of all noise statistics from raw pe values."""
    pe_rows = []
    for j in range(system.n_citing):
        errs = sum(
            int(system.realized[j, k]) != int(system.accurate[j, k])
            for k in range(system.n_cited)
        )
        pe_rows.append(errs / system.n_cited)
    pe_bar = sum(pe_rows) / len(pe_rows)
    num_ln, num_pn, total_n = 0.0, 0.0, 0
    for i in range(system.n_authors):
        rows = [j for j, (_, a) in enumerate(system.citing_papers) if a == i]
        pe_i = sum(pe_rows[j] for j in rows) / len(rows)
        var_i = sum((pe_i - pe_rows[j]) ** 2 for j in rows) / len(rows)
        num_ln += len(rows) * (pe_bar - pe_i) ** 2
        num_pn += len(rows) * var_i
        total_n += len(rows)
    return pe_bar, math.sqrt(num_ln / total_n), math.sqrt(num_pn / total_n)


def brute_force_report(system):
    """Every NoiseReport field recomputed cell by cell with Python loops; a
    per-paper row is a tuple in the record arrays' field order."""
    n_j, n_k = system.n_citing, system.n_cited
    r, a = system.realized.tolist(), system.accurate.tolist()
    wrong = [[int(r[j][k] != a[j][k]) for k in range(n_k)] for j in range(n_j)]
    pe_rows = [sum(row) / n_k for row in wrong]
    rates, pattern = [], []
    for i in range(system.n_authors):
        rows = [j for j, (_, a) in enumerate(system.citing_papers) if a == i]
        rate = sum(pe_rows[j] for j in rows) / len(rows)
        rates.append(rate)
        var = sum((rate - pe_rows[j]) ** 2 for j in rows) / len(rows)
        pattern.append(math.sqrt(var))
    cited = []
    for k in range(n_k):
        tc = sum(r[j][k] for j in range(n_j))
        pe = sum(wrong[j][k] for j in range(n_j)) / n_j
        ec = sum(a[j][k] for j in range(n_j))
        cited.append((tc / n_j, tc, ec, 1 - pe, pe))
    pe_bar, sigma_ln, sigma_pn = brute_force_decomposition(system)
    mean_tc = sum(tc for _, tc, _, _, _ in cited) / n_k
    mean_ec = sum(ec for _, _, ec, _, _ in cited) / n_k
    bias = mean_tc - mean_ec
    direction = {1: BiasDirection.OVER, -1: BiasDirection.UNDER, 0: BiasDirection.NONE}
    return NoiseReport(
        citing_paper_stats=tuple(
            (sum(r[j]) / n_k, 1 - pe, pe)
            for j, pe in enumerate(pe_rows)
        ),
        author_error_rates=tuple(rates),
        author_pattern_noise=tuple(pattern),
        cited_paper_stats=tuple(cited),
        pa_mean=1 - pe_bar,
        pe_mean=pe_bar,
        sigma_ln=sigma_ln,
        sigma_pn=sigma_pn,
        sigma_sys=math.sqrt(sigma_ln**2 + sigma_pn**2),
        mean_tc=mean_tc,
        mean_ec=mean_ec,
        bias=bias,
        bias_direction=direction[(bias > 0) - (bias < 0)],
    )


def assert_reports_close(got, expected, tol=1e-12):
    """Same structure and enums, every number within ``tol``."""

    def flat(x):
        if isinstance(x, np.ndarray):
            x = tuple(x.tolist())
        if isinstance(x, tuple):
            return [v for item in x for v in flat(item)]
        return [x]

    got, expected = flat(dataclasses.astuple(got)), flat(dataclasses.astuple(expected))
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        if isinstance(e, BiasDirection):
            assert g is e
        else:
            assert g == pytest.approx(e, abs=tol)


def grouped_random_system(rng, max_authors=50, max_cited=20):
    """Random system with up to 50 authors of 8-12 papers, rows shuffled.

    Each author has an own error probability, so level and pattern noise
    both occur; owners are shuffled so an author's rows are not contiguous.
    """
    n_authors = int(rng.integers(1, max_authors + 1))
    owners = np.repeat(np.arange(n_authors), rng.integers(8, 13, n_authors))
    rng.shuffle(owners)
    k = int(rng.integers(1, max_cited + 1))
    accurate = rng.integers(0, 2, (len(owners), k))
    flips = rng.random((len(owners), k)) < rng.uniform(0, 0.6, n_authors)[owners, None]
    return build_system(
        [f"a{i}" for i in range(n_authors)],
        [(f"p{j}", int(o)) for j, o in enumerate(owners)],
        [f"c{kk}" for kk in range(k)],
        np.where(flips, 1 - accurate, accurate),
        accurate,
    )


class TestGroupedKernelOracle:
    """analyze and citation_bias against the loop oracles."""

    SEEDS = range(8)

    def test_report_matches_brute_force(self):
        for seed in self.SEEDS:
            s = grouped_random_system(np.random.default_rng(seed))
            assert_reports_close(analyze(s), brute_force_report(s))

    def test_single_statistic_views_match_brute_force(self):
        for seed in self.SEEDS:
            s = grouped_random_system(np.random.default_rng(seed))
            expected = brute_force_report(s)
            pe_bar, sigma_ln, sigma_pn = brute_force_decomposition(s)
            r = analyze(s)
            assert r.sigma_ln == pytest.approx(sigma_ln, abs=1e-12)
            assert r.sigma_pn == pytest.approx(sigma_pn, abs=1e-12)
            assert r.sigma_sys == pytest.approx(expected.sigma_sys, abs=1e-12)
            assert (r.pa_mean, r.pe_mean) == pytest.approx((1 - pe_bar, pe_bar), abs=1e-12)
            bias = citation_bias(s)
            assert (bias.mean_tc, bias.mean_ec, bias.bias) == pytest.approx(
                (expected.mean_tc, expected.mean_ec, expected.bias), abs=1e-12
            )
            assert bias.direction is expected.bias_direction
            for i in range(s.n_authors):
                assert r.author_error_rates[i] == pytest.approx(
                    expected.author_error_rates[i], abs=1e-12
                )
                assert r.author_pattern_noise[i] == pytest.approx(
                    expected.author_pattern_noise[i], abs=1e-12
                )
            for j in range(s.n_citing):
                assert r.citing_paper_stats[j].item() == expected.citing_paper_stats[j]
            for k in range(s.n_cited):
                assert r.cited_paper_stats[k].item() == expected.cited_paper_stats[k]


class TestExactZeros:
    """Equal error counts give exactly zero noise, not rounding residue."""

    @pytest.mark.parametrize("n_papers", [10, 11])
    def test_pattern_noise_one_error_each(self, n_papers):
        s = build_system(
            ["x"],
            [(f"p{j}", 0) for j in range(n_papers)],
            ["c", "d", "e"],
            [[1, 0, 0]] * n_papers,
            [[0, 0, 0]] * n_papers,
        )
        r = analyze(s)
        assert r.sigma_pn == 0.0
        assert r.author_pattern_noise[0] == 0.0
        assert r.sigma_sys == 0.0

    def test_level_noise_identical_authors(self):
        s = build_system(
            ["x", "y"],
            [(f"p{j}", j // 11) for j in range(22)],
            ["c", "d", "e"],
            [[1, 0, 0]] * 22,
            [[0, 0, 0]] * 22,
        )
        r = analyze(s)
        assert r.sigma_ln == 0.0
        assert r.sigma_sys == 0.0


class TestCitingPaperStats:
    def test_table1_paper1(self):
        s = analyze(builtin_fixture("table1")).citing_paper_stats[0]
        assert s.pr == pytest.approx(0.40)
        assert s.pa == pytest.approx(0.20)
        assert s.pe == pytest.approx(0.80)

    def test_table1_paper2(self):
        s = analyze(builtin_fixture("table1")).citing_paper_stats[1]
        assert s.pa == pytest.approx(0.80)
        assert s.pe == pytest.approx(0.20)

    def test_perfect_world(self):
        for st in analyze(perfect_system()).citing_paper_stats:
            assert st.pa == 1.0
            assert st.pe == 0.0

    def test_pa_pe_sum_to_one(self, rng):
        for _ in range(20):
            for st in analyze(random_system(rng)).citing_paper_stats:
                assert abs(st.pa + st.pe - 1.0) < 1e-12


class TestAuthorErrorRate:
    def test_table1_values(self):
        rates = analyze(builtin_fixture("table1")).author_error_rates
        assert rates[0] == pytest.approx(0.5333, abs=5e-4)
        assert rates[1] == pytest.approx(0.50)
        assert rates[2] == pytest.approx(0.40)

    def test_single_correct_paper(self):
        s = build_system(["x"], [("p", 0)], ["c"], [[1]], [[1]])
        assert analyze(s).author_error_rates[0] == 0.0


def test_report_columns_are_read_only():
    r = analyze(builtin_fixture("table1"))
    for column in (r.cited_paper_stats.tc, r.citing_paper_stats.pe, r.author_error_rates):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0


class TestCitedPaperStats:
    def test_table1_cited_a(self):
        s = analyze(builtin_fixture("table1")).cited_paper_stats[0]
        assert s.pr == pytest.approx(0.6)
        assert (s.tc, s.ec) == (6, 10)
        assert s.pa == pytest.approx(0.60)
        assert s.pe == pytest.approx(0.40)

    def test_table1_cited_c(self):
        s = analyze(builtin_fixture("table1")).cited_paper_stats[2]
        assert (s.tc, s.ec) == (5, 2)
        assert s.pa == pytest.approx(0.70)

    def test_never_cite_consensus(self):
        s = build_system(
            ["x"], [("p", 0), ("q", 0)], ["c"], [[0], [0]], [[0], [0]]
        )
        st = analyze(s).cited_paper_stats[0]
        assert (st.tc, st.ec) == (0, 0)
        assert st.pa == 1.0

    def test_column_identity_with_decision_counts(self, rng):
        # tc + incorrect-negatives - incorrect-positives = ec, per column
        for _ in range(20):
            s = random_system(rng)
            for k, st in enumerate(analyze(s).cited_paper_stats):
                col_r, col_a = s.realized[:, k], s.accurate[:, k]
                inc_neg = int(((col_r == 0) & (col_a == 1)).sum())
                inc_pos = int(((col_r == 1) & (col_a == 0)).sum())
                assert st.tc + inc_neg - inc_pos == st.ec


class TestSystemAggregates:
    def test_table1_accuracy(self):
        r = analyze(builtin_fixture("table1"))
        pa, pe = r.pa_mean, r.pe_mean
        assert pa == pytest.approx(0.54)
        assert pe == pytest.approx(0.46)

    def test_table3_error_rate(self):
        pe = analyze(builtin_fixture("table3")).pe_mean
        assert pe == pytest.approx(6 / 11)

    def test_perfect_world(self):
        r = analyze(perfect_system())
        assert (r.pa_mean, r.pe_mean) == (1.0, 0.0)

    def test_paperwise_equals_cellwise(self, rng):
        for _ in range(20):
            s = random_system(rng)
            pa = analyze(s).pa_mean
            cellwise = float((s.realized == s.accurate).mean())
            assert pa == pytest.approx(cellwise, abs=1e-12)


class TestLevelNoise:
    def test_table1(self):
        r = analyze(builtin_fixture("table1"))
        assert r.sigma_ln == pytest.approx(0.0611, abs=5e-4)

    def test_table3(self):
        assert analyze(builtin_fixture("table3")).sigma_ln == pytest.approx(
            TABLE3_SIGMA_LN, abs=1e-12
        )

    def test_zero_when_authors_identical(self):
        rows = [((1, 0), (0, 0)), ((0, 1), (0, 0))]
        s = build_system(
            ["x", "y"],
            [("p", 0), ("q", 1)],
            ["c", "d"],
            [r for r, _ in rows],
            [a for _, a in rows],
        )
        assert analyze(s).sigma_ln == 0.0

    def test_single_author_is_zero(self, rng):
        for _ in range(10):
            s = random_system(rng, max_authors=1)
            assert analyze(s).sigma_ln == 0.0


class TestPatternNoise:
    def test_table1_per_author(self):
        pn = analyze(builtin_fixture("table1")).author_pattern_noise
        assert pn[0] == pytest.approx(0.2494, abs=5e-4)
        assert pn[1] == pytest.approx(0.10)
        assert pn[2] == pytest.approx(0.1265, abs=5e-4)

    def test_table1_overall(self):
        assert analyze(builtin_fixture("table1")).sigma_pn == pytest.approx(
            0.1693, abs=5e-4
        )

    def test_table2_zero(self):
        assert analyze(builtin_fixture("table2")).sigma_pn == 0.0

    def test_equal_rates_give_zero(self):
        s = build_system(
            ["x"],
            [("p", 0), ("q", 0)],
            ["c", "d"],
            [[1, 0], [0, 1]],
            [[0, 0], [1, 1]],
        )
        assert analyze(s).author_pattern_noise[0] == 0.0

    def test_single_paper_author_is_zero(self):
        s = build_system(["x"], [("p", 0)], ["c", "d"], [[1, 0]], [[0, 0]])
        assert analyze(s).author_pattern_noise[0] == 0.0

    def test_matches_direct_formula(self, rng):
        # two authors with two papers each, recomputed from raw pe values
        r = rng.integers(0, 2, (4, 3))
        a = rng.integers(0, 2, (4, 3))
        s = build_system(
            ["x", "y"],
            [("p0", 0), ("p1", 0), ("p2", 1), ("p3", 1)],
            ["c0", "c1", "c2"],
            r,
            a,
        )
        _, _, expected = brute_force_decomposition(s)
        assert analyze(s).sigma_pn == pytest.approx(expected, abs=1e-12)


class TestSystemNoise:
    def test_table1(self):
        r = analyze(builtin_fixture("table1"))
        assert r.sigma_sys == pytest.approx(0.18, abs=5e-3)

    def test_zero_components(self):
        assert analyze(perfect_system()).sigma_sys == 0.0

    def test_table3_combination(self):
        r = analyze(builtin_fixture("table3"))
        assert r.sigma_pn == 0.0
        assert r.sigma_sys == pytest.approx(TABLE3_SIGMA_LN, abs=1e-12)

    def test_pythagorean_identity(self, rng):
        for _ in range(50):
            r = analyze(random_system(rng))
            ln, pn = r.sigma_ln, r.sigma_pn
            assert r.sigma_sys**2 == pytest.approx(ln**2 + pn**2, abs=1e-9)

    def test_law_of_total_variance(self, rng):
        for _ in range(50):
            s = random_system(rng)
            pe_rows = np.abs(s.realized - s.accurate).mean(axis=1)
            total_var = float(((pe_rows - pe_rows.mean()) ** 2).mean())
            r = analyze(s)
            assert total_var == pytest.approx(r.sigma_ln**2 + r.sigma_pn**2, abs=1e-9)


class TestCitationBias:
    def test_table1(self):
        b = citation_bias(builtin_fixture("table1"))
        assert b.mean_ec == pytest.approx(5.2)
        assert b.mean_tc == pytest.approx(4.6)
        assert b.bias == pytest.approx(-0.6, abs=1e-12)
        assert b.direction is BiasDirection.UNDER

    def test_table2_balanced(self):
        b = citation_bias(builtin_fixture("table2"))
        assert b.mean_tc == b.mean_ec == 7.5
        assert b.bias == 0.0
        assert b.direction is BiasDirection.NONE

    def test_table3_per_paper_exact(self):
        s = builtin_fixture("table3")
        assert np.array_equal(s.realized.sum(axis=0), s.accurate.sum(axis=0))
        assert citation_bias(s).bias == 0.0

    def test_zero_bias_when_error_directions_cancel(self, rng):
        for _ in range(30):
            s = random_system(rng)
            inc_pos = int(((s.realized == 1) & (s.accurate == 0)).sum())
            inc_neg = int(((s.realized == 0) & (s.accurate == 1)).sum())
            if inc_pos == inc_neg:
                assert citation_bias(s).bias == pytest.approx(0.0, abs=1e-12)


class TestAnalyze:
    def test_table1_report(self):
        s = builtin_fixture("table1")
        r = analyze(s)
        assert r.pa_mean == pytest.approx(0.54, abs=5e-3)
        assert r.sigma_ln == pytest.approx(0.06, abs=5e-3)
        assert r.sigma_pn == pytest.approx(0.17, abs=5e-3)
        assert r.sigma_sys == pytest.approx(0.18, abs=5e-3)
        assert [c.tc for c in r.cited_paper_stats] == [6, 7, 5, 4, 1]
        assert [c.ec for c in r.cited_paper_stats] == [10, 5, 2, 4, 5]

    def test_perfect_world_report(self):
        r = analyze(perfect_system())
        assert r.sigma_ln == r.sigma_pn == r.sigma_sys == 0.0
        assert r.bias == 0.0
        assert r.pa_mean == 1.0

    def test_fields_match_single_statistic_functions(self, rng):
        s = random_system(rng, max_authors=3, max_papers=6, max_cited=4)
        r = analyze(s)
        pe_bar, sigma_ln, sigma_pn = brute_force_decomposition(s)
        assert r.pe_mean == pytest.approx(pe_bar, abs=1e-12)
        assert r.sigma_ln == pytest.approx(sigma_ln, abs=1e-12)
        assert r.sigma_pn == pytest.approx(sigma_pn, abs=1e-12)
        assert r.bias == citation_bias(s).bias
        assert r.sigma_sys**2 == pytest.approx(
            r.sigma_ln**2 + r.sigma_pn**2, abs=1e-9
        )


class TestInvariances:
    def _permuted(self, system, rng):
        """Relabel ids and permute cited-paper order and author blocks."""
        perm_k = rng.permutation(system.n_cited)
        order_authors = rng.permutation(system.n_authors)
        new_rows = []
        for i in order_authors:
            new_rows.extend([j for j, (_, a) in enumerate(system.citing_papers) if a == i])
        realized = system.realized[np.ix_(new_rows, perm_k)]
        accurate = system.accurate[np.ix_(new_rows, perm_k)]
        old_author = {j: system.citing_papers[j][1] for j in range(system.n_citing)}
        remap = {int(i): pos for pos, i in enumerate(order_authors)}
        return build_system(
            [f"A{i}" for i in range(system.n_authors)],
            [(f"P{j}", remap[old_author[j]]) for j in new_rows],
            [f"C{k}" for k in range(system.n_cited)],
            realized,
            accurate,
        )

    def test_statistics_invariant_under_permutation(self, rng):
        for _ in range(20):
            s = random_system(rng)
            t = self._permuted(s, rng)
            rs, rt = analyze(s), analyze(t)
            assert rt.sigma_ln == pytest.approx(rs.sigma_ln, abs=1e-12)
            assert rt.sigma_pn == pytest.approx(rs.sigma_pn, abs=1e-12)
            assert rt.sigma_sys == pytest.approx(rs.sigma_sys, abs=1e-12)
            assert rt.pa_mean == pytest.approx(rs.pa_mean, abs=1e-12)
            assert citation_bias(t).bias == pytest.approx(
                citation_bias(s).bias, abs=1e-12
            )
