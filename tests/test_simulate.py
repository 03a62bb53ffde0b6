import dataclasses
import math

import numpy as np
import pytest

from citenoise import (
    GenerativeConfig,
    aggregation_curve,
    analyze,
    bias_recovery,
    decompose_pattern_noise,
    expected_bias,
    generate_system,
    replicate_decisions,
)
from citenoise.errors import InsufficientReplicates, InvalidConfig


def cfg(**kw):
    kw.setdefault("seed", 1234)
    return GenerativeConfig(**kw)


class TestConfigValidation:
    def test_rejects_zero_sizes(self):
        with pytest.raises(InvalidConfig):
            cfg(n_authors=0)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(InvalidConfig):
            cfg(should_cite_prob=1.5)
        with pytest.raises(InvalidConfig):
            cfg(base_error=-0.1)

    def test_rejects_mismatched_bias_vector(self):
        with pytest.raises(InvalidConfig):
            cfg(n_cited=3, bias_shift=(0.1, 0.2))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", "1"),
            ("seed", True),
            ("seed", -1),
            ("n_authors", "3"),
            ("n_authors", 2.5),
            ("papers_per_author", None),
            ("replicates", 2.0),
            ("level_spread", float("nan")),
            ("base_error", float("inf")),
            ("interaction_spread", "0.1"),
            ("should_cite_prob", True),
            ("bias_shift", float("nan")),
            ("bias_shift", (0.1, float("-inf"))),
            ("bias_shift", ("x", 0.1)),
            ("level_spread", 1e308),
            ("interaction_spread", 1e308),
        ],
    )
    def test_rejects_wrong_types_and_non_finite(self, field, value):
        base = {"n_authors": 2, "papers_per_author": 2, "n_cited": 2}
        with pytest.raises(InvalidConfig, match=field):
            cfg(**{**base, field: value})

    @pytest.mark.parametrize(
        "kw",
        [{"n_cited": 2, "bias_shift": [0.1]}, {"base_error": 2.0}],
        ids=["short-bias-list", "base-error-above-1"],
    )
    def test_invalid_config_cannot_be_built(self, kw):
        with pytest.raises(InvalidConfig):
            GenerativeConfig(seed=1, **kw)

    def test_bias_list_is_stored_as_tuple(self):
        assert cfg(n_cited=2, bias_shift=[0.1, 0.2]).bias_shift == (0.1, 0.2)

    def test_accepts_ints_for_floats_and_numpy_scalars(self):
        cfg(n_authors=np.int64(2), base_error=0, level_spread=np.float64(0.1))

    def test_rejects_heavy_clamping(self):
        with pytest.raises(InvalidConfig):
            generate_system(
                cfg(n_authors=5, papers_per_author=4, n_cited=10,
                    base_error=0.0, bias_shift=0.5, should_cite_prob=0.5)
            )


class TestGenerateSystem:
    def test_noise_free_world(self):
        system, _ = generate_system(
            cfg(n_authors=4, papers_per_author=3, n_cited=6, base_error=0.0)
        )
        r = analyze(system)
        assert r.sigma_sys == 0.0
        assert r.bias == 0.0
        assert np.array_equal(system.realized, system.accurate)

    def test_error_rate_matches_binomial_oracle(self):
        config = cfg(
            n_authors=50, papers_per_author=20, n_cited=40, base_error=0.3, seed=42
        )
        system, _ = generate_system(config)
        pe = analyze(system).pe_mean
        se = math.sqrt(0.3 * 0.7 / (config.n_citing * config.n_cited))
        assert abs(pe - 0.3) < 3 * se

    def test_seed_determinism(self):
        config = cfg(n_authors=3, papers_per_author=4, n_cited=5, base_error=0.2, seed=42)
        s1, l1 = generate_system(config)
        s2, l2 = generate_system(config)
        assert s1 == s2
        assert np.array_equal(l1.flip_probs, l2.flip_probs)

    def test_accurate_density_tracks_q(self):
        config = cfg(n_authors=20, papers_per_author=10, n_cited=30, should_cite_prob=0.35)
        system, _ = generate_system(config)
        q = 0.35
        bound = 3 * math.sqrt(q * (1 - q) / system.accurate.size)
        assert abs(system.accurate.mean() - q) < bound

    def test_latent_records_probabilities_used(self):
        config = cfg(
            n_authors=5, papers_per_author=2, n_cited=4, base_error=0.2,
            level_spread=0.1, interaction_spread=0.05,
        )
        _, latent = generate_system(config)
        assert latent.flip_probs.shape == (10, 4)
        assert latent.flip_probs.min() >= 0.0 and latent.flip_probs.max() <= 1.0

    def test_noise_shrinks_with_system_size(self):
        # with no injected level/pattern spread, analyze() noise is pure
        # sampling noise and must fall as the system grows
        sizes = [(5, 3, 8), (15, 8, 20), (40, 20, 50)]
        ln, pn = [], []
        for na, pp, nc in sizes:
            system, _ = generate_system(
                cfg(n_authors=na, papers_per_author=pp, n_cited=nc, base_error=0.3)
            )
            r = analyze(system)
            ln.append(r.sigma_ln)
            pn.append(r.sigma_pn)
        assert ln[0] > ln[1] > ln[2]
        assert pn[0] > pn[1] > pn[2]


class TestReplicateDecisions:
    def test_pi_zero_replicates_equal_accurate(self):
        realized, latent = replicate_decisions(
            cfg(n_authors=2, papers_per_author=3, n_cited=4, base_error=0.0, replicates=5)
        )
        for r in realized:
            assert np.array_equal(r, latent.accurate)

    def test_pi_one_replicates_complement(self):
        realized, latent = replicate_decisions(
            cfg(n_authors=2, papers_per_author=3, n_cited=4, base_error=1.0, replicates=5)
        )
        for r in realized:
            assert np.array_equal(r, 1 - latent.accurate)

    def test_flip_frequency_matches_bernoulli(self):
        t = 200
        realized, latent = replicate_decisions(
            cfg(n_authors=4, papers_per_author=3, n_cited=5, base_error=0.5, replicates=t)
        )
        flips = np.stack([(r != latent.accurate) for r in realized]).mean(axis=0)
        bound = 3 * math.sqrt(0.25 / t)
        assert np.abs(flips - 0.5).max() < bound

    def test_requires_two_replicates(self):
        with pytest.raises(InvalidConfig):
            replicate_decisions(cfg(replicates=1))

    def test_earlier_replicates_stable_when_adding_more(self):
        base = cfg(n_authors=3, papers_per_author=2, n_cited=4, base_error=0.3, replicates=3)
        more = cfg(n_authors=3, papers_per_author=2, n_cited=4, base_error=0.3, replicates=6)
        r3, _ = replicate_decisions(base)
        r6, _ = replicate_decisions(more)
        for a, b in zip(r3, r6):
            assert np.array_equal(a, b)


class TestDecomposePatternNoise:
    def test_requires_two_occasions(self):
        realized, latent = replicate_decisions(cfg(base_error=0.2, replicates=2))
        with pytest.raises(InsufficientReplicates):
            decompose_pattern_noise(realized[:1], latent)

    def test_constant_pi_gives_vanishing_stable(self):
        reps = replicate_decisions(
            cfg(n_authors=20, papers_per_author=5, n_cited=30, base_error=0.3,
                replicates=150, seed=9)
        )
        stable, occasion = decompose_pattern_noise(*reps)
        assert stable < 0.02
        assert occasion > 0.3  # ~sqrt(0.3 * 0.7)

    def test_identical_replicates_have_zero_occasion(self):
        reps = replicate_decisions(
            cfg(n_authors=2, papers_per_author=2, n_cited=3, base_error=1.0, replicates=4)
        )
        stable, occasion = decompose_pattern_noise(*reps)
        assert occasion == 0.0
        assert stable == 0.0

    def test_recovers_injected_interaction_spread(self):
        realized, latent = replicate_decisions(
            cfg(n_authors=40, papers_per_author=5, n_cited=30, base_error=0.3,
                interaction_spread=0.2, replicates=100, seed=7)
        )
        stable, _ = decompose_pattern_noise(realized, latent)
        truth = latent.stable_pattern_std()
        assert abs(stable - truth) / truth < 0.15

    def test_variance_identity(self):
        realized, latent = replicate_decisions(
            cfg(n_authors=10, papers_per_author=4, n_cited=8, base_error=0.3,
                interaction_spread=0.15, replicates=50, seed=3)
        )
        stable, occasion = decompose_pattern_noise(realized, latent)
        errors = np.stack([np.abs(r - latent.accurate) for r in realized]).astype(float)
        total = 0.0
        for i in np.unique(latent.author_of_paper):
            block = errors[:, latent.author_of_paper == i, :]
            total += block[0].size * ((block - block.mean()) ** 2).mean()
        total /= errors.shape[1] * errors.shape[2]
        assert stable**2 + occasion**2 == pytest.approx(total, abs=1e-9)


def stacked_decomposition(realized, latent):
    """The (T, J, K) float64 stack formula that the count form replaced."""
    errors = np.stack([np.abs(r - latent.accurate) for r in realized]).astype(float)
    occasion_var = float(errors.var(axis=0, ddof=1).mean())
    total = 0.0
    for i in np.unique(latent.author_of_paper):
        block = errors[:, latent.author_of_paper == i, :]
        total += block[0].size * float(((block - block.mean()) ** 2).mean())
    total_var = total / (errors.shape[1] * errors.shape[2])
    return math.sqrt(max(0.0, total_var - occasion_var)), math.sqrt(occasion_var)


def shuffled_rows(realized, latent, rng):
    """The same replicates with their citing papers in a random order."""
    perm = rng.permutation(len(latent.author_of_paper))
    shuffled = dataclasses.replace(
        latent,
        flip_probs=latent.flip_probs[perm],
        author_of_paper=latent.author_of_paper[perm],
        accurate=latent.accurate[perm],
    )
    return tuple(r[perm] for r in realized), shuffled


class TestGroupedKernelOracle:
    CONFIGS = [
        dict(n_authors=7, papers_per_author=9, n_cited=11, base_error=0.3,
             level_spread=0.1, interaction_spread=0.2, replicates=12, seed=1),
        dict(n_authors=30, papers_per_author=8, n_cited=5, base_error=0.4,
             interaction_spread=0.25, replicates=3, seed=2),
        dict(n_authors=1, papers_per_author=10, n_cited=20, base_error=0.2,
             interaction_spread=0.15, replicates=40, seed=3),
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_decomposition_matches_stacked_formula(self, config, rng):
        reps = replicate_decisions(cfg(**config))
        for case in (reps, shuffled_rows(*reps, rng)):
            got = decompose_pattern_noise(*case)
            assert got == pytest.approx(stacked_decomposition(*case), abs=1e-12)

    def test_identical_replicates_match_stacked_formula(self):
        reps = replicate_decisions(
            cfg(n_authors=3, papers_per_author=8, n_cited=4, base_error=1.0,
                replicates=3)
        )
        assert decompose_pattern_noise(*reps) == (0.0, 0.0)
        assert stacked_decomposition(*reps) == (0.0, 0.0)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_latent_stds_match_loops(self, config, rng):
        _, latent = shuffled_rows(*replicate_decisions(cfg(**config)), rng)
        n_authors = len(latent.author_offsets)
        blocks = [
            latent.flip_probs[latent.author_of_paper == i] for i in range(n_authors)
        ]
        means = np.array([b.mean() for b in blocks])
        within = sum(b.size * b.var() for b in blocks)
        stable = math.sqrt(within / latent.flip_probs.size)
        assert latent.author_mean_flip() == pytest.approx(means, abs=1e-12)
        assert latent.author_level_std() == pytest.approx(float(means.std()), abs=1e-12)
        assert latent.stable_pattern_std() == pytest.approx(stable, abs=1e-12)


class TestAggregationCurve:
    def test_theoretical_closed_form(self):
        rows = aggregation_curve(cfg(should_cite_prob=0.5), [100], trials=100)
        assert rows[0][2] == pytest.approx(0.05)

    def test_empirical_tracks_theory(self):
        rows = aggregation_curve(
            cfg(should_cite_prob=0.3, seed=11), [10, 100, 1000], trials=10000
        )
        for _, emp, theo in rows:
            assert abs(emp - theo) / theo < 0.10

    def test_degenerate_bernoulli(self):
        for p in (0.0, 1.0):
            rows = aggregation_curve(cfg(should_cite_prob=p), [5, 50], trials=100)
            assert all(emp == 0.0 for _, emp, _ in rows)

    def test_quadrupling_n_halves_se(self):
        for p in (0.2, 0.5, 0.8):
            rows = aggregation_curve(
                cfg(should_cite_prob=p, seed=5), [25, 100, 400], trials=10000
            )
            for (_, a, _), (_, b, _) in zip(rows, rows[1:]):
                assert 2.0 == pytest.approx(a / b, rel=0.15)

    def test_validates_inputs(self):
        with pytest.raises(InvalidConfig):
            aggregation_curve(cfg(), [10], trials=10)
        with pytest.raises(InvalidConfig):
            aggregation_curve(cfg(), [0], trials=100)

    def test_deterministic(self):
        a = aggregation_curve(cfg(should_cite_prob=0.3, seed=2), [10, 100], 500)
        b = aggregation_curve(cfg(should_cite_prob=0.3, seed=2), [10, 100], 500)
        assert a == b


class TestBiasRecovery:
    def test_unbiased_generator(self):
        config = cfg(
            n_authors=6, papers_per_author=4, n_cited=8, should_cite_prob=0.5,
            base_error=0.2, seed=21,
        )
        injected, estimated = bias_recovery(config, trials=400)
        assert injected == 0.0
        # SE of the mean bias over trials, from per-cell Bernoulli variance
        se = math.sqrt(config.n_citing * 0.2 * 0.8 / config.n_cited / 400)
        assert abs(estimated) < 3 * se

    def test_pure_overcitation_pressure(self):
        config = cfg(
            n_authors=8, papers_per_author=4, n_cited=10, should_cite_prob=0.5,
            base_error=0.1, bias_shift=0.1, seed=33,
        )
        injected, estimated = bias_recovery(config, trials=1000)
        assert injected > 0
        assert estimated > 0

    def test_constructed_cancellation_noise_without_bias(self):
        # with q = 0.5, expected incorrect positives and negatives balance
        # even though per-decision noise is substantial (the Table 3 regime)
        config = cfg(
            n_authors=6, papers_per_author=5, n_cited=12, should_cite_prob=0.5,
            base_error=0.35, level_spread=0.1, seed=8,
        )
        injected, estimated = bias_recovery(config, trials=600)
        assert injected == pytest.approx(0.0, abs=1e-12)
        se = math.sqrt(config.n_citing * 0.35 * 0.65 / config.n_cited / 600)
        assert abs(estimated) < 3 * se
        system, _ = generate_system(config)
        assert analyze(system).sigma_sys > 0

    def test_expected_bias_formula(self):
        config = cfg(n_authors=2, papers_per_author=3, n_cited=4,
                     should_cite_prob=0.25, base_error=0.2, bias_shift=0.05)
        # J * ((1 - 2q) e0 + b) = 6 * (0.5 * 0.2 + 0.05)
        assert expected_bias(config) == pytest.approx(6 * 0.15)

    def test_bias_recovery_equals_bias_of_built_systems(self):
        # Each trial takes the TC-EC gap from column counts without building
        # a system; the average must equal citation_bias on validated systems
        # sampled from the same streams.
        from citenoise import build_system, citation_bias
        from citenoise.simulate import _sample_latent, _sample_realized

        config = cfg(n_authors=3, papers_per_author=4, n_cited=5,
                     base_error=0.2, bias_shift=0.05, seed=19)
        total = 0.0
        for child in np.random.SeedSequence(config.seed).spawn(100):
            seq_a, seq_l, seq_flip = (np.random.default_rng(s) for s in child.spawn(3))
            latent = _sample_latent(config, seq_a, seq_l)
            system = build_system(
                [f"a{i}" for i in range(config.n_authors)],
                [(f"p{j}", a) for j, a in enumerate(latent.author_of_paper)],
                [f"c{k}" for k in range(config.n_cited)],
                _sample_realized(latent, seq_flip),
                latent.accurate,
            )
            total += citation_bias(system).bias
        assert bias_recovery(config, 100) == (expected_bias(config), total / 100)
