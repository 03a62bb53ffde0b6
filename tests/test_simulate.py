import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
from citenoise import simulate
from citenoise.cli import run_cli
from citenoise.errors import (
    DimensionMismatch,
    InsufficientReplicates,
    InvalidConfig,
    NonBinaryEntry,
)
from citenoise.simulate import MAX_CLAMPED_FRACTION, _sample_latent, _sample_realized


def cfg(**kw):
    kw.setdefault("seed", 1234)
    return GenerativeConfig(**kw)


def on_cpus(n):
    """Patch the CPU-count source so that the process may run on ``n`` CPUs."""
    return mock.patch("os.sched_getaffinity", lambda pid: set(range(n)), create=True)


class Stop(Exception):
    pass


def recording_rng(keys, real=()):
    """A stand-in for ``simulate._rng`` that appends each key it is given to
    ``keys``: a key in ``real`` gets its real generator, any other one a
    generator whose first draw raises Stop."""
    rng = simulate._rng

    class Stopping:
        def random(self, *args):
            raise Stop

    def recording(seed, *key):
        keys.append(key)
        if len(keys) > 1000:  # a loop that builds generators and never draws
            raise Stop
        return rng(seed, *key) if key in real else Stopping()

    return recording


def traced_peak(call):
    """The peak bytes ``tracemalloc`` sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConfigValidation:
    def test_rejects_zero_sizes(self):
        with pytest.raises(InvalidConfig):
            cfg(n_authors=0)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(InvalidConfig):
            cfg(should_cite_prob=1.5)
        with pytest.raises(InvalidConfig):
            cfg(base_error=-0.1)

    def test_rejects_dimensions_whose_product_overflows(self):
        # Checked before anything is sized: J x K is 2**80 cells, or 2**62 or
        # 2**60, more 8-byte items than numpy can size an array for (its own
        # "array is too big" error named no file).
        largest = np.iinfo(np.intp).max // 8
        for dims in ({"n_authors": 2**40, "papers_per_author": 2**40},
                     {"n_authors": 2**62}, {"n_authors": 2**31, "papers_per_author": 2**29}):
            with pytest.raises(InvalidConfig, match=rf"n_authors \* papers_per_author \* "
                                                    rf"n_cited must be at most {largest}$"):
                cfg(**dims)
        assert cfg(n_authors=largest).n_citing == largest

    def test_rejects_replicates_beyond_intp(self):
        largest = np.iinfo(np.intp).max
        with pytest.raises(InvalidConfig, match=rf"^replicates must be at most {largest}, "
                                                rf"got {2**70}$"):
            cfg(replicates=2**70)
        assert cfg(replicates=largest).replicates == largest

    def test_rejects_mismatched_bias_vector(self):
        with pytest.raises(InvalidConfig):
            cfg(n_cited=3, bias_shift=(0.1, 0.2))

    def test_scalar_bias_allocates_nothing_sized_by_n_cited(self):
        # A per-cited-paper vector would take 80 MB here.
        assert traced_peak(lambda: GenerativeConfig(seed=1, n_cited=10**7)) < 2**20

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
            ("bias_shift", np.array(0.1)),
            ("replicates", 0),
            ("level_spread", -0.1),
            pytest.param("base_error", 10**400, id="base_error-10**400"),
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
        for shift in ([0.1, 0.2], np.array([0.1, 0.2])):
            config = cfg(n_cited=2, bias_shift=shift)
            assert type(config.bias_shift) is tuple and config.bias_shift == (0.1, 0.2)
            assert hash(config) == hash(cfg(n_cited=2, bias_shift=(0.1, 0.2)))

    def test_accepts_ints_for_floats_and_numpy_scalars(self):
        config = cfg(n_authors=np.int64(2), base_error=0, level_spread=np.float64(0.1))
        assert type(config.n_authors) is int
        # 2**64 cells: a product of numpy int64s wraps to 0 and would pass the bound.
        with pytest.raises(InvalidConfig):
            GenerativeConfig(seed=1, n_authors=np.int64(2**32),
                             papers_per_author=np.int64(2**32))

    def test_rejects_heavy_clamping(self):
        with pytest.raises(InvalidConfig):
            generate_system(
                cfg(n_authors=5, papers_per_author=4, n_cited=10,
                    base_error=0.0, bias_shift=0.5, should_cite_prob=0.5)
            )


def per_cell_latent(config, rng_accurate, rng_latent):
    """The per-cell formula the per-author tables replaced: ``(flip_probs,
    accurate, clamped)``, or the InvalidConfig it raised."""
    j, k = config.n_citing, config.n_cited
    accurate = (rng_accurate.random((j, k)) < config.should_cite_prob).astype(np.int8)
    e = rng_latent.uniform(-config.level_spread, config.level_spread, config.n_authors)
    u = rng_latent.uniform(
        -config.interaction_spread, config.interaction_spread, (config.n_authors, k)
    )
    b = config.bias_offsets()
    author_of_paper = np.repeat(np.arange(config.n_authors), config.papers_per_author)
    direction = np.where(accurate == 0, 1.0, -1.0)
    raw = (
        config.base_error
        + e[author_of_paper][:, None]
        + u[author_of_paper]
        + b[None, :] * direction
    )
    clamped = np.count_nonzero((raw < 0.0) | (raw > 1.0))
    if clamped > MAX_CLAMPED_FRACTION * raw.size:
        raise InvalidConfig(
            f"flip probabilities leave [0, 1] on {clamped}/{raw.size} cells"
        )
    return np.clip(raw, 0.0, 1.0), accurate, clamped


def streams(seed, n):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


unit = st.floats(0.0, 1.0)


@st.composite
def sampler_configs(draw):
    """Configs whose every flip probability lies in [0, 1], so that the
    sampler accepts each: the half-widths of e, u and b share the room that
    base_error leaves to 0 and to 1, less an allowance for the rounding of
    their sum."""
    k = draw(st.integers(1, 6))
    base_error = draw(unit)
    room = min(base_error, 1.0 - base_error) * (1 - 1e-9)
    level = draw(st.floats(0.0, room))
    interaction = draw(st.floats(0.0, room - level))
    width = room - level - interaction
    shift = st.floats(-width, width)
    return cfg(
        seed=draw(st.integers(0, 2**32)),
        n_authors=draw(st.integers(1, 5)),
        papers_per_author=draw(st.integers(1, 5)),
        n_cited=k,
        should_cite_prob=draw(unit),
        base_error=base_error,
        level_spread=level,
        interaction_spread=interaction,
        bias_shift=draw(shift | st.tuples(*[shift] * k)),
    )


# 100 x 200 cells, one cited paper's 100 cells pushed out of [0, 1]: 0.5%
# of the cells are clamped, under the 1% that is rejected.
CLAMPED = [
    cfg(n_authors=10, papers_per_author=10, n_cited=200, base_error=0.5,
        interaction_spread=0.05, bias_shift=(0.6,) + (0.0,) * 199),
    cfg(n_authors=10, papers_per_author=10, n_cited=200, base_error=0.5,
        level_spread=0.02, bias_shift=(0.0,) * 150 + (-0.7,) + (0.01,) * 49, seed=7),
]


class TestSamplerOracle:
    """The per-author tables give every cell the bits of the per-cell formula."""

    @given(sampler_configs())
    @example(cfg(n_authors=1, papers_per_author=1, n_cited=1, base_error=0.3))
    @example(cfg(n_authors=1, papers_per_author=3, n_cited=1, bias_shift=-0.2,
                 base_error=0.25, interaction_spread=0.1))
    @example(cfg(n_authors=3, papers_per_author=1, n_cited=2, bias_shift=(0.4, -0.5),
                 base_error=0.5, level_spread=0.2))
    @example(cfg(n_authors=2, papers_per_author=2, n_cited=3, base_error=0.0,
                 bias_shift=0.3))  # every A = 1 cell leaves [0, 1]
    @example(CLAMPED[0])
    @example(CLAMPED[1])
    def test_latent_matches_per_cell_formula(self, config):
        try:
            expected = per_cell_latent(config, *streams(config.seed, 2))
        except InvalidConfig as exc:
            with pytest.raises(InvalidConfig) as got:
                _sample_latent(config, *streams(config.seed, 2))
            assert str(got.value) == str(exc)
            return
        flip_probs, accurate, _ = expected
        latent = _sample_latent(config, *streams(config.seed, 2))
        assert latent.accurate.dtype == np.int8
        assert latent.flip_probs.tobytes() == flip_probs.tobytes()
        assert latent.accurate.tobytes() == accurate.tobytes()

    @pytest.mark.parametrize("config", CLAMPED)
    def test_clamped_cells_under_the_limit_are_sampled(self, config):
        flip_probs, _, clamped = per_cell_latent(config, *streams(config.seed, 2))
        assert 0 < clamped <= MAX_CLAMPED_FRACTION * flip_probs.size
        latent = _sample_latent(config, *streams(config.seed, 2))
        assert latent.flip_probs.tobytes() == flip_probs.tobytes()
        assert ((latent.flip_probs == 0.0) | (latent.flip_probs == 1.0)).any()

    def test_rejection_counts_clamped_cells_of_both_tables(self):
        # Cited paper 0 leaves [0, 1] on all 4 of its cells: above 1 where
        # A = 0, below 0 where A = 1; both values of A occur.
        config = cfg(n_authors=2, papers_per_author=2, n_cited=2, base_error=0.5,
                     bias_shift=(0.6, 0.0))
        accurate = streams(config.seed, 1)[0].random((4, 2)) < config.should_cite_prob
        assert 0 < accurate[:, 0].sum() < 4
        message = r"^flip probabilities leave \[0, 1\] on 4/8 cells$"
        with pytest.raises(InvalidConfig, match=message):
            per_cell_latent(config, *streams(config.seed, 2))
        with pytest.raises(InvalidConfig, match=message):
            _sample_latent(config, *streams(config.seed, 2))

    @given(sampler_configs())
    def test_realized_matches_where(self, config):
        latent = _sample_latent(config, *streams(config.seed, 2))
        rng_new, rng_old = (np.random.default_rng(config.seed) for _ in range(2))
        flips = rng_old.random(latent.flip_probs.shape) < latent.flip_probs
        expected = np.where(flips, 1 - latent.accurate, latent.accurate).astype(np.int8)
        got = _sample_realized(latent, rng_new)
        assert got.dtype == np.int8
        assert np.array_equal(got, expected)

    def test_sampling_holds_no_cell_sized_temporaries(self):
        # The random draws and pi, each J x K float64, and little more: the
        # per-cell formula peaked at over 3 times J x K x 8 bytes.
        config = cfg(seed=1, n_authors=100, papers_per_author=20, n_cited=100,
                     base_error=0.15, level_spread=0.05, interaction_spread=0.03,
                     bias_shift=0.02, should_cite_prob=0.3)
        peak = traced_peak(lambda: _sample_latent(config, *streams(1, 2)))
        assert peak < 2 * config.n_citing * config.n_cited * 8


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

    def test_latent_truth_compares_by_identity(self):
        # Equal-valued latent truths compare unequal rather than raise
        # numpy's "truth value of an array is ambiguous".
        config = cfg(n_authors=2, papers_per_author=2, n_cited=3, base_error=0.2)
        (_, a), (_, b) = generate_system(config), generate_system(config)
        assert a == a
        assert a != b

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

    def test_replicate_t_draws_from_child_2_plus_t(self):
        config = cfg(n_authors=2, papers_per_author=3, n_cited=4, base_error=0.3,
                     replicates=4)
        children = np.random.SeedSequence(config.seed).spawn(2 + config.replicates)
        latent = _sample_latent(config, *map(np.random.default_rng, children[:2]))
        realized, got = replicate_decisions(config)
        realized = tuple(realized)
        assert np.array_equal(got.flip_probs, latent.flip_probs)
        assert len(realized) == config.replicates
        for r, child in zip(realized, children[2:]):
            assert np.array_equal(r, _sample_realized(latent, np.random.default_rng(child)))

    @given(sampler_configs(), st.integers(2, 4))
    def test_occasion_t_draws_from_child_2_plus_t(self, config, t):
        config = dataclasses.replace(config, replicates=t)
        realized, latent = replicate_decisions(config)
        children = np.random.SeedSequence(config.seed).spawn(2 + t)
        for r, child in zip(realized, children[2:], strict=True):
            expected = _sample_realized(latent, np.random.default_rng(child))
            assert r.dtype == np.int8
            assert r.tobytes() == expected.tobytes()

    @given(sampler_configs())
    def test_generate_system_realizes_the_first_occasion(self, config):
        system, latent = generate_system(config)
        realized, shared = replicate_decisions(dataclasses.replace(config, replicates=2))
        assert system.realized.tobytes() == next(realized).tobytes()
        assert latent.flip_probs.tobytes() == shared.flip_probs.tobytes()

    @pytest.mark.parametrize(
        "config, message",
        [(cfg(replicates=1), r"^occasion decomposition needs replicates >= 2$"),
         (cfg(n_authors=2, papers_per_author=2, n_cited=2, base_error=0.5,
              bias_shift=(0.6, 0.0), replicates=2),
          r"^flip probabilities leave \[0, 1\] on 4/8 cells$")],
        ids=["one-replicate", "flip-probabilities"],
    )
    def test_rejects_a_config_when_called_not_when_drawn(self, config, message):
        with mock.patch.object(simulate, "_sample_realized") as sample:
            with pytest.raises(InvalidConfig, match=message):
                replicate_decisions(config)
        sample.assert_not_called()

    def test_retest_spawns_each_replicate_as_it_runs(self, tmp_path):
        # replicates 10**9, stopped at the first flip draw: besides A's and
        # the latent offsets' keys, no more occasion keys were requested than
        # the replicates in flight, one serially and two per thread on
        # several CPUs, so the work before the first result does not grow
        # with T.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1, "base_error": 0.2, "replicates": 10**9}))
        for cpus, window in ((1, 1), (4, 8)):
            keys = []
            rng = recording_rng(keys, real=((0,), (1,)))
            with on_cpus(cpus), mock.patch.object(simulate, "_rng", rng), \
                    pytest.raises(Stop):
                run_cli(["retest", "--config", str(config)])
            assert keys[:2] == [(0,), (1,)]
            occasions = keys[2:]
            assert (2,) in occasions
            assert 1 <= len(occasions) <= window

    def test_replicates_are_bit_identical_on_any_cpu_count(self):
        config = cfg(n_authors=3, papers_per_author=4, n_cited=5, base_error=0.3,
                     interaction_spread=0.1, replicates=20)
        runs = []
        for cpus in (1, 2, 4):
            with on_cpus(cpus):
                realized, _ = replicate_decisions(config)
                runs.append([(r.dtype, r.shape, r.tobytes()) for r in realized])
        assert len(runs[0]) == 20
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_closing_the_replicates_joins_their_threads(self):
        before = threading.active_count()
        with on_cpus(4):
            realized, _ = replicate_decisions(cfg(base_error=0.2, replicates=100))
            next(realized)
            assert threading.active_count() > before
            realized.close()
        assert threading.active_count() == before

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
            decompose_pattern_noise(tuple(realized)[:1], latent)

    @pytest.mark.parametrize(
        "replicate, error, message",
        [(lambda r: r[:1], DimensionMismatch, r"^realized\[0\] \(1, 5\) vs accurate \(12, 5\)$"),
         (lambda r: r[0], DimensionMismatch, r"^realized\[0\] must be a 2-D matrix, got ndim=1$"),
         (lambda r: np.full_like(r, 7), NonBinaryEntry,
          r"^realized\[0\]\[0\]\[0\] = 7 is not 0 or 1$"),
         (lambda r: np.zeros((12, 2), np.int8), DimensionMismatch,
          r"^realized\[0\] \(12, 2\) vs accurate \(12, 5\)$"),
         (lambda r: [*r.tolist()[:-1], [0, 1]], DimensionMismatch,
          r"^realized\[0\] must be a 2-D matrix, got ragged rows$")],
        ids=["one-row", "one-row-1-d", "sevens", "wrong-shape", "ragged"],
    )
    def test_rejects_a_replicate_that_is_not_a_0_1_matrix_of_its_shape(
        self, replicate, error, message
    ):
        """Each replicate is checked as it is read: without the check, a
        single row broadcast over all rows, and a matrix of 7s gave (0, 0)."""
        realized, latent = replicate_decisions(
            cfg(n_authors=3, papers_per_author=4, n_cited=5, base_error=0.2,
                interaction_spread=0.2, replicates=3)
        )
        with pytest.raises(error, match=message):
            decompose_pattern_noise([replicate(r) for r in realized], latent)

    def test_names_the_replicate_at_fault(self):
        realized, latent = replicate_decisions(cfg(n_cited=2, base_error=0.2, replicates=3))
        realized = tuple(realized)
        bad = (*realized[:2], realized[2] * 2 + 1)
        with pytest.raises(NonBinaryEntry, match=r"^realized\[2\]\[0\]"):
            decompose_pattern_noise(bad, latent)
        assert decompose_pattern_noise(
            [r.astype(np.int64).tolist() for r in realized], latent
        ) == decompose_pattern_noise(realized, latent)

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

    def test_counts_errors_past_255_occasions(self):
        # Cells that err on all 300 occasions count past what a uint8 holds.
        _, latent = replicate_decisions(
            cfg(n_authors=2, papers_per_author=2, n_cited=3, base_error=0.3, replicates=2)
        )
        wrong = 1 - latent.accurate
        wrong[0] = latent.accurate[0]  # the first paper's cells never err
        realized = [wrong] * 300
        got = decompose_pattern_noise(realized, latent)
        assert got == pytest.approx(stacked_decomposition(realized, latent), abs=1e-12)
        assert got == pytest.approx((math.sqrt(0.125), 0.0), abs=1e-12)

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
        realized = tuple(realized)
        stable, occasion = decompose_pattern_noise(realized, latent)
        errors = np.stack([np.abs(r - latent.accurate) for r in realized]).astype(float)
        total = 0.0
        for i in np.unique(latent.author_of_paper):
            block = errors[:, latent.author_of_paper == i, :]
            total += block[0].size * ((block - block.mean()) ** 2).mean()
        total /= errors.shape[1] * errors.shape[2]
        assert stable**2 + occasion**2 == pytest.approx(total, abs=1e-9)


class TestRetestCount:
    """The CLI's retest is ``decompose_pattern_noise(*replicate_decisions(
    config))``: the replicates are drawn on threads and each cell's errors
    counted in uint8, added into the total every 255 occasions. Its floats
    must not depend on the CPU count and must match the stacked formula."""

    @given(sampler_configs(), st.integers(2, 20))
    @example(CLAMPED[0], 3)
    @example(cfg(n_authors=4, papers_per_author=3, n_cited=5, base_error=0.3,
                 interaction_spread=0.2), 9)
    @example(cfg(n_authors=4, papers_per_author=3, n_cited=5, base_error=0.3,
                 interaction_spread=0.2), 16)
    @example(cfg(n_authors=4, papers_per_author=3, n_cited=5, base_error=0.3,
                 interaction_spread=0.2), 17)
    # One flush of the uint8 counts after 255 occasions, and one at the end.
    @example(cfg(n_authors=4, papers_per_author=3, n_cited=5, base_error=0.3,
                 interaction_spread=0.2), 256)
    # Error counts [8, 6, 7, 5, 4] of 9: the stable variance is exactly 0,
    # and the sqrt of a float formula's rounding would read 5e-09.
    @example(cfg(seed=1, n_authors=1, papers_per_author=1, n_cited=5, base_error=0.5625,
                 level_spread=0.25, interaction_spread=0.03125, bias_shift=0.03125), 9)
    def test_equals_the_checked_decomposition_on_any_cpu_count(self, config, t):
        config = dataclasses.replace(config, replicates=t)
        got = set()
        for cpus in (1, 2, 4):
            with mock.patch.object(simulate, "_usable_cpus", lambda: cpus):
                got.add(decompose_pattern_noise(*replicate_decisions(config)))
        assert len(got) == 1
        stable, occasion = got.pop()
        expected = exact_variances(*replicate_decisions(config))
        assert (stable**2, occasion**2) == pytest.approx(expected, abs=1e-12)

    def test_an_error_in_a_workers_draw_propagates(self):
        # Occasion 13, key (2 + 13,), fails; the draws run on pool threads,
        # all joined, on any CPU count.
        class Boom(Exception):
            pass

        threads = set()
        default_rng = np.random.default_rng

        class Failing:
            def random(self, shape):
                threads.add(threading.current_thread())
                raise Boom

        def rng(seed):
            return Failing() if seed.spawn_key == (2 + 13,) else default_rng(seed)

        config = cfg(n_authors=2, papers_per_author=2, n_cited=3, base_error=0.2,
                     replicates=40)
        before = threading.active_count()
        for cpus in (1, 4):
            threads.clear()
            with on_cpus(cpus), mock.patch("numpy.random.default_rng", rng), \
                    pytest.raises(Boom):
                decompose_pattern_noise(*replicate_decisions(config))
            assert threading.active_count() == before
            assert len(threads) == 1 and threading.current_thread() not in threads

    def test_memory_does_not_grow_with_the_replicates(self):
        # The replicates in flight, not one matrix per occasion: T = 100
        # int8 replicates alone would take 20 MB here.
        config = cfg(seed=1, n_authors=100, papers_per_author=20, n_cited=100,
                     base_error=0.15, level_spread=0.05, interaction_spread=0.03,
                     bias_shift=0.02, should_cite_prob=0.3)
        few, many = (dataclasses.replace(config, replicates=t) for t in (10, 100))

        def peak(config):
            return traced_peak(lambda: decompose_pattern_noise(*replicate_decisions(config)))

        with on_cpus(2):
            peak(few)  # numpy's and the thread pool's one-off allocations
            assert peak(many) < 1.25 * peak(few)


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


def exact_variances(realized, latent):
    """(stable, occasion) variances of the replicates, exact as Fractions of
    each cell's error count c of T, rounded once to floats. An error is 0 or
    1, so its square is itself: a cell's occasion variance is
    c (T - c) / (T (T - 1)), and an author's block of N = T n K errors, with
    sum S, has mean squared deviation S / N - (S / N)^2."""
    realized = list(realized)
    t = len(realized)
    counts = sum(np.abs(r.astype(np.int64) - latent.accurate) for r in realized)
    j, k = counts.shape
    occasion = sum(Fraction(c * (t - c), t * (t - 1)) for c in counts.ravel().tolist())
    occasion /= j * k
    total = Fraction(0)
    for i in np.unique(latent.author_of_paper):
        block = counts[latent.author_of_paper == i]
        share = Fraction(int(block.sum()), t * block.size)
        total += block.size * (share - share**2)
    total /= j * k
    return float(max(Fraction(0), total - occasion)), float(occasion)


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
        realized, latent = replicate_decisions(cfg(**config))
        reps = tuple(realized), latent
        for case in (reps, shuffled_rows(*reps, rng)):
            got = decompose_pattern_noise(*case)
            assert got == pytest.approx(stacked_decomposition(*case), abs=1e-12)

    def test_identical_replicates_match_stacked_formula(self):
        realized, latent = replicate_decisions(
            cfg(n_authors=3, papers_per_author=8, n_cited=4, base_error=1.0,
                replicates=3)
        )
        reps = tuple(realized), latent
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

    @pytest.mark.parametrize("trials", [150.0, True, np.bool_(True), "150", None])
    def test_rejects_non_integer_trials(self, trials):
        with pytest.raises(InvalidConfig, match="^trials must be an integer, got "):
            aggregation_curve(cfg(), [10], trials)

    @pytest.mark.parametrize("n", [1.5, 2.0, True, np.bool_(True), np.float64(3), "2"])
    def test_rejects_non_integer_sample_sizes(self, n):
        # Before, 1.5 gave a row labelled n=1 with the theoretical SE of
        # n=1.5, and True was taken as n=1.
        with pytest.raises(InvalidConfig, match="^sample size must be an integer, got "):
            aggregation_curve(cfg(), [10, n], 100)

    def test_accepts_numpy_integers(self):
        rows = aggregation_curve(cfg(seed=4), [np.int64(10), np.uint8(20)], np.int32(100))
        assert rows == aggregation_curve(cfg(seed=4), [10, 20], 100)
        assert all(type(n) is int for n, _, _ in rows)

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

    def test_child_seeds_are_spawned_as_the_trials_run(self):
        # Stopped at the first draw: of the other 49,999 trials, no more
        # requested their keys (i, 0), (i, 1) and (i, 2) than the in-flight
        # window holds, one serially and two per thread on several CPUs.
        def run():
            with pytest.raises(Stop):
                bias_recovery(cfg(), trials=50_000)

        for cpus, window in ((1, 1), (4, 8)):
            keys = []
            with on_cpus(cpus), mock.patch.object(simulate, "_rng", recording_rng(keys)):
                assert traced_peak(run) < 2 * 2**20
            trials = {key[:1] for key in keys}
            assert (0,) in trials
            assert 1 <= len(trials) <= window
            assert sorted(keys) == sorted(t + (j,) for t in trials for j in range(3))

    @pytest.mark.parametrize("trials", [150.0, True, np.bool_(True), np.float64(100)])
    def test_rejects_non_integer_trials(self, trials):
        with pytest.raises(InvalidConfig, match="^trials must be an integer, got "):
            bias_recovery(cfg(), trials)

    def test_accepts_numpy_integer_trials(self):
        config = cfg(n_authors=2, papers_per_author=2, n_cited=3, base_error=0.2)
        assert bias_recovery(config, np.int64(100)) == bias_recovery(config, 100)

    def test_rejects_trials_beyond_intp(self):
        # Rejected before any substream is spawned.
        with pytest.raises(InvalidConfig, match="trials must be at most"):
            bias_recovery(cfg(), trials=np.iinfo(np.intp).max + 1)

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
        # pi, the realized matrix or a system; the average must equal
        # citation_bias on validated systems sampled from the same streams,
        # bit for bit, however many CPUs run the trials.
        from citenoise import build_system, citation_bias

        for bias_shift in (0.05, (0.1, -0.05, 0.0, -0.1, 0.03)):
            config = cfg(n_authors=3, papers_per_author=4, n_cited=5,
                         base_error=0.2, bias_shift=bias_shift, seed=19)
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
            for cpus in (1, 2, 4):
                with on_cpus(cpus):
                    got = bias_recovery(config, 100)
                assert got == (expected_bias(config), total / 100)

    @given(sampler_configs())
    @example(CLAMPED[0])
    @example(CLAMPED[1])
    @example(cfg(n_authors=2, papers_per_author=2, n_cited=3, base_error=0.0,
                 bias_shift=0.3))  # rejected: every A = 1 cell leaves [0, 1]
    def test_trial_counts_match_the_realized_matrix(self, config):
        # The same draws as generate_system, compared with the clamped
        # tables in place of pi: the same gap, or the same InvalidConfig.
        from citenoise import citation_bias

        try:
            system, _ = generate_system(config)
        except InvalidConfig as exc:
            with pytest.raises(InvalidConfig) as err:
                simulate._trial_bias(config, ())
            assert str(err.value) == str(exc)
            return
        got = simulate._trial_bias(config, ())
        assert got == citation_bias(system).bias

    def test_cpu_count_falls_back_to_os_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert simulate._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undetermined
        assert simulate._usable_cpus() == 1

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_trials_run_on_threads_and_add_up_in_order(self, cpus):
        # Trial 0 finishes last; its 2**53 absorbs each later 1.0 only when
        # it is added first.
        threads = set()

        def trial(config, key):
            threads.add(threading.current_thread())
            if key == (0,):
                threading.Event().wait(0.05)
                return 2.0**53
            return 1.0

        with on_cpus(cpus), mock.patch("citenoise.simulate._trial_bias", trial):
            _, measured = bias_recovery(cfg(), 100)
        assert measured == 2.0**53 / 100
        if cpus == 1:
            assert len(threads) == 1 and threading.current_thread() not in threads
        else:
            assert threading.current_thread() not in threads
            assert 1 < len(threads) <= cpus

    def test_clamp_error_is_trial_zeros_on_any_cpu_count(self):
        # Every trial fails the clamp check, each with its own count; the
        # one raised is trial 0's, as when the trials run in turn.
        config = cfg(n_authors=20, papers_per_author=5, n_cited=10,
                     base_error=0.0, level_spread=0.3, seed=3)
        messages = []
        for child in np.random.SeedSequence(config.seed).spawn(2):
            with pytest.raises(InvalidConfig) as err:
                _sample_latent(config, *map(np.random.default_rng, child.spawn(2)))
            messages.append(str(err.value))
        assert messages[0] != messages[1]
        before = threading.active_count()
        for cpus in (1, 4):
            with on_cpus(cpus), pytest.raises(InvalidConfig) as err:
                bias_recovery(config, 100)
            assert str(err.value) == messages[0]
            assert threading.active_count() == before

    def test_an_error_in_a_later_trial_propagates(self):
        class Boom(Exception):
            pass

        trial_bias = simulate._trial_bias

        def failing(config, key):
            if key == (57,):
                raise Boom
            return trial_bias(config, key)

        config = cfg(n_authors=2, papers_per_author=2, n_cited=3, base_error=0.2)
        before = threading.active_count()
        for cpus in (1, 4):
            with on_cpus(cpus), mock.patch("citenoise.simulate._trial_bias", failing), \
                    pytest.raises(Boom):
                bias_recovery(config, 100)
            assert threading.active_count() == before

    def test_a_trial_holds_one_float_matrix(self):
        # The flip draws are the one J x K float64 array a trial holds; a
        # trial through _sample_latent and _sample_realized also built pi.
        config = cfg(seed=1, n_authors=100, papers_per_author=20, n_cited=100,
                     base_error=0.15, level_spread=0.05, interaction_spread=0.03,
                     bias_shift=0.02, should_cite_prob=0.3)

        def trial():
            simulate._trial_bias(config, ())

        def through_pi():
            rng_a, rng_l, rng_flip = map(
                np.random.default_rng, np.random.SeedSequence(1).spawn(3)
            )
            latent = _sample_latent(config, rng_a, rng_l)
            _sample_realized(latent, rng_flip).sum(axis=0)

        trial(), through_pi()  # numpy's one-off allocations on first use
        bound = 2 * config.n_citing * config.n_cited * 8
        assert traced_peak(trial) < bound < traced_peak(through_pi)


def test_importing_the_cli_loads_no_thread_pool():
    # concurrent.futures adds several ms to the import; bias_recovery
    # imports it only when it first runs trials on threads.
    src = str(Path(simulate.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, path]))}
    code = "import sys, citenoise, citenoise.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
