"""Seeded generator for synthetic citation systems.

The generative model: an accurate matrix A is sampled cell-wise with
probability ``should_cite_prob``; each realized decision flips its accurate
value independently with probability

    pi[j][k] = clamp(base_error + e_i + u_ik + b_k * dir(A[j][k]), 0, 1)

where e_i is a per-author offset (uniform, half-width ``level_spread``),
u_ik a stable author x cited-paper offset (half-width ``interaction_spread``),
and b_k a directional bias term: dir is +1 on A=0 cells and -1 on A=1
cells, so positive b_k pushes realized counts above expected counts.
Occasion noise is the Bernoulli sampling itself; repeated occasions reuse
the same flip probabilities with fresh randomness.

All randomness flows from ``seed`` through spawned substreams: one for A,
one for the latent offsets, one per replicate. Raising ``replicates``
never perturbs earlier replicates.
"""

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientReplicates, InvalidConfig
from .metrics import _bias, _grouped
from .model import build_system

# Fraction of cells whose unclamped flip probability may leave [0, 1]
# before the configuration is rejected as analytically unusable.
MAX_CLAMPED_FRACTION = 0.01

# The largest spread whose draw range [-spread, spread] has a finite width.
_MAX_SPREAD = sys.float_info.max / 2
# rng.binomial takes its n as a C int64.
_MAX_SAMPLE_SIZE = np.iinfo(np.int64).max

_INT_FIELDS = ("seed", "n_authors", "papers_per_author", "n_cited", "replicates")
_REAL_FIELDS = ("should_cite_prob", "base_error", "level_spread", "interaction_spread")


def _check_finite(name, value):
    """Reject anything but a finite real number; a bool is rejected too."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return
        except OverflowError:  # an int too large for a float
            pass
    raise InvalidConfig(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class GenerativeConfig:
    """Generator parameters, checked when built: a wrong-typed, non-finite or
    out-of-range field raises :class:`InvalidConfig`, so every config that
    exists is valid."""

    seed: int
    n_authors: int = 1
    papers_per_author: int = 1
    n_cited: int = 1
    should_cite_prob: float = 0.5
    base_error: float = 0.0
    level_spread: float = 0.0
    interaction_spread: float = 0.0
    bias_shift: tuple = 0.0  # scalar or per-cited-paper sequence
    replicates: int = 1

    def __post_init__(self):
        if isinstance(self.bias_shift, list):  # e.g. from a JSON config
            object.__setattr__(self, "bias_shift", tuple(self.bias_shift))
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidConfig(f"{name} must be an integer, got {value!r}")
        for name in _REAL_FIELDS:
            _check_finite(name, getattr(self, name))
        shift = self.bias_shift
        for value in shift if isinstance(shift, (tuple, list, np.ndarray)) else [shift]:
            _check_finite("bias_shift", value)
        if self.seed < 0:
            raise InvalidConfig("seed must be nonnegative")
        if self.n_authors < 1 or self.papers_per_author < 1 or self.n_cited < 1:
            raise InvalidConfig("system dimensions must be positive")
        if not 0.0 <= self.should_cite_prob <= 1.0:
            raise InvalidConfig("should_cite_prob must be in [0, 1]")
        if not 0.0 <= self.base_error <= 1.0:
            raise InvalidConfig("base_error must be in [0, 1]")
        if self.level_spread < 0 or self.interaction_spread < 0:
            raise InvalidConfig("spreads must be nonnegative")
        for name in ("level_spread", "interaction_spread"):
            if float(getattr(self, name)) > _MAX_SPREAD:
                raise InvalidConfig(f"{name} must be at most {_MAX_SPREAD!r}")
        if self.replicates < 1:
            raise InvalidConfig("replicates must be >= 1")
        if len(self.bias_offsets()) != self.n_cited:
            raise InvalidConfig(
                f"bias_shift must be scalar or length {self.n_cited}"
            )

    def bias_offsets(self):
        b = self.bias_shift
        if np.isscalar(b):
            return np.full(self.n_cited, float(b))
        return np.asarray(b, dtype=float)

    @property
    def n_citing(self):
        return self.n_authors * self.papers_per_author


@dataclass(frozen=True)
class LatentTruth:
    """Ground-truth propensities behind one generated system."""

    author_offsets: np.ndarray  # shape (n_authors,)
    interaction_offsets: np.ndarray  # shape (n_authors, K)
    bias_offsets: np.ndarray  # shape (K,)
    flip_probs: np.ndarray  # shape (J, K), exactly as used in sampling
    author_of_paper: np.ndarray  # shape (J,)
    accurate: np.ndarray  # shape (J, K)

    def author_mean_flip(self):
        """Per-author mean flip probability over the author's cells."""
        n, sums, _ = self._grouped_flips()
        return sums / n

    def author_level_std(self):
        """Population std of per-author mean flip probabilities."""
        return float(self.author_mean_flip().std())

    def stable_pattern_std(self):
        """Root of the cell-weighted mean within-author variance of flip probs."""
        _, _, within = self._grouped_flips()
        return math.sqrt(within.sum() / self.flip_probs.size)

    def _grouped_flips(self):
        return _grouped(self.flip_probs, self.author_of_paper, len(self.author_offsets))


def _sample_latent(config, rng_accurate, rng_latent):
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
    pi = np.clip(raw, 0.0, 1.0)
    return LatentTruth(
        author_offsets=e,
        interaction_offsets=u,
        bias_offsets=b,
        flip_probs=pi,
        author_of_paper=author_of_paper,
        accurate=accurate,
    )


def _streams(config, n_replicates):
    children = np.random.SeedSequence(config.seed).spawn(2 + n_replicates)
    return (
        np.random.default_rng(children[0]),
        np.random.default_rng(children[1]),
        [np.random.default_rng(c) for c in children[2:]],
    )


def _sample_realized(latent, rng):
    flips = rng.random(latent.flip_probs.shape) < latent.flip_probs
    return np.where(flips, 1 - latent.accurate, latent.accurate).astype(np.int8)


def generate_system(config):
    """Sample one (system, latent truth) pair; deterministic in the seed."""
    rng_a, rng_l, flip_rngs = _streams(config, 1)
    latent = _sample_latent(config, rng_a, rng_l)
    realized = _sample_realized(latent, flip_rngs[0])
    system = build_system(
        [f"author-{i + 1}" for i in range(config.n_authors)],
        [(f"paper-{j + 1}", int(a)) for j, a in enumerate(latent.author_of_paper)],
        [f"cited-{k + 1}" for k in range(config.n_cited)],
        realized,
        latent.accurate,
    )
    return system, latent


def replicate_decisions(config):
    """Sample T realized matrices over one shared latent truth.

    Returns ``(realized, latent)``: a tuple of T int8 J x K matrices and the
    :class:`LatentTruth` they share, which holds the accurate matrix and the
    author labels.
    """
    if config.replicates < 2:
        raise InvalidConfig("occasion decomposition needs replicates >= 2")
    rng_a, rng_l, flip_rngs = _streams(config, config.replicates)
    latent = _sample_latent(config, rng_a, rng_l)
    realized = tuple(_sample_realized(latent, rng) for rng in flip_rngs)
    return realized, latent


def decompose_pattern_noise(realized, latent):
    """Split test-retest pattern variance into stable and occasion parts.

    ``realized`` holds T matrices over the accurate matrix and author labels
    of ``latent``, as :func:`replicate_decisions` returns them.

    Works at the decision-cell level: for each cell the error indicator is
    observed across T occasions. The occasion component is the mean
    within-cell sample variance (ddof=1, which debiases the stable part);
    the total is the variance of all indicators around their author's
    pooled mean; the stable component is the nonnegative remainder.
    """
    t = len(realized)
    if t < 2:
        raise InsufficientReplicates("need at least 2 occasions")
    # Errors are binary, so each cell's error count s over the T occasions is
    # sufficient: the squared deviations of its T indicators around their
    # mean sum to s (T - s) / T, and the kernel's within-author term on s is
    # T^2 times that of the cell means around their author's mean.
    s = np.zeros(latent.accurate.shape, dtype=np.int64)
    for r in realized:
        s += r != latent.accurate
    spread = float((s * (t - s)).sum())
    occasion_var = spread / (t * (t - 1) * s.size)
    _, _, within = _grouped(s, latent.author_of_paper, len(latent.author_offsets))
    total_var = (spread + within.sum()) / (t * t * s.size)

    stable_var = max(0.0, total_var - occasion_var)
    return math.sqrt(stable_var), math.sqrt(occasion_var)


def aggregation_curve(config, sample_sizes, trials):
    """Empirical vs theoretical SE of a mean of n Bernoulli decisions.

    Returns a list of (n, empirical_se, theoretical_se) rows; the citation
    probability p is the config's should_cite_prob.
    """
    if trials < 100:
        raise InvalidConfig("need at least 100 trials")
    if any(not 1 <= n <= _MAX_SAMPLE_SIZE for n in sample_sizes):
        raise InvalidConfig(f"sample sizes must be in [1, {_MAX_SAMPLE_SIZE}]")
    p = config.should_cite_prob
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    rows = []
    for n in sample_sizes:
        means = rng.binomial(n, p, size=trials) / n
        rows.append((int(n), float(means.std(ddof=1)), math.sqrt(p * (1 - p) / n)))
    return rows


def expected_bias(config):
    """Analytic expected TC-EC gap implied by the bias offsets.

    Per cited paper k the expectation over A and the zero-mean offsets is
    J * ((1 - 2q) * base_error + b_k); clamping is ignored, which the
    config validator keeps negligible.
    """
    q = config.should_cite_prob
    per_k = config.n_citing * ((1 - 2 * q) * config.base_error + config.bias_offsets())
    return float(per_k.mean())


def bias_recovery(config, trials):
    """Average measured bias over generated systems vs the analytic value."""
    if trials < 100:
        raise InvalidConfig("need at least 100 trials")
    children = np.random.SeedSequence(config.seed).spawn(trials)
    total = 0.0
    for child in children:
        rng_a, rng_l, rng_flip = map(np.random.default_rng, child.spawn(3))
        latent = _sample_latent(config, rng_a, rng_l)
        realized = _sample_realized(latent, rng_flip)
        # Binary and J x K by construction: the column counts need no system.
        total += _bias(realized.sum(axis=0), latent.accurate.sum(axis=0)).bias
    return expected_bias(config), total / trials
