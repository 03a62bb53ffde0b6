"""Seeded generator for synthetic citation systems.

The generative model: an accurate matrix A is sampled cell-wise with
probability ``should_cite_prob``; each realized decision flips its accurate
value independently with probability

    pi[j][k] = clamp(base_error + e_i + u_ik + b_k * dir(A[j][k]), 0, 1)

where e_i is a per-author offset (uniform, half-width ``level_spread``),
u_ik a stable author x cited-paper offset (half-width ``interaction_spread``),
and b_k a directional bias term: dir is +1 on A=0 cells and -1 on A=1
cells, so positive b_k pushes realized counts above expected counts.
pi depends on a cell only through its author, its cited paper and A, so it
is computed on two per-author n_authors x K tables, one for each value of
A, and then spread over the J x K cells.
Occasion noise is the Bernoulli sampling itself; repeated occasions reuse
the same flip probabilities with fresh randomness.

All randomness flows from ``seed`` by one key rule: ``_rng(seed, *key)`` is
``default_rng(SeedSequence(seed, spawn_key=key))``, bit for bit the child
``key`` that ``SeedSequence(seed).spawn`` gives, but built from the key
alone. Key (0,) draws A, (1,) the latent offsets, and (2 + t,) occasion t;
trial i of ``bias_recovery`` uses (i, 0), (i, 1) and (i, 2). Threads are
handed keys and build their own generators. ``generate_system`` takes the
first occasion and ``replicate_decisions`` the first T, so raising
``replicates`` never perturbs earlier replicates.

``replicate_decisions`` draws its T occasions in order on one thread per
CPU the process may use, up to two per thread ahead of the reader; the
CLI's ``retest`` is ``decompose_pattern_noise(*replicate_decisions(config))``.
``bias_recovery`` counts each trial's realized citations straight from the
draws and the two per-author tables, without building pi or the realized
matrix, on the same threads, and adds them up in order. So no result
depends on how many CPUs there are.
``aggregation_curve`` draws from the empty key: ``_rng(seed)`` is the
stream of ``SeedSequence(seed)`` itself.
"""

import collections
import functools
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientReplicates, InvalidConfig
from .metrics import _bias, _grouped
from .model import _as_binary_matrix, _as_integer, _iterable, _iterable_of, build_system

# Fraction of cells whose unclamped flip probability may leave [0, 1]
# before the configuration is rejected as analytically unusable.
MAX_CLAMPED_FRACTION = 0.01

# The largest spread whose draw range [-spread, spread] has a finite width.
_MAX_SPREAD = sys.float_info.max / 2
# rng.binomial takes its n as a C int64.
_MAX_SAMPLE_SIZE = np.iinfo(np.int64).max
# The largest count numpy can index: a bound on replicates.
_MAX_SIZE = np.iinfo(np.intp).max
# The most 8-byte items an array may hold: a bound on J x K and on trials.
_MAX_ITEMS = _MAX_SIZE // 8

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
    bias_shift: tuple = 0.0  # scalar or per-cited-paper tuple
    replicates: int = 1

    def __post_init__(self):
        shift = self.bias_shift
        # A list (e.g. from a JSON config), tuple or 1-D array is stored as a
        # tuple; anything else is a scalar.
        if isinstance(shift, (list, tuple)) or (
            isinstance(shift, np.ndarray) and shift.ndim == 1
        ):
            shift = tuple(shift)
            object.__setattr__(self, "bias_shift", shift)
        for name in _INT_FIELDS:
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in _REAL_FIELDS:
            _check_finite(name, getattr(self, name))
        for value in shift if type(shift) is tuple else [shift]:
            _check_finite("bias_shift", value)
        if self.seed < 0:
            raise InvalidConfig("seed must be nonnegative")
        if self.n_authors < 1 or self.papers_per_author < 1 or self.n_cited < 1:
            raise InvalidConfig("system dimensions must be positive")
        if self.n_citing * self.n_cited > _MAX_ITEMS:
            raise InvalidConfig(
                f"system dimensions n_authors * papers_per_author * n_cited must be "
                f"at most {_MAX_ITEMS}"
            )
        if not 0.0 <= self.should_cite_prob <= 1.0:
            raise InvalidConfig("should_cite_prob must be in [0, 1]")
        if not 0.0 <= self.base_error <= 1.0:
            raise InvalidConfig("base_error must be in [0, 1]")
        for name in ("level_spread", "interaction_spread"):
            spread = float(getattr(self, name))
            if spread < 0:
                raise InvalidConfig(f"{name} must be nonnegative")
            if spread > _MAX_SPREAD:
                raise InvalidConfig(f"{name} must be at most {_MAX_SPREAD!r}")
        if self.replicates < 1:
            raise InvalidConfig("replicates must be >= 1")
        if self.replicates > _MAX_SIZE:
            raise InvalidConfig(
                f"replicates must be at most {_MAX_SIZE}, got {self.replicates}"
            )
        if type(shift) is tuple and len(shift) != self.n_cited:
            raise InvalidConfig(
                f"bias_shift must be scalar or length {self.n_cited}"
            )

    def bias_offsets(self):
        b = self.bias_shift
        if type(b) is tuple:
            return np.array(b, dtype=float)
        return np.full(self.n_cited, float(b))

    @property
    def n_citing(self):
        return self.n_authors * self.papers_per_author


@dataclass(frozen=True, eq=False)
class LatentTruth:
    """Ground-truth propensities behind one generated system, compared by
    identity (eq=False): ``==`` on arrays is ambiguous."""

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


def _latent_tables(config, rng_accurate, rng_latent):
    """Draw A, e and u, and tabulate pi per author.

    Returns ``(accurate, ones, hi, lo, (e, u, b))``: the int8 J x K accurate
    matrix, its per-author column counts (n_authors x K), and the flip
    probabilities of A=0 and A=1 cells as n_authors x 1 x K tables, clamped
    to [0, 1]. InvalidConfig if more than MAX_CLAMPED_FRACTION of the cells
    needed the clamp.
    """
    n, ppa, k = config.n_authors, config.papers_per_author, config.n_cited
    accurate = (rng_accurate.random((n * ppa, k)) < config.should_cite_prob).astype(np.int8)

    e = rng_latent.uniform(-config.level_spread, config.level_spread, n)
    u = rng_latent.uniform(-config.interaction_spread, config.interaction_spread, (n, k))
    b = config.bias_offsets()

    # pi depends only on the author, the cited paper and A: one n x K table
    # per value of A, each cell summed in the per-cell formula's order
    # (x + -b is x - b).
    base = (config.base_error + e)[:, None] + u
    hi, lo = base + b, base - b  # A = 0, A = 1
    ones = accurate.reshape(n, ppa, k).sum(axis=1)
    clamped = int((ones * _outside(lo)).sum() + ((ppa - ones) * _outside(hi)).sum())
    if clamped > MAX_CLAMPED_FRACTION * accurate.size:
        raise InvalidConfig(
            f"flip probabilities leave [0, 1] on {clamped}/{accurate.size} cells"
        )
    hi, lo = (np.clip(x, 0.0, 1.0)[:, None] for x in (hi, lo))
    return accurate, ones, hi, lo, (e, u, b)


def _sample_latent(config, rng_accurate, rng_latent):
    accurate, _, hi, lo, (e, u, b) = _latent_tables(config, rng_accurate, rng_latent)
    n, ppa = config.n_authors, config.papers_per_author
    pi = np.where(accurate.reshape(n, ppa, -1), lo, hi).reshape(accurate.shape)
    return LatentTruth(
        author_offsets=e,
        interaction_offsets=u,
        bias_offsets=b,
        flip_probs=pi,
        author_of_paper=np.repeat(np.arange(n), ppa),
        accurate=accurate,
    )


def _outside(raw):
    return (raw < 0.0) | (raw > 1.0)


def _sample_realized(latent, rng):
    return latent.accurate ^ (rng.random(latent.flip_probs.shape) < latent.flip_probs)


def _rng(seed, *key):
    """The generator of ``key``: child ``key`` of ``SeedSequence(seed)``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _check_config(config):
    """TypeError naming ``config`` unless it is a :class:`GenerativeConfig`."""
    if not isinstance(config, GenerativeConfig):
        raise TypeError(f"config must be a GenerativeConfig, not {type(config).__name__}")


def generate_system(config):
    """Sample one (system, latent truth) pair; deterministic in the seed."""
    _check_config(config)
    latent = _sample_latent(config, _rng(config.seed, 0), _rng(config.seed, 1))
    realized = _sample_realized(latent, _rng(config.seed, 2))
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

    Returns ``(realized, latent)``: an iterator over the T int8 J x K
    matrices, drawn in order on one thread per usable CPU, up to two per
    thread ahead of the reader, so that the matrices held do not grow with T
    (``tuple(realized)`` holds all T); and the :class:`LatentTruth` they
    share, which holds the accurate matrix and the author labels. The latent
    truth is sampled, and ``replicates < 2`` rejected (InvalidConfig), by the
    call itself.
    """
    _check_config(config)
    if config.replicates < 2:
        raise InvalidConfig("occasion decomposition needs replicates >= 2")
    latent = _sample_latent(config, _rng(config.seed, 0), _rng(config.seed, 1))

    def draw(t):
        return _sample_realized(latent, _rng(config.seed, t))

    return _in_order(draw, range(2, 2 + config.replicates)), latent


def decompose_pattern_noise(realized, latent):
    """Split test-retest pattern variance into stable and occasion parts.

    ``realized`` is any iterable of T matrices over the accurate matrix and
    author labels of the :class:`LatentTruth` ``latent`` (TypeError naming
    the argument for any other value of either), as
    :func:`replicate_decisions` returns them; each is read once, in turn,
    and must be a 0/1 matrix of the accurate matrix's shape (NonBinaryEntry
    or DimensionMismatch naming ``realized[i]`` otherwise).

    Works at the decision-cell level: for each cell the error indicator is
    observed across T occasions. The occasion component is the mean
    within-cell sample variance (ddof=1, which debiases the stable part);
    the total is the variance of all indicators around their author's
    pooled mean; the stable component is the nonnegative remainder.
    """
    if not isinstance(latent, LatentTruth):
        raise TypeError(f"latent must be a LatentTruth, not {type(latent).__name__}")
    s = np.zeros(latent.accurate.shape, dtype=np.int64)
    # Errors are counted in uint8, which cannot overflow in 255 occasions,
    # and added into s every 255.
    c = np.zeros(s.shape, dtype=np.uint8)
    t = 0
    for t, r in enumerate(_iterable(realized, "realized"), 1):
        r = _as_binary_matrix(r, f"realized[{t - 1}]")
        if r.shape != s.shape:
            raise DimensionMismatch(f"realized[{t - 1}] {r.shape} vs accurate {s.shape}")
        c += r != latent.accurate
        if t % 255 == 0:
            s += c
            c[:] = 0
    s += c
    if t < 2:
        raise InsufficientReplicates("need at least 2 occasions")
    # Errors are binary, so each cell's count s is sufficient: the squared
    # deviations of its T indicators around their mean sum to s (T - s) / T,
    # and the kernel's within-author term on s is T^2 times that of the cell
    # means around their author's mean.
    spread = float((s * (t - s)).sum())
    occasion_var = spread / (t * (t - 1) * s.size)
    _, _, within = _grouped(s, latent.author_of_paper, len(latent.author_offsets))
    total_var = (spread + within.sum()) / (t * t * s.size)

    stable_var = max(0.0, total_var - occasion_var)
    return math.sqrt(stable_var), math.sqrt(occasion_var)


def _integer(name, value):
    """``value`` as an int; InvalidConfig for a bool or a non-integral value."""
    try:
        return _as_integer(value)
    except TypeError:
        raise InvalidConfig(f"{name} must be an integer, got {value!r}") from None


def _check_trials(trials):
    trials = _integer("trials", trials)
    if trials < 100:
        raise InvalidConfig("need at least 100 trials")
    if trials > _MAX_ITEMS:
        raise InvalidConfig(f"trials must be at most {_MAX_ITEMS}, got {trials}")
    return trials


def aggregation_curve(config, sample_sizes, trials):
    """Empirical vs theoretical SE of a mean of n Bernoulli decisions.

    Returns a list of (n, empirical_se, theoretical_se) rows; the citation
    probability p is the config's should_cite_prob. ``trials`` and each
    sample size are integers (numpy ones too) but not bools; ``sample_sizes``
    is an iterable other than a str, TypeError otherwise.
    """
    _check_config(config)
    trials = _check_trials(trials)
    sizes = _iterable_of(sample_sizes, object, "sample_sizes")
    sample_sizes = [_integer("sample size", n) for n in sizes]
    if any(not 1 <= n <= _MAX_SAMPLE_SIZE for n in sample_sizes):
        raise InvalidConfig(f"sample sizes must be in [1, {_MAX_SAMPLE_SIZE}]")
    p = config.should_cite_prob
    rng = _rng(config.seed)
    rows = []
    for n in sample_sizes:
        means = rng.binomial(n, p, size=trials) / n
        rows.append((n, float(means.std(ddof=1)), math.sqrt(p * (1 - p) / n)))
    return rows


def expected_bias(config):
    """Analytic expected TC-EC gap implied by the bias offsets.

    Per cited paper k the expectation over A and the zero-mean offsets is
    J * ((1 - 2q) * base_error + b_k); clamping is ignored, which the
    config validator keeps negligible.
    """
    _check_config(config)
    q = config.should_cite_prob
    per_k = config.n_citing * ((1 - 2 * q) * config.base_error + config.bias_offsets())
    return float(per_k.mean())


def bias_recovery(config, trials):
    """Average measured bias over generated systems vs the analytic value;
    ``trials`` is an integer as in :func:`aggregation_curve`.

    The trials run on one thread per CPU the process may use; trial i draws
    from its own keys (i, ...) and the biases are summed in trial order, so
    the result does not depend on how many CPUs there are.
    """
    _check_config(config)
    trials = _check_trials(trials)
    total = 0.0
    keys = ((i,) for i in range(trials))
    for bias in _in_order(functools.partial(_trial_bias, config), keys):
        total += bias
    return expected_bias(config), total / trials


def _trial_bias(config, key):
    """The TC-EC gap of the system that :func:`generate_system` would sample
    from the keys under the prefix ``key`` (``()`` gives its own), taken from
    column counts: neither pi nor the realized matrix is built, and the draws
    are the same, so every count is too."""
    rng_a, rng_l, rng_flip = (_rng(config.seed, *key, j) for j in range(3))
    accurate, ones, hi, lo, _ = _latent_tables(config, rng_a, rng_l)
    a = accurate.reshape(config.n_authors, -1, config.n_cited).view(bool)
    v = rng_flip.random(a.shape)
    # A cell flips where v < pi: an A=0 cell is then cited, an A=1 cell not.
    # On bools, x > a is x & ~a without a negated copy of a; the gain of
    # each cell, +1, 0 or -1, is summed once.
    g = ((v < hi) > a).view(np.int8)
    g -= ((v < lo) & a).view(np.int8)
    ec = ones.sum(axis=0)
    tc = ec + g.sum(axis=(0, 1))
    return _bias(tc, ec).bias


def _usable_cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _in_order(fn, items):
    """``map(fn, items)``, run on a pool of one thread per usable CPU, so on
    one thread on one CPU: ``items`` is drawn in order on the calling thread,
    at most two calls per thread are in flight, and results come in order.
    An error propagates when its result is reached; the calls not yet
    started are then cancelled and the threads joined, as they are when the
    iterator is closed."""
    workers = _usable_cpus()
    # Imported here, not with the module: the import costs several ms.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers)
    pending = collections.deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
