"""Error-decomposition statistics for a citation system.

Conventions: per-paper error rates are means over the K cited papers,
author error rates are unweighted means over the author's papers, system
aggregates weight authors by their paper counts. Level noise is the
between-author standard deviation of error rates, pattern noise the
paper-weighted root-mean of within-author variances, and the two combine
in quadrature into the overall system noise.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class BiasDirection(Enum):
    OVER = "over"
    UNDER = "under"
    NONE = "none"


@dataclass(frozen=True)
class CitingPaperStats:
    pr: float  # proportion of realized citations in the row
    pa: float  # proportion of correct decisions in the row
    pe: float  # 1 - pa


@dataclass(frozen=True)
class CitedPaperStats:
    pr: float  # column share of realized citations
    tc: int  # times cited (column sum of realized)
    ec: int  # expected citations (column sum of accurate)
    pa: float  # column share of correct decisions
    pe: float


@dataclass(frozen=True)
class BiasResult:
    mean_tc: float
    mean_ec: float
    bias: float
    direction: BiasDirection


@dataclass(frozen=True)
class NoiseReport:
    citing_paper_stats: tuple
    author_error_rates: tuple
    author_pattern_noise: tuple
    cited_paper_stats: tuple
    pa_mean: float
    pe_mean: float
    sigma_ln: float
    sigma_pn: float
    sigma_sys: float
    mean_tc: float
    mean_ec: float
    bias: float
    bias_direction: BiasDirection


def _grouped(values, group, n_groups):
    """Per-group cell counts, sums and within-group squared deviations.

    ``values`` is 1-D, or 2-D with every cell of row j in group ``group[j]``.
    Sums come first, so a group of equal values has an exact zero within term.
    """
    values = values.reshape(len(group), -1)
    n = np.bincount(group, minlength=n_groups) * values.shape[1]
    sums = np.bincount(group, weights=values.sum(axis=1), minlength=n_groups)
    dev = values - (sums / n)[group, None]
    within = np.bincount(group, weights=(dev * dev).sum(axis=1), minlength=n_groups)
    return n, sums, within


def _check_index(i, size, what):
    if not 0 <= i < size:
        raise IndexError(f"{what} index {i} out of range")


def citing_paper_stats(system, j):
    _check_index(j, system.n_citing, "citing paper")
    row_r, k = system.realized[j], system.n_cited
    pe = np.count_nonzero(row_r != system.accurate[j]) / k
    return CitingPaperStats(pr=np.count_nonzero(row_r) / k, pa=1.0 - pe, pe=pe)


def author_error_rate(system, i):
    """Mean per-paper error rate over author i's citing papers."""
    _check_index(i, system.n_authors, "author")
    return analyze(system).author_error_rates[i]


def cited_paper_stats(system, k):
    _check_index(k, system.n_cited, "cited paper")
    col_r, col_a, j = system.realized[:, k], system.accurate[:, k], system.n_citing
    tc, ec = np.count_nonzero(col_r), np.count_nonzero(col_a)
    pe = np.count_nonzero(col_r != col_a) / j
    return CitedPaperStats(pr=tc / j, tc=tc, ec=ec, pa=1.0 - pe, pe=pe)


def system_accuracy(system):
    """(mean accuracy, mean error rate) across all citing papers."""
    report = analyze(system)
    return report.pa_mean, report.pe_mean


def level_noise(system):
    """Between-author standard deviation of error rates, paper-weighted."""
    return analyze(system).sigma_ln


def author_pattern_noise(system, i):
    """Within-author standard deviation of per-paper error rates."""
    _check_index(i, system.n_authors, "author")
    return analyze(system).author_pattern_noise[i]


def pattern_noise(system):
    """Root of the paper-weighted mean of squared author pattern noises."""
    return analyze(system).sigma_pn


def system_noise(system):
    return analyze(system).sigma_sys


def _bias(tc, ec):
    """Signed TC-EC gap from per-cited-paper realized and expected counts."""
    mean_tc, mean_ec = float(np.mean(tc)), float(np.mean(ec))
    bias = mean_tc - mean_ec
    if bias > 0:
        direction = BiasDirection.OVER
    elif bias < 0:
        direction = BiasDirection.UNDER
    else:
        direction = BiasDirection.NONE
    return BiasResult(mean_tc=mean_tc, mean_ec=mean_ec, bias=bias, direction=direction)


def citation_bias(system):
    """Signed gap between mean realized and mean expected citation counts."""
    return _bias(system.realized.sum(axis=0), system.accurate.sum(axis=0))


def analyze(system):
    """Every decomposition statistic, from integer error and citation counts."""
    j, k = system.n_citing, system.n_cited
    errors = system.realized != system.accurate
    row_errors = np.count_nonzero(errors, axis=1)
    authors = np.fromiter((a for _, a in system.citing_papers), np.intp, j)
    n, sums, within = _grouped(row_errors, authors, system.n_authors)
    sigma_ln = math.sqrt(float((n * (sums / n - sums.sum() / j) ** 2).sum()) / j) / k
    sigma_pn = math.sqrt(within.sum() / j) / k
    pr_rows = (np.count_nonzero(system.realized, axis=1) / k).tolist()
    tc = np.count_nonzero(system.realized, axis=0)
    ec = np.count_nonzero(system.accurate, axis=0)
    pe_cols = (np.count_nonzero(errors, axis=0) / j).tolist()
    pe_mean = int(row_errors.sum()) / errors.size
    bias = _bias(tc, ec)
    return NoiseReport(
        citing_paper_stats=tuple(
            CitingPaperStats(pr, 1.0 - pe, pe)
            for pr, pe in zip(pr_rows, (row_errors / k).tolist())
        ),
        author_error_rates=tuple((sums / (n * k)).tolist()),
        author_pattern_noise=tuple((np.sqrt(within / n) / k).tolist()),
        cited_paper_stats=tuple(
            CitedPaperStats(t / j, t, e, 1.0 - pe, pe)
            for t, e, pe in zip(tc.tolist(), ec.tolist(), pe_cols)
        ),
        pa_mean=1.0 - pe_mean,
        pe_mean=pe_mean,
        sigma_ln=sigma_ln,
        sigma_pn=sigma_pn,
        sigma_sys=math.hypot(sigma_ln, sigma_pn),
        mean_tc=bias.mean_tc,
        mean_ec=bias.mean_ec,
        bias=bias.bias,
        bias_direction=bias.direction,
    )
