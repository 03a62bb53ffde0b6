"""Error-decomposition statistics for a citation system.

Conventions: per-paper error rates are means over the K cited papers,
author error rates are unweighted means over the author's papers, system
aggregates weight authors by their paper counts. Level noise is the
between-author standard deviation of error rates, pattern noise the
paper-weighted root-mean of within-author variances, and the two combine
in quadrature into the overall system noise.

:func:`analyze` computes all of them in one pass and returns a
:class:`NoiseReport`; its fields are the only way to read a statistic. The
per-paper statistics are two read-only record arrays, one row per citing
paper (fields ``pr, pa, pe``) and one per cited paper (``pr, tc, ec, pa,
pe``), so ``report.cited_paper_stats[k].tc`` reads one row and
``report.cited_paper_stats.tc`` the whole column; the author statistics are
read-only float64 arrays.
:func:`citation_bias` gives the TC-EC gap alone, from column counts.
"""

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import _check_system, error_matrix


class BiasDirection(Enum):
    OVER = "over"
    UNDER = "under"
    NONE = "none"


@dataclass(frozen=True)
class BiasResult:
    mean_tc: float
    mean_ec: float
    bias: float
    direction: BiasDirection


@dataclass(frozen=True, eq=False)
class NoiseReport:
    """Compared by identity (eq=False): ``==`` on arrays is ambiguous."""

    citing_paper_stats: np.recarray  # pr, pa, pe per citing paper
    author_error_rates: np.ndarray
    author_pattern_noise: np.ndarray
    cited_paper_stats: np.recarray  # pr, tc (realized), ec (accurate), pa, pe
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
    _check_system(system)
    return _bias(system.realized.sum(axis=0), system.accurate.sum(axis=0))


def analyze(system):
    """Every decomposition statistic, from integer error and citation counts."""
    errors = error_matrix(system)  # checks that ``system`` is a system
    j, k = system.n_citing, system.n_cited
    row_errors = np.count_nonzero(errors, axis=1)
    authors = np.fromiter(map(operator.itemgetter(1), system.citing_papers), np.intp, j)
    n, sums, within = _grouped(row_errors, authors, system.n_authors)
    sigma_ln = math.sqrt(float((n * (sums / n - sums.sum() / j) ** 2).sum()) / j) / k
    sigma_pn = math.sqrt(within.sum() / j) / k
    tc = np.count_nonzero(system.realized, axis=0)
    ec = np.count_nonzero(system.accurate, axis=0)
    pe_rows = row_errors / k
    pe_cols = np.count_nonzero(errors, axis=0) / j
    pe_mean = int(row_errors.sum()) / errors.size
    bias = _bias(tc, ec)
    columns = (
        np.rec.fromarrays(
            (np.count_nonzero(system.realized, axis=1) / k, 1.0 - pe_rows, pe_rows),
            names="pr,pa,pe",
        ),
        sums / (n * k),
        np.sqrt(within / n) / k,
        np.rec.fromarrays((tc / j, tc, ec, 1.0 - pe_cols, pe_cols), names="pr,tc,ec,pa,pe"),
    )
    for c in columns:
        c.setflags(write=False)
    return NoiseReport(
        *columns,
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
