"""Citation-audit instruments.

Two independent tools live here: the omission indicator, which flags a
paper that fails to cite one of its k most similar predecessors (the
similarity matrix is a precomputed input), and the citation justification
table, a per-citation ledger in a pipe-delimited text format.
"""

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyKey,
    EmptyReason,
    MalformedRow,
    NonSymmetric,
    ParseError,
)
from .model import _as_binary_matrix, _as_integer, _check_unique

SYMMETRY_TOL = 1e-9
JT_HEADER = ("cited work", "section", "knowledge flowed")


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Compared by identity (eq=False): ``==`` on arrays is ambiguous."""

    paper_ids: tuple
    timestamps: tuple
    scores: np.ndarray


def _is_real(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and x == x


def build_similarity(paper_ids, timestamps, scores):
    """Validated similarity matrix. Ids are strings and timestamps all finite
    real numbers or all strings, so (timestamp, id) orders papers strictly."""
    paper_ids = tuple(paper_ids)
    timestamps = tuple(timestamps)
    s = np.array(scores, dtype=float)  # a copy, made read-only below
    n = len(paper_ids)
    if not all(isinstance(p, str) for p in paper_ids):
        raise ParseError("paper ids must be strings")
    str_stamps = all(isinstance(t, str) for t in timestamps)
    if not (str_stamps or all(map(_is_real, timestamps))):
        raise ParseError("timestamps must be all real numbers or all strings")
    if not str_stamps and math.inf in map(abs, timestamps):
        raise ParseError("timestamps must be finite")
    if len(timestamps) != n:
        raise DimensionMismatch("one timestamp per paper id required")
    if s.shape != (n, n):
        raise DimensionMismatch(f"similarity matrix {s.shape} vs {n} papers")
    _check_unique(paper_ids, "paper")
    if not np.isfinite(s).all():
        raise DimensionMismatch("similarity scores must be finite")
    if n and np.abs(s - s.T).max() > SYMMETRY_TOL:
        raise NonSymmetric("similarity matrix is not symmetric")
    off_diag = s[~np.eye(n, dtype=bool)] if n else s
    if off_diag.size and (off_diag.min() < 0.0 or off_diag.max() > 1.0):
        raise DimensionMismatch("similarity scores must lie in [0, 1]")
    s.setflags(write=False)
    return SimilarityMatrix(paper_ids, timestamps, s)


@dataclass(frozen=True, eq=False)
class OmissionFlags:
    """One record per ordered pair of papers where the earlier paper precedes
    the citing one, in (citing id, earlier id) order: ``citing[i]`` and
    ``earlier[i]`` index ``paper_ids``, and ``flag[i]`` is 1 iff the earlier
    paper is in the citing paper's most-similar set but was not cited. The
    three arrays are read-only. Results compare by identity (eq=False): an
    array has no single truth value for ``==``."""

    paper_ids: tuple
    citing: np.ndarray
    earlier: np.ndarray
    flag: np.ndarray

    @property
    def flags(self):
        """{(citing id, earlier id): flag}, in record order."""
        ids = self.paper_ids.__getitem__
        pairs = zip(map(ids, self.citing.tolist()), map(ids, self.earlier.tolist()))
        return dict(zip(pairs, self.flag.tolist()))


def omission_indicator(sim, citations, k):
    """Flag missing citations to each paper's k most similar predecessors.

    ``citations`` is a square binary matrix over sim.paper_ids with
    citations[j][p] = 1 iff paper j cites paper p. Ties in the
    most-similar set break by higher similarity, then earlier timestamp,
    then input order. If k exceeds the number of predecessors, all
    predecessors are used and a warning is emitted. ``k`` is any integer
    (a numpy one too) but a bool.

    Every paper's set is picked at once, with no per-paper loop but the
    warnings: one n x n float temporary holds the negated scores, with +inf
    where the column paper does not precede the row paper, and is partitioned
    in place along each row, so that its k-th column is the row's bound. The
    candidates, the predecessors that reach their row's bound (about n·k
    cells, ties at the bound included), are sorted by that order, and each
    row keeps its first k.
    """
    try:
        k = _as_integer(k)
    except TypeError:
        raise ValueError(f"k must be an integer, got {k!r}") from None
    if k < 1:
        raise ValueError("k must be >= 1")
    c = _as_binary_matrix(citations, "citations")
    n = len(sim.paper_ids)
    if c.shape != (n, n):
        raise DimensionMismatch(f"citations {c.shape} vs {n} papers")

    by_id = np.array(sorted(range(n), key=sim.paper_ids.__getitem__), dtype=np.int64)
    # Publication order: timestamp, ties broken by id (the sort is stable).
    position = np.empty(n, dtype=np.int64)
    position[sorted(by_id, key=sim.timestamps.__getitem__)] = np.arange(n)
    # Timestamps are ranked in Python's own order: as floats, two ints
    # above 2**53 could tie.
    stamp_rank = {t: r for r, t in enumerate(sorted(set(sim.timestamps)))}
    rank = np.array([stamp_rank[t] for t in sim.timestamps], dtype=np.int64)
    # Clamped in Python: numpy 1.x compares an int beyond int64 unsafely.
    kk = min(k, n)

    pred = position[None, :] < position[:, None]  # pred[j, p]: p precedes j
    key = np.negative(sim.scores)
    key[~pred] = np.inf
    if n:
        key.partition(kk - 1, axis=1)
    # Each row's k-th smallest key (+inf if it has fewer predecessors); -s <= t
    # is s >= -t, as negation is exact. When n is 0 the slice is empty.
    rows, cols = np.nonzero(pred & (sim.scores >= -key[:, kk - 1 : kk]))
    del key
    # Most similar first; ties go to the earlier timestamp, then input order.
    order = np.lexsort((cols, rank[cols], -sim.scores[rows, cols], rows))
    sizes = np.bincount(rows, minlength=n)
    in_row = np.arange(len(order)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    keep = order[in_row < kk]
    top = np.zeros((n, n), dtype=bool)
    top[rows[keep], cols[keep]] = True

    # The records, in (citing id, earlier id) order.
    ix = np.ix_(by_id, by_id)
    before = pred[ix]
    counts = before.sum(1)
    for j, m in zip(by_id.tolist(), counts.tolist()):
        if 0 < m < k:  # the first paper has no predecessors
            warnings.warn(
                f"k={k} exceeds {m} predecessors of {sim.paper_ids[j]!r}; "
                "using all of them",
                stacklevel=2,
            )
    arrays = (
        np.repeat(by_id, counts),
        np.broadcast_to(by_id, (n, n))[before],
        (top[ix] & (c[ix] == 0))[before].view(np.int8),
    )
    for a in arrays:
        a.setflags(write=False)
    return OmissionFlags(sim.paper_ids, *arrays)


@dataclass(frozen=True)
class JustificationEntry:
    key: str
    section: str
    reason: str
    line_number: int = field(compare=False)


def canonicalize_key(key):
    """Case-fold, trim, and collapse internal whitespace."""
    return " ".join(key.split()).casefold()


def _split_row(line):
    return [f.strip() for f in line.split("|")]


def parse_justification_table(text):
    """Parse the pipe-delimited justification-table format.

    Returns a tuple of :class:`JustificationEntry`, one per row in file
    order. Rows are ``key | section | reason`` or ``key | reason`` (the
    section then comes from the most recent ``Section: ...`` row). ``#``
    lines are comments; a leading header row is skipped.
    """
    entries = []
    section = ""
    seen_first_row = False
    # A line ends at LF, CRLF or CR only, as in a file opened in text mode.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_number, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = _split_row(line)
        if not seen_first_row:
            seen_first_row = True
            if tuple(f.casefold() for f in fields) in (JT_HEADER, JT_HEADER[::2]):
                continue
        if fields[0].startswith("Section:"):
            if any(f for f in fields[1:]):
                raise MalformedRow("section row has extra fields", line_number)
            section = fields[0][len("Section:"):].strip()
            continue
        if len(fields) == 2:
            key, row_section, reason = fields[0], section, fields[1]
        elif len(fields) == 3:
            key, row_section, reason = fields
            if not row_section:
                row_section = section
        else:
            raise MalformedRow(
                f"expected 2 or 3 fields, got {len(fields)}", line_number
            )
        if not key:
            raise EmptyKey(line_number)
        if not reason:
            raise EmptyReason(line_number)
        entries.append(JustificationEntry(key, row_section, reason, line_number))
    return tuple(entries)


def serialize_justification_table(entries):
    """Emit the canonical three-column form with LF endings."""
    lines = ["Cited work | Section | Knowledge flowed"]
    for e in entries:
        lines.append(f"{e.key} | {e.section} | {e.reason}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AuditReport:
    unjustified_citations: tuple
    orphan_justifications: tuple
    duplicate_entries: tuple
    coverage_ratio: float


def audit_justification(reference_keys, in_text_keys, entries):
    """Cross-check in-text citation keys against justification entries.

    Keys are canonicalized before comparison; a key justified anywhere in
    the table counts as justified for all its in-text occurrences.
    """
    refs = {canonicalize_key(k) for k in reference_keys}
    intext = list(dict.fromkeys(canonicalize_key(k) for k in in_text_keys))
    jt_keys = dict.fromkeys(canonicalize_key(e.key) for e in entries)

    unjustified = tuple(k for k in intext if k not in jt_keys)
    orphans = tuple(k for k in jt_keys if k not in refs)

    seen_pairs = set()
    dupes = {}  # an insertion-ordered set: each repeated pair once
    for e in entries:
        pair = (canonicalize_key(e.key), e.section)
        if pair in seen_pairs:
            dupes[pair] = None
        seen_pairs.add(pair)

    coverage = 1.0 if not intext else (len(intext) - len(unjustified)) / len(intext)
    return AuditReport(
        unjustified_citations=unjustified,
        orphan_justifications=orphans,
        duplicate_entries=tuple(dupes),
        coverage_ratio=coverage,
    )
