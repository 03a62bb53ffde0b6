"""Citation-audit instruments.

Two independent tools live here: the omission indicator, which flags a
paper that fails to cite one of its k most similar predecessors (the
similarity matrix is a precomputed input), and the citation justification
table, a per-citation ledger in a pipe-delimited text format.
"""

import numbers
import warnings
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyKey,
    EmptyReason,
    MalformedRow,
    NonSymmetric,
    ParseError,
)
from .model import _as_binary_matrix

SYMMETRY_TOL = 1e-9
JT_HEADER = ("cited work", "section", "knowledge flowed")


@dataclass(frozen=True)
class SimilarityMatrix:
    paper_ids: tuple
    timestamps: tuple
    scores: np.ndarray


def _is_real(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and x == x


def build_similarity(paper_ids, timestamps, scores):
    """Validated similarity matrix. Ids are strings and timestamps all real
    numbers (not NaN) or all strings, so (timestamp, id) orders papers strictly."""
    paper_ids = tuple(paper_ids)
    timestamps = tuple(timestamps)
    s = np.array(scores, dtype=float)  # a copy, made read-only below
    n = len(paper_ids)
    if not all(isinstance(p, str) for p in paper_ids):
        raise ParseError("paper ids must be strings")
    str_stamps = all(isinstance(t, str) for t in timestamps)
    if not (str_stamps or all(map(_is_real, timestamps))):
        raise ParseError("timestamps must be all real numbers or all strings")
    if len(timestamps) != n:
        raise DimensionMismatch("one timestamp per paper id required")
    if s.shape != (n, n):
        raise DimensionMismatch(f"similarity matrix {s.shape} vs {n} papers")
    if len(set(paper_ids)) != n:
        raise DimensionMismatch("paper ids must be unique")
    if not np.isfinite(s).all():
        raise DimensionMismatch("similarity scores must be finite")
    if n and np.abs(s - s.T).max() > SYMMETRY_TOL:
        raise NonSymmetric("similarity matrix is not symmetric")
    off_diag = s[~np.eye(n, dtype=bool)] if n else s
    if off_diag.size and (off_diag.min() < 0.0 or off_diag.max() > 1.0):
        raise DimensionMismatch("similarity scores must lie in [0, 1]")
    s.setflags(write=False)
    return SimilarityMatrix(paper_ids, timestamps, s)


@dataclass(frozen=True)
class OmissionFlags:
    """flag[(citing_id, earlier_id)] = 1 iff the earlier paper is in the
    citing paper's most-similar set but was not cited. Defined for every
    ordered pair where the second paper precedes the first."""

    flags: dict

    def flagged_pairs(self):
        return sorted(pair for pair, v in self.flags.items() if v == 1)


def omission_indicator(sim, citations, k):
    """Flag missing citations to each paper's k most similar predecessors.

    ``citations`` is a square binary matrix over sim.paper_ids with
    citations[j][p] = 1 iff paper j cites paper p. Ties in the
    most-similar set break by higher similarity, then earlier timestamp,
    then input order. If k exceeds the number of predecessors, all
    predecessors are used and a warning is emitted.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    c = _as_binary_matrix(citations, "citations")
    n = len(sim.paper_ids)
    if c.shape != (n, n):
        raise DimensionMismatch(f"citations {c.shape} vs {n} papers")

    flags = {}
    # Publication order: timestamp, ties broken by id.
    order = sorted(range(n), key=lambda p: (sim.timestamps[p], sim.paper_ids[p]))
    ordered_ids = [sim.paper_ids[p] for p in order]
    # Timestamps are ranked in Python's own order: as floats, two ints
    # above 2**53 could tie.
    stamp_rank = {t: r for r, t in enumerate(sorted(set(sim.timestamps)))}
    rank = np.array([stamp_rank[t] for t in sim.timestamps], dtype=np.int64)
    order = np.array(order, dtype=np.int64)
    for position in range(1, n):  # the first paper has no predecessors
        j, earlier = order[position], order[:position]
        if k > position:
            warnings.warn(
                f"k={k} exceeds {position} predecessors of "
                f"{sim.paper_ids[j]!r}; using all of them",
                stacklevel=2,
            )
        # Most similar first; ties go to the earlier timestamp, then input order.
        top = earlier[np.lexsort((earlier, rank[earlier], -sim.scores[j, earlier]))[:k]]
        flag = np.zeros(n, dtype=np.int8)
        flag[top] = c[j, top] == 0
        flags.update(
            zip(zip(repeat(ordered_ids[position]), ordered_ids[:position]),
                flag[earlier].tolist())
        )
    return OmissionFlags(flags)


@dataclass(frozen=True)
class JustificationEntry:
    key: str
    section: str
    reason: str
    line_number: int = field(compare=False)


@dataclass(frozen=True)
class JustificationTable:
    entries: tuple


def canonicalize_key(key):
    """Case-fold, trim, and collapse internal whitespace."""
    return " ".join(key.split()).casefold()


def _split_row(line):
    return [f.strip() for f in line.split("|")]


def parse_justification_table(text):
    """Parse the pipe-delimited justification-table format.

    Rows are ``key | section | reason`` or ``key | reason`` (the section
    then comes from the most recent ``Section: ...`` row). ``#`` lines are
    comments; a leading header row is skipped.
    """
    entries = []
    section = ""
    seen_first_row = False
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = _split_row(line)
        if not seen_first_row:
            seen_first_row = True
            if tuple(f.casefold() for f in fields) == JT_HEADER or tuple(
                f.casefold() for f in fields
            ) == (JT_HEADER[0], JT_HEADER[2]):
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
    return JustificationTable(tuple(entries))


def serialize_justification_table(jt):
    """Emit the canonical three-column form with LF endings."""
    lines = ["Cited work | Section | Knowledge flowed"]
    for e in jt.entries:
        lines.append(f"{e.key} | {e.section} | {e.reason}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AuditReport:
    unjustified_citations: tuple
    orphan_justifications: tuple
    duplicate_entries: tuple
    coverage_ratio: float


def audit_justification(reference_keys, in_text_keys, jt):
    """Cross-check in-text citation keys against a justification table.

    Keys are canonicalized before comparison; a key justified anywhere in
    the table counts as justified for all its in-text occurrences.
    """
    refs = {canonicalize_key(k) for k in reference_keys}
    intext = list(dict.fromkeys(canonicalize_key(k) for k in in_text_keys))
    jt_keys = dict.fromkeys(canonicalize_key(e.key) for e in jt.entries)

    unjustified = tuple(k for k in intext if k not in jt_keys)
    orphans = tuple(k for k in jt_keys if k not in refs)

    seen_pairs = set()
    dupes = {}  # an insertion-ordered set: each repeated pair once
    for e in jt.entries:
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
