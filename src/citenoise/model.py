"""Core representation of a social citation system.

A system pairs two J x K binary matrices over the same citing/cited papers:
``realized`` (which citations were actually made) and ``accurate`` (which
citations should have been made). Every downstream statistic is a function
of this pair plus the author -> citing-paper assignment.
"""

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateId,
    EmptySystem,
    NonBinaryEntry,
    UnknownAuthor,
)


class DecisionClass(Enum):
    CORRECT_POSITIVE = "correct_positive"
    CORRECT_NEGATIVE = "correct_negative"
    INCORRECT_POSITIVE = "incorrect_positive"
    INCORRECT_NEGATIVE = "incorrect_negative"


def classify_decision(r, a):
    """Classify a single (realized, accurate) cell pair."""
    if r not in (0, 1) or a not in (0, 1):
        raise NonBinaryEntry(f"decision values must be 0 or 1, got ({r}, {a})")
    if r == 1 and a == 1:
        return DecisionClass.CORRECT_POSITIVE
    if r == 0 and a == 0:
        return DecisionClass.CORRECT_NEGATIVE
    if r == 1 and a == 0:
        return DecisionClass.INCORRECT_POSITIVE
    return DecisionClass.INCORRECT_NEGATIVE


def _as_binary_matrix(rows, name):
    arr = np.asarray(rows)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.isin(arr, (0, 1)).all():
        bad = np.argwhere(~np.isin(arr, (0, 1)))[0]
        raise NonBinaryEntry(
            f"{name}[{bad[0]}][{bad[1]}] = {arr[bad[0], bad[1]]} is not 0 or 1"
        )
    out = arr.astype(np.int8)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CitationSystem:
    """Validated citation system; construct via :func:`build_system`."""

    author_ids: tuple
    citing_papers: tuple  # (paper_id, author_index) pairs, index j
    cited_paper_ids: tuple  # index k
    realized: np.ndarray
    accurate: np.ndarray

    @property
    def n_authors(self):
        return len(self.author_ids)

    @property
    def n_citing(self):
        return len(self.citing_papers)

    @property
    def n_cited(self):
        return len(self.cited_paper_ids)

    def author_of(self, j):
        return self.citing_papers[j][1]

    def papers_of_author(self, i):
        """Row indices of the citing papers authored by author i."""
        if not 0 <= i < self.n_authors:
            raise IndexError(f"author index {i} out of range")
        return [j for j, (_, a) in enumerate(self.citing_papers) if a == i]

    def __eq__(self, other):
        if not isinstance(other, CitationSystem):
            return NotImplemented
        return (
            self.author_ids == other.author_ids
            and self.citing_papers == other.citing_papers
            and self.cited_paper_ids == other.cited_paper_ids
            and np.array_equal(self.realized, other.realized)
            and np.array_equal(self.accurate, other.accurate)
        )


def _check_unique(ids, what):
    seen = set()
    for x in ids:
        if x in seen:
            raise DuplicateId(f"duplicate {what} id: {x!r}")
        seen.add(x)


def _author_index(pid, ai):
    """``ai`` as an int; a bool, float or string is not an author index."""
    try:
        if isinstance(ai, bool):
            raise TypeError
        return operator.index(ai)
    except TypeError:
        raise UnknownAuthor(
            f"citing paper {pid!r} references author index {ai!r}, not an integer"
        ) from None


def build_system(author_ids, citing_papers, cited_paper_ids, realized, accurate):
    """Validate raw inputs and assemble an immutable CitationSystem.

    ``citing_papers`` is a sequence of (paper_id, author_index) pairs; the
    index into ``author_ids`` is an int, not a bool. Matrices are row-major J x K.
    """
    author_ids = tuple(author_ids)
    citing_papers = tuple((pid, _author_index(pid, ai)) for pid, ai in citing_papers)
    cited_paper_ids = tuple(cited_paper_ids)

    if not citing_papers or not cited_paper_ids or not author_ids:
        raise EmptySystem("system needs at least one author, citing and cited paper")

    r = _as_binary_matrix(realized, "realized")
    a = _as_binary_matrix(accurate, "accurate")
    if r.shape != a.shape:
        raise DimensionMismatch(f"realized {r.shape} vs accurate {a.shape}")
    if r.shape != (len(citing_papers), len(cited_paper_ids)):
        raise DimensionMismatch(
            f"matrix shape {r.shape} disagrees with "
            f"{len(citing_papers)} citing x {len(cited_paper_ids)} cited papers"
        )

    _check_unique(author_ids, "author")
    _check_unique([pid for pid, _ in citing_papers], "citing-paper")
    _check_unique(cited_paper_ids, "cited-paper")

    owners = set()
    for pid, ai in citing_papers:
        if not 0 <= ai < len(author_ids):
            raise UnknownAuthor(f"citing paper {pid!r} references author index {ai}")
        owners.add(ai)
    missing = set(range(len(author_ids))) - owners
    if missing:
        raise UnknownAuthor(
            f"authors with no citing papers: "
            f"{[author_ids[i] for i in sorted(missing)]}"
        )

    return CitationSystem(author_ids, citing_papers, cited_paper_ids, r, a)


def error_matrix(system):
    """Read-only J x K int8 array, 1 exactly where realized and accurate differ."""
    e = (system.realized != system.accurate).view(np.int8)
    e.setflags(write=False)
    return e
