"""Core representation of a social citation system.

A system pairs two J x K binary matrices over the same citing/cited papers:
``realized`` (which citations were actually made) and ``accurate`` (which
citations should have been made). Every downstream statistic is a function
of this pair plus the author -> citing-paper assignment.
"""

import numbers
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
    """Classify a single (realized, accurate) cell pair; TypeError naming the
    argument for an array of one or more dimensions."""
    for name, value in (("r", r), ("a", a)):
        if getattr(value, "ndim", 0):
            raise TypeError(f"{name} must be a single value, not an array of shape {value.shape}")
    if r not in (0, 1) or a not in (0, 1):
        raise NonBinaryEntry(f"decision values must be 0 or 1, got ({r}, {a})")
    if r == 1 and a == 1:
        return DecisionClass.CORRECT_POSITIVE
    if r == 0 and a == 0:
        return DecisionClass.CORRECT_NEGATIVE
    if r == 1 and a == 0:
        return DecisionClass.INCORRECT_POSITIVE
    return DecisionClass.INCORRECT_NEGATIVE


def _binary_int8(arr):
    """Whether the int8 array ``arr`` holds only 0 and 1, read in place: in
    its uint8 view a negative cell wraps to 128 or more."""
    return arr.size == 0 or arr.view(np.uint8).max() <= 1


def _check_real(arr, name):
    """TypeError naming ``name`` unless the array ``arr`` holds real numbers: a
    bool, integer or float dtype, or objects that are all ``numbers.Real``."""
    if arr.dtype.kind not in "biuf" and not (
        arr.dtype == object and all(isinstance(x, numbers.Real) for x in arr.flat)
    ):
        raise TypeError(f"{name} must be real numbers, not {arr.dtype}")


def _as_binary_matrix(rows, name):
    """``rows`` as a read-only int8 copy, if a 2-D matrix of 0s and 1s."""
    try:
        arr = np.asarray(rows)
    except ValueError:  # numpy's error for rows of different lengths
        raise DimensionMismatch(f"{name} must be a 2-D matrix, got ragged rows") from None
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    _check_real(arr, name)
    if arr.dtype == np.int8:
        binary = _binary_int8(arr)
    else:
        binary = not arr.size or np.isin(arr, (0, 1)).all()
    if not binary:
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


def _iterable(values, name):
    """An iterator over ``values``; TypeError naming ``name`` if it is not
    iterable."""
    try:
        return iter(values)
    except TypeError:
        raise TypeError(f"{name} must be iterable, not {type(values).__name__}") from None


def _check_unique(ids, what, name):
    """DuplicateId for a repeated id; TypeError naming ``name`` for an
    unhashable one."""
    seen = set()
    for x in ids:
        try:
            repeated = x in seen
        except TypeError:
            raise TypeError(f"{name} must hold hashable ids, got {x!r}") from None
        if repeated:
            raise DuplicateId(f"duplicate {what} id: {x!r}")
        seen.add(x)


def _as_integer(value):
    """``value`` as an int; TypeError for a bool or a value without
    ``__index__`` (numpy's bool has none). Callers raise their own error."""
    if isinstance(value, bool):
        raise TypeError("a bool is not an integer")
    return operator.index(value)


def build_system(author_ids, citing_papers, cited_paper_ids, realized, accurate):
    """Validate raw inputs and assemble an immutable CitationSystem.

    ``citing_papers`` is a sequence of (paper_id, author_index) pairs; the
    index into ``author_ids`` is an int, not a bool. Matrices are row-major J x K.
    """
    author_ids = tuple(_iterable(author_ids, "author_ids"))
    papers = []
    for pair in _iterable(citing_papers, "citing_papers"):
        try:
            pid, ai = pair
        except (TypeError, ValueError):  # not a pair
            raise TypeError(
                f"citing_papers must hold (paper_id, author_index) pairs, got {pair!r}"
            ) from None
        try:
            papers.append((pid, _as_integer(ai)))
        except TypeError:
            raise UnknownAuthor(
                f"citing paper {pid!r} references author index {ai!r}, not an integer"
            ) from None
    citing_papers = tuple(papers)
    cited_paper_ids = tuple(_iterable(cited_paper_ids, "cited_paper_ids"))

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

    _check_unique(author_ids, "author", "author_ids")
    _check_unique([pid for pid, _ in citing_papers], "citing-paper", "citing_papers")
    _check_unique(cited_paper_ids, "cited-paper", "cited_paper_ids")

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


def _check_system(system):
    """TypeError naming ``system`` unless it is a :class:`CitationSystem`."""
    if not isinstance(system, CitationSystem):
        raise TypeError(f"system must be a CitationSystem, not {type(system).__name__}")


def error_matrix(system):
    """Read-only J x K int8 array, 1 exactly where realized and accurate differ."""
    _check_system(system)
    e = (system.realized != system.accurate).view(np.int8)
    e.setflags(write=False)
    return e
