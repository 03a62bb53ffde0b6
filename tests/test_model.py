import numpy as np
import pytest

from citenoise import (
    DecisionClass,
    build_system,
    builtin_fixture,
    classify_decision,
    error_matrix,
)
from citenoise.errors import (
    DimensionMismatch,
    DuplicateId,
    EmptySystem,
    NonBinaryEntry,
    UnknownAuthor,
)

from systems import random_system


def table1_inputs():
    s = builtin_fixture("table1")
    return (
        list(s.author_ids),
        list(s.citing_papers),
        list(s.cited_paper_ids),
        s.realized.tolist(),
        s.accurate.tolist(),
    )


class TestBuildSystem:
    def test_table1_shape(self):
        s = builtin_fixture("table1")
        assert s.n_citing == 10
        assert s.n_cited == 5
        assert s.n_authors == 3
        assert [len(s.papers_of_author(i)) for i in range(3)] == [3, 2, 5]

    def test_minimal_system(self):
        s = build_system(["a"], [("p", 0)], ["c"], [[0]], [[0]])
        assert s.n_citing == 1 and s.n_cited == 1

    def test_non_binary_entry(self):
        authors, citing, cited, r, a = table1_inputs()
        r[0][0] = 2
        with pytest.raises(NonBinaryEntry):
            build_system(authors, citing, cited, r, a)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_system(["a"], [("p", 0)], ["c"], [[0]], [[0, 1]])
        with pytest.raises(DimensionMismatch):
            build_system(["a"], [("p", 0)], ["c", "d"], [[0]], [[0]])

    def test_unknown_author(self):
        with pytest.raises(UnknownAuthor):
            build_system(["a"], [("p", 3)], ["c"], [[0]], [[0]])

    def test_author_index_must_be_an_integer(self):
        two_authors = (["a", "b"], ["c"], [[0], [0]], [[0], [0]])
        for bad in (1.5, "1", True, 1.0, np.float64(1.0), np.True_):
            with pytest.raises(UnknownAuthor, match="not an integer"):
                build_system(two_authors[0], [("p", 0), ("q", bad)], *two_authors[1:])
        s = build_system(two_authors[0], [("p", 0), ("q", np.int64(1))], *two_authors[1:])
        assert s.citing_papers == (("p", 0), ("q", 1))
        assert type(s.citing_papers[1][1]) is int

    def test_author_without_papers(self):
        with pytest.raises(UnknownAuthor):
            build_system(["a", "b"], [("p", 0)], ["c"], [[0]], [[0]])

    def test_duplicate_ids(self):
        with pytest.raises(DuplicateId):
            build_system(["a", "a"], [("p", 0), ("q", 1)], ["c"], [[0], [0]], [[0], [0]])
        with pytest.raises(DuplicateId):
            build_system(["a"], [("p", 0), ("p", 0)], ["c"], [[0], [0]], [[0], [0]])

    def test_empty_system(self):
        with pytest.raises(EmptySystem):
            build_system([], [], ["c"], [], [])
        with pytest.raises(EmptySystem):
            build_system(["a"], [("p", 0)], [], [[]], [[]])

    def test_deterministic_construction(self):
        assert builtin_fixture("table1") == builtin_fixture("table1")

    def test_matrices_immutable(self):
        s = builtin_fixture("table1")
        with pytest.raises(ValueError):
            s.realized[0, 0] = 1


class TestErrorMatrix:
    def test_table1_first_row(self):
        e = error_matrix(builtin_fixture("table1"))
        assert e[0].tolist() == [1, 0, 1, 1, 1]

    def test_read_only_int8_array(self):
        e = error_matrix(builtin_fixture("table1"))
        assert (type(e), e.dtype, e.shape) == (np.ndarray, np.int8, (10, 5))
        with pytest.raises(ValueError):
            e[0, 0] = 0

    def test_all_zero_when_perfect(self):
        a = [[1, 0], [0, 1]]
        s = build_system(["x"], [("p", 0), ("q", 0)], ["c", "d"], a, a)
        assert not error_matrix(s).any()

    def test_matches_xor_oracle(self, rng):
        r = rng.integers(0, 2, (4, 3))
        a = rng.integers(0, 2, (4, 3))
        s = build_system(
            ["x"], [(f"p{j}", 0) for j in range(4)], ["c0", "c1", "c2"], r, a
        )
        e = error_matrix(s)
        for j in range(4):
            for k in range(3):
                assert e[j, k] == (r[j, k] ^ a[j, k])

    def test_zero_iff_realized_equals_accurate(self, rng):
        for _ in range(20):
            s = random_system(rng)
            e = error_matrix(s)
            assert (not e.any()) == np.array_equal(s.realized, s.accurate)


class TestClassifyDecision:
    def test_all_four_classes(self):
        assert classify_decision(1, 1) is DecisionClass.CORRECT_POSITIVE
        assert classify_decision(0, 0) is DecisionClass.CORRECT_NEGATIVE
        assert classify_decision(1, 0) is DecisionClass.INCORRECT_POSITIVE
        assert classify_decision(0, 1) is DecisionClass.INCORRECT_NEGATIVE
        classes = {classify_decision(r, a) for r in (0, 1) for a in (0, 1)}
        assert len(classes) == 4

    def test_table1_paper1_vs_cited_a(self):
        s = builtin_fixture("table1")
        assert (
            classify_decision(s.realized[0, 0], s.accurate[0, 0])
            is DecisionClass.INCORRECT_NEGATIVE
        )

    def test_rejects_non_binary(self):
        with pytest.raises(NonBinaryEntry):
            classify_decision(2, 0)

    def test_error_matrix_agrees_with_classification(self, rng):
        for _ in range(10):
            s = random_system(rng)
            e = error_matrix(s)
            for j in range(s.n_citing):
                for k in range(s.n_cited):
                    cls = classify_decision(
                        int(s.realized[j, k]), int(s.accurate[j, k])
                    )
                    incorrect = cls in (
                        DecisionClass.INCORRECT_POSITIVE,
                        DecisionClass.INCORRECT_NEGATIVE,
                    )
                    assert bool(e[j, k]) == incorrect
