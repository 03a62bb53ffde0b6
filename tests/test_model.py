import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from citenoise import (
    DecisionClass,
    build_similarity,
    build_system,
    builtin_fixture,
    classify_decision,
    error_matrix,
    omission_indicator,
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
        assert [sum(a == i for _, a in s.citing_papers) for i in range(3)] == [3, 2, 5]

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
        ragged = r"^realized must be a 2-D matrix, got ragged rows$"
        with pytest.raises(DimensionMismatch, match=ragged):
            build_system(["a"], [("p", 0), ("q", 0)], ["x", "y"], [[0, 1], [0]], [[0, 1]] * 2)

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

    def test_a_system_never_equals_a_non_system(self):
        system = builtin_fixture("table1")
        assert (system == 1) is False
        assert system != "table1"

    def test_matrices_immutable(self):
        s = builtin_fixture("table1")
        with pytest.raises(ValueError):
            s.realized[0, 0] = 1

    def test_int8_pair_is_checked_in_place(self):
        """An int8 pair is checked without a per-cell temporary: the peak is
        the two read-only copies and a little more."""
        rng = np.random.default_rng(0)
        r, a = (rng.integers(0, 2, (1000, 1000), dtype=np.int8) for _ in range(2))
        ids = ([f"p{j}" for j in range(1000)], [f"c{k}" for k in range(1000)])
        tracemalloc.start()
        try:
            build_system(["a"], [(pid, 0) for pid in ids[0]], ids[1], r, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * r.nbytes


# Any byte, the ones next to 0 and 1 and the extremes first.
BYTES = st.sampled_from([-128, -1, 2, 127]) | st.integers(-128, 127)


@st.composite
def int8_matrices(draw):
    """An int8 matrix of 0s and 1s, J and K from 0 to 4, with up to two
    cells set to any byte; whole, every other column, or transposed."""
    j, k = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    cells = draw(st.lists(st.sampled_from([0, 1]), min_size=j * k, max_size=j * k))
    m = np.array(cells, dtype=np.int8).reshape(j, k)
    if m.size:
        for _ in range(draw(st.integers(0, 2))):
            m[draw(st.integers(0, j - 1)), draw(st.integers(0, k - 1))] = draw(BYTES)
    return draw(st.sampled_from([m, m[:, ::2], m.T]))


def isin_message(m, name):
    """The NonBinaryEntry message of the np.isin check on ``m``: the first bad
    cell in row-major order; None if every cell is 0 or 1."""
    bad = np.argwhere(~np.isin(m, (0, 1)))
    if not len(bad):
        return None
    j, k = bad[0]
    return f"{name}[{j}][{k}] = {m[j, k]} is not 0 or 1"


def non_binary_message(call):
    try:
        call()
    except NonBinaryEntry as exc:
        return str(exc)
    except DimensionMismatch:  # the shape is checked after the cells
        pass
    return None


@given(int8_matrices())
@example(np.array([[0, -128], [127, 1]], dtype=np.int8))
@example(np.array([[1, 1, -1]], dtype=np.int8))
@example(np.array([[0], [2]], dtype=np.int8))
@example(np.array([[1, 0, 1], [0, 2, 0]], dtype=np.int8)[:, ::2])
@example(np.array([[1, -1], [0, 1]], dtype=np.int8).T)
@example(np.zeros((0, 3), dtype=np.int8))
@example(np.zeros((3, 0), dtype=np.int8))
def test_int8_check_is_the_isin_check(m):
    """build_system and omission_indicator accept exactly the int8 matrices
    np.isin accepts, name the same first bad cell, and keep a read-only
    int8 copy that no later write to the caller's array reaches."""
    j, k = m.shape
    n = len(m)
    sim = build_similarity([f"p{i}" for i in range(n)], list(range(n)), np.ones((n, n)))
    assert non_binary_message(lambda: omission_indicator(sim, m, 1)) == isin_message(
        m, "citations"
    )
    if not m.size:  # no system is empty
        return
    ids = ["a"], [(f"p{i}", 0) for i in range(j)], [f"c{c}" for c in range(k)]
    zeros = np.zeros((j, k), dtype=np.int8)
    expected = isin_message(m, "realized")
    assert non_binary_message(lambda: build_system(*ids, m, zeros)) == expected
    assert non_binary_message(lambda: build_system(*ids, zeros, m)) == (
        expected and expected.replace("realized", "accurate", 1)
    )
    if expected is None:
        s = build_system(*ids, m, m)
        before = m.copy()
        m ^= 1
        for matrix in (s.realized, s.accurate):
            assert matrix.dtype == np.int8 and not matrix.flags.writeable
            assert np.array_equal(matrix, before)


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


@pytest.mark.parametrize("bad", [True, np.True_, 1.5, np.float64(1.0), "1", None])
def test_one_integer_rule_keeps_each_callers_error(bad):
    # model._as_integer decides; each caller raises its own error type.
    from citenoise import GenerativeConfig, bias_recovery
    from citenoise.errors import InvalidConfig

    authors, cited, matrix = ["a", "b"], ["c"], [[0], [0]]
    message = f"citing paper 'q' references author index {bad!r}, not an integer"
    with pytest.raises(UnknownAuthor) as err:
        build_system(authors, [("p", 0), ("q", bad)], cited, matrix, matrix)
    assert str(err.value) == message
    sim = build_similarity(["x", "y"], [0, 1], [[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(TypeError) as err:
        omission_indicator(sim, [[0, 0], [0, 0]], bad)
    assert str(err.value) == f"k must be an integer, got {bad!r}"
    with pytest.raises(InvalidConfig) as err:
        bias_recovery(GenerativeConfig(seed=1), bad)
    assert str(err.value) == f"trials must be an integer, got {bad!r}"


def _wrong_kinds():
    """(call, error, parameter) for each argument of the wrong kind, or of
    the right kind and out of range, that the library must name."""
    from citenoise import (
        GenerativeConfig, aggregation_curve, analyze, audit_justification, bias_recovery,
        canonicalize_key, citation_bias, decompose_pattern_noise, expected_bias,
        generate_system, parse_justification_table, replicate_decisions,
        serialize_justification_table,
    )
    from citenoise.errors import InvalidConfig

    one = (["a"], [("p", 0)], ["c"], [[0]], [[0]])
    complex_cell = np.array([[1 + 0j]])
    config = GenerativeConfig(seed=1, replicates=2)
    _, latent = replicate_decisions(config)
    sim = build_similarity(["x", "y"], [0, 1], [[0, 0.5], [0.5, 0]])
    return {
        "complex-realized": (lambda: build_system(*one[:3], complex_cell, [[0]]),
                             TypeError, "realized"),
        "complex-accurate": (lambda: build_system(*one[:4], complex_cell),
                             TypeError, "accurate"),
        "string-cell": (lambda: build_system(*one[:3], [["1"]], [[0]]), TypeError, "realized"),
        "complex-object-cell": (lambda: build_system(*one[:3], complex_cell.astype(object),
                                                     [[0]]), TypeError, "realized"),
        "citing-paper-not-a-pair": (lambda: build_system(one[0], ["p"], *one[2:]),
                                    TypeError, "citing_papers"),
        "list-author-id": (lambda: build_system([["a"]], *one[1:]), TypeError, "author_ids"),
        "list-citing-id": (lambda: build_system(one[0], [(["p"], 0)], *one[2:]),
                           TypeError, "citing_papers"),
        "list-cited-id": (lambda: build_system(*one[:2], [["c"]], *one[3:]),
                          TypeError, "cited_paper_ids"),
        "analyze-str": (lambda: analyze("x"), TypeError, "system"),
        "citation_bias-none": (lambda: citation_bias(None), TypeError, "system"),
        "error_matrix-str": (lambda: error_matrix("x"), TypeError, "system"),
        "latent-none": (lambda: decompose_pattern_noise([latent.accurate] * 2, None),
                        TypeError, "latent"),
        "table-none": (lambda: parse_justification_table(None), TypeError, "text"),
        "table-bytes": (lambda: parse_justification_table(b"a | b"), TypeError, "text"),
        "reference-keys-str": (lambda: audit_justification("ab", ["ab"], ()),
                               TypeError, "reference_keys"),
        "reference-keys-int": (lambda: audit_justification([1], [], ()),
                               TypeError, "reference_keys"),
        "in-text-keys-str": (lambda: audit_justification(["ab"], "ab", ()),
                             TypeError, "in_text_keys"),
        "entries-str": (lambda: audit_justification([], [], "ab"), TypeError, "entries"),
        "entries-tuple": (lambda: audit_justification([], [], [("k", "s", "r", 1)]),
                          TypeError, "entries"),
        "sim-none": (lambda: omission_indicator(None, [[0]], 1), TypeError, "sim"),
        "canonicalize-int": (lambda: canonicalize_key(1), TypeError, "key"),
        "serialize-str-entries": (lambda: serialize_justification_table(["x"]),
                                  TypeError, "entries"),
        "generate-none": (lambda: generate_system(None), TypeError, "config"),
        "replicate-none": (lambda: replicate_decisions(None), TypeError, "config"),
        "bias-recovery-none": (lambda: bias_recovery(None, 100), TypeError, "config"),
        "expected-bias-none": (lambda: expected_bias(None), TypeError, "config"),
        "curve-none": (lambda: aggregation_curve(None, [10], 100), TypeError, "config"),
        "curve-int-sizes": (lambda: aggregation_curve(config, 10, 100),
                            TypeError, "sample_sizes"),
        "curve-str-sizes": (lambda: aggregation_curve(config, "10", 100),
                            TypeError, "sample_sizes"),
        "k-float": (lambda: omission_indicator(sim, [[0, 0], [0, 0]], 1.5), TypeError, "k"),
        "k-zero": (lambda: omission_indicator(sim, [[0, 0], [0, 0]], 0), InvalidConfig, "k"),
        "author-ids-none": (lambda: build_system(None, *one[1:]), TypeError, "author_ids"),
        "citing-papers-none": (lambda: build_system(one[0], None, *one[2:]),
                               TypeError, "citing_papers"),
        "paper-ids-none": (lambda: build_similarity(None, [0], [[0]]), TypeError, "paper_ids"),
        "timestamps-none": (lambda: build_similarity(["a"], None, [[0]]),
                            TypeError, "timestamps"),
        "realized-none": (lambda: decompose_pattern_noise(None, latent), TypeError, "realized"),
        "decision-array": (lambda: classify_decision(np.array([1, 0]), 1), TypeError, "r"),
    }


@pytest.mark.parametrize("case", list(_wrong_kinds()))
def test_a_bad_argument_raises_its_error_naming_the_parameter(case):
    # A wrong kind is a TypeError, a right kind out of range a CitenoiseError;
    # never an AttributeError, a bare ValueError or a quietly accepted value.
    call, error, name = _wrong_kinds()[case]
    with pytest.raises(error, match=rf"^{name} must "):
        call()
