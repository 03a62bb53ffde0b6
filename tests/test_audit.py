import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from citenoise import (
    audit_justification,
    build_similarity,
    canonicalize_key,
    omission_indicator,
    parse_justification_table,
    serialize_justification_table,
)
from citenoise import io as cio
from citenoise.errors import (
    DimensionMismatch,
    DuplicateId,
    EmptyKey,
    EmptyReason,
    InvalidConfig,
    MalformedRow,
    NonSymmetric,
)
from test_simulate import traced_peak


def random_similarity(rng, n):
    raw = rng.random((n, n))
    scores = (raw + raw.T) / 2
    np.fill_diagonal(scores, 0.0)
    stamps = rng.permutation(n).tolist()
    return build_similarity([f"paper{i}" for i in range(n)], stamps, scores)


def brute_force_warnings(sim, k):
    """Oracle: the k-too-large warning of each paper with 1 to k - 1
    predecessors, in id order."""
    ids, stamps = sim.paper_ids, sim.timestamps
    messages = []
    for j in sorted(range(len(ids)), key=ids.__getitem__):
        m = sum((stamps[p], ids[p]) < (stamps[j], ids[j]) for p in range(len(ids)))
        if 0 < m < k:
            messages.append(f"k={k} exceeds {m} predecessors of {ids[j]!r}; using all of them")
    return messages


@st.composite
def tied_omission_inputs(draw):
    """(sim, cites, k) of up to 30 papers whose scores and timestamps tie, so
    that most papers' top-k set is cut inside a run of ties."""
    n = draw(st.integers(0, 30))
    pool = draw(st.sampled_from([
        [2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2],  # ints that floats cannot tell apart
        ["2020", "2021", "2021-06"],
        [1.5, 2, 2.0, 3],  # 2 and 2.0 tie
    ]))
    stamps = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    cells = draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0]),
                          min_size=n * n, max_size=n * n))
    raw = np.array(cells, dtype=float).reshape(n, n)
    scores = np.where(np.triu(np.ones((n, n), dtype=bool)), raw, raw.T)
    ids = [f"p{i}" for i in draw(st.permutations(range(n)))]
    cites = np.array(draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n)),
                     dtype=np.int8).reshape(n, n)
    k = draw(st.sampled_from([1, 2, n - 1, n, n + 1, 2**63]).filter(lambda k: k >= 1))
    return build_similarity(ids, stamps, scores), cites, k


def brute_force_flags(sim, citations, k):
    """Oracle: sort every predecessor pair per paper, check membership."""
    n = len(sim.paper_ids)
    c = np.asarray(citations)
    expected = {}
    for j in range(n):
        earlier = [
            p
            for p in range(n)
            if (sim.timestamps[p], sim.paper_ids[p])
            < (sim.timestamps[j], sim.paper_ids[j])
        ]
        ranked = sorted(earlier, key=lambda p: (-sim.scores[j][p], sim.timestamps[p], p))
        top = set(ranked[:k])
        for p in earlier:
            expected[(sim.paper_ids[j], sim.paper_ids[p])] = int(
                p in top and c[j][p] == 0
            )
    return expected


def flag_dict(sim, result):
    """{(citing id, earlier id): flag} of the ``omission_indicator`` result
    ``result`` over ``sim``, built from its arrays, in record order: the one
    place a test reads the result's shape."""
    ids = sim.paper_ids
    pairs = zip([ids[i] for i in result.citing.tolist()],
                [ids[i] for i in result.earlier.tolist()])
    return dict(zip(pairs, result.flag.tolist()))


def seed_style_omission_inputs(rng, n=600):
    """(sim, cites) shaped as the benchmark's omission input: cosine
    similarities of random 16-d vectors, shuffled ids, about three papers per
    timestamp and 2% of the pairs cited."""
    unit = rng.random((n, 16))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    scores = np.clip(unit @ unit.T, 0.0, 1.0)
    scores = (scores + scores.T) / 2
    np.fill_diagonal(scores, 1.0)
    ids = [f"w{v:04d}" for v in rng.permutation(n).tolist()]
    sim = build_similarity(ids, rng.integers(2000, 2200, n).tolist(), scores)
    return sim, (rng.random((n, n)) < 0.02).astype(np.int8)


class TestSimilarityMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetric):
            build_similarity(["a", "b"], [0, 1], [[0, 0.3], [0.4, 0]])

    def test_rejects_duplicate_id_naming_it(self):
        with pytest.raises(DuplicateId, match=r"^duplicate paper id: 'a'$"):
            build_similarity(["a", "b", "a"], [0, 1, 2], np.full((3, 3), 0.5))

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatch):
            build_similarity(["a", "b"], [0, 1], [[0.0]])
        with pytest.raises(DimensionMismatch, match=r"^one timestamp per paper id required$"):
            build_similarity(["a", "b"], [0], [[0, 0.5], [0.5, 0]])
        with pytest.raises(DimensionMismatch, match=r"^scores must be a 2-D matrix, got ragged"):
            build_similarity(["a", "b"], [0, 1], [[0, 0.5], [0.5]])

    def test_rejects_out_of_range_scores(self):
        with pytest.raises(DimensionMismatch):
            build_similarity(["a", "b"], [0, 1], [[0, 1.5], [1.5, 0]])

    @pytest.mark.parametrize("scores", [
        np.array([[0, 0.5 + 1j], [0.5 - 1j, 0]]),
        [[0, 0.5j], [0.5j, 0]],
        [[0, "0.5"], ["0.5", 0]],
        np.array([[0, "x"], ["x", 0]], dtype=object),
        np.array([[0, 0.5j], [0.5j, 0]], dtype=object),
    ])
    def test_rejects_scores_that_are_not_real(self, scores):
        # Not a complex part dropped with a ComplexWarning, nor numpy's raw
        # ValueError for a string.
        with pytest.raises(TypeError, match=r"^scores must be real numbers"):
            build_similarity(["a", "b"], [0, 1], scores)

    def test_accepts_real_scores_of_any_real_dtype(self):
        for scores in ([[0, 1], [1, 0]], np.array([[0, 0.5], [0.5, 0]], dtype=object),
                       np.array([[1, 0], [0, 1]], dtype=np.float32), np.eye(2, dtype=bool)):
            sim = build_similarity(["a", "b"], [0, 1], scores)
            assert sim.scores.dtype == np.float64
            assert sim.scores.tolist() == np.asarray(scores, dtype=float).tolist()

    def test_compares_by_identity(self):
        # Equal-valued matrices compare unequal rather than raise numpy's
        # "truth value of an array is ambiguous".
        a, b = (build_similarity(["a", "b"], [0, 1], [[0, 0.5], [0.5, 0]]) for _ in "ab")
        assert a == a
        assert a != b


class TestOmissionIndicator:
    def test_full_coverage_no_flags(self):
        sim = build_similarity(
            ["a", "b", "c"], [0, 1, 2],
            [[0, 0.9, 0.8], [0.9, 0, 0.7], [0.8, 0.7, 0]],
        )
        cites = [[0, 0, 0], [1, 0, 0], [1, 1, 0]]
        flags = omission_indicator(sim, cites, k=2)
        assert [pair for pair, v in flag_dict(sim, flags).items() if v == 1] == []

    def test_single_missing_citation_flagged(self):
        sim = build_similarity(["old", "new"], [0, 1], [[0, 0.9], [0.9, 0]])
        flags = omission_indicator(sim, [[0, 0], [0, 0]], k=1)
        assert flag_dict(sim, flags)[("new", "old")] == 1

    def test_matches_brute_force_oracle(self, rng):
        for k in (1, 3, 5):
            sim = random_similarity(rng, 20)
            cites = rng.integers(0, 2, (20, 20))
            got = omission_indicator(sim, cites, k)
            assert flag_dict(sim, got) == brute_force_flags(sim, cites, k)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_ties_match_brute_force_oracle(self, rng):
        """Tied scores and timestamps, some of them ints that floats cannot tell apart."""
        big = 2**53
        for stamps_from in ([0, 1, 2], [big, big + 1, big + 2], ["2020", "2021"]):
            n = 16
            raw = rng.integers(0, 3, (n, n)) / 2
            scores = np.maximum(raw, raw.T)
            np.fill_diagonal(scores, 0.0)
            stamps = [stamps_from[i] for i in rng.integers(0, len(stamps_from), n)]
            sim = build_similarity([f"paper{i}" for i in range(n)], stamps, scores)
            cites = rng.integers(0, 2, (n, n))
            for k in (1, 2, 4):
                got = omission_indicator(sim, cites, k)
                assert flag_dict(sim, got) == brute_force_flags(sim, cites, k)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tied_omission_inputs())
    def test_ties_at_the_bound_match_the_oracles(self, inputs):
        """Flags and warnings, in order, where the k-th most similar
        predecessor ties with others, for k from 1 to beyond int64."""
        sim, cites, k = inputs
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = omission_indicator(sim, cites, k)
        assert flag_dict(sim, got) == brute_force_flags(sim, cites, k)
        assert [str(w.message) for w in caught] == brute_force_warnings(sim, k)
        assert all(w.category is UserWarning for w in caught)

    def test_int_timestamps_beyond_float_precision_break_ties(self):
        big = 2**53  # float(big) == float(big + 1)
        sim = build_similarity(
            ["later", "earlier", "new"], [big + 1, big, big + 2],
            [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]],
        )
        flags = flag_dict(sim, omission_indicator(sim, np.zeros((3, 3), dtype=int), k=1))
        assert flags[("new", "earlier")] == 1
        assert flags[("new", "later")] == 0

    def test_k_too_large_warns_and_uses_all(self):
        sim = build_similarity(["a", "b"], [0, 1], [[0, 0.5], [0.5, 0]])
        with pytest.warns(UserWarning):
            flags = omission_indicator(sim, [[0, 0], [0, 0]], k=5)
        assert flag_dict(sim, flags)[("b", "a")] == 1

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_input_order_irrelevant(self, rng):
        sim = random_similarity(rng, 8)
        cites = rng.integers(0, 2, (8, 8))
        perm = rng.permutation(8)
        sim_p = build_similarity(
            [sim.paper_ids[i] for i in perm],
            [sim.timestamps[i] for i in perm],
            sim.scores[np.ix_(perm, perm)],
        )
        cites_p = np.asarray(cites)[np.ix_(perm, perm)]
        assert (
            flag_dict(sim, omission_indicator(sim, cites, 3))
            == flag_dict(sim_p, omission_indicator(sim_p, cites_p, 3))
        )

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_pairs_run_in_id_order(self, rng):
        """Pairs come in (citing id, earlier id) order, not publication order."""
        reversed_stamps = build_similarity(
            ["a", "b", "c"], [2, 1, 0], [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]]
        )
        for sim in (reversed_stamps, random_similarity(rng, 12)):
            n = len(sim.paper_ids)
            flags = flag_dict(sim, omission_indicator(sim, np.zeros((n, n), dtype=int), 2))
            assert list(flags) == sorted(flags)
            pairs = [pair for pair, v in flags.items() if v == 1]
            assert pairs and pairs == sorted(pairs)

    @pytest.mark.parametrize(
        "k", [True, False, 2.5, 2.0, float("nan"), "2", None, np.bool_(True), 0, np.int64(0)]
    )
    def test_k_must_be_an_integer_from_1(self, k):
        # A non-integer is a TypeError; an integer below 1 an InvalidConfig.
        error = InvalidConfig if type(k) in (int, np.int64) else TypeError
        sim = build_similarity(["a", "b"], [0, 1], [[0, 0.5], [0.5, 0]])
        with pytest.raises(error, match="k must be"):
            omission_indicator(sim, [[0, 0], [0, 0]], k)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_numpy_integer_k_accepted(self, rng):
        sim = random_similarity(rng, 10)
        cites = rng.integers(0, 2, (10, 10))
        for k in (np.int64(3), np.int8(3), np.uint16(3)):
            got = omission_indicator(sim, cites, k)
            assert flag_dict(sim, got) == brute_force_flags(sim, cites, 3)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_flag_arrays_invariant(self, rng):
        """Equal-length read-only int arrays indexing paper_ids, each ordered
        pair of (later, earlier) paper once, in (citing id, earlier id) order;
        .flags is a view of the arrays."""
        tied = build_similarity(["c", "a", "b"], [1, 1, 0], np.full((3, 3), 0.5))
        for sim in (tied, random_similarity(rng, 12), build_similarity([], [], np.zeros((0, 0)))):
            n = len(sim.paper_ids)
            result = omission_indicator(sim, rng.integers(0, 2, (n, n)), 3)
            arrays = (result.citing, result.earlier, result.flag)
            assert result.paper_ids == sim.paper_ids
            assert len({len(a) for a in arrays}) == 1
            for a in arrays:
                assert a.dtype.kind == "i"
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[:1] = 0
            assert set(result.flag.tolist()) <= {0, 1}
            assert ((0 <= result.citing) & (result.citing < n)).all()
            assert ((0 <= result.earlier) & (result.earlier < n)).all()
            ids = sim.paper_ids
            pairs = [(ids[c], ids[e]) for c, e in zip(result.citing.tolist(),
                                                      result.earlier.tolist())]
            assert pairs == sorted(set(pairs))
            order = {p: (sim.timestamps[i], p) for i, p in enumerate(ids)}
            assert pairs == sorted((a, b) for a in ids for b in ids if order[b] < order[a])
            flags = dict(zip(pairs, result.flag.tolist()))
            assert result.flags == flags
            assert list(result.flags) == pairs
            assert result == result
            assert result != omission_indicator(sim, np.zeros((n, n), dtype=int), 3)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_monotone_in_k(self, rng):
        sim = random_similarity(rng, 12)
        cites = rng.integers(0, 2, (12, 12))
        previous = None
        for k in range(1, 8):
            flags = flag_dict(sim, omission_indicator(sim, cites, k))
            if previous is not None:
                for pair, v in previous.items():
                    assert flags[pair] >= v
            previous = flags


TABLE4_INTRO = """\
Cited work | Section | Knowledge flowed
Section: Introduction
AmanGlaser2025 | Scientific knowledge is a collective endeavor.
TahamtanBornmann2022 | Science can be conceptualized as a social citation system.
Milojevic2025 | Citations can be seen as value-free acts or value-laden acts.
Masic2013 | The reference identifies and locates used sources.
Penders2018 | Citations are a form of scientific currency.
"""


class TestJustificationTable:
    def test_minimal_two_row_file(self):
        entries = parse_justification_table(
            "Cited work | Section | Knowledge flowed\n"
            "SmithRef2014 | Methods | definition of knowledge flow\n"
        )
        assert len(entries) == 1
        assert entries[0].key == "SmithRef2014"

    def test_section_rows_attach_label(self):
        entries = parse_justification_table(TABLE4_INTRO)
        assert len(entries) == 5
        assert all(e.section == "Introduction" for e in entries)

    def test_malformed_row_reports_line(self):
        text = (
            "Cited work | Section | Knowledge flowed\n"
            "Good2020 | S | fine\n"
            "Bad2021 | a | b | c\n"
        )
        with pytest.raises(MalformedRow) as exc:
            parse_justification_table(text)
        assert exc.value.line_number == 3

    def test_empty_key_and_reason(self):
        with pytest.raises(EmptyKey):
            parse_justification_table("Cited work | Section | Knowledge flowed\n | S | x\n")
        with pytest.raises(EmptyReason):
            parse_justification_table("Cited work | Section | Knowledge flowed\nK | S |\n")

    def test_comments_and_crlf_accepted(self):
        entries = parse_justification_table(
            "Cited work | Section | Knowledge flowed\r\n"
            "# a comment\r\n"
            "Key2001 | Intro | reason\r\n"
        )
        assert len(entries) == 1
        assert entries[0].section == "Intro"

    @pytest.mark.parametrize(
        "char", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
    )
    def test_lines_end_only_at_lf_crlf_or_cr(self, char):
        """Other characters that str.splitlines() splits at stay inside a row:
        split there, the last row below gave a phantom key "Jones" and no
        error, and the second row an error on line 3."""
        for end in ("\n", "\r\n", "\r"):
            rows = ["Cited work | Section | Knowledge flowed",
                    f"Lee 2019 | Intro | a{char}b",
                    f"Kim 2018 | builds on{char}",
                    f"Smith 2020 | Intro | builds on the model{char}Jones | see also"]
            entries = parse_justification_table(end.join(rows[:3]) + end)
            assert [(e.key, e.reason, e.line_number) for e in entries] == [
                ("Lee 2019", f"a{char}b", 2), ("Kim 2018", "builds on", 3),
            ]
            with pytest.raises(MalformedRow, match="got 4") as exc:
                parse_justification_table(end.join(rows))
            assert exc.value.line_number == 4

    def test_round_trip(self):
        entries = parse_justification_table(TABLE4_INTRO)
        text = serialize_justification_table(entries)
        assert text.endswith("\n") and "\r" not in text
        assert parse_justification_table(text) == entries


class TestAuditJustification:
    def test_fully_justified(self):
        entries = parse_justification_table(
            "Cited work | Section | Knowledge flowed\nA | S | x\nB | S | y\n"
        )
        report = audit_justification({"A", "B"}, ["A", "B", "A"], entries)
        assert report.coverage_ratio == 1.0
        assert report.unjustified_citations == ()
        assert report.orphan_justifications == ()

    def test_orphan_justification(self):
        entries = parse_justification_table(
            "Cited work | Section | Knowledge flowed\nGhost | S | x\n"
        )
        report = audit_justification({"Real"}, [], entries)
        assert report.orphan_justifications == ("ghost",)
        assert report.coverage_ratio == 1.0  # no in-text keys

    def test_duplicate_entries(self):
        entries = parse_justification_table(
            "Cited work | Section | Knowledge flowed\nA | S | x\nA | S | y\nA | T | z\n"
        )
        report = audit_justification({"A"}, ["A"], entries)
        assert report.duplicate_entries == (("a", "S"),)

    def test_partial_coverage(self):
        entries = parse_justification_table(
            "Cited work | Section | Knowledge flowed\n"
            + "".join(f"k{i} | S | r\n" for i in range(7))
        )
        intext = [f"k{i}" for i in range(10)]
        report = audit_justification(set(intext), intext, entries)
        assert report.coverage_ratio == pytest.approx(0.7)
        assert set(report.unjustified_citations) == {"k7", "k8", "k9"}

    def test_canonicalization(self):
        entries = parse_justification_table(
            "Cited work | Section | Knowledge flowed\n Smith   2014 | S | x\n"
        )
        report = audit_justification({"SMITH 2014"}, ["smith 2014"], entries)
        assert report.coverage_ratio == 1.0
        assert report.orphan_justifications == ()
        assert canonicalize_key("  Smith \t 2014 ") == "smith 2014"

    def test_matches_set_algebra_oracle(self, rng):
        universe = [f"key{i}" for i in range(30)]
        for _ in range(25):
            refs = {k for k in universe if rng.random() < 0.6}
            intext = [k for k in universe if rng.random() < 0.5]
            justified = [k for k in universe if rng.random() < 0.4]
            entries = parse_justification_table(
                "Cited work | Section | Knowledge flowed\n"
                + "".join(f"{k} | S | reason\n" for k in justified)
            )
            report = audit_justification(refs, intext, entries)
            c_in = {canonicalize_key(k) for k in intext}
            c_j = {canonicalize_key(k) for k in justified}
            c_r = {canonicalize_key(k) for k in refs}
            assert set(report.unjustified_citations) == c_in - c_j
            assert set(report.orphan_justifications) == c_j - c_r
            assert not set(report.unjustified_citations) & c_j
            expected = 1.0 if not c_in else len(c_in & c_j) / len(c_in)
            assert report.coverage_ratio == pytest.approx(expected)
            assert (report.coverage_ratio * len(c_in)) == pytest.approx(
                round(report.coverage_ratio * len(c_in))
            )


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestOmissionMemory:
    """Peak traced memory on the benchmark-sized input: the indicator holds
    one n x n float temporary beside the scores, and the text of
    dump_omissions is joined once, from one string per citing paper."""

    @pytest.fixture(scope="class")
    def inputs(self):
        return seed_style_omission_inputs(np.random.default_rng(1))

    def test_indicator_peak_is_below_three_score_matrices(self, inputs):
        sim, cites = inputs
        peak = traced_peak(lambda: omission_indicator(sim, cites, 5))
        assert peak < 3 * sim.scores.nbytes

    def test_dump_peak_is_below_two_and_a_half_texts(self, inputs):
        flags = omission_indicator(*inputs, 5)
        size = len(cio.dump_omissions(flags, 5))
        assert traced_peak(lambda: cio.dump_omissions(flags, 5)) < 2.5 * size
