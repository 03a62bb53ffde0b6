"""Hypothesis property tests for the core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from citenoise import (
    DecisionClass,
    analyze,
    build_system,
    classify_decision,
    error_matrix,
    parse_justification_table,
    serialize_justification_table,
)


@st.composite
def systems(draw):
    n_authors = draw(st.integers(1, 5))
    extra = draw(st.integers(0, 8))
    k = draw(st.integers(1, 7))
    owners = list(range(n_authors)) + draw(
        st.lists(st.integers(0, n_authors - 1), min_size=extra, max_size=extra)
    )
    j = len(owners)
    bits = st.integers(0, 1)
    realized = draw(
        st.lists(st.lists(bits, min_size=k, max_size=k), min_size=j, max_size=j)
    )
    accurate = draw(
        st.lists(st.lists(bits, min_size=k, max_size=k), min_size=j, max_size=j)
    )
    return build_system(
        [f"a{i}" for i in range(n_authors)],
        [(f"p{idx}", o) for idx, o in enumerate(owners)],
        [f"c{col}" for col in range(k)],
        realized,
        accurate,
    )


@given(systems())
@settings(max_examples=200, deadline=None)
def test_error_cells_are_exactly_the_incorrect_decisions(system):
    e = error_matrix(system)
    for j in range(system.n_citing):
        for k in range(system.n_cited):
            cls = classify_decision(int(system.realized[j, k]), int(system.accurate[j, k]))
            assert bool(e[j, k]) == (
                cls in (DecisionClass.INCORRECT_POSITIVE, DecisionClass.INCORRECT_NEGATIVE)
            )


@given(systems())
@settings(max_examples=200, deadline=None)
def test_zero_error_iff_matrices_equal(system):
    assert (not error_matrix(system).any()) == np.array_equal(
        system.realized, system.accurate
    )


@given(systems())
@settings(max_examples=200, deadline=None)
def test_noise_decomposition_identities(system):
    r = analyze(system)
    assert abs(r.sigma_sys**2 - (r.sigma_ln**2 + r.sigma_pn**2)) < 1e-9
    pe_rows = np.abs(system.realized - system.accurate).mean(axis=1)
    total_var = float(((pe_rows - pe_rows.mean()) ** 2).mean())
    assert abs(total_var - (r.sigma_ln**2 + r.sigma_pn**2)) < 1e-9
    assert abs(r.bias - (r.mean_tc - r.mean_ec)) < 1e-12
    assert r.sigma_ln >= 0 and r.sigma_pn >= 0 and r.sigma_sys >= 0


@given(systems())
@settings(max_examples=100, deadline=None)
def test_column_count_identity(system):
    # tc + incorrect negatives - incorrect positives = ec, per cited paper
    for k, stats in enumerate(analyze(system).cited_paper_stats):
        col_r, col_a = system.realized[:, k], system.accurate[:, k]
        inc_neg = int(((col_r == 0) & (col_a == 1)).sum())
        inc_pos = int(((col_r == 1) & (col_a == 0)).sum())
        assert stats.tc + inc_neg - inc_pos == stats.ec


key_text = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")), min_size=1, max_size=12
)


@given(
    st.lists(
        st.tuples(key_text, key_text, key_text), min_size=0, max_size=20
    )
)
@settings(max_examples=100, deadline=None)
def test_justification_table_round_trip(rows):
    text = "Cited work | Section | Knowledge flowed\n" + "".join(
        f"{k} | {s} | {r}\n" for k, s, r in rows
    )
    entries = parse_justification_table(text)
    assert parse_justification_table(serialize_justification_table(entries)) == entries
