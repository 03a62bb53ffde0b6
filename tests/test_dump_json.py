"""``io.dump_json`` writes exactly ``json.dumps(doc, indent=2) + "\\n"`` of the
document with every numpy array in it as its ``.tolist()``.

Each top-level value takes one of four paths: a non-empty 2-D int8 array of
0s and 1s is rendered from its bytes; a non-empty 2-D float64 array with
each distinct value's ``repr`` computed once, unless it holds a NaN or an
infinity; a non-empty list of records, whose fields may hold records, and
a non-empty list of scalars by templates, where one rule says which lists
render: all strings, or all exact ints and finite floats. Any other array
goes on as its ``.tolist()``, and any other value, a list of lists too,
falls back to ``json.dumps``.
These tests compare the renderer with ``json.dumps`` on generated documents,
one example per fallback shape, and on every JSON output the CLI writes,
the audit's list of duplicate entries included. ``io.dump_omissions``
renders the ``omissions`` document from the flag arrays, and is compared
with ``json.dumps`` of the document built from the same flags.
"""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from citenoise import (
    GenerativeConfig,
    analyze,
    build_similarity,
    builtin_fixture,
    generate_system,
    omission_indicator,
)
from citenoise import io as cio
from citenoise.cli import run_cli
from citenoise.fixtures import fixture_names

from systems import as_lists

finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e300, -1e-300]
)
numbers = st.integers() | finite
# Values json renders that no template takes in a list of numbers.
odd = st.sampled_from(
    [True, False, None, math.nan, math.inf, -math.inf, np.float64(0.5), "1", [1], {"x": 1}]
)
ids = st.text(max_size=3) | st.sampled_from(['"', "\\", "\n", "\x00\x1f", "é", " ", "😀"])
# Half of each kind's lists are what a template takes; the rest may be empty
# or hold anything.
vectors = (
    st.lists(numbers, min_size=1, max_size=4)
    | st.lists(ids, min_size=1, max_size=4)
    | st.lists(numbers | odd, max_size=4)
)
matrices = st.lists(st.lists(numbers, min_size=1, max_size=4), min_size=1, max_size=3) | (
    st.lists(vectors, max_size=3)
)
KEYS = ["id", "flag", 'q"', "%s", "é", 1]


@st.composite
def record_lists(draw):
    """Records with one key order and one kind per field, a flat record with
    one key order among them, then at most one record perturbed: keys
    reordered or missing, or one field of another kind."""
    keys = draw(st.lists(st.sampled_from(KEYS), unique=True, min_size=1, max_size=3))
    inner = draw(st.lists(st.sampled_from(KEYS), unique=True, min_size=1, max_size=2))
    flat = st.fixed_dictionaries(dict.fromkeys(inner, numbers))
    kinds = [
        draw(st.sampled_from([ids, st.integers(), finite, numbers, ids | numbers | odd, flat]))
        for _ in keys
    ]
    records = [
        {key: draw(kind) for key, kind in zip(keys, kinds)}
        for _ in range(draw(st.integers(1, 4)))
    ]
    if draw(st.booleans()):
        record = draw(st.sampled_from(records))
        key = draw(st.sampled_from(keys))
        change = draw(st.sampled_from(["reorder", "drop", "replace"]))
        if change == "reorder":
            record[key] = record.pop(key)
        elif change == "drop":
            del record[key]
        else:
            record[key] = draw(odd)
    return records


@st.composite
def arrays(draw):
    """An int8 matrix, J and K from 0 to 3, of 0s and 1s or of any bytes:
    whole, every other column, transposed or read-only; or the same cells
    as another dtype or shape."""
    j, k = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    cells = draw(st.sampled_from([st.integers(0, 1), st.integers(-128, 127)]))
    m = np.array(draw(st.lists(cells, min_size=j * k, max_size=j * k)), dtype=np.int8)
    m = m.reshape(j, k)
    read_only = m.copy()
    read_only.setflags(write=False)
    return draw(st.sampled_from([
        m, m[:, ::2], m.T, read_only, m.astype(np.int64), m.astype(np.uint8), m != 0,
        m / 2, m.ravel(), m[None], np.array(j, dtype=np.int8), np.array(["x", 'q"'] * j),
    ]))


values = matrices | vectors | record_lists() | arrays() | st.recursive(
    ids | numbers | odd | arrays(), lambda inner: st.lists(inner, max_size=2), max_leaves=4
)
documents = st.one_of(
    st.dictionaries(ids | st.sampled_from(KEYS), values, min_size=1, max_size=4),
    st.fixed_dictionaries({"records": record_lists(), "matrix": matrices, "vector": vectors}),
    values,
)


BITS = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.int8)


@given(documents)
@example({"realized": BITS, "accurate": BITS[:1], "t": BITS.T, "cols": BITS[:, ::2]})
@example({"row": BITS[:, :1], "column": BITS[:1, :1], "empty": BITS[:0], "no-cells": BITS[:, :0]})
@example({"bytes": np.array([[0, -1], [2, 127], [-128, 1]], dtype=np.int8)})
@example({"negative": np.array([[0, -1], [1, -128]], dtype=np.int8)})
@example({"int64": BITS.astype(np.int64), "bool": BITS != 0, "float": BITS / 2})
@example({"vector": BITS[0], "cube": BITS[None], "0-d": np.array(1, dtype=np.int8)})
@example({"nested": [BITS, {"a": BITS}]})
@example(BITS)
@example([BITS, {"a": BITS}])
@example({"empty": []})
@example({"bool-in-int-row": [[1, True], [0, 1]]})
@example({"empty-row": [[1, 2], []]})
@example({"none-in-vector": [1, None]})
@example({"nan": [[0.5, math.nan]], "inf": [math.inf], "-inf": [[-math.inf]]})
@example({"numpy-float": [np.float64(0.25), 1.0]})
@example({"nested": [[[1, 2]], [[3]]], "object": {"k": [1, 2]}})
@example({"strings": ["a", "b"]})
@example({"row-then-number": [[1], 2], "row-then-record": [[1], {"a": 1}]})
@example({"record-then-list": [{"a": "x"}, ["a"]]})
@example({"mixed-key-order": [{"a": "x", "b": 1}, {"b": 2, "a": "y"}]})
@example({"missing-key": [{"a": "x", "b": 1}, {"a": "y"}]})
@example({"empty-record": [{}, {}]})
@example({"float-field": [{"a": 0.5}], "none-field": [{"a": None}]})
@example({"nan-field": [{"a": 0.5}, {"a": math.nan}], "inf-row": [[0.5, 1.0], [math.inf, 2.0]]})
@example({"str-then-bool": ["a", True]})
@example({"mixed-field": [{"a": "x"}, {"a": 1}], "bool-field": [{"a": True}]})
@example({"nested-field": [{"a": [1]}], "non-str-field-key": [{1: "x"}]})
@example({1: [1, 2], "scalars": None, "s": "line\nbreak", "b": False})
@example({})
@example([[1, 2], [3, 4]])
@example([{"a": "x"}])
@example("text")
def test_dump_json_is_json_dumps_indent_2(doc):
    assert cio.dump_json(doc) == json.dumps(as_lists(doc), indent=2) + "\n"


def test_binary_matrices_render_without_a_per_cell_copy():
    """A system's two 2000 x 100 matrices go into the document as they are
    and are rendered from their bytes, and the rendered values are joined
    once: the peak is about 2.1 times the text, against 3.1 with a copy of
    each value in its ``key: value`` item and 4.0 with a list of lists per
    matrix."""
    config = GenerativeConfig(seed=1, n_authors=100, papers_per_author=20, n_cited=100,
                              base_error=0.1)
    system = generate_system(config)[0]
    text = cio.dump_json(cio.system_to_document(system))
    tracemalloc.start()
    try:
        cio.dump_json(cio.system_to_document(system))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


# Float edge values: signed zeros, subnormals, the smallest normal, and
# values whose repr takes an exponent.
FLOAT_EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e-300,
               0.1, 1.0, 1e16, 123456789.0]
NON_FINITE = [math.nan, math.inf, -math.inf]


@st.composite
def float_arrays(draw):
    """A float64 matrix, J and K from 1 to 4, of a few repeated edge values,
    of any finite values, or with a NaN or an infinity: whole, every other
    column, transposed, reversed, read-only, one row or all cells, or
    big-endian."""
    j, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = draw(st.sampled_from([
        st.sampled_from(FLOAT_EDGES), finite, finite | st.sampled_from(NON_FINITE),
    ]))
    m = np.array(draw(st.lists(cells, min_size=j * k, max_size=j * k)), dtype=np.float64)
    m = m.reshape(j, k)
    read_only = m.copy()
    read_only.setflags(write=False)
    return draw(st.sampled_from([
        m, m[:, ::2], m.T, m[::-1, ::-1], read_only, m[0], m.ravel(), m.ravel()[::2],
        m.astype(">f8"),
    ]))


ZEROS = np.array([[-0.0, 0.0, 0.0], [0.0, -0.0, 5e-324]])


@given(float_arrays())
@example(ZEROS)
@example(ZEROS[:, :1])
@example(ZEROS[:1])
@example(ZEROS[:, ::2])
@example(ZEROS.T)
@example(ZEROS[0])
@example(np.array([[0.5, math.nan], [math.inf, -math.inf]]))
@example(np.array([-math.inf]))
@example(ZEROS.astype(">f8"))
@example(np.random.default_rng(0).random((7, 5)))  # every value distinct
def test_float_arrays_render_as_json_dumps(m):
    doc = {"schema_version": "1", "m": m, "also": m}
    assert cio.dump_json(doc) == json.dumps(as_lists(doc), indent=2) + "\n"


def test_float_array_path_takes_native_finite_float64_only():
    native = np.array([[0.5, -0.0], [0.0, 0.5]])
    assert cio._float_matrix(native) == cio._render_value(native.tolist())
    for value in NON_FINITE:
        assert cio._float_matrix(np.array([[0.5, value]])) is None
    with mock.patch.object(cio, "_float_matrix", wraps=cio._float_matrix) as spy:
        cio.dump_json({"big": native.astype(">f8"), "f4": native.astype(np.float32),
                       "empty": native[:0], "cube": native[None], "0-d": np.array(0.5),
                       "vector": native[0]})
    spy.assert_not_called()


def test_latent_sidecar_renders_without_a_per_cell_list():
    """The latent sidecar of a 2000 x 100 system: its float64 matrices are
    rendered from their distinct values by one join each, which peaks at
    about 2.0 times the text, against 3.8 through ``.tolist()``."""
    config = GenerativeConfig(seed=1, n_authors=100, papers_per_author=20, n_cited=100,
                              should_cite_prob=0.3, base_error=0.15, level_spread=0.05,
                              interaction_spread=0.03, bias_shift=0.02)
    latent = generate_system(config)[1]
    text = cio.dump_json(cio.latent_to_document(latent))
    assert text == json.dumps(as_lists(cio.latent_to_document(latent)), indent=2) + "\n"
    tracemalloc.start()
    try:
        cio.dump_json(cio.latent_to_document(latent))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


def test_templates_render_the_large_kinds():
    """Escaped and non-ASCII ids, float edge values and the record lists of
    the analyze report, through the templates."""
    system = builtin_fixture("table1")
    report = cio.report_to_document(analyze(system), system)
    doc = {
        "schema_version": "1",
        "flags": [{"citing": 'p"\\', "earlier": "é\n", "flag": 1},
                  {"citing": "p%s", "earlier": "😀", "flag": 0}],
        "matrix": [[0, 1], [-0.0, 5e-324]],
        "vector": [1e300, -3, 0.1],
        "strings": ['p"\\', "é\n", "😀", "p%s", "é\n"],
        "percent-keys": [{"%s": 1, "%d%%": "x"}],
        "float-field": [{"id": "a", "pr": 0.5}, {"id": "b", "pr": -0.0}],
        "mixed-field": [{"n": 1}, {"n": 2.5}, {"n": -3}],
        "citing_papers": report["citing_papers"],
        "cited_papers": report["cited_papers"],
        "authors": report["authors"],
    }
    for key in ("flags", "percent-keys", "float-field", "mixed-field", "citing_papers",
                "cited_papers", "authors"):
        assert cio._flat_records(doc[key]) is not None, key
    assert all(cio._scalars(row) is not None for row in doc["matrix"])
    assert cio._scalars(doc["vector"]) is not None
    assert cio._scalars(doc["strings"]) is not None
    assert cio.dump_json(doc) == json.dumps(doc, indent=2) + "\n"


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _cli_outputs(tmp_path):
    """(argv, [files written]) for every JSON-writing subcommand, small inputs."""
    config = _write_json(tmp_path / "config.json", {
        "seed": 5, "n_authors": 3, "papers_per_author": 2, "n_cited": 4,
        "base_error": 0.2, "replicates": 4,
    })
    rng = np.random.default_rng(11)
    papers = [{"id": pid, "timestamp": t}
              for t, pid in enumerate(['p"0', "p1", "é2", "p3", "p4", "p5"])]
    n = len(papers)
    scores = rng.random((n, n))
    scores = ((scores + scores.T) / 2).tolist()
    cites = np.tril(rng.random((n, n)) < 0.3, -1).astype(int).tolist()
    sim = _write_json(tmp_path / "sim.json", {"papers": papers, "scores": scores})
    cit = _write_json(tmp_path / "cites.json",
                      {"papers": [p["id"] for p in papers], "cites": cites})
    for name, text in [("refs", "A\nB\n"), ("intext", "A\nB\nC\n"),
                       ("jt", "Cited work | Section | Knowledge flowed\nA | S | x\nD | S | y\n"
                              "A | S | z\n")]:
        (tmp_path / f"{name}.txt").write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    runs = [(["fixtures", "--name", name, "--out", str(out / f"{name}.json")],
             [out / f"{name}.json"]) for name in fixture_names()]
    runs += [
        (["analyze", "--input", str(out / "table1.json"), "--format", "json",
          "--out", str(out / "report.json")], [out / "report.json"]),
        (["simulate", "--config", config, "--out", str(out / "system.json"),
          "--latent", str(out / "latent.json")], [out / "system.json", out / "latent.json"]),
        (["retest", "--config", config, "--out", str(out / "retest.json")],
         [out / "retest.json"]),
        (["audit", "--refs", str(tmp_path / "refs.txt"), "--intext",
          str(tmp_path / "intext.txt"), "--jt", str(tmp_path / "jt.txt"),
          "--out", str(out / "audit.json")], [out / "audit.json"]),
        (["omissions", "--sim", sim, "--citations", cit, "--k", "2",
          "--out", str(out / "flags.json")], [out / "flags.json"]),
    ]
    return runs


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_cli_writes_json_dumps_indent_2(tmp_path):
    for argv, paths in _cli_outputs(tmp_path):
        assert run_cli(argv) == 0, argv
        for path in paths:
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2) + "\n", path.name


# Paper ids that need escapes, non-ASCII ids, and ids whose sorted order is
# not the order drawn.
paper_ids = st.lists(
    st.text(max_size=3) | st.sampled_from(['"', "\\", "\n", "\x00\x1f", "é", "😀", "b", "a"]),
    unique=True,
    max_size=6,
)


@st.composite
def omission_inputs(draw):
    """(similarity, citations, k): timestamps from a small range, so ties
    occur, and k up to beyond 2**63."""
    ids = draw(paper_ids)
    n = len(ids)
    stamps = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    raw = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n * n,
                                 max_size=n * n))).reshape(n, n)
    cites = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
    k = draw(st.integers(1, 4) | st.integers(2**63, 2**65))
    sim = build_similarity(ids, stamps, np.maximum(raw, raw.T))
    return sim, np.array(cites, dtype=np.int8).reshape(n, n), k


def _omission_example(ids, stamps, k):
    n = len(ids)
    sim = build_similarity(ids, stamps, np.full((n, n), 0.5))
    return sim, np.zeros((n, n), dtype=np.int8), k


@pytest.mark.filterwarnings("ignore::UserWarning")
@given(omission_inputs())
@example(_omission_example([], [], 1))
@example(_omission_example(["é"], [0], 2**63))
@example(_omission_example(['z"', "\\", "é\n", "a\x00"], [1, 0, 1, 0], 2))
@example(_omission_example(["a", "b", "c"], [0, 1, 2], np.int64(2)))
def test_dump_omissions_is_json_dumps_of_the_flags_document(inputs):
    sim, cites, k = inputs
    flags = omission_indicator(sim, cites, k)
    doc = {
        "schema_version": "1",
        "k": int(k),
        "flags": [
            {"citing": citing, "earlier": earlier, "flag": v}
            for (citing, earlier), v in flags.flags.items()
        ],
    }
    assert cio.dump_omissions(flags, k) == json.dumps(doc, indent=2) + "\n"
