"""``io.dump_json`` writes exactly ``json.dumps(doc, indent=2) + "\\n"``.

The renderer takes templates for number matrices and vectors and for lists of
flat records, and falls back to ``json.dumps`` for any other value; these
tests compare it with ``json.dumps`` on generated documents, one example per
fallback shape, and on every JSON output the CLI writes.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from citenoise import io as cio
from citenoise.cli import run_cli
from citenoise.fixtures import fixture_names

finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e300, -1e-300]
)
numbers = st.integers() | finite
# Values json renders that no number template takes.
odd = st.sampled_from(
    [True, False, None, math.nan, math.inf, -math.inf, np.float64(0.5), "1", [1], {"x": 1}]
)
# Half of each kind's lists are what a template takes; the rest may be empty
# or hold anything.
vectors = st.lists(numbers, min_size=1, max_size=4) | st.lists(numbers | odd, max_size=4)
matrices = st.lists(st.lists(numbers, min_size=1, max_size=4), min_size=1, max_size=3) | (
    st.lists(vectors, max_size=3)
)
ids = st.text(max_size=3) | st.sampled_from(['"', "\\", "\n", "\x00\x1f", "é", " ", "😀"])
KEYS = ["id", "flag", 'q"', "%s", "é", 1]


@st.composite
def record_lists(draw):
    """Records with one key order and one kind per field, then at most one
    record perturbed: keys reordered or missing, or one field of another kind."""
    keys = draw(st.lists(st.sampled_from(KEYS), unique=True, min_size=1, max_size=3))
    kinds = [draw(st.sampled_from([ids, st.integers(), ids | numbers | odd])) for _ in keys]
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


values = matrices | vectors | record_lists() | st.recursive(
    ids | numbers | odd, lambda inner: st.lists(inner, max_size=2), max_leaves=4
)
documents = st.one_of(
    st.dictionaries(ids | st.sampled_from(KEYS), values, min_size=1, max_size=4),
    st.fixed_dictionaries({"records": record_lists(), "matrix": matrices, "vector": vectors}),
    values,
)


@given(documents)
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
@example({"mixed-field": [{"a": "x"}, {"a": 1}], "bool-field": [{"a": True}]})
@example({"nested-field": [{"a": [1]}], "non-str-field-key": [{1: "x"}]})
@example({1: [1, 2], "scalars": None, "s": "line\nbreak", "b": False})
@example({})
@example([[1, 2], [3, 4]])
@example([{"a": "x"}])
@example("text")
def test_dump_json_is_json_dumps_indent_2(doc):
    assert cio.dump_json(doc) == json.dumps(doc, indent=2) + "\n"


def test_templates_render_the_large_kinds():
    """Escaped and non-ASCII ids, and float edge values, through the templates."""
    doc = {
        "schema_version": "1",
        "flags": [{"citing": 'p"\\', "earlier": "é\n", "flag": 1},
                  {"citing": "p%s", "earlier": "😀", "flag": 0}],
        "matrix": [[0, 1], [-0.0, 5e-324]],
        "vector": [1e300, -3, 0.1],
        "percent-keys": [{"%s": 1, "%d%%": "x"}],
    }
    assert cio._flat_records(doc["flags"]) is not None
    assert cio._flat_records(doc["percent-keys"]) is not None
    assert cio._number_matrix(doc["matrix"]) is not None
    assert cio._number_items(doc["vector"], "    ") is not None
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
                       ("jt", "Cited work | Section | Knowledge flowed\nA | S | x\nD | S | y\n")]:
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
