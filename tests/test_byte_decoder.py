"""The byte path of the 0/1 matrix decoders against the per-cell decoder.

``io`` decodes a system's ``realized`` and ``accurate`` matrices, and the
omission input's ``cites``, from the file's bytes first, and falls back to
the per-cell decoder on any file off its template. For every input, a valid
file or one with one edit, the loader must give what the per-cell decoder
alone gives: equal ids, owners and int8 matrices, or the same error type
with the same text.
"""

import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from citenoise import CitationSystem, build_system
from citenoise import io as cio
from edits import (
    CSV_EDITS, JSON_EDITS, csv_pairs, edit_json, id_text, plain_id_text, small_systems,
)
from systems import as_lists, random_system


def outcome(load, *paths):
    """What ``load`` gives: its result's fields, or its error's type and text."""
    try:
        result = load(*paths)
    except Exception as exc:  # every error must match, whatever its type
        return type(exc), str(exc)
    if isinstance(result, CitationSystem):
        return (result.author_ids, result.citing_papers, result.cited_paper_ids,
                _matrix(result.realized), _matrix(result.accurate))
    sim, cites = result
    return sim.paper_ids, sim.timestamps, sim.scores.tolist(), _matrix(cites)


def _matrix(matrix):
    return (matrix.dtype, matrix.tolist()) if isinstance(matrix, np.ndarray) else matrix


def per_cell(load, *paths):
    """``outcome`` with the byte path declining every file."""
    with mock.patch.object(cio, "_json_matrices", return_value=None), \
            mock.patch.object(cio, "_csv_matrix", return_value=None):
        return outcome(load, *paths)


def assert_same_outcome(files, load):
    """Write ``files`` (name -> bytes) and compare both decoders on them."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in files]
        for path, data in zip(paths, files.values()):
            path.write_bytes(data)
        assert outcome(load, *paths) == per_cell(load, *paths)


# Each kind of edit gets examples of its own, so that every adversarial case
# is tried on systems whose files the byte path would otherwise accept.
@pytest.mark.parametrize("edit", JSON_EDITS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_system_documents_decode_as_per_cell(edit, data):
    doc = cio.system_to_document(data.draw(small_systems()))
    text = edit_json(data.draw, doc, ["realized", "accurate"], edit)
    assert_same_outcome({"system.json": text}, cio.load_system)


@pytest.mark.parametrize("edit", CSV_EDITS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_csv_pairs_decode_as_per_cell(edit, data):
    pair = data.draw(csv_pairs(st.just(edit)))
    assert_same_outcome({"R.csv": pair[0], "A.csv": pair[1]}, cio.load_system_csv)


@st.composite
def omission_documents(draw, edit):
    """A valid similarity document and an edited citation document."""
    ids = draw(st.lists(draw(st.sampled_from([id_text, plain_id_text])), min_size=1,
                        max_size=5, unique=True))
    n = len(ids)
    sim = {
        "papers": [{"id": pid, "timestamp": i} for i, pid in enumerate(ids)],
        "scores": [[1.0 if i == j else 0.5 for j in range(n)] for i in range(n)],
    }
    cites = draw(st.lists(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n),
                          min_size=n, max_size=n))
    cite_doc = {"papers": ids, "cites": cites}
    return json.dumps(sim).encode(), edit_json(draw, cite_doc, ["cites"], edit)


@pytest.mark.parametrize("edit", JSON_EDITS)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_citation_documents_decode_as_per_cell(edit, data):
    docs = data.draw(omission_documents(edit))
    assert_same_outcome({"sim.json": docs[0], "cites.json": docs[1]},
                        cio.load_omission_inputs)


def near_misses(data):
    """``data`` with each byte in turn one above and one below itself."""
    for at, byte in enumerate(data):
        for step in (-1, 1):
            yield data[:at] + bytes([(byte + step) % 256]) + data[at + 1:]


def test_every_near_miss_of_a_byte_decodes_as_per_cell(tmp_path):
    """Each byte of small files on the template, one off: a byte check that
    lets a neighbouring byte through shows here."""
    system = build_system(["a", "b"], [("p", 0), ("q", 1), ("r", 1)], ["c", "d", "e"],
                          [[0, 1, 1], [1, 0, 0], [0, 0, 1]], [[1, 1, 0], [0, 0, 1], [1, 0, 1]])
    doc = cio.system_to_document(system)
    for text in (cio.dump_json(doc), json.dumps(as_lists(doc))):
        for data in near_misses(text.encode()):
            assert_same_outcome({"system.json": data}, cio.load_system)
    cio.save_system_csv(system, tmp_path / "R.csv", tmp_path / "A.csv")
    accurate = (tmp_path / "A.csv").read_bytes()
    for data in near_misses((tmp_path / "R.csv").read_bytes()):
        assert_same_outcome({"R.csv": data, "A.csv": accurate}, cio.load_system_csv)


@pytest.mark.parametrize("seed", range(4))
def test_byte_path_accepts_what_citenoise_and_json_write(tmp_path, seed):
    """Every layout the program and ``json.dumps`` write is on the template,
    so the equivalence tests above also cover the accepting branch."""
    s = random_system(np.random.default_rng(seed))
    doc = cio.system_to_document(s)
    for text in (cio.dump_json(doc), json.dumps(as_lists(doc)),
                 json.dumps(as_lists(doc), indent="\t"), json.dumps(as_lists(doc), indent=4),
                 json.dumps(as_lists(doc), separators=(",", ":"))):
        decoded = cio._json_matrices(text.encode(), ("realized", "accurate"))
        assert decoded is not None
        assert cio.system_from_document(decoded) == s
    cites = {"papers": ["x", "y"], "cites": s.realized[:2, :2].tolist()}
    for text in (cio.dump_json(cites), json.dumps(cites)):
        decoded = cio._json_matrices(text.encode(), ("cites",))
        assert np.array_equal(decoded["cites"], s.realized[:2, :2])
    cio.save_system_csv(s, tmp_path / "R.csv", tmp_path / "A.csv")
    for path, matrix in ((tmp_path / "R.csv", s.realized), (tmp_path / "A.csv", s.accurate)):
        decoded = cio._csv_matrix(path.read_bytes())
        assert decoded is not None
        assert np.array_equal(decoded[2], matrix) and decoded[2].dtype == np.int8


def _compact_then_indented(rows):
    indented = [json.dumps(row, indent=2).replace("\n", "\n    ") for row in rows[1:]]
    return "[" + json.dumps(rows[0]) + ",\n    " + ",\n    ".join(indented) + "\n  ]"


def _unevenly_spaced(rows):
    return json.dumps([json.dumps(row[:1])[:-1] + "," + json.dumps(row[1:])[1:]
                       for row in rows]).replace('"', "")


@pytest.mark.parametrize("layout", [_compact_then_indented, _unevenly_spaced])
def test_irregular_layouts_go_to_the_per_cell_decoder(tmp_path, layout):
    """A matrix whose first row is compact and whose other rows are indented
    is off its first row's template, and one whose cells are not evenly
    spaced (``[0,1, 0]``) has no strided digit columns: the byte path
    declines both, and the per-cell decoder reads them."""
    system = random_system(np.random.default_rng(0))
    rows = system.realized.tolist()
    assert len(rows) >= 2 and len(rows[0]) >= 3
    doc = {**as_lists(cio.system_to_document(system)), "realized": None}
    text = json.dumps(doc, indent=2).replace('"realized": null', '"realized": ' + layout(rows))
    assert json.loads(text)["realized"] == rows
    assert cio._json_matrices(text.encode(), ("realized", "accurate")) is None
    (tmp_path / "system.json").write_text(text)
    assert cio.load_system(tmp_path / "system.json") == system
    assert_same_outcome({"system.json": text.encode()}, cio.load_system)


def test_matrices_decode_in_place():
    """A dump_json'd 2000 x 100 system: each matrix is checked in place, a
    block of rows at a time, so decoding peaks below half the file's length,
    against about 1.1 times when each matrix was copied whole twice."""
    rng = np.random.default_rng(1)
    system = build_system(["a"], [(f"p{i}", 0) for i in range(2000)],
                          [f"c{k}" for k in range(100)],
                          rng.integers(0, 2, (2000, 100)), rng.integers(0, 2, (2000, 100)))
    data = cio.dump_json(cio.system_to_document(system)).encode()
    tracemalloc.start()
    try:
        decoded = cio._json_matrices(data, ("realized", "accurate"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cio.system_from_document(decoded) == system
    assert peak < 0.5 * len(data)


def test_matrices_before_an_id_that_spells_their_key():
    """A compact document whose matrices come first and whose ids include
    "realized" and "accurate": the key is the first occurrence of its tag, and
    the byte path decodes it as the per-cell decoder does."""
    system = build_system(["realized", "b"], [("accurate", 0), ("q", 1)], ["c", "realized"],
                          [[0, 1], [1, 0]], [[1, 1], [0, 1]])
    doc = cio.system_to_document(system)
    text = json.dumps({"realized": None, "accurate": None, **as_lists(doc)}).encode()
    assert text.startswith(b'{"realized": [[')
    decoded = cio._json_matrices(text, ("realized", "accurate"))
    assert decoded is not None and cio.system_from_document(decoded) == system
    assert_same_outcome({"system.json": text}, cio.load_system)
