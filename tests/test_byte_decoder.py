"""The byte path of the matrix decoders against the per-cell decoder.

``io`` decodes a system's ``realized`` and ``accurate`` matrices, and the
omission input's ``cites``, from the file's bytes first, and falls back to
the per-cell decoder on any file off its template; the omission input's
``scores`` are decoded from their block by orjson first, and fall back to
``json`` on any block orjson rejects or might read apart. For every input,
a valid file or one with one edit, the loader must give what the per-cell
decoder alone gives: equal ids, owners, int8 matrices and score bits, or the
same error type with the same text.
"""

import decimal
import json
import math
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
    CELLS, CSV_EDITS, JSON_EDITS, csv_pairs, edit_json, id_text, plain_id_text, small_systems,
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
    return (sim.paper_ids, sim.timestamps, sim.scores.shape, sim.scores.tobytes(),
            _matrix(cites))


def _matrix(matrix):
    return (matrix.dtype, matrix.tolist()) if isinstance(matrix, np.ndarray) else matrix


def per_cell(load, *paths):
    """``outcome`` with the byte path declining every file."""
    with mock.patch.object(cio, "_json_matrices", return_value=None), \
            mock.patch.object(cio, "_csv_matrix", return_value=None):
        return outcome(load, *paths)


def assert_same_outcome(files, load):
    """Write ``files`` (name -> bytes), compare both decoders on them, and
    return the outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in files]
        for path, data in zip(paths, files.values()):
            path.write_bytes(data)
        result = outcome(load, *paths)
        assert result == per_cell(load, *paths)
        return result


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


@st.composite
def similarity_documents(draw, edit):
    """A similarity document with one edit aimed at its ``scores``, and a
    valid citation document."""
    ids = draw(st.lists(draw(st.sampled_from([id_text, plain_id_text])), min_size=1,
                        max_size=4, unique=True))
    n = len(ids)
    scores = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            scores[i][j] = scores[j][i] = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 0, 1]))
    sim = {"papers": [{"id": pid, "timestamp": draw(st.integers(0, 3))} for pid in ids],
           "scores": scores}
    cites = {"papers": ids, "cites": [[0] * n for _ in range(n)]}
    return edit_json(draw, sim, ["scores"], edit), json.dumps(cites).encode()


@pytest.mark.parametrize("edit", [*JSON_EDITS, "number cell"])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_similarity_documents_decode_as_per_cell(edit, data):
    docs = data.draw(similarity_documents(edit))
    assert_same_outcome({"sim.json": docs[0], "cites.json": docs[1]},
                        cio.load_omission_inputs)


@pytest.mark.parametrize("cell", CELLS["number cell"])
@pytest.mark.parametrize("at", [(0, 0), (0, 1)])
def test_each_number_cell_decodes_as_per_cell(cell, at):
    """Each number cell edit, on the diagonal, which no range check bounds,
    and off it: the same result, or the same error, as ``json``'s."""
    rows = [[b"1.0", b"0.5"], [b"0.5", b"1.0"]]
    rows[at[0]][at[1]] = cell
    scores = b"[" + b", ".join(b"[" + b", ".join(row) + b"]" for row in rows) + b"]"
    sim = b'{"papers": [{"id": "a", "timestamp": 0}, {"id": "b", "timestamp": 1}], "scores": '
    cites = b'{"papers": ["a", "b"], "cites": [[0, 0], [0, 0]]}'
    assert_same_outcome({"sim.json": sim + scores + b"}", "cites.json": cites},
                        cio.load_omission_inputs)


def _halfway(x):
    """The exact decimal midway between the double ``x`` and its neighbour
    towards 0.5, which a correctly rounding parser rounds to the even one."""
    with decimal.localcontext() as ctx:
        ctx.prec = 1200  # a double's exact decimal has at most 767 digits
        return str((decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, 0.5))) / 2)


# The ways a score is written: shortest, 17 and 26 significant digits, and
# halfway between two doubles.
SCORE_TEXTS = [repr, "%.17g".__mod__, "%.25e".__mod__, _halfway]
scores_in_unit = st.floats(0.0, 1.0) | st.sampled_from(
    [-0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.0 - 2**-53]
)
# Integer literals json keeps as ints and orjson could read as floats.
beyond_int64 = st.integers(2**63, 2**70) | st.integers(-(2**70), -(2**63) - 1)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), n=st.integers(1, 4))
def test_scores_are_decoded_to_the_bits_json_gives(data, n):
    """Scores written in every way a writer might, subnormals and -0.0
    among them, and integers beyond int64 on the diagonal, which no check
    bounds: every file loads, its scores orjson decodes are bit for bit
    those of the ``json`` path, and a file with an integer beyond int64
    declines."""
    cells = [[None] * n for _ in range(n)]
    big = False
    for i in range(n):
        for j in range(i, n):
            if i == j and data.draw(st.booleans()):
                value = data.draw(beyond_int64)
                big = True
                cells[i][i] = str(value)
                continue
            value = data.draw(scores_in_unit)
            for a, b in ((i, j), (j, i)):
                cells[a][b] = data.draw(st.sampled_from(SCORE_TEXTS))(value)
    sep = data.draw(st.sampled_from([", ", ",", ",\n      "]))
    papers = json.dumps([{"id": f"p{i}", "timestamp": i} for i in range(n)])
    rows = sep.join("[" + sep.join(row) + "]" for row in cells)
    text = ('{"papers": %s, "scores": [%s]}' % (papers, rows)).encode()
    assert (cio._json_matrices(text, ("scores",)) is None) == big
    cites = json.dumps({"papers": [f"p{i}" for i in range(n)], "cites": [[0] * n] * n})
    result = assert_same_outcome({"sim.json": text, "cites.json": cites.encode()},
                                 cio.load_omission_inputs)
    assert result[0] == tuple(f"p{i}" for i in range(n))  # a result, no error


def test_scores_decode_in_place(tmp_path):
    """A 300 x 300 similarity document: the scores block is parsed from the
    file's bytes in place, so decoding allocates nothing block-sized beyond
    the rows it returns."""
    rng = np.random.default_rng(3)
    scores = rng.random((300, 300))
    data = json.dumps({"papers": [{"id": f"p{i}", "timestamp": i} for i in range(300)],
                       "scores": scores.tolist()}).encode()
    cio._json_matrices(data, ("scores",))  # the first call imports orjson
    tracemalloc.start()
    try:
        decoded = cio._json_matrices(data, ("scores",))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decoded is not None and decoded["scores"] == scores.tolist()
    assert peak - current < 0.1 * len(data)


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


def test_csv_rows_are_checked_a_block_at_a_time(tmp_path):
    """A 2000 x 400 CSV file: its cells are joined and checked a block of rows
    at a time, so decoding peaks below 1.25 times the file's length, against
    about 1.8 times when every row's cells were joined into one copy."""
    rng = np.random.default_rng(2)
    matrix = rng.integers(0, 2, (2000, 400))
    system = build_system(["a", "b"], [(f"p{i}", i % 2) for i in range(2000)],
                          [f"c{k}" for k in range(400)], matrix, matrix)
    cio.save_system_csv(system, tmp_path / "r.csv", tmp_path / "a.csv")
    data = (tmp_path / "r.csv").read_bytes()
    tracemalloc.start()
    try:
        decoded = cio._csv_matrix(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decoded is not None and np.array_equal(decoded[2], matrix)
    assert peak < 1.25 * len(data)


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


def test_a_key_is_the_first_occurrence_of_its_tag_outside_the_blocks_found():
    """A later field's key is searched for outside the matrices already
    found, which hold no '"', and is still the first occurrence of its tag:
    with the string "accurate" between the realized matrix and the accurate
    key, the first "accurate" is no key and the byte path declines; with
    the accurate key before the realized one, it decodes. Both documents
    load as the per-cell decoder loads them."""
    system = build_system(["accurate", "b"], [("p", 0), ("q", 1)], ["c", "d"],
                          [[0, 1], [1, 0]], [[1, 1], [0, 1]])
    doc = as_lists(cio.system_to_document(system))
    between = {"realized": doc.pop("realized"), **doc}
    before = {"accurate": between.pop("accurate"), **between}
    for fields, accepted in ((between, False), (before, True)):
        text = json.dumps(fields, indent=2).encode()
        decoded = cio._json_matrices(text, ("realized", "accurate"))
        assert (decoded is not None) == accepted
        if accepted:
            assert cio.system_from_document(decoded) == system
        assert_same_outcome({"system.json": text}, cio.load_system)
    assert between["author_ids"][0] == "accurate" and list(before)[:2] == ["accurate", "realized"]
