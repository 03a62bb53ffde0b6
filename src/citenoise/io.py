"""Serialization of systems, reports and the other documents.

Every input file is read and every output written here: each input is
opened once, by :func:`_read`, and text goes out through :func:`write_text`.
A document may hold numpy arrays: the system and latent-truth documents keep
their matrices and vectors as they are. JSON outputs are rendered by
:func:`dump_json`, whose text is exactly ``json.dumps(doc, indent=2) + "\\n"``
of the document with every array in it as its ``.tolist()``, for every
JSON-able document, except the ``omissions`` document, which
:func:`dump_omissions` renders with the same bytes straight from the flag
arrays, with no per-record dict or string: one string per citing paper, and
one join of them into the text.
Errors found while an input is loaded name the file: each file is decoded
as UTF-8, whole, and checked inside :func:`_naming`, which also names the
file in an error raised by the checks in other modules. Two on-disk system
representations are supported: a JSON document (schema_version "1") and a
pair of CSV matrices. The CSV layout is one header row
``citing_paper,author,<cited ids...>`` followed by one row per citing paper
with its id, author id, and one cell per cited paper; a cell is exactly
``0`` or ``1``, with no spaces. The realized and accurate files must agree
on all ids, and each loaded matrix takes J·K bytes (int8).

The 0/1 matrices (a system's ``realized`` and ``accurate``, the omission
input's ``cites``) are first decoded straight from the file's bytes, in one
numpy pass over each matrix: :func:`_json_matrices` for a JSON document in
any whitespace layout, :func:`_csv_matrix` for a CSV file. This byte path
only accepts: it raises nothing, and on any file off its template it
declines, and the same bytes are decoded again from the start by the
per-cell decoder (``json`` then :func:`_binary_cells`, or the ``csv`` reader
of :func:`_read_matrix_csv`). That decoder is the only judge of a bad file,
so every error type, message, offset and line number is its own, and a file
both accept gives the same ids, owners and int8 matrices. The writer is the
byte path's inverse: :func:`dump_json` renders an int8 0/1 matrix by adding
its bytes to the digits of the indented form of the same row template,
:func:`_row_template`. A float64 matrix (the latent-truth sidecar's flip
probabilities and interaction offsets) is rendered with each distinct
value's ``repr`` computed once, and its texts gathered into the cells.
"""

import contextlib
import csv
import dataclasses
import io as _io
import json
import re
import sys
from decimal import ROUND_HALF_UP, Decimal
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .audit import build_similarity, parse_justification_table
from .errors import CitenoiseError, ParseError, SchemaVersionUnsupported
from .model import _binary_int8, build_system

SCHEMA_VERSION = "1"
_PRINTED = Decimal("0.01")  # the tables print two decimals


def _round_printed(value):
    """Round half up to match the tables' printed two-decimal values."""
    return float(Decimal(repr(value)).quantize(_PRINTED, rounding=ROUND_HALF_UP))


# -- JSON documents ----------------------------------------------------------


def system_to_document(system):
    return {
        "schema_version": SCHEMA_VERSION,
        "author_ids": list(system.author_ids),
        "citing_papers": [
            {"id": pid, "author_id": system.author_ids[ai]}
            for pid, ai in system.citing_papers
        ],
        "cited_paper_ids": list(system.cited_paper_ids),
        "realized": system.realized,
        "accurate": system.accurate,
    }


def _strings(value, what):
    """``value`` if it is a list of strings; TypeError naming ``what`` otherwise."""
    if type(value) is list and all(type(x) is str for x in value):
        return value
    raise TypeError(f"{what} must be a list of strings")


def _binary_cells(doc, field):
    """The matrix ``field`` of ``doc``: the int8 matrix the byte path put
    there, or a list of rows of JSON integers, as int8 unless a cell is
    beyond int8."""
    rows = doc[field]
    if type(rows) is np.ndarray:
        return rows
    _check_matrix(rows, field, "integer")
    try:
        return np.array(rows, dtype=np.int8)
    except OverflowError:  # a cell beyond int8: build_system names it
        return rows


def system_from_document(doc):
    """The system of a schema "1" document; every id must be a JSON string and
    every ``realized``/``accurate`` cell a JSON integer, unless
    :func:`_json_matrices` already decoded the matrix. A missing or
    wrong-typed field raises KeyError, TypeError or ValueError."""
    if not isinstance(doc, dict):
        raise ParseError("system document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionUnsupported(f"schema_version {version!r} not supported")
    author_ids = _strings(doc["author_ids"], "'author_ids'")
    entries = doc["citing_papers"]
    if type(entries) is not list:
        raise TypeError("'citing_papers' must be a list")
    paper_ids = _strings([e["id"] for e in entries], "citing paper ids")
    owners = _strings([e["author_id"] for e in entries], "citing paper author ids")
    author_index = {a: i for i, a in enumerate(author_ids)}
    citing = []
    for pid, owner in zip(paper_ids, owners):
        if owner not in author_index:
            raise ParseError(f"citing paper {pid!r} names unknown author {owner!r}")
        citing.append((pid, author_index[owner]))
    cited_ids = _strings(doc["cited_paper_ids"], "'cited_paper_ids'")
    realized = _binary_cells(doc, "realized")
    accurate = _binary_cells(doc, "accurate")
    return build_system(author_ids, citing, cited_ids, realized, accurate)


def dump_json(doc):
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte, of ``doc`` with
    every ndarray in it as its ``.tolist()``, for every JSON-able document:
    fixed key order, LF, trailing newline.

    ``json.dumps`` with an indent runs the pure-Python encoder, so each
    top-level value of a dict document is rendered on its own, by one of
    four paths: a non-empty 2-D int8 array of 0s and 1s from its bytes
    (:func:`_binary_matrix`); a non-empty 2-D finite float64 array with
    one ``repr`` per distinct value (:func:`_float_matrix`); a non-empty
    list of flat records (:func:`_flat_records`); and a non-empty list of
    scalars (:func:`_scalars`). Any other array goes on as its
    ``.tolist()``, and any other value goes to ``json.dumps``.
    """
    if type(doc) is not dict or not doc or not all(type(key) is str for key in doc):
        return _dumps(doc) + "\n"
    parts = ["{"]
    for key, value in doc.items():
        parts += ("\n  ", encode_basestring_ascii(key), ": ", _render_value(value), ",")
    parts[-1] = "\n}\n"
    return "".join(parts)


def _dumps(value):
    """``json.dumps(value, indent=2)`` with every ndarray as its ``.tolist()``."""
    return json.dumps(value, indent=2, default=_tolist)


def _tolist(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render_value(value):
    """A top-level value of a document, rendered as ``json.dumps(indent=2)``
    renders it one level deep."""
    if type(value) is np.ndarray:
        if value.ndim == 2 and value.size:
            if value.dtype == np.int8 and _binary_int8(value):
                return _binary_matrix(value)
            # Native byte order only, so that its uint64 view holds its bits.
            if value.dtype == np.float64:
                text = _float_matrix(value)
                if text is not None:
                    return text
        value = value.tolist()
    if type(value) is list and value:
        if type(value[0]) is dict:
            text = _flat_records(value)
        else:
            texts = _scalars(value)
            text = None if texts is None else ",\n    ".join(texts)
        if text is not None:
            return "[\n    " + text + "\n  ]"
    # Strings are escaped, so every newline here is structural.
    return _dumps(value).replace("\n", "\n  ")


# How json.dumps(indent=2) indents a top-level matrix: its rows and closing
# bracket by 4 spaces, their cells by 6.
_ROW_INDENT = b"\n    "
_CELL_INDENT = b"\n      "


def _row_template(k, cell_indent=b"", row_indent=b""):
    """A JSON row of K cells, all "0", between the separators around it:
    ``[0,...,0],``, or, indented, ``row_indent`` before the row and before
    its closing bracket, ``cell_indent`` before each cell. Cell i is the byte
    at offset ``len(row_indent) + (i + 1) * step - 1``, where
    ``step = len(cell_indent) + 2``."""
    cells = b",".join([cell_indent + b"0"] * k)
    return row_indent + b"[" + cells + row_indent + b"],"


def _binary_matrix(matrix):
    """The non-empty int8 0/1 matrix ``matrix`` as a top-level value of
    :func:`dump_json`: "[", J copies of the indented row template, each
    cell's byte added to its "0", the last "," swapped for the closing
    bracket, decoded once."""
    j, k = matrix.shape
    template = np.frombuffer(_row_template(k, _CELL_INDENT, _ROW_INDENT), np.uint8)
    width = len(template)
    text = np.empty(j * width + 4, np.uint8)  # the last "," becomes "\n  ]"
    text[0] = ord("[")
    rows = text[1 : 1 + j * width].reshape(j, width)
    rows[:] = template
    step = len(_CELL_INDENT) + 2
    first = len(_ROW_INDENT) + step - 1
    rows[:, first : first + step * k : step] += matrix.view(np.uint8)
    text[j * width :] = np.frombuffer(b"\n  ]", np.uint8)
    return str(text, "ascii")


def _float_matrix(matrix):
    """The non-empty float64 matrix ``matrix`` as a top-level value of
    :func:`dump_json`, with each distinct value's ``repr`` computed once;
    None if it holds a NaN or an infinity. Values are told apart by their
    bits, so -0.0 and 0.0 keep their own texts."""
    bits, inverse = np.unique(matrix.ravel().view(np.uint64), return_inverse=True)
    texts = _scalars(bits.view(np.float64).tolist())
    if texts is None:
        return None
    # One join over the cells, each text followed by its separator.
    cells = np.array([text + ",\n      " for text in texts], dtype=object)[inverse]
    k = matrix.shape[1]
    row_end = "\n    ],\n    [\n      "
    cells[k - 1 :: k] = [texts[i] + row_end for i in inverse[k - 1 :: k].tolist()]
    cells[-1] = texts[inverse[-1]] + "\n    ]\n  ]"
    cells[0] = "[\n    [\n      " + cells[0]
    return "".join(cells.tolist())


# The Python types json renders as a JSON number; bool is not one.
_NUMBER_TYPES = frozenset((int, float))


def _scalars(values):
    """The JSON texts of the items of the non-empty list ``values`` if they
    are all strings, or all exact ints and finite floats, in order; None
    otherwise."""
    kinds = set(map(type, values))
    if kinds <= _NUMBER_TYPES:
        if float not in kinds:
            return map(repr, values)
        texts = list(map(repr, values))
        # Only a non-finite float's repr ("nan", "inf") holds an "n"; json
        # spells those NaN and Infinity.
        return None if "n" in "".join(texts) else texts
    if kinds == {str}:
        return map(encode_basestring_ascii, values)
    return None


def _flat_records(records):
    """The records of a list of dicts with one key order, each field's values
    rendered by :func:`_scalars`, by one template; None for any other list."""
    keys = tuple(records[0])
    if (
        not keys
        or not all(type(key) is str for key in keys)
        or set(map(type, records)) != {dict}
        or not all(map(keys.__eq__, map(tuple, records)))
    ):
        return None
    columns = []
    for key in keys:
        column = _scalars(list(map(itemgetter(key), records)))
        if column is None:
            return None
        columns.append(column)
    fields = ",\n      ".join(
        encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys
    )
    template = "{\n      " + fields + "\n    }"
    return ",\n    ".join(map(template.__mod__, zip(*columns)))


def write_text(text, path):
    """Write ``text`` to the file ``path`` (LF endings), or to stdout if no path."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def save_system(system, path):
    write_text(dump_json(system_to_document(system)), path)


@contextlib.contextmanager
def _naming(path, document=None):
    """Name ``path`` in an input error raised inside. A CitenoiseError gets the
    path prefixed and propagates as the same object; a decoding error (not
    UTF-8, not JSON, nested too deeply) raises ParseError, and so, when the
    kind of ``document`` is given, does a KeyError, TypeError, ValueError or
    OverflowError: "<path>: malformed <document>: ..."."""
    malformed = (KeyError, TypeError, ValueError, OverflowError) if document else ()
    try:
        yield
    except CitenoiseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    # Before ``malformed``: UnicodeDecodeError and JSONDecodeError are ValueErrors.
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except malformed as exc:
        raise ParseError(f"{path}: malformed {document}: {exc}") from exc


def _read(path):
    """The bytes of the input file at ``path``: the one place an input is opened."""
    with open(path, "rb") as fh:
        return fh.read()


def _text(data):
    """The UTF-8 bytes ``data`` decoded whole, so that an error gives its
    offset in the file, with CRLF and CR read as LF, as in a file opened in
    text mode."""
    text = data.decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_json(path):
    """Decode one JSON file; read it inside :func:`_naming`, which names the
    file in a decoding error."""
    return json.loads(_text(_read(path)))


def load_system(path):
    """The system in the JSON document at ``path``; errors name the file."""
    with _naming(path, "system document"):
        return system_from_document(_read_json_matrices(path, ("realized", "accurate")))


def _read_json_matrices(path, fields):
    """The document of the JSON file at ``path``: with its ``fields`` decoded
    by :func:`_json_matrices`, or, if it declines, as :func:`read_json`
    decodes it, from the same bytes."""
    data = _read(path)
    doc = _json_matrices(data, fields)
    if doc is None:
        text = _text(data)
        del data  # the bytes go before the parse, as in read_json
        doc = json.loads(text)
    return doc


_JSON_SPACE = b" \t\n\r"


def _json_matrices(data, fields):
    """The document of the JSON bytes ``data``, with each of its top-level
    ``fields``, a matrix of the JSON integers 0 and 1 in any whitespace
    layout, as an int8 matrix; None for any other file.

    The first occurrence of each field's key is followed by ":" and a block
    that ends at the last "]" before the next '"': with its whitespace
    removed, J rows on the template ``[d,...,d]``. The rest of the document
    goes to ``json`` with ``NaN`` in place of each block, and must keep
    exactly those ``NaN`` as the fields' values: a duplicate, escaped or
    nested key, or a ``NaN`` of the file's own, declines the file.
    """
    blocks = []
    for field in fields:
        tag = b'"' + field.encode() + b'"'
        at = data.find(tag)
        if at < 0:
            return None
        at += len(tag)
        colon = data.find(b":", at)
        if colon < 0 or data[at:colon].strip(_JSON_SPACE):
            return None
        quote = data.find(b'"', colon)
        stop = data.rfind(b"]", colon, quote if quote >= 0 else len(data)) + 1
        # "[" + J rows "[d,...,d]" joined by "," + "]": J times the row
        # template "[d,...,d]," once the outer brackets are swapped for a comma.
        block = data[colon + 1:stop].translate(None, _JSON_SPACE)
        k = (block.find(b"]") - 1) // 2
        if block[:1] + block[-1:] != b"[]" or k < 1:
            return None
        matrix = _template_digits([memoryview(block)[1:-1], b","], _row_template(k))
        if matrix is None:
            return None
        blocks.append((colon + 1, stop, field, matrix))
    pieces, at = [], 0
    for start, stop, _, _ in sorted(blocks):
        pieces += [data[at:start], b"NaN"]
        at = stop
    pieces.append(data[at:])
    spliced, constants = object(), []
    try:
        doc = json.loads(
            b"".join(pieces).decode("utf-8"),
            parse_constant=lambda name: constants.append(name) or spliced,
        )
    except (ValueError, RecursionError):  # UnicodeDecodeError, JSONDecodeError
        return None
    if (
        type(doc) is not dict
        or len(constants) != len(fields)
        or any(doc.get(field) is not spliced for field in fields)
    ):
        return None
    for _, _, field, matrix in blocks:
        doc[field] = matrix
    return doc


def _template_digits(pieces, template):
    """The J x K int8 matrix of the digits of the joined byte ``pieces``,
    which must be J >= 1 repetitions of ``template`` byte for byte, except
    that each of its K "0" may be "1"; every digit sits at an odd offset of
    the template. None if any byte is off."""
    text = bytearray().join(pieces)  # one copy, checked and decoded in place
    width = len(template)
    if not text or len(text) % width:
        return None
    rows = np.frombuffer(text, np.uint8).reshape(-1, width)
    expected = np.frombuffer(template, np.uint8)
    # Each byte minus its template byte is 0, or 1 on a digit; anything below
    # the template byte wraps around to a large uint8.
    rows -= expected
    if not (rows.max(axis=0) <= (expected == ord("0"))).all():
        return None
    return np.ascontiguousarray(rows[:, 1 : 2 * template.count(b"0") : 2]).view(np.int8)


def latent_to_document(latent):
    """The latent-truth sidecar: every LatentTruth field, in order, as its array."""
    doc = {"schema_version": SCHEMA_VERSION}
    for field in dataclasses.fields(latent):
        doc[field.name] = getattr(latent, field.name)
    return doc


def retest_to_document(replicates, stable_sigma, occasion_sigma):
    return {
        "schema_version": SCHEMA_VERSION,
        "replicates": replicates,
        "stable_sigma": stable_sigma,
        "occasion_sigma": occasion_sigma,
    }


def aggregation_to_csv(rows):
    """CSV text of (n, empirical SE, theoretical SE) rows, six decimals."""
    return "n,empirical_se,theoretical_se\n" + "".join(
        f"{n},{emp:.6f},{theo:.6f}\n" for n, emp, theo in rows
    )


# The Python types json gives each kind of JSON value; bool is neither.
_JSON_TYPES = {"number": _NUMBER_TYPES, "integer": frozenset((int,))}


def _check_matrix(rows, field, kind):
    """ValueError unless ``rows`` is a list of equal-length lists of JSON
    values of ``kind``."""
    if type(rows) is not list or not all(type(row) is list for row in rows):
        raise ValueError(f"'{field}' must be a list of lists")
    types = _JSON_TYPES[kind]
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ValueError(
                f"'{field}' is ragged: row {i} has {len(row)} entries, "
                f"row 0 has {len(rows[0])}"
            )
        if not types.issuperset(map(type, row)):
            value = next(x for x in row if type(x) not in types)
            raise ValueError(f"'{field}' row {i} holds {value!r}, not a JSON {kind}")


def load_omission_inputs(sim_path, cites_path):
    """(SimilarityMatrix, citation matrix) for the omission indicator; the
    citations are decoded by :func:`_binary_cells`, as a system's matrices are.

    Documents: ``{"papers": [{"id", "timestamp"}, ...], "scores": n x n}``
    and ``{"papers": [the same ids, in order], "cites": n x n}``. Scores are
    JSON numbers and citation entries the JSON integers 0 and 1; strings,
    ``true``/``false`` and ``0.0`` are rejected. With no papers, an empty
    ``scores`` or ``cites`` is the 0 x 0 matrix: ``[]`` has no row to give
    it a width.
    """
    with _naming(sim_path, "similarity document"):
        sim_doc = read_json(sim_path)
        papers = sim_doc["papers"]
        ids = [p["id"] for p in papers]
        scores = sim_doc["scores"]
        _check_matrix(scores, "scores", "number")
        stamps = [p["timestamp"] for p in papers]
        sim = build_similarity(ids, stamps, scores if ids or scores else np.zeros((0, 0)))
    with _naming(cites_path, "citation document"):
        cite_doc = _read_json_matrices(cites_path, ("cites",))
        if _strings(cite_doc["papers"], "'papers'") != ids:
            raise ParseError("citation document paper ids disagree with similarity")
        cites = _binary_cells(cite_doc, "cites")
        return sim, cites if ids or len(cites) else np.zeros((0, 0), dtype=np.int8)


def dump_omissions(flags, k):
    """The ``omissions`` document of :class:`~citenoise.audit.OmissionFlags`
    as :func:`dump_json` renders it: ``schema_version``, ``k``, then one
    ``{"citing", "earlier", "flag"}`` record per pair, in the order of the
    arrays. Each paper id is escaped once, into a record head and two rests
    (its middle, the "0" or "1" tail and the separator). A citing paper's
    run of records is one string, its head joined between its rests, and the
    text is one join of the runs, with no other copy of it."""
    sep = ",\n    "
    ids = [encode_basestring_ascii(pid) for pid in flags.paper_ids]
    heads = [f'{{\n      "citing": {pid},\n      "earlier": ' for pid in ids]
    rests = np.array(
        [f'{pid},\n      "flag": {bit}\n    }}{sep}' for pid in ids for bit in "01"], dtype=object
    )
    prefix = (
        f'{{\n  "schema_version": {encode_basestring_ascii(SCHEMA_VERSION)},\n'
        f'  "k": {json.dumps(k)},\n  "flags": '
    )
    citing = flags.citing
    if not len(citing):
        return prefix + "[]\n}\n"
    records = rests[2 * flags.earlier + flags.flag]
    bounds = [0, *(np.flatnonzero(citing[1:] != citing[:-1]) + 1).tolist(), len(citing)]
    runs = [
        heads[c] + heads[c].join(records[a:b].tolist())
        for c, a, b in zip(citing[bounds[:-1]].tolist(), bounds, bounds[1:])
    ]
    runs[-1] = runs[-1][: -len(sep)]
    return "".join([prefix, "[\n    ", *runs, "\n  ]\n}\n"])


def _read_keys(path):
    with _naming(path):
        return [line.strip() for line in _text(_read(path)).split("\n") if line.strip()]


def load_audit_inputs(refs_path, intext_path, jt_path):
    """(reference keys, in-text keys, justification entries), read in that
    order; the entries are the tuple that parse_justification_table returns."""
    refs = _read_keys(refs_path)
    intext = _read_keys(intext_path)
    with _naming(jt_path):
        return refs, intext, parse_justification_table(_text(_read(jt_path)))


def audit_to_document(report):
    return {
        "schema_version": SCHEMA_VERSION,
        "unjustified_citations": list(report.unjustified_citations),
        "orphan_justifications": list(report.orphan_justifications),
        "duplicate_entries": [list(p) for p in report.duplicate_entries],
        "coverage_ratio": report.coverage_ratio,
    }


# -- CSV matrix pairs ---------------------------------------------------------


_BINARY_CELLS = frozenset(("0", "1"))
# The lines io.StringIO(text, newline="") gives, ending in LF, CR or CRLF,
# without its copy of the text at four bytes a character.
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _read_matrix_csv(path):
    """(cited ids, [(citing id, author id)], J x K int8 matrix) of one CSV file.

    The matrix of :func:`_csv_matrix`, or, if it declines, of the ``csv``
    reader over the same bytes: each row is checked whole, and all rows are
    decoded at once at the end, one byte per cell. An error, a csv.Error
    too, names the file and the last physical line of the row at fault.
    """
    data = _read(path)
    accepted = _csv_matrix(data)
    if accepted:
        return accepted
    with _naming(path):
        text = data.decode("utf-8")
    del data  # the bytes go before the rows are parsed
    rows = csv.reader(line[0] for line in _LINE.finditer(text))
    try:
        header = next(rows, [])
        if len(header) < 3:
            raise ParseError(f"{path}: expected header 'citing_paper,author,<cited ids>'")
        cited_ids = header[2:]
        citing = []
        parts = []
        for row in rows:
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{rows.line_num}: expected {len(header)} fields")
            cells = row[2:]
            if not _BINARY_CELLS.issuperset(cells):
                col = next(i for i, cell in enumerate(cells) if cell not in _BINARY_CELLS)
                raise ParseError(
                    f"{path}:{rows.line_num}: non-binary value {cells[col]!r} in column "
                    f"{cited_ids[col]!r}"
                )
            citing.append((row[0], row[1]))
            parts.append("".join(cells))
    except csv.Error as exc:
        raise ParseError(f"{path}:{rows.line_num}: {exc}") from exc
    del text, rows  # the text goes before the matrix is built
    matrix = np.frombuffer("".join(parts).encode("ascii"), np.int8) - ord("0")
    return cited_ids, citing, matrix.reshape(len(parts), len(cited_ids))


def _csv_matrix(data):
    """(cited ids, [(citing id, author id)], J x K int8 matrix) of the CSV
    bytes ``data``: a UTF-8 header ``citing_paper,author,<K >= 1 cited ids>``
    and J >= 1 rows ``<id>,<author>,<K cells of 0 or 1>``, each ending in LF,
    with no quote, CR, NUL or blank line and no field longer than
    ``csv.field_size_limit()``; None for any other file. The last 2K bytes
    of all rows, ",d,...,d", are checked and decoded at once.
    """
    # The csv module of Python 3.10 rejects a NUL; later ones keep it.
    if not data.endswith(b"\n") or any(c in data for c in (b'"', b"\r", b"\0")):
        return None
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    header = data[: ends[0]]
    width = 2 * (header.count(b",") - 1)
    if width < 2 or len(ends) < 2 or np.diff(ends).min() < width + 2:
        return None  # no cited id, no body row, or a blank or short row
    ends = ends.tolist()
    view = memoryview(data)  # slices of it are not copies
    matrix = _template_digits([view[end - width : end] for end in ends[1:]], b",0" * (width // 2))
    prefixes = b"\n".join([view[start + 1 : end - width] for start, end in zip(ends, ends[1:])])
    try:
        header = header.decode("utf-8").split(",")
        citing = [tuple(row.split(",")) for row in prefixes.decode("utf-8").split("\n")]
    except UnicodeDecodeError:
        return None
    if (
        matrix is None
        or any(len(pair) != 2 for pair in citing)
        or max(len(field) for fields in (header, *citing) for field in fields)
        > csv.field_size_limit()
    ):
        return None
    return header[2:], citing, matrix


def load_system_csv(realized_path, accurate_path):
    """The system of a realized/accurate CSV pair; errors name the file, or
    both files when the pair is at fault."""
    cited_r, citing_r, matrix_r = _read_matrix_csv(realized_path)
    cited_a, citing_a, matrix_a = _read_matrix_csv(accurate_path)
    with _naming(f"{realized_path}, {accurate_path}"):
        if cited_r != cited_a or citing_r != citing_a:
            raise ParseError("realized and accurate CSV files disagree on ids")
        author_index = {}  # author id -> index, in order of first appearance
        citing = [
            (pid, author_index.setdefault(author, len(author_index)))
            for pid, author in citing_r
        ]
        return build_system(list(author_index), citing, cited_r, matrix_r, matrix_a)


def _write_matrix_csv(system, matrix, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["citing_paper", "author", *system.cited_paper_ids])
        for j, (pid, ai) in enumerate(system.citing_papers):
            writer.writerow([pid, system.author_ids[ai], *matrix[j].tolist()])


def save_system_csv(system, realized_path, accurate_path):
    _write_matrix_csv(system, system.realized, realized_path)
    _write_matrix_csv(system, system.accurate, accurate_path)


# -- report documents ---------------------------------------------------------


# The report's summary statistics, in output order: field -> table label.
_SUMMARY = {
    "pa_mean": "PA_mean",
    "pe_mean": "PE_mean",
    "sigma_ln": "sigma_LN",
    "sigma_pn": "sigma_PN",
    "sigma_sys": "sigma_SYS",
    "mean_tc": "mean_TC",
    "mean_ec": "mean_EC",
    "bias": "bias",
}


def report_to_document(report, system):
    """Full-precision report plus two-decimal printed renderings."""
    summary = {name: getattr(report, name) for name in _SUMMARY}
    return {
        "schema_version": SCHEMA_VERSION,
        "citing_papers": [
            {
                "id": pid,
                "author_id": system.author_ids[ai],
                "pr": s.pr,
                "pa": s.pa,
                "pe": s.pe,
            }
            for (pid, ai), s in zip(system.citing_papers, report.citing_paper_stats)
        ],
        "authors": [
            {
                "id": aid,
                "error_rate": er,
                "pattern_noise": pn,
                "printed": {
                    "error_rate": _round_printed(er),
                    "pattern_noise": _round_printed(pn),
                },
            }
            for aid, er, pn in zip(
                system.author_ids, report.author_error_rates, report.author_pattern_noise
            )
        ],
        "cited_papers": [
            {"id": cid, "pr": s.pr, "tc": s.tc, "ec": s.ec, "pa": s.pa, "pe": s.pe}
            for cid, s in zip(system.cited_paper_ids, report.cited_paper_stats)
        ],
        **summary,
        "bias_direction": report.bias_direction.value,
        "printed": {name: _round_printed(value) for name, value in summary.items()},
    }


def report_to_table(report, system):
    """Aligned plain-text rendering of the printed (two-decimal) values."""
    out = _io.StringIO()
    # Value -> text: a table holds few distinct values. analyze gives no -0.0,
    # which would share 0.0's key.
    printed = {}

    def fmt(x):
        text = printed.get(x)
        if text is None:
            text = printed[x] = f"{_round_printed(x):.2f}"
        return text

    out.write(f"{'citing paper':<16}{'author':<10}{'PR':>6}{'PA':>6}{'PE':>6}\n")
    for (pid, ai), s in zip(system.citing_papers, report.citing_paper_stats):
        out.write(
            f"{pid:<16}{system.author_ids[ai]:<10}"
            f"{fmt(s.pr):>6}{fmt(s.pa):>6}{fmt(s.pe):>6}\n"
        )
    out.write(f"\n{'author':<10}{'PE_i':>8}{'sigma_PN_i':>12}\n")
    for aid, er, pn in zip(
        system.author_ids, report.author_error_rates, report.author_pattern_noise
    ):
        out.write(f"{aid:<10}{fmt(er):>8}{fmt(pn):>12}\n")
    out.write(f"\n{'cited paper':<14}{'PR':>6}{'TC':>5}{'EC':>5}{'PA':>6}{'PE':>6}\n")
    for cid, s in zip(system.cited_paper_ids, report.cited_paper_stats):
        out.write(
            f"{cid:<14}{fmt(s.pr):>6}{s.tc:>5}{s.ec:>5}{fmt(s.pa):>6}{fmt(s.pe):>6}\n"
        )
    for name, label in _SUMMARY.items():
        out.write(f"\n{label:<10}{fmt(getattr(report, name))}")
    # The last summary row, bias, also shows its direction.
    out.write(f" ({report.bias_direction.value})\n")
    return out.getvalue()
