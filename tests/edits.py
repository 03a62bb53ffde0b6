"""Small systems and one-edit corruptions of their files, shared by the CLI
fuzz tests and the decoder equivalence tests.

Each edit is one that a byte-level decoder could get wrong: for CSV, quotes,
CRLF, blank lines, a BOM, NUL and non-UTF-8 bytes, fields at the size limit,
ragged rows and cells that are not exactly 0 or 1; for JSON, a matrix field's
key escaped, repeated or nested, other whitespace, ragged or empty matrices,
cells that are not the integers 0 and 1, non-UTF-8 bytes and truncation.
"""

import copy
import csv
import json
import tempfile
from pathlib import Path

from hypothesis import strategies as st

from citenoise import build_system
from citenoise.io import dump_json, save_system_csv
from systems import as_lists

# Ids need CSV quoting (comma, quote, newline) or JSON escapes (quote,
# backslash, non-ASCII) now and then, and sometimes spell a matrix field's
# key. No id holds a "9", so that a cell written as 99999 is unique text.
id_text = st.text(alphabet="ab ,\"\\\né", min_size=1, max_size=3) | st.sampled_from(
    ["realized", "accurate", "cites", '"realized": [[0]]', '"cites": [[0]]', "p1"]
)
# Ids that need neither, so that whole files stay on the byte path's template.
plain_id_text = st.text(alphabet="ab é", min_size=1, max_size=3)


@st.composite
def small_systems(draw):
    """A valid system of at most 5 citing and 5 cited papers."""
    ids = draw(st.sampled_from([id_text, plain_id_text]))
    author_ids = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    owners = list(range(len(author_ids)))
    owners += draw(st.lists(st.sampled_from(owners), max_size=2))
    paper_ids = draw(st.lists(ids, min_size=len(owners), max_size=len(owners),
                              unique=True))
    cited_ids = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
    matrix = st.lists(
        st.lists(st.sampled_from([0, 1]), min_size=len(cited_ids), max_size=len(cited_ids)),
        min_size=len(owners), max_size=len(owners),
    )
    return build_system(author_ids, list(zip(paper_ids, owners)), cited_ids,
                        draw(matrix), draw(matrix))


def insert(draw, data, piece):
    """``piece`` inserted into ``data`` at a drawn offset."""
    at = draw(st.integers(0, len(data)))
    return data[:at] + piece + data[at:]


def off_by_one(draw, data):
    """``data`` with one byte, at a drawn offset, one above or below itself:
    a near miss of a byte template."""
    at = draw(st.integers(0, len(data) - 1))
    byte = (data[at] + draw(st.sampled_from([-1, 1]))) % 256
    return data[:at] + bytes([byte]) + data[at + 1:]


CSV_EDITS = ["quote", "crlf", "blank line", "bom", "nul", "long field", "non-utf8",
             "ragged", "cell", "byte"]


def edit_csv(draw, data, edit):
    """The bytes ``data`` of a CSV matrix file with one edit of kind ``edit``."""
    if edit == "byte":
        return off_by_one(draw, data)
    if edit in ("quote", "nul", "non-utf8"):
        return insert(draw, data, {"quote": b'"', "nul": b"\0", "non-utf8": b"\xff"}[edit])
    if edit == "bom":
        return b"\xef\xbb\xbf" + data
    if edit == "crlf" and draw(st.booleans()):
        return data.replace(b"\n", b"\r\n")
    lines = data.split(b"\n")
    row = draw(st.integers(0, len(lines) - 2))  # the last "line" is empty
    line = lines[row]
    if edit == "crlf":
        line += b"\r"
    elif edit == "blank line":
        line += b"\n"
    elif edit == "long field":
        # Around csv.field_size_limit(), the longest field csv accepts.
        size = csv.field_size_limit() + draw(st.integers(-1, 1))
        line = b"x" * size + line[max(line.find(b","), 0):]
    elif edit == "ragged":
        line = line + b",0" if draw(st.booleans()) else line[:-2]
    else:  # one of the last k fields, which are the cells of a body row
        fields = line.rsplit(b",", max(lines[0].count(b",") - 1, 1))
        col = draw(st.integers(min(1, len(fields) - 1), len(fields) - 1))
        fields[col] = draw(st.sampled_from([b"2", b" 1", b""]))
        line = b",".join(fields)
    lines[row] = line
    return b"\n".join(lines)


@st.composite
def csv_pairs(draw, edits=st.sampled_from(CSV_EDITS)):
    """The bytes of a small system's realized/accurate CSV pair, one file
    with one edit of a kind drawn from ``edits``."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "R.csv", Path(tmp) / "A.csv"]
        save_system_csv(draw(small_systems()), *paths)
        pair = [path.read_bytes() for path in paths]
    i = draw(st.integers(0, 1))
    pair[i] = edit_csv(draw, pair[i], draw(edits))
    return pair


JSON_EDITS = ["none", "escaped key", "member", "nested key", "whitespace", "matrix",
              "cell", "non-utf8", "bom", "byte", "truncate"]
# Written into a matrix as a marker, then replaced as text: no id holds a 9.
MARK = 99999


def _escaped(field):
    """The JSON key ``field`` with its next-to-last letter as a \\u escape."""
    return '"%s\\u%04x%s"' % (field[:-2], ord(field[-2]), field[-1])


def edit_json(draw, doc, fields, edit):
    """The bytes of the JSON document ``doc``, rendered by dump_json or as
    compact ``json.dumps`` output, with one edit of kind ``edit`` aimed at
    one of its top-level 0/1 matrix ``fields``."""
    doc = as_lists(doc)
    field = draw(st.sampled_from(fields))
    key = b'"%s":' % field.encode()
    if edit == "nested key":  # a copy of the matrix under the same key, earlier
        doc = {"meta": {field: copy.deepcopy(doc[field])}, **doc}
    elif edit == "matrix":
        rows = doc[field]
        row = draw(st.integers(0, len(rows) - 1))
        doc[field] = draw(st.sampled_from(
            [[], [[]], rows[:row] + [rows[row][:-1]] + rows[row + 1:], rows + [rows[0] * 2]]
        ))
    elif edit == "cell":
        rows = doc[field]
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, len(rows[0]) - 1))] = MARK
    data = draw(st.sampled_from([dump_json, json.dumps]))(doc).encode()
    if edit == "cell":
        cell = draw(st.sampled_from([b"2", b"-0", b"01", b"1.0", b"true", b"\xff", b"1 "]))
        data = data.replace(b"%d" % MARK, cell)
    elif edit == "escaped key" or edit == "nested key" and draw(st.booleans()):
        at = data.rindex(key)  # the top-level key, which comes last
        data = data[:at] + _escaped(field).encode() + data[at + len(key) - 1:]
    elif edit == "member":
        member = draw(st.sampled_from([
            f"{_escaped(field)}: []", f"{_escaped(field)}: [[1]]", f"{_escaped(field)}: NaN",
            f'"{field}": [[0]]', '"x": NaN', '"x": -Infinity', f'"y": {{"{field}": [[1]]}}',
        ])).encode()
        if draw(st.booleans()):
            data = b"{" + member + b", " + data[1:]
        else:
            at = data.rindex(b"}")
            data = data[:at] + b", " + member + data[at:]
    elif edit == "whitespace":
        old, new = draw(st.sampled_from([(b"\n", b"\r\n"), (b"  ", b"\t"), (b", ", b",\t ")]))
        data = data.replace(old, new)
    elif edit == "non-utf8":
        data = insert(draw, data, b"\xff")
    elif edit == "bom":
        data = b"\xef\xbb\xbf" + data
    elif edit == "byte":
        data = off_by_one(draw, data)
    elif edit == "truncate":
        data = data[:draw(st.integers(0, len(data) - 1))]
    return data
