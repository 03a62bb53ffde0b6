"""Serialization of systems, reports and the other documents.

Every JSON input is decoded by :func:`read_json`. Two on-disk system
representations are supported: a JSON document (schema_version "1") and a
pair of CSV matrices. The CSV layout is one header row
``citing_paper,author,<cited ids...>`` followed by one row per citing paper
with its id, author id, and one cell per cited paper; a cell is exactly
``0`` or ``1``, with no spaces. The realized and accurate files must agree on
all ids, and each loaded matrix takes J·K bytes (int8).
"""

import csv
import dataclasses
import io as _io
import json
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .audit import build_similarity
from .errors import ParseError, SchemaVersionUnsupported
from .model import build_system

SCHEMA_VERSION = "1"


def _round_printed(value, places=2):
    """Round half up to match the tables' printed two-decimal values."""
    q = Decimal(1).scaleb(-places)
    return float(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP))


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
        "realized": system.realized.tolist(),
        "accurate": system.accurate.tolist(),
    }


def _strings(value, what):
    """``value`` if it is a list of strings; TypeError naming ``what`` otherwise."""
    if type(value) is list and all(type(x) is str for x in value):
        return value
    raise TypeError(f"{what} must be a list of strings")


def system_from_document(doc):
    """The system of a schema "1" document; every id must be a JSON string."""
    if not isinstance(doc, dict):
        raise ParseError("system document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionUnsupported(f"schema_version {version!r} not supported")
    try:
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
        return build_system(author_ids, citing, cited_ids, doc["realized"], doc["accurate"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed system document: {exc}") from exc


def dump_json(doc):
    """Deterministic JSON rendering: fixed key order, LF, trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


def save_system(system, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_json(system_to_document(system)))


def read_json(path):
    """Decode one JSON file; malformed JSON raises ParseError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc


def load_system(path):
    return system_from_document(read_json(path))


def latent_to_document(latent):
    """The latent-truth sidecar: every LatentTruth field, in order, as lists."""
    doc = {"schema_version": SCHEMA_VERSION}
    for field in dataclasses.fields(latent):
        doc[field.name] = getattr(latent, field.name).tolist()
    return doc


# The Python types json gives each kind of JSON value; bool is neither.
_JSON_TYPES = {"number": frozenset((int, float)), "integer": frozenset((int,))}


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
    """(SimilarityMatrix, citation rows) for the omission indicator.

    Documents: ``{"papers": [{"id", "timestamp"}, ...], "scores": n x n}``
    and ``{"papers": [the same ids, in order], "cites": n x n}``. Scores are
    JSON numbers and citation entries the JSON integers 0 and 1; strings,
    ``true``/``false`` and ``0.0`` are rejected.
    """
    sim_doc = read_json(sim_path)
    try:
        papers = sim_doc["papers"]
        ids = [p["id"] for p in papers]
        _check_matrix(sim_doc["scores"], "scores", "number")
        sim = build_similarity(ids, [p["timestamp"] for p in papers], sim_doc["scores"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: a JSON integer beyond float range
        raise ParseError(f"{sim_path}: malformed similarity document: {exc}") from exc
    cite_doc = read_json(cites_path)
    try:
        if list(cite_doc["papers"]) != ids:
            raise ParseError("citation document paper ids disagree with similarity")
        _check_matrix(cite_doc["cites"], "cites", "integer")
        return sim, cite_doc["cites"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{cites_path}: malformed citation document: {exc}") from exc


# -- CSV matrix pairs ---------------------------------------------------------


_BINARY_CELLS = frozenset(("0", "1"))


def _read_matrix_csv(path):
    """(cited ids, [(citing id, author id)], J x K int8 matrix) of one CSV file.

    Each row is checked whole, and all rows are decoded at once at the end:
    a cell is exactly "0" or "1", so the joined rows are one byte per cell.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        if len(header) < 3:
            raise ParseError(f"{path}: expected header 'citing_paper,author,<cited ids>'")
        cited_ids = header[2:]
        citing = []
        parts = []
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} fields")
            cells = row[2:]
            if not _BINARY_CELLS.issuperset(cells):
                col = next(i for i, cell in enumerate(cells) if cell not in _BINARY_CELLS)
                raise ParseError(
                    f"{path}:{lineno}: non-binary value {cells[col]!r} in column "
                    f"{cited_ids[col]!r}"
                )
            citing.append((row[0], row[1]))
            parts.append("".join(cells))
    matrix = np.frombuffer("".join(parts).encode("ascii"), np.int8) - ord("0")
    return cited_ids, citing, matrix.reshape(len(parts), len(cited_ids))


def load_system_csv(realized_path, accurate_path):
    cited_r, citing_r, matrix_r = _read_matrix_csv(realized_path)
    cited_a, citing_a, matrix_a = _read_matrix_csv(accurate_path)
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


def report_to_document(report, system):
    """Full-precision report plus two-decimal printed renderings."""
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
        "pa_mean": report.pa_mean,
        "pe_mean": report.pe_mean,
        "sigma_ln": report.sigma_ln,
        "sigma_pn": report.sigma_pn,
        "sigma_sys": report.sigma_sys,
        "mean_tc": report.mean_tc,
        "mean_ec": report.mean_ec,
        "bias": report.bias,
        "bias_direction": report.bias_direction.value,
        "printed": {
            "pa_mean": _round_printed(report.pa_mean),
            "pe_mean": _round_printed(report.pe_mean),
            "sigma_ln": _round_printed(report.sigma_ln),
            "sigma_pn": _round_printed(report.sigma_pn),
            "sigma_sys": _round_printed(report.sigma_sys),
            "mean_tc": _round_printed(report.mean_tc),
            "mean_ec": _round_printed(report.mean_ec),
            "bias": _round_printed(report.bias),
        },
    }


def report_to_table(report, system):
    """Aligned plain-text rendering of the printed (two-decimal) values."""
    out = _io.StringIO()

    def fmt(x):
        return f"{_round_printed(x):.2f}"

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
    out.write("\n")
    out.write(f"PA_mean   {fmt(report.pa_mean)}\n")
    out.write(f"PE_mean   {fmt(report.pe_mean)}\n")
    out.write(f"sigma_LN  {fmt(report.sigma_ln)}\n")
    out.write(f"sigma_PN  {fmt(report.sigma_pn)}\n")
    out.write(f"sigma_SYS {fmt(report.sigma_sys)}\n")
    out.write(f"mean_TC   {fmt(report.mean_tc)}\n")
    out.write(f"mean_EC   {fmt(report.mean_ec)}\n")
    out.write(
        f"bias      {fmt(report.bias)} ({report.bias_direction.value})\n"
    )
    return out.getvalue()
