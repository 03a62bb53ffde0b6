"""Fuzzed documents through the CLI: every input ends in an exit code.

A result (0), a citenoise error (1) or a usage error (2) are the only allowed
ends; no exception may escape ``run_cli`` and no traceback may reach stderr.
Each example starts from valid documents (an omission similarity / citation
pair, a small system document, a generator config, or the three audit
files), may give one id or timestamp a value of another type, and applies up
to three more mutations, each one deleting or replacing one node of a JSON
tree. That yields missing keys, wrong types, NaN or null values, mixed-type
ids and timestamps, and ragged matrices, while unmutated documents still
reach the analysis.
"""

import contextlib
import copy
import functools
import io
import json
import operator
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from citenoise.cli import run_cli
from edits import csv_pairs

# JSON scalars of every type a document field can be given by mistake.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(2**70)]),  # beyond float and int64 range
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
any_json = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def valid_documents(draw):
    n = draw(st.integers(0, 5))
    ids = draw(st.lists(st.text(min_size=1, max_size=3), min_size=n, max_size=n,
                        unique=True))
    stamp = draw(st.sampled_from([st.integers(0, 3), st.sampled_from(["2020", "2021"])]))
    stamps = draw(st.lists(stamp, min_size=n, max_size=n))
    upper = draw(st.lists(st.floats(0, 1), min_size=n * n, max_size=n * n))
    scores = [[upper[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    cites = draw(st.lists(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n),
                          min_size=n, max_size=n))
    sim = {
        "papers": [{"id": i, "timestamp": t} for i, t in zip(ids, stamps)],
        "scores": scores,
    }
    return [sim, {"papers": list(ids), "cites": cites}]


def _paths(node, path=()):
    """Every node of a JSON tree, as the key path from the root."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from _paths(child, path + (key,))


def _position(path):
    """A node's place in the schema: list indices below the document collapse."""
    return (path[0], *("*" if isinstance(key, int) else key for key in path[1:]))


def mutate(draw, docs, values=scalars | any_json):
    """Delete or replace up to three nodes of the JSON trees in ``docs``."""
    for _ in range(draw(st.integers(0, 3))):
        # Pick a schema position first, so that ids and timestamps are hit
        # as often as the far more numerous matrix cells.
        by_position = {}
        for path in list(_paths(docs))[1:]:
            by_position.setdefault(_position(path), []).append(path)
        paths = draw(st.sampled_from(sorted(by_position.values(), key=str)))
        path = draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, path[:-1], docs)
        if len(path) > 1 and draw(st.booleans()):
            del parent[path[-1]]  # a missing key, or a ragged row
        else:
            # A copy: a later mutation may edit inside the drawn value, which
            # must not change the strategy's own list for later examples.
            parent[path[-1]] = copy.deepcopy(draw(values))
    return docs


def test_mutate_leaves_drawn_values_unchanged():
    pool_list = [0.1, 0.2]
    # mutate's draws in order: the number of mutations, then for each one a
    # schema position's paths, one of them, delete-or-replace and the value.
    script = iter([
        2,
        [(0, "a")], (0, "a"), False, pool_list,  # docs[0]["a"] = pool_list
        [(0, "a", 0), (0, "a", 1)], (0, "a", 0), True,  # del docs[0]["a"][0]
    ])
    docs = mutate(lambda strategy: next(script), [{"a": 0}])
    assert docs == [{"a": [0.2]}]
    assert pool_list == [0.1, 0.2]


def run_on_documents(docs, argv):
    """Exit code and stderr of ``run_cli`` with ``{i}`` in argv the i-th file.

    A ``bytes`` or ``str`` document is written as it is, any other as JSON."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp) / f"doc{i}.json") for i in range(len(docs))]
        for path, doc in zip(paths, docs):
            if isinstance(doc, bytes):
                Path(path).write_bytes(doc)
            else:
                text = doc if isinstance(doc, str) else json.dumps(doc)
                Path(path).write_text(text, encoding="utf-8")
        argv = [arg.format(*paths) for arg in argv]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli(argv)
    return code, stderr.getvalue()


@st.composite
def omission_documents(draw):
    docs = draw(valid_documents())
    papers = docs[0]["papers"]
    if papers and draw(st.booleans()):  # one id or timestamp of another type
        field = draw(st.sampled_from(["id", "timestamp"]))
        draw(st.sampled_from(papers))[field] = draw(scalars)
    return mutate(draw, docs)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(docs=omission_documents(), k=st.integers(0, 6))
def test_malformed_omission_documents_end_in_an_exit_code(docs, k):
    code, err = run_on_documents(
        docs, ["omissions", "--sim", "{0}", "--citations", "{1}", "--k", str(k)]
    )
    assert code in (0, 1, 2)
    assert "Traceback" not in err


id_text = st.text(min_size=1, max_size=3)


@st.composite
def system_documents(draw):
    """One valid system document of at most 5 citing and 5 cited papers."""
    author_ids = draw(st.lists(id_text, min_size=1, max_size=3, unique=True))
    owners = author_ids + draw(st.lists(st.sampled_from(author_ids), max_size=2))
    paper_ids = draw(st.lists(id_text, min_size=len(owners), max_size=len(owners),
                              unique=True))
    cited_ids = draw(st.lists(id_text, min_size=1, max_size=5, unique=True))
    matrix = st.lists(
        st.lists(st.sampled_from([0, 1]), min_size=len(cited_ids), max_size=len(cited_ids)),
        min_size=len(owners), max_size=len(owners),
    )
    doc = {
        "schema_version": "1",
        "author_ids": author_ids,
        "citing_papers": [{"id": p, "author_id": a} for p, a in zip(paper_ids, owners)],
        "cited_paper_ids": cited_ids,
        "realized": draw(matrix),
        "accurate": draw(matrix),
    }
    if draw(st.booleans()):  # one id of another type
        field = draw(st.sampled_from(["author_ids", "id", "author_id", "cited_paper_ids"]))
        if field in ("id", "author_id"):
            node, key = draw(st.sampled_from(doc["citing_papers"])), field
        else:
            node, key = doc[field], draw(st.integers(0, len(doc[field]) - 1))
        node[key] = draw(scalars)
    return mutate(draw, [doc])


# Always tried: a null citing-paper id, which the table format cannot print.
NULL_CITING_ID = {
    "schema_version": "1",
    "author_ids": ["a"],
    "citing_papers": [{"id": None, "author_id": "a"}],
    "cited_paper_ids": ["c"],
    "realized": [[1]],
    "accurate": [[0]],
}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(docs=system_documents())
@example(docs=[NULL_CITING_ID])
def test_malformed_system_documents_end_in_an_exit_code(docs):
    for fmt in ("json", "table"):
        code, err = run_on_documents(docs, ["analyze", "--input", "{0}", "--format", fmt])
        assert code in (0, 1, 2)
        assert "Traceback" not in err


# Replacement values for configs and audit files. All are small, so that no
# mutated dimension, replicate count or seed makes an example allocate more
# than a few KB.
small_values = st.sampled_from(
    [None, True, False, 0, 1, 2, 3, -1, 0.5, 1.5, 1e308, float("nan"), float("inf"),
     "", "3", [], [0.1, 0.2]]
)
CONFIG = {
    "seed": 1, "n_authors": 2, "papers_per_author": 2, "n_cited": 3,
    "should_cite_prob": 0.5, "base_error": 0.2, "level_spread": 0.05,
    "interaction_spread": 0.05, "bias_shift": [0.0, 0.05, -0.05], "replicates": 3,
}
CONFIG_COMMANDS = [
    ["simulate", "--config", "{0}"],
    ["retest", "--config", "{0}"],
    ["aggregate", "--config", "{0}", "--ns", "1,5", "--trials", "100"],
]


@st.composite
def configs(draw):
    return mutate(draw, [copy.deepcopy(CONFIG)], small_values)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(docs=configs())
def test_mutated_configs_end_in_an_exit_code(docs):
    for argv in CONFIG_COMMANDS:
        code, err = run_on_documents(docs, argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err


fragments = st.sampled_from(
    ["A", "b  c", " ", "", "#", "|", "x | y", "Section: S", "Section:", "Cited work",
     "Section", "Knowledge flowed", "\u00e9", "x\r"]
)


def _lines(node):
    """A key file or table: one line per item, a row's fields joined by '|'."""
    if not isinstance(node, list):
        return str(node)
    return "\n".join(" | ".join(map(str, x)) if isinstance(x, list) else str(x)
                     for x in node)


@st.composite
def audit_files(draw):
    """Reference keys, in-text keys and a justification table, as text."""
    keys = st.lists(fragments, max_size=4)
    rows = st.lists(st.lists(fragments, min_size=1, max_size=4), max_size=5)
    docs = [draw(keys), draw(keys), draw(rows)]
    return [_lines(doc) for doc in mutate(draw, docs, fragments | small_values)]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(files=audit_files())
def test_mutated_justification_tables_end_in_an_exit_code(files):
    code, err = run_on_documents(
        files, ["audit", "--refs", "{0}", "--intext", "{1}", "--jt", "{2}"]
    )
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pair=csv_pairs(), fmt=st.sampled_from(["json", "table"]))
def test_edited_csv_pairs_end_in_an_exit_code(pair, fmt):
    code, err = run_on_documents(pair, ["analyze", "--input", "{0}", "{1}", "--format", fmt])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
