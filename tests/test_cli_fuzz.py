"""Fuzzed omission documents through the CLI: every input ends in an exit code.

A result (0), a citenoise error (1) or a usage error (2) are the only allowed
ends; no exception may escape ``run_cli`` and no traceback may reach stderr.
Each example starts from a valid similarity / citation document pair, may
give one paper's id or timestamp a value of another type, and applies up to
three more mutations, each one deleting or replacing one node of either
JSON tree. That yields missing keys, wrong types, NaN or null scores,
mixed-type ids and timestamps, and ragged matrices, while unmutated pairs
still reach the omission indicator.
"""

import contextlib
import functools
import io
import json
import operator
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from citenoise.cli import run_cli

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


@st.composite
def omission_documents(draw):
    docs = draw(valid_documents())
    papers = docs[0]["papers"]
    if papers and draw(st.booleans()):  # one id or timestamp of another type
        field = draw(st.sampled_from(["id", "timestamp"]))
        draw(st.sampled_from(papers))[field] = draw(scalars)
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
            parent[path[-1]] = draw(st.one_of(scalars, any_json))
    return docs


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(docs=omission_documents(), k=st.integers(0, 6))
def test_malformed_omission_documents_end_in_an_exit_code(docs, k):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "sim.json", Path(tmp) / "cites.json"]
        for path, doc in zip(paths, docs):
            path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["omissions", "--sim", str(paths[0]), "--citations", str(paths[1]),
                "--k", str(k)]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
