"""SHA-256 digests of citenoise's seeded outputs, pinned across commits.

citenoise promises byte-for-byte output for a given seed. Each subcommand
runs here once, through ``run_cli``, on small inputs built in the test from
fixed seeds, and each output's digest must equal the one in ``DIGESTS``.
A JSON output is hashed as :func:`~citenoise.io.dump_json` renders it with
any top-level ``provenance`` key removed, so that provenance can be added
without moving a digest; a CSV or table output is hashed as written.
``bias_recovery`` is pinned by the ``repr`` of its result on 1 and 2 CPUs.

The digests assume numpy's ``Generator`` streams (PCG64 seeded through
``SeedSequence``: ``random``, ``uniform``, ``integers``, ``binomial``) as
numpy 2.4.6 draws them. A change that means to change an output edits its
digest here and says which digest changed and why.
"""

import hashlib
import json
from unittest import mock

import numpy as np
import pytest

from citenoise import GenerativeConfig, bias_recovery
from citenoise import io as cio
from citenoise import simulate
from citenoise.cli import run_cli
from systems import random_system

CONFIG = dict(seed=11, n_authors=7, papers_per_author=3, n_cited=11, base_error=0.25,
              level_spread=0.05, interaction_spread=0.1, bias_shift=0.03, replicates=5)

DIGESTS = {
    "aggregate.csv": "6e5ddee5a95c25f791e5bb5b5cda42671c8b517fd8ad93135624cd663c07f706",
    "analyze-csv-json.json": "aad1f69bbcdf9ccc2dca22c3646fc16b1fe7778612f746203e7b22422da2faf6",
    "analyze-csv-table.table": "90c8bdb9c1e18324739248315710b9b29ba934e2541d69f2546941bbd306588a",
    "analyze-json-json.json": "5263e19db7f421bad627b5a1f16d00a349ecb0b22a5f1f3665056955a3c48d2c",
    "analyze-json-table.table": "2afd2c087272b033b105072b7ed0299899657152386a3d71e378ad42651a49ab",
    "audit.json": "e2d6b46838692cafd14ce3be4513dd7cd39b5e3b74b41a2d5830f792f5fd7273",
    "bias_recovery-1-cpus.repr": "06c92ad806ee2512116a6510a6cba2c2969222c9120035ed3be9cb3860bf0756",
    "bias_recovery-2-cpus.repr": "06c92ad806ee2512116a6510a6cba2c2969222c9120035ed3be9cb3860bf0756",
    "fixtures-table1.json": "a5628dbedaa68a8c3f26d26a64a7a7d2d8d9ebe394ab1dfc13d262be896d5068",
    "fixtures-table2.json": "0bb911092a7e2c74850aceaad1182ed681a97891fefd6fd358afd3128f3c97fb",
    "fixtures-table3.json": "e751cb5769964be2176a377c17ab945797c0e696ee01bf33f08eab91c3869d59",
    "latent.json": "1ed0ca2643ca9cedd97c13cc85edfe99fdcbe788c4323ef0ab79b6953c3dedf6",
    "omissions.json": "13155ccbd829c69fdab5cc880d0d0940d3c8efe5005a74fba27f4e53031309b7",
    "omissions-ties.json": "102804144bf3b3592032d7f3ec6402d3cf5ab98020bb07886fa3eb3de33fbcb9",
    "retest-300.json": "3428363f7bf1f14acdb3e6087cfba45ca82a8823200c129da1fc6a9a871e0f86",
    "retest.json": "9609710e326d9be719b701b7be0b8d301b92ec2ccf941ac6b8b4b38d82622f3f",
    "simulate-seed-7.json": "ee317842b29334a22b595d06b054e88cd69080bcf9dd6c08a3815d89a4dd29da",
    "simulate.json": "e7fda6438f7c7f5cb255cfc93321c0f65612528c98951b85e790a3dc27a7cc10",
}


def _digest(name, data):
    if name.endswith(".json"):
        doc = json.loads(data)
        if isinstance(doc, dict):
            doc.pop("provenance", None)
        data = cio.dump_json(doc).encode()
    return hashlib.sha256(data).hexdigest()


def _audit_inputs(tmp, rng):
    keys = [f"Author{i} {2000 + i}" for i in range(12)]
    (tmp / "refs.txt").write_text("\n".join(keys[:10]) + "\n")
    intext = [keys[i].upper() if i % 3 else keys[i] for i in rng.integers(0, 12, 20)]
    (tmp / "intext.txt").write_text("\n".join(intext) + "\n")
    rows = ["Cited work | Section | Knowledge flowed", "# a comment", "Section: Methods"]
    for n, i in enumerate(rng.integers(0, 13, 14)):
        key = keys[i] if i < 12 else "Orphan 1999"
        rows.append(f"{key} | reason {n}" if n % 2 else f"{key} | Intro | reason {n}")
    (tmp / "jt.txt").write_text("\n".join(rows) + "\n")


def _omission_inputs(tmp, rng, n=40, stamps=None, scores=None, stem=""):
    """sim{stem}.json and cites{stem}.json of n papers; random scores and
    small int timestamps unless given."""
    ids = [f"p{i:02d}" for i in range(n)]
    if stamps is None:
        stamps = rng.integers(0, 15, n).tolist()  # ties, broken by id
    if scores is None:
        scores = rng.random((n, n))
        scores = (scores + scores.T) / 2
        np.fill_diagonal(scores, 0.0)
    (tmp / f"sim{stem}.json").write_text(json.dumps({
        "papers": [{"id": i, "timestamp": t} for i, t in zip(ids, stamps)],
        "scores": scores.tolist(),
    }))
    cites = (rng.random((n, n)) < 0.2).astype(int)
    (tmp / f"cites{stem}.json").write_text(json.dumps({"papers": ids, "cites": cites.tolist()}))


def _omission_tie_inputs(tmp, rng):
    """Scores from {0, 0.5, 1} and timestamps from a pool where ints above
    2**53 and an int and a float tie or stay apart as Python orders them, so
    the top-k set of most papers is cut inside a run of ties."""
    n = 30
    raw = rng.integers(0, 3, (n, n)) / 2
    scores = np.maximum(raw, raw.T)
    np.fill_diagonal(scores, 1.0)
    pool = [2**53, 2**53 + 1, 2**53 + 2, 1.5, 2, 2.0]
    stamps = [pool[i] for i in rng.integers(0, len(pool), n).tolist()]
    _omission_inputs(tmp, rng, n, stamps, scores, "-ties")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """{name: output bytes} of every run, each run once."""
    tmp = tmp_path_factory.mktemp("digests")
    config = tmp / "config.json"
    config.write_text(json.dumps(CONFIG))
    config_300 = tmp / "config-300.json"  # error counts pass the 255-occasion flush
    config_300.write_text(json.dumps({**CONFIG, "replicates": 300}))
    cio.save_system(random_system(np.random.default_rng(3)), tmp / "system.json")
    cio.save_system_csv(
        random_system(np.random.default_rng(4)), tmp / "realized.csv", tmp / "accurate.csv"
    )
    _audit_inputs(tmp, np.random.default_rng(5))
    _omission_inputs(tmp, np.random.default_rng(6))
    _omission_tie_inputs(tmp, np.random.default_rng(8))

    runs = {
        **{f"fixtures-{name}.json": ["fixtures", "--name", name]
           for name in ("table1", "table2", "table3")},
        "simulate.json": ["simulate", "--config", config, "--latent", tmp / "latent.json"],
        "simulate-seed-7.json": ["simulate", "--config", config, "--seed", "7"],
        "retest.json": ["retest", "--config", config],
        "retest-300.json": ["retest", "--config", config_300],
        "aggregate.csv": ["aggregate", "--config", config, "--ns", "5,50,500",
                          "--trials", "200"],
        "audit.json": ["audit", "--refs", tmp / "refs.txt", "--intext", tmp / "intext.txt",
                       "--jt", tmp / "jt.txt"],
    }
    for fmt in ("json", "table"):
        runs[f"analyze-json-{fmt}.{fmt}"] = [
            "analyze", "--input", tmp / "system.json", "--format", fmt]
        runs[f"analyze-csv-{fmt}.{fmt}"] = [
            "analyze", "--input", tmp / "realized.csv", tmp / "accurate.csv", "--format", fmt]
    got = {}
    for name, argv in runs.items():
        out = tmp / name
        assert run_cli([*map(str, argv), "--out", str(out)]) == 0, name
        got[name] = out.read_bytes()
    got["latent.json"] = (tmp / "latent.json").read_bytes()

    for stem in ("", "-ties"):
        out = tmp / f"omissions{stem}.json"
        with pytest.warns(UserWarning, match="exceeds"):  # a paper with < k predecessors
            assert run_cli(["omissions", "--sim", str(tmp / f"sim{stem}.json"), "--citations",
                            str(tmp / f"cites{stem}.json"), "--k", "3", "--out", str(out)]) == 0
        got[out.name] = out.read_bytes()

    for cpus in (1, 2):
        with mock.patch.object(simulate, "_usable_cpus", lambda: cpus):
            result = bias_recovery(GenerativeConfig(**CONFIG), 100)
        got[f"bias_recovery-{cpus}-cpus.repr"] = repr(result).encode()
    return got


def test_every_output_is_pinned(outputs):
    assert sorted(outputs) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_digest(outputs, name):
    assert _digest(name, outputs[name]) == DIGESTS[name]
