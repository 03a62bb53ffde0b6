"""Generate one workload's input files from its seed.

Run as its own process so that the measuring process never holds
generator state:

    python3 bench/gen.py --workload analyze_json --seed 1 --dir OUT

Uses numpy and the standard library only; nothing from citenoise is
imported, so the program under test only ever sees the files written here.
``inputs.json`` in the output directory records the shapes, cell counts and
byte sizes of what was written.
"""

import argparse
import json
import os
import zlib

import numpy as np

# Bump whenever a generator's output for a given seed changes; it is part
# of the cache key in run.py.
GEN_VERSION = 1

def workload_rng(workload, seed):
    """Independent stream per (workload, seed)."""
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(workload.encode())]))


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _pair(rng, author, n_authors, n_cited, density):
    """Accurate matrix with the given density; realized flips it cell-wise
    at a per-author rate plus a per-paper jitter."""
    j = len(author)
    accurate = (rng.random((j, n_cited)) < density).astype(np.int8)
    author_rate = rng.uniform(0.05, 0.30, n_authors)
    paper_rate = np.clip(author_rate[author] + rng.uniform(-0.04, 0.04, j), 0.0, 1.0)
    flips = rng.random((j, n_cited)) < paper_rate[:, None]
    realized = np.where(flips, 1 - accurate, accurate).astype(np.int8)
    return realized, accurate


def gen_analyze_json(rng, out):
    n_authors, papers, n_cited = 1000, 5, 200
    author = rng.permutation(np.repeat(np.arange(n_authors), papers))
    realized, accurate = _pair(rng, author, n_authors, n_cited, 0.3)
    author_ids = [f"author-{i + 1:04d}" for i in range(n_authors)]
    doc = {
        "schema_version": "1",
        "author_ids": author_ids,
        "citing_papers": [
            {"id": f"paper-{j + 1:05d}", "author_id": author_ids[a]}
            for j, a in enumerate(author.tolist())
        ],
        "cited_paper_ids": [f"cited-{k + 1:04d}" for k in range(n_cited)],
        "realized": realized.tolist(),
        "accurate": accurate.tolist(),
    }
    # Same rendering as citenoise's own save_system: two-space indent.
    _write_text(os.path.join(out, "system.json"), json.dumps(doc, indent=2) + "\n")
    j = len(author)
    return {
        "shape": {"J": j, "K": n_cited, "authors": n_authors},
        "cells": j * n_cited,
        "files": ["system.json"],
    }


def _matrix_csv(path, paper_ids, author_labels, cited_ids, matrix):
    j, k = matrix.shape
    # One byte per cell plus a comma between cells, built without a Python
    # loop over cells.
    body = np.full((j, 2 * k), ord(","), dtype=np.uint8)
    body[:, 0::2] = matrix + ord("0")
    body[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(("citing_paper,author," + ",".join(cited_ids) + "\n").encode())
        for row in range(j):
            fh.write(f"{paper_ids[row]},{author_labels[row]},".encode())
            fh.write(body[row].tobytes())


def gen_analyze_csv(rng, out):
    n_authors, n_citing, n_cited = 8, 5000, 400
    # Every author owns at least one row; the rest are assigned at random so
    # authors differ in size.
    author = rng.permutation(
        np.concatenate([np.arange(n_authors), rng.integers(0, n_authors, n_citing - n_authors)])
    )
    realized, accurate = _pair(rng, author, n_authors, n_cited, 0.3)
    paper_ids = [f"paper-{j + 1:05d}" for j in range(n_citing)]
    labels = [f"author-{a + 1}" for a in author.tolist()]
    cited_ids = [f"cited-{k + 1:04d}" for k in range(n_cited)]
    _matrix_csv(os.path.join(out, "realized.csv"), paper_ids, labels, cited_ids, realized)
    _matrix_csv(os.path.join(out, "accurate.csv"), paper_ids, labels, cited_ids, accurate)
    return {
        "shape": {"J": n_citing, "K": n_cited, "authors": n_authors},
        "cells": n_citing * n_cited,
        "files": ["realized.csv", "accurate.csv"],
    }


# Trials passed to simulate.bias_recovery by the simulate_retest op.
BIAS_TRIALS = 100


def gen_simulate_retest(rng, out):
    # Offsets are kept inside [0, 1] around base_error, so no flip
    # probability is clamped and the analytic checks hold exactly in
    # expectation.
    config = {
        "seed": int(rng.integers(0, 2**31)),
        "n_authors": 100,
        "papers_per_author": 20,
        "n_cited": 100,
        "should_cite_prob": round(float(rng.uniform(0.2, 0.4)), 3),
        "base_error": round(float(rng.uniform(0.12, 0.18)), 3),
        "level_spread": 0.05,
        "interaction_spread": 0.03,
        "bias_shift": round(float(rng.uniform(0.01, 0.03)), 3),
        "replicates": 100,
    }
    _write_text(os.path.join(out, "config.json"), json.dumps(config, indent=2) + "\n")
    j = config["n_authors"] * config["papers_per_author"]
    k = config["n_cited"]
    t = config["replicates"]
    return {
        "shape": {"J": j, "K": k, "authors": config["n_authors"], "T": t, "trials": BIAS_TRIALS},
        # Realized decision cells sampled per op: one simulate, T retest
        # replicates and the bias_recovery trials.
        "cells": (1 + t + BIAS_TRIALS) * j * k,
        "files": ["config.json"],
    }


def gen_omissions(rng, out):
    n, dim, density = 600, 16, 0.02
    vectors = rng.random((n, dim))
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    scores = unit @ unit.T
    scores = np.clip((scores + scores.T) / 2.0, 0.0, 1.0)
    np.fill_diagonal(scores, 1.0)
    # Ids are a shuffled sequence so id order (the tie-break inside equal
    # timestamps) differs from input order; about three papers share each
    # timestamp.
    ids = [f"w{v:04d}" for v in rng.permutation(n).tolist()]
    stamps = rng.integers(2000, 2200, n).tolist()
    cites = (rng.random((n, n)) < density).astype(np.int8)
    np.fill_diagonal(cites, 0)
    sim_doc = {
        "papers": [{"id": pid, "timestamp": ts} for pid, ts in zip(ids, stamps)],
        "scores": scores.tolist(),
    }
    cite_doc = {"papers": ids, "cites": cites.tolist()}
    _write_text(os.path.join(out, "sim.json"), json.dumps(sim_doc) + "\n")
    _write_text(os.path.join(out, "cites.json"), json.dumps(cite_doc) + "\n")
    return {
        "shape": {"n": n, "dim": dim, "k": 5},
        "cells": n * n,
        "files": ["sim.json", "cites.json"],
    }


GENERATORS = {
    "analyze_json": gen_analyze_json,
    "analyze_csv": gen_analyze_csv,
    "simulate_retest": gen_simulate_retest,
    "omissions": gen_omissions,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload, seed, out):
    """Write the inputs of (workload, seed) into ``out`` and return the meta."""
    meta = GENERATORS[workload](workload_rng(workload, seed), out)
    meta.update(
        workload=workload,
        seed=seed,
        gen_version=GEN_VERSION,
        input_bytes=sum(os.path.getsize(os.path.join(out, f)) for f in meta["files"]),
    )
    _write_text(os.path.join(out, "inputs.json"), json.dumps(meta, indent=2) + "\n")
    return meta


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    os.makedirs(args.dir, exist_ok=True)
    generate(args.workload, args.seed, args.dir)


if __name__ == "__main__":
    main()
