"""Reference computations that check citenoise's outputs.

Nothing here imports citenoise: each reference re-derives the expected
output from the generated input files with numpy and the standard library,
so a check never trusts the program it checks. Every ``check_*`` function
returns a list of problems; an empty list means the output is correct.
"""

import csv
import json
import math
import os
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

# Full-precision report values must match the reference to this absolute
# tolerance; the reference sums in a different order than the program.
VALUE_TOL = 1e-9
# sigma_SYS^2 = sigma_LN^2 + sigma_PN^2 must hold on the program's own values.
PYTHAGORAS_TOL = 1e-12
# simulate_retest: relative tolerance of occasion_sigma against
# sqrt(mean(pi (1 - pi))). The estimate averages J*K*T = 2e7 Bernoulli
# draws; its relative standard error is about 1e-3.
OCCASION_REL_TOL = 0.01
# simulate_retest: absolute tolerance of the bias_recovery average against
# expected_bias (about 200 citations). Over 20 seeds the average of 100
# trials missed it by a standard deviation of 0.34; 2.0 is about 6 of those.
BIAS_ABS_TOL = 2.0
# simulate_retest: absolute tolerance of the realized error share against
# the mean flip probability (standard error about 8e-4 over J*K cells).
FLIP_SHARE_TOL = 0.005
# simulate_retest: the latent flip probabilities must equal the offsets'
# sum recomputed here.
LATENT_TOL = 1e-12

TOLERANCES = {
    "value_abs": VALUE_TOL,
    "pythagoras_abs": PYTHAGORAS_TOL,
    "occasion_sigma_rel": OCCASION_REL_TOL,
    "bias_recovery_abs": BIAS_ABS_TOL,
    "flip_share_abs": FLIP_SHARE_TOL,
    "latent_abs": LATENT_TOL,
}


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- analyze ------------------------------------------------------------------


def round_half_up(value):
    """Two-decimal half-up rounding of the value's shortest repr."""
    return float(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def printed_candidates(value):
    """Printed values acceptable for a reference value.

    A reference that lies within VALUE_TOL of a rounding boundary may be
    printed either way, since the program's value may sit on the other side.
    """
    # A list, not a set: -0.0 and 0.0 are equal but print differently.
    return [round_half_up(value + d) for d in (-VALUE_TOL, 0.0, VALUE_TOL)]


def analyze_reference(realized, accurate, author):
    """Every NoiseReport statistic from per-row error counts and bincount."""
    r = np.asarray(realized, dtype=np.int64)
    a = np.asarray(accurate, dtype=np.int64)
    author = np.asarray(author, dtype=np.int64)
    j, k = r.shape
    err = np.abs(r - a)
    row_pe = err.sum(axis=1) / k
    n_i = np.bincount(author)
    er = np.bincount(author, weights=row_pe) / n_i
    dev = row_pe - er[author]
    pn = np.sqrt(np.bincount(author, weights=dev * dev) / n_i)
    pe_mean = float(row_pe.mean())
    sigma_ln = math.sqrt(float((n_i * (pe_mean - er) ** 2).sum()) / j)
    sigma_pn = math.sqrt(float((n_i * pn**2).sum()) / j)
    tc = r.sum(axis=0)
    ec = a.sum(axis=0)
    gap = int(tc.sum() - ec.sum())
    return {
        "row_pr": r.sum(axis=1) / k,
        "row_pe": row_pe,
        "author_error_rate": er,
        "author_pattern_noise": pn,
        "col_pr": tc / j,
        "col_pe": err.sum(axis=0) / j,
        "tc": tc,
        "ec": ec,
        "pa_mean": 1.0 - pe_mean,
        "pe_mean": pe_mean,
        "sigma_ln": sigma_ln,
        "sigma_pn": sigma_pn,
        "sigma_sys": math.sqrt(sigma_ln**2 + sigma_pn**2),
        "mean_tc": float(tc.mean()),
        "mean_ec": float(ec.mean()),
        "bias": float(tc.mean() - ec.mean()),
        "bias_direction": "over" if gap > 0 else "under" if gap < 0 else "none",
    }


SUMMARY_KEYS = ("pa_mean", "pe_mean", "sigma_ln", "sigma_pn", "sigma_sys", "mean_tc", "mean_ec", "bias")


def read_json_system(path):
    """(author ids, citing ids, author index per row, cited ids, R, A)."""
    doc = _load(path)
    author_ids = doc["author_ids"]
    index = {a: i for i, a in enumerate(author_ids)}
    citing = [p["id"] for p in doc["citing_papers"]]
    author = np.array([index[p["author_id"]] for p in doc["citing_papers"]])
    r = np.array(doc["realized"], dtype=np.int8)
    a = np.array(doc["accurate"], dtype=np.int8)
    return author_ids, citing, author, doc["cited_paper_ids"], r, a


def _read_csv_matrix(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    cited = rows[0][2:]
    body = [row for row in rows[1:] if row]
    return cited, [row[0] for row in body], [row[1] for row in body], np.array(
        [row[2:] for row in body], dtype=np.int8
    )


def read_csv_system(realized_path, accurate_path):
    """Same tuple as read_json_system; authors are numbered by first row."""
    cited, citing, labels, r = _read_csv_matrix(realized_path)
    _, _, _, a = _read_csv_matrix(accurate_path)
    author_ids = list(dict.fromkeys(labels))
    index = {aid: i for i, aid in enumerate(author_ids)}
    author = np.array([index[x] for x in labels])
    return author_ids, citing, author, cited, r, a


def _close(got, want):
    return isinstance(got, (int, float)) and abs(got - want) <= VALUE_TOL


def check_analyze_json(system, report_path):
    """Check a ``analyze --format json`` document against the reference."""
    author_ids, citing, author, cited, r, a = system
    ref = analyze_reference(r, a, author)
    doc = _load(report_path)
    problems = []

    def expect(ok, what):
        if not ok and len(problems) < 20:
            problems.append(what)

    expect(doc.get("schema_version") == "1", "schema_version")
    rows = doc["citing_papers"]
    expect(len(rows) == len(citing), "citing paper count")
    for j, row in enumerate(rows[: len(citing)]):
        expect(row["id"] == citing[j] and row["author_id"] == author_ids[author[j]], f"citing paper {j} ids")
        pe = ref["row_pe"][j]
        expect(_close(row["pe"], pe) and _close(row["pa"], 1.0 - pe), f"citing paper {j} pe/pa")
        expect(_close(row["pr"], ref["row_pr"][j]), f"citing paper {j} pr")
    authors = doc["authors"]
    expect(len(authors) == len(author_ids), "author count")
    for i, row in enumerate(authors[: len(author_ids)]):
        er, pn = ref["author_error_rate"][i], ref["author_pattern_noise"][i]
        expect(row["id"] == author_ids[i], f"author {i} id")
        expect(_close(row["error_rate"], er), f"author {i} error_rate")
        expect(_close(row["pattern_noise"], pn), f"author {i} pattern_noise")
        expect(row["printed"]["error_rate"] in printed_candidates(er), f"author {i} printed error_rate")
        expect(row["printed"]["pattern_noise"] in printed_candidates(pn), f"author {i} printed pattern_noise")
    cols = doc["cited_papers"]
    expect(len(cols) == len(cited), "cited paper count")
    for k, col in enumerate(cols[: len(cited)]):
        pe = ref["col_pe"][k]
        expect(col["id"] == cited[k], f"cited paper {k} id")
        expect(col["tc"] == ref["tc"][k] and col["ec"] == ref["ec"][k], f"cited paper {k} tc/ec")
        expect(_close(col["pr"], ref["col_pr"][k]), f"cited paper {k} pr")
        expect(_close(col["pe"], pe) and _close(col["pa"], 1.0 - pe), f"cited paper {k} pe/pa")
    for key in SUMMARY_KEYS:
        expect(_close(doc[key], ref[key]), f"{key} {doc[key]!r} vs reference {ref[key]!r}")
        expect(doc["printed"][key] in printed_candidates(ref[key]), f"printed {key}")
    expect(doc["bias_direction"] == ref["bias_direction"], "bias_direction")
    gap = doc["sigma_sys"] ** 2 - doc["sigma_ln"] ** 2 - doc["sigma_pn"] ** 2
    expect(abs(gap) <= PYTHAGORAS_TOL, f"sigma_SYS^2 - sigma_LN^2 - sigma_PN^2 = {gap!r}")
    return problems


def _printed_ok(token, value):
    return token in {f"{c:.2f}" for c in printed_candidates(value)}


def check_analyze_table(system, table_path):
    """Check a ``analyze --format table`` rendering against the reference."""
    author_ids, citing, author, cited, r, a = system
    ref = analyze_reference(r, a, author)
    with open(table_path, "r", encoding="utf-8") as fh:
        blocks = fh.read().rstrip("\n").split("\n\n")
    if len(blocks) != 4:
        return [f"expected 4 table blocks, got {len(blocks)}"]
    problems = []

    def expect(ok, what):
        if not ok and len(problems) < 20:
            problems.append(what)

    paper_rows = [line.split() for line in blocks[0].splitlines()[1:]]
    expect(len(paper_rows) == len(citing), "citing paper row count")
    for j, row in enumerate(paper_rows[: len(citing)]):
        pe = ref["row_pe"][j]
        expect(row[:2] == [citing[j], author_ids[author[j]]], f"citing row {j} ids")
        expect(
            len(row) == 5
            and _printed_ok(row[2], ref["row_pr"][j])
            and _printed_ok(row[3], 1.0 - pe)
            and _printed_ok(row[4], pe),
            f"citing row {j} values {row[2:]}",
        )
    author_rows = [line.split() for line in blocks[1].splitlines()[1:]]
    expect(len(author_rows) == len(author_ids), "author row count")
    for i, row in enumerate(author_rows[: len(author_ids)]):
        expect(
            len(row) == 3
            and row[0] == author_ids[i]
            and _printed_ok(row[1], ref["author_error_rate"][i])
            and _printed_ok(row[2], ref["author_pattern_noise"][i]),
            f"author row {i} {row}",
        )
    cited_rows = [line.split() for line in blocks[2].splitlines()[1:]]
    expect(len(cited_rows) == len(cited), "cited paper row count")
    for k, row in enumerate(cited_rows[: len(cited)]):
        pe = ref["col_pe"][k]
        expect(
            len(row) == 6
            and row[0] == cited[k]
            and _printed_ok(row[1], ref["col_pr"][k])
            and row[2] == str(ref["tc"][k])
            and row[3] == str(ref["ec"][k])
            and _printed_ok(row[4], 1.0 - pe)
            and _printed_ok(row[5], pe),
            f"cited row {k} {row}",
        )
    labels = ("PA_mean", "PE_mean", "sigma_LN", "sigma_PN", "sigma_SYS", "mean_TC", "mean_EC", "bias")
    summary = [line.split() for line in blocks[3].splitlines()]
    expect(len(summary) == len(labels), "summary line count")
    for label, key, row in zip(labels, SUMMARY_KEYS, summary):
        expect(row[0] == label and _printed_ok(row[1], ref[key]), f"summary {row}")
    expect(summary[-1][2:] == [f"({ref['bias_direction']})"], "bias direction")
    return problems


# -- simulate / retest / bias_recovery -----------------------------------------


def expected_bias(config):
    """J * ((1 - 2q) * base_error + mean b): the analytic TC - EC gap."""
    q = config["should_cite_prob"]
    j = config["n_authors"] * config["papers_per_author"]
    return j * ((1 - 2 * q) * config["base_error"] + float(np.mean(config["bias_shift"])))


def check_simulate_retest(config, out_dir):
    """Check the simulate, retest and bias_recovery outputs of one op."""
    problems = []
    n_authors, ppa, k = config["n_authors"], config["papers_per_author"], config["n_cited"]
    j = n_authors * ppa
    system = _load(os.path.join(out_dir, "system.json"))
    latent = _load(os.path.join(out_dir, "latent.json"))
    r = np.array(system["realized"], dtype=np.int64)
    a = np.array(system["accurate"], dtype=np.int64)
    if r.shape != (j, k) or a.shape != (j, k) or len(system["author_ids"]) != n_authors:
        return [f"simulated system shape {r.shape}, {len(system['author_ids'])} authors"]
    if not (np.isin(r, (0, 1)).all() and np.isin(a, (0, 1)).all()):
        problems.append("simulated matrices are not binary")
    if not np.array_equal(np.array(latent["accurate"]), a):
        problems.append("latent accurate matrix differs from the system's")
    aop = np.array(latent["author_of_paper"])
    if not np.array_equal(aop, np.repeat(np.arange(n_authors), ppa)):
        problems.append("author_of_paper is not the configured repeat")
    e = np.array(latent["author_offsets"])
    u = np.array(latent["interaction_offsets"])
    b = np.array(latent["bias_offsets"])
    pi = np.array(latent["flip_probs"])
    if np.abs(e).max() > config["level_spread"] or np.abs(u).max() > config["interaction_spread"]:
        problems.append("latent offsets exceed their configured spreads")
    if not np.allclose(b, config["bias_shift"], rtol=0, atol=LATENT_TOL):
        problems.append("bias offsets differ from bias_shift")
    direction = np.where(a == 0, 1.0, -1.0)
    raw = config["base_error"] + e[aop][:, None] + u[aop] + b[None, :] * direction
    if pi.shape != (j, k) or np.abs(np.clip(raw, 0.0, 1.0) - pi).max() > LATENT_TOL:
        problems.append("flip_probs differ from the offsets' sum")
    flip_share = float((r != a).mean())
    if abs(flip_share - pi.mean()) > FLIP_SHARE_TOL:
        problems.append(f"realized flip share {flip_share:.5f} vs mean flip prob {pi.mean():.5f}")

    retest = _load(os.path.join(out_dir, "retest.json"))
    want = math.sqrt(float((pi * (1 - pi)).mean()))
    if retest["replicates"] != config["replicates"]:
        problems.append(f"retest replicates {retest['replicates']}")
    if abs(retest["occasion_sigma"] / want - 1.0) > OCCASION_REL_TOL:
        problems.append(f"occasion_sigma {retest['occasion_sigma']!r} vs sqrt(mean pi(1-pi)) {want!r}")
    if not (math.isfinite(retest["stable_sigma"]) and retest["stable_sigma"] >= 0.0):
        problems.append(f"stable_sigma {retest['stable_sigma']!r}")

    recovery = _load(os.path.join(out_dir, "bias_recovery.json"))
    expected = expected_bias(config)
    if abs(recovery["expected"] - expected) > VALUE_TOL * max(1.0, abs(expected)):
        problems.append(f"expected_bias {recovery['expected']!r} vs {expected!r}")
    if abs(recovery["measured"] - expected) > BIAS_ABS_TOL:
        problems.append(f"bias_recovery {recovery['measured']!r} vs expected {expected!r}")
    return problems


# -- omissions ----------------------------------------------------------------


def omission_reference(ids, stamps, scores, cites, k):
    """(sorted [citing, earlier, flag] records, warning count).

    Paper p precedes paper j when (timestamp, id) of p sorts before that of
    j. Each row ranks its predecessors by higher score, then earlier
    timestamp, then input order with one np.lexsort, and flags the top k
    that were not cited. A paper with at least one but fewer than k
    predecessors warns once.
    """
    ids_arr = np.array(ids)
    ts = np.asarray(stamps)
    s = np.asarray(scores, dtype=float)
    c = np.asarray(cites)
    position = np.empty(len(ids), dtype=np.int64)
    position[np.lexsort((ids_arr, ts))] = np.arange(len(ids))
    records = []
    warnings = 0
    for j in range(len(ids)):
        earlier = np.flatnonzero(position < position[j])
        if earlier.size == 0:
            continue
        if earlier.size < k:
            warnings += 1
        ranked = earlier[np.lexsort((earlier, ts[earlier], -s[j, earlier]))]
        flag = np.zeros(len(ids), dtype=np.int64)
        top = ranked[:k]
        flag[top] = c[j, top] == 0
        records.extend([ids[j], ids[p], int(flag[p])] for p in earlier.tolist())
    records.sort()
    return records, warnings


def check_omissions(sim_path, cites_path, k, flags_path, warnings):
    sim = _load(sim_path)
    ids = [p["id"] for p in sim["papers"]]
    stamps = [p["timestamp"] for p in sim["papers"]]
    want, want_warnings = omission_reference(ids, stamps, sim["scores"], _load(cites_path)["cites"], k)
    doc = _load(flags_path)
    problems = []
    if doc.get("k") != k:
        problems.append(f"k {doc.get('k')!r}")
    got = [[f["citing"], f["earlier"], f["flag"]] for f in doc["flags"]]
    if len(got) != len(want):
        problems.append(f"{len(got)} flag records vs {len(want)}")
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    if bad:
        problems.append(f"{len(bad)} flag records differ, first {got[bad[0]]} vs {want[bad[0]]}")
    if warnings != want_warnings:
        problems.append(f"{warnings} warnings vs {want_warnings} papers with fewer than k predecessors")
    return problems


def check_first_op(workload, inputs, out_dir, warnings):
    """Dispatch to the check of one workload's first op."""
    if workload == "analyze_json":
        return check_analyze_json(read_json_system(os.path.join(inputs, "system.json")), os.path.join(out_dir, "report.json"))
    if workload == "analyze_csv":
        system = read_csv_system(os.path.join(inputs, "realized.csv"), os.path.join(inputs, "accurate.csv"))
        return check_analyze_table(system, os.path.join(out_dir, "report.txt"))
    if workload == "simulate_retest":
        return check_simulate_retest(_load(os.path.join(inputs, "config.json")), out_dir)
    if workload == "omissions":
        k = _load(os.path.join(inputs, "inputs.json"))["shape"]["k"]
        return check_omissions(
            os.path.join(inputs, "sim.json"), os.path.join(inputs, "cites.json"), k,
            os.path.join(out_dir, "flags.json"), warnings,
        )
    raise ValueError(f"unknown workload {workload!r}")
