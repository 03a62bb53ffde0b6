import builtins
import collections
import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import citenoise

from citenoise import analyze, builtin_fixture
from citenoise.cli import run_cli
from citenoise.errors import (
    DimensionMismatch,
    EmptySystem,
    MalformedRow,
    NonBinaryEntry,
    ParseError,
    SchemaVersionUnsupported,
    UnknownFixture,
)
from citenoise.fixtures import fixture_names
from citenoise import io as cio

from systems import as_lists, random_system


class TestFixtures:
    def test_names(self):
        assert fixture_names() == ["table1", "table2", "table3"]

    def test_table1(self):
        s = builtin_fixture("table1")
        r = analyze(s)
        assert (s.n_citing, s.n_cited) == (10, 5)
        assert [c.tc for c in r.cited_paper_stats] == [6, 7, 5, 4, 1]

    def test_table2(self):
        s = builtin_fixture("table2")
        assert (s.n_citing, s.n_cited) == (10, 4)
        assert analyze(s).bias == 0.0

    def test_table3(self):
        s = builtin_fixture("table3")
        r = analyze(s)
        assert (s.n_citing, s.n_cited) == (11, 5)
        assert all(c.tc == c.ec for c in r.cited_paper_stats)

    def test_unknown(self):
        with pytest.raises(UnknownFixture):
            builtin_fixture("table9")


class TestSystemDocuments:
    def test_json_round_trip(self, tmp_path, rng):
        for _ in range(5):
            s = random_system(rng)
            path = tmp_path / "sys.json"
            cio.save_system(s, path)
            assert cio.load_system(path) == s

    def test_document_round_trip_in_memory(self, rng):
        """The document of system_to_document, whose citing papers are a
        structured array, reads back without a trip through JSON."""
        for _ in range(5):
            s = random_system(rng)
            assert cio.system_from_document(cio.system_to_document(s)) == s

    def test_csv_round_trip(self, tmp_path, rng):
        for _ in range(5):
            s = random_system(rng)
            rp, ap = tmp_path / "R.csv", tmp_path / "A.csv"
            cio.save_system_csv(s, rp, ap)
            assert cio.load_system_csv(rp, ap) == canonical_author_order(s)

    def test_csv_authors_in_first_appearance_order(self, tmp_path):
        s = builtin_fixture("table1")
        rows = [2, 0, 5, 1, 3, 4] + list(range(6, s.n_citing))
        shuffled = citenoise.build_system(
            s.author_ids,
            [s.citing_papers[j] for j in rows],
            s.cited_paper_ids,
            s.realized[rows],
            s.accurate[rows],
        )
        rp, ap = tmp_path / "R.csv", tmp_path / "A.csv"
        cio.save_system_csv(shuffled, rp, ap)
        loaded = cio.load_system_csv(rp, ap)
        owners = [shuffled.author_ids[a] for _, a in shuffled.citing_papers]
        first_seen = list(dict.fromkeys(owners))
        assert first_seen != list(shuffled.author_ids)
        assert list(loaded.author_ids) == first_seen
        assert loaded == canonical_author_order(shuffled)

    def test_formats_agree(self, tmp_path):
        s = builtin_fixture("table1")
        cio.save_system(s, tmp_path / "sys.json")
        cio.save_system_csv(s, tmp_path / "R.csv", tmp_path / "A.csv")
        from_json = cio.load_system(tmp_path / "sys.json")
        from_csv = cio.load_system_csv(tmp_path / "R.csv", tmp_path / "A.csv")
        assert from_json == from_csv == s

    def test_loaded_table1_analyzes_correctly(self, tmp_path):
        cio.save_system(builtin_fixture("table1"), tmp_path / "t1.json")
        r = analyze(cio.load_system(tmp_path / "t1.json"))
        assert r.sigma_sys == pytest.approx(0.18, abs=5e-3)

    def test_non_binary_value_positioned(self, tmp_path):
        doc = as_lists(cio.system_to_document(builtin_fixture("table1")))
        doc["realized"][0][0] = 2
        p = tmp_path / "bad.json"
        p.write_text(cio.dump_json(doc))
        with pytest.raises(NonBinaryEntry, match=r"\[0\]\[0\]"):
            cio.load_system(p)

    def test_csv_non_binary_positioned(self, tmp_path):
        s = builtin_fixture("table1")
        cio.save_system_csv(s, tmp_path / "R.csv", tmp_path / "A.csv")
        lines = (tmp_path / "R.csv").read_text().splitlines()
        lines[1] = lines[1].replace("0", "2", 1)
        (tmp_path / "R.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="R.csv:2"):
            cio.load_system_csv(tmp_path / "R.csv", tmp_path / "A.csv")

    def test_schema_version_check(self, tmp_path):
        doc = as_lists(cio.system_to_document(builtin_fixture("table1")))
        doc["schema_version"] = "99"
        p = tmp_path / "v99.json"
        p.write_text(cio.dump_json(doc))
        with pytest.raises(SchemaVersionUnsupported):
            cio.load_system(p)

    def test_report_printed_fields_round_half_up(self):
        s = builtin_fixture("table1")
        doc = cio.report_to_document(analyze(s), s)
        assert doc["printed"]["sigma_ln"] == 0.06
        assert doc["printed"]["sigma_pn"] == 0.17
        assert doc["printed"]["sigma_sys"] == 0.18
        assert cio._round_printed(0.125) == 0.13  # half up, not banker's


def canonical_author_order(system):
    """Reindex authors by first appearance in citing-paper order.

    The CSV pair format carries no separate author list, so loading
    recovers authors in first-appearance order; normalizing the original
    the same way makes round-trips comparable structurally.
    """
    from citenoise import build_system

    order = []
    for _, ai in system.citing_papers:
        if ai not in order:
            order.append(ai)
    remap = {old: new for new, old in enumerate(order)}
    return build_system(
        [system.author_ids[i] for i in order],
        [(pid, remap[ai]) for pid, ai in system.citing_papers],
        system.cited_paper_ids,
        system.realized,
        system.accurate,
    )


def reference_read_matrix_csv(path):
    """Per-cell reference reader: checks and converts every cell in Python.
    An error names the last physical line of the row at fault."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        if len(header) < 3:
            raise ParseError(f"{path}: expected header 'citing_paper,author,<cited ids>'")
        cited_ids = header[2:]
        citing = []
        matrix = []
        for row in rows:
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{rows.line_num}: expected {len(header)} fields")
            values = []
            for col, cell in enumerate(row[2:]):
                if cell not in ("0", "1"):
                    raise ParseError(
                        f"{path}:{rows.line_num}: non-binary value {cell!r} in column "
                        f"{cited_ids[col]!r}"
                    )
                values.append(int(cell))
            citing.append((row[0], row[1]))
            matrix.append(values)
    return cited_ids, citing, matrix


def quoted_ids_system(rng):
    """A random system whose ids need CSV quoting: commas, quotes, spaces."""
    s = canonical_author_order(random_system(rng))
    return citenoise.build_system(
        [f'a,{i} "x"' for i in range(s.n_authors)],
        [(f'p"{j}", q', ai) for j, (_, ai) in enumerate(s.citing_papers)],
        [f"c {k},y" for k in range(s.n_cited)],
        s.realized,
        s.accurate,
    )


def with_blank_lines_and_crlf(path):
    """Rewrite a CSV file with CRLF endings and a blank line after every row."""
    text = path.read_text(encoding="utf-8")
    path.write_bytes(text.replace("\n", "\r\n\r\n").encode("utf-8"))


class TestCsvReader:
    def write_pair(self, tmp_path, system):
        rp, ap = tmp_path / "R.csv", tmp_path / "A.csv"
        cio.save_system_csv(system, rp, ap)
        return rp, ap

    def test_matches_reference_reader(self, tmp_path, rng):
        for trial in range(8):
            s = quoted_ids_system(rng)
            rp, ap = self.write_pair(tmp_path, s)
            if trial % 2:
                with_blank_lines_and_crlf(rp)
                with_blank_lines_and_crlf(ap)
            for path in (rp, ap):
                cited, citing, matrix = cio._read_matrix_csv(path)
                ref_cited, ref_citing, ref_matrix = reference_read_matrix_csv(path)
                assert (cited, citing) == (ref_cited, ref_citing)
                assert matrix.dtype == np.int8
                assert matrix.shape == (s.n_citing, s.n_cited)
                assert np.array_equal(matrix, np.asarray(ref_matrix))
            cio.save_system(s, tmp_path / "sys.json")
            assert cio.load_system_csv(rp, ap) == cio.load_system(tmp_path / "sys.json")

    def bad_file(self, tmp_path, cell, line=4, col=3):
        """R.csv of a random system with one cell replaced at (line, col)."""
        s = quoted_ids_system(np.random.default_rng(7))
        rp, ap = self.write_pair(tmp_path, s)
        with open(rp, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[line - 1][2 + col] = cell
        with open(rp, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        return s, rp, ap

    @pytest.mark.parametrize("cell", ["2", " 0", "00", ""])
    def test_bad_cell_names_line_and_cited_id(self, tmp_path, cell):
        s, rp, ap = self.bad_file(tmp_path, cell)
        with pytest.raises(ParseError) as ref:
            reference_read_matrix_csv(rp)
        with pytest.raises(ParseError) as got:
            cio.load_system_csv(rp, ap)
        assert str(got.value) == str(ref.value)
        assert f"R.csv:4: non-binary value {cell!r}" in str(got.value)
        assert repr(s.cited_paper_ids[3]) in str(got.value)

    def test_bad_cell_line_counts_blank_lines(self, tmp_path):
        _, rp, ap = self.bad_file(tmp_path, "x", line=3, col=2)
        with_blank_lines_and_crlf(rp)  # the bad row is now line 5
        with pytest.raises(ParseError, match=r"R\.csv:5: non-binary value 'x'") as got:
            cio.load_system_csv(rp, ap)
        with pytest.raises(ParseError) as ref:
            reference_read_matrix_csv(rp)
        assert str(got.value) == str(ref.value)

    def test_short_row(self, tmp_path):
        s = quoted_ids_system(np.random.default_rng(7))
        rp, ap = self.write_pair(tmp_path, s)
        lines = rp.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        rp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"R\\.csv:3: expected {s.n_cited + 2} fields"):
            cio.load_system_csv(rp, ap)

    @pytest.mark.parametrize(
        "last_row, message",
        [("r,a,2\n", "non-binary value '2'"), ("r,a\n", "expected 3 fields")],
        ids=["non-binary", "short"],
    )
    def test_error_names_the_physical_line(self, tmp_path, last_row, message):
        # The quoted id "p\nq" takes lines 2 and 3, so row r is line 4.
        rp, ap = tmp_path / "R.csv", tmp_path / "A.csv"
        head = 'citing_paper,author,c\n"p\nq",a,1\n'
        rp.write_bytes((head + last_row).encode())
        ap.write_bytes((head + "r,a,1\n").encode())
        with pytest.raises(ParseError) as got:
            cio.load_system_csv(rp, ap)
        with pytest.raises(ParseError) as ref:
            reference_read_matrix_csv(rp)
        assert str(got.value) == str(ref.value)
        assert str(got.value).startswith(f"{rp}:4: {message}")

    def test_declined_file_holds_one_copy_of_its_text(self, tmp_path):
        """A file the byte path declines is parsed from its text alone: its
        bytes go once decoded, its text once parsed, and no four-byte-per-
        character copy of it is made."""
        rng = np.random.default_rng(3)
        path = tmp_path / "R.csv"
        path.write_text("citing_paper,author," + ",".join(f"c{k}" for k in range(200)) + "\n"
                        + "".join(f'"p,{j}",a,' + ",".join(map(str, rng.integers(0, 2, 200)))
                                  + "\n" for j in range(2000)))
        tracemalloc.start()
        try:
            cio._read_matrix_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * path.stat().st_size

    def test_header_only_is_empty_system(self, tmp_path):
        for path in (tmp_path / "R.csv", tmp_path / "A.csv"):
            path.write_text("citing_paper,author,c0,c1\n", encoding="utf-8")
        with pytest.raises(EmptySystem):
            cio.load_system_csv(tmp_path / "R.csv", tmp_path / "A.csv")

    def test_empty_file_is_parse_error(self, tmp_path):
        for path in (tmp_path / "R.csv", tmp_path / "A.csv"):
            path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="expected header"):
            cio.load_system_csv(tmp_path / "R.csv", tmp_path / "A.csv")


def write_config(tmp_path, **kw):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(kw))
    return str(p)


class TestCli:
    def test_analyze_table_output(self, tmp_path, capsys):
        fx = tmp_path / "t1.json"
        cio.save_system(builtin_fixture("table1"), fx)
        assert run_cli(["analyze", "--input", str(fx), "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "sigma_LN  0.06" in out
        assert "sigma_PN  0.17" in out
        assert "sigma_SYS 0.18" in out

    def test_analyze_json_matches_table_rounding(self, tmp_path, capsys):
        fx = tmp_path / "t1.json"
        cio.save_system(builtin_fixture("table1"), fx)
        run_cli(["analyze", "--input", str(fx)])
        doc = json.loads(capsys.readouterr().out)
        assert doc["printed"]["pa_mean"] == 0.54
        assert doc["sigma_sys"] == pytest.approx(0.18, abs=5e-3)

    def test_analyze_csv_pair(self, tmp_path, capsys):
        s = builtin_fixture("table1")
        cio.save_system_csv(s, tmp_path / "R.csv", tmp_path / "A.csv")
        code = run_cli(
            ["analyze", "--input", str(tmp_path / "R.csv"), str(tmp_path / "A.csv")]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["printed"]["sigma_ln"] == 0.06

    def test_simulate_writes_loadable_system(self, tmp_path):
        config = write_config(
            tmp_path, seed=5, n_authors=3, papers_per_author=2, n_cited=4,
            base_error=0.2,
        )
        out = tmp_path / "sys.json"
        latent = tmp_path / "latent.json"
        code = run_cli(
            ["simulate", "--config", config, "--out", str(out), "--latent", str(latent)]
        )
        assert code == 0
        assert cio.load_system(out).n_citing == 6
        sidecar = json.loads(latent.read_text())
        assert len(sidecar["flip_probs"]) == 6

    def test_simulate_requires_seed(self, tmp_path, capsys):
        config = write_config(tmp_path, n_authors=2, papers_per_author=2, n_cited=2)
        assert run_cli(["simulate", "--config", config]) == 2

    def test_seed_flag_overrides_config(self, tmp_path):
        config = write_config(
            tmp_path, seed=1, n_authors=2, papers_per_author=2, n_cited=3,
            base_error=0.3,
        )
        o1, o2, o3 = (tmp_path / f"s{i}.json" for i in range(3))
        run_cli(["simulate", "--config", config, "--out", str(o1)])
        run_cli(["simulate", "--config", config, "--seed", "2", "--out", str(o2)])
        run_cli(["simulate", "--config", config, "--seed", "1", "--out", str(o3)])
        assert o1.read_bytes() == o3.read_bytes()
        assert o1.read_bytes() != o2.read_bytes()

    def test_retest_document(self, tmp_path, capsys):
        config = write_config(
            tmp_path, seed=9, n_authors=4, papers_per_author=3, n_cited=5,
            base_error=0.3, replicates=10,
        )
        assert run_cli(["retest", "--config", config]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stable_sigma"] >= 0.0
        assert doc["occasion_sigma"] > 0.0

    def test_aggregate_csv(self, tmp_path, capsys):
        config = write_config(tmp_path, seed=3, should_cite_prob=0.5)
        code = run_cli(
            ["aggregate", "--config", config, "--ns", "100", "--trials", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "n,empirical_se,theoretical_se"
        assert "0.0500" in out.splitlines()[1].split(",")[2]

    @pytest.mark.parametrize("ns", [",", "", "5,x"])
    def test_aggregate_without_sample_sizes_is_usage_error(self, tmp_path, capsys, ns):
        config = write_config(tmp_path, seed=3)
        code = run_cli(["aggregate", "--config", config, "--ns", ns, "--trials", "200"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: --ns must be a comma-separated integer list: {ns!r}" in err

    def test_aggregate_trials_out_of_range_is_usage_error(self, tmp_path, capsys):
        # 2**62 int64 trials fit an intp count but not an array's bytes:
        # numpy's own "array is too big" error named no bound.
        config = write_config(tmp_path, seed=3)
        largest = np.iinfo(np.intp).max // 8
        for trials, message in [
            ("50", "need at least 100 trials"),
            ("100000000000000000000", f"trials must be at most {largest}, got {10**20}"),
            (str(2**62), f"trials must be at most {largest}, got {2**62}"),
        ]:
            code = run_cli(["aggregate", "--config", config, "--ns", "5", "--trials", trials])
            out, err = capsys.readouterr()
            assert code == 2
            assert out == ""
            assert err == f"error: --trials: {message}\n"

    def test_analyze_three_inputs_is_usage_error(self, tmp_path, capsys):
        fx = tmp_path / "t1.json"
        cio.save_system(builtin_fixture("table1"), fx)
        code = run_cli(["analyze", "--input", str(fx), str(fx), str(fx)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == ("error: --input takes one JSON document or a realized/accurate "
                       "CSV pair\n")

    def test_memory_error_exits_1_naming_the_subcommand(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 8.00 EiB")

        monkeypatch.setattr("citenoise.simulate._sample_latent", out_of_memory)
        config = write_config(tmp_path, seed=3)
        code = run_cli(["simulate", "--config", config])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err == "error: simulate: out of memory (Unable to allocate 8.00 EiB)\n"

    def test_aggregate_sample_size_beyond_int64_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path, seed=3)
        largest = str(2**63 - 1)
        assert run_cli(["aggregate", "--config", config, "--ns", largest, "--trials", "100"]) == 0
        capsys.readouterr()
        code = run_cli(["aggregate", "--config", config, "--ns", str(2**63), "--trials", "100"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert f"error: sample sizes must be in [1, {largest}]" in err

    def test_audit_command(self, tmp_path, capsys):
        (tmp_path / "refs.txt").write_text("A\nB\n")
        (tmp_path / "intext.txt").write_text("A\nB\nC\n")
        (tmp_path / "jt.txt").write_text(
            "Cited work | Section | Knowledge flowed\nA | S | x\nB | S | y\n"
        )
        code = run_cli(
            ["audit", "--refs", str(tmp_path / "refs.txt"),
             "--intext", str(tmp_path / "intext.txt"), "--jt", str(tmp_path / "jt.txt")]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["unjustified_citations"] == ["c"]
        assert doc["coverage_ratio"] == pytest.approx(2 / 3)

    def test_omissions_command(self, tmp_path, capsys):
        (tmp_path / "sim.json").write_text(json.dumps({
            "papers": [{"id": "old", "timestamp": 0}, {"id": "new", "timestamp": 1}],
            "scores": [[0, 0.9], [0.9, 0]],
        }))
        (tmp_path / "cites.json").write_text(json.dumps({
            "papers": ["old", "new"], "cites": [[0, 0], [0, 0]],
        }))
        code = run_cli(
            ["omissions", "--sim", str(tmp_path / "sim.json"),
             "--citations", str(tmp_path / "cites.json"), "--k", "1"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["flags"] == [{"citing": "new", "earlier": "old", "flag": 1}]

    def test_omissions_on_no_papers_gives_no_flags(self, tmp_path, capsys):
        """With no papers, "scores": [] and "cites": [] are 0 x 0 matrices."""
        (tmp_path / "sim.json").write_text(json.dumps({"papers": [], "scores": []}))
        (tmp_path / "cites.json").write_text(json.dumps({"papers": [], "cites": []}))
        code = run_cli(
            ["omissions", "--sim", str(tmp_path / "sim.json"),
             "--citations", str(tmp_path / "cites.json"), "--k", "2"]
        )
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out == cio.dump_json({"schema_version": "1", "k": 2, "flags": []})
        # A row, even an empty one, is not the matrix of no papers.
        for sim_rows, cite_rows, at_fault in (([[]], [], "sim"), ([], [[]], "cites")):
            (tmp_path / "sim.json").write_text(json.dumps({"papers": [], "scores": sim_rows}))
            (tmp_path / "cites.json").write_text(json.dumps({"papers": [], "cites": cite_rows}))
            code = run_cli(["omissions", "--sim", str(tmp_path / "sim.json"),
                            "--citations", str(tmp_path / "cites.json"), "--k", "2"])
            err = capsys.readouterr().err
            assert code == 1
            assert f"error: {tmp_path / at_fault}.json: " in err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_omissions_k_below_1_is_usage_error(self, tmp_path, capsys, k):
        # The files do not exist: the value is rejected before any is read.
        code = run_cli(["omissions", "--sim", str(tmp_path / "sim.json"),
                        "--citations", str(tmp_path / "cites.json"), "--k", k])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert f"error: --k must be >= 1, got {k}" in err

    def test_fixtures_dump(self, tmp_path):
        out = tmp_path / "t2.json"
        assert run_cli(["fixtures", "--name", "table2", "--out", str(out)]) == 0
        assert cio.load_system(out) == builtin_fixture("table2")

    def test_python_m_citenoise(self, tmp_path):
        src = str(Path(citenoise.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, path]))}
        proc = subprocess.run(
            [sys.executable, "-m", "citenoise", "fixtures", "--name", "table1"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["author_ids"] == list(
            builtin_fixture("table1").author_ids
        )

    @pytest.mark.parametrize(
        "command",
        [["simulate"], ["aggregate", "--ns", "5", "--trials", "100"]],
        ids=["simulate", "aggregate"],
    )
    @pytest.mark.parametrize(
        "bad",
        ['"n_authors": "3"', '"level_spread": NaN', '"n_authors": 2.5'],
        ids=["string-dimension", "nan-spread", "float-dimension"],
    )
    def test_wrong_typed_config_exits_1(self, tmp_path, capsys, command, bad):
        config = tmp_path / "config.json"
        config.write_text('{"seed": 1, "papers_per_author": 2, "n_cited": 3, %s}' % bad)
        code = run_cli([command[0], "--config", str(config), *command[1:]])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert "error:" in err

    def test_unknown_fixture_is_usage_error(self, capsys):
        assert run_cli(["fixtures", "--name", "table9"]) == 2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["analyze", "--input", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_byte_determinism(self, tmp_path):
        sim_cfg = write_config(
            tmp_path, seed=77, n_authors=3, papers_per_author=3, n_cited=4,
            base_error=0.25, replicates=5,
        )
        pairs = [
            (["simulate", "--config", sim_cfg], "sim"),
            (["retest", "--config", sim_cfg], "retest"),
            (["aggregate", "--config", sim_cfg, "--ns", "10,100", "--trials", "300"],
             "agg"),
        ]
        for argv, stem in pairs:
            a, b = tmp_path / f"{stem}_a.out", tmp_path / f"{stem}_b.out"
            assert run_cli([*argv, "--out", str(a)]) == 0
            assert run_cli([*argv, "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("out", ["x.json", "./x.json"])
    def test_two_outputs_naming_one_file_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                        out):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, seed=3, n_authors=2, papers_per_author=2, n_cited=3)
        code = run_cli(["simulate", "--config", config, "--latent", "x.json", "--out", out])
        assert code == 2
        target = os.path.realpath(tmp_path / "x.json")
        assert capsys.readouterr().err == f"error: two outputs name the same file: {target}\n"
        assert not os.path.exists(target)


class TestOneWriter:
    """``run_cli``, and no command, renders each output with ``io.dump_json``
    (ready text as it is) and writes it through ``io.write_text`` before it
    renders the next."""

    @staticmethod
    def record(monkeypatch):
        calls = []
        dump_json, write_text = cio.dump_json, cio.write_text

        def recording_dump_json(doc):
            assert sys._getframe(1).f_code.co_name == "run_cli"
            calls.append(("dump_json", dump_json(doc)))
            return calls[-1][1]

        def recording_write_text(text, path):
            assert sys._getframe(1).f_code.co_name == "run_cli"
            calls.append(("write_text", text, path))
            write_text(text, path)

        monkeypatch.setattr(cio, "dump_json", recording_dump_json)
        monkeypatch.setattr(cio, "write_text", recording_write_text)
        return calls

    def test_simulate_renders_and_writes_the_sidecar_first(self, tmp_path, monkeypatch):
        fields = dict(seed=3, n_authors=2, papers_per_author=2, n_cited=3, base_error=0.1)
        config = write_config(tmp_path, **fields)
        system, latent = citenoise.generate_system(citenoise.GenerativeConfig(**fields))
        latent_text = cio.dump_json(cio.latent_to_document(latent))
        system_text = cio.dump_json(cio.system_to_document(system))
        latent_path, out = str(tmp_path / "latent.json"), str(tmp_path / "system.json")
        calls = self.record(monkeypatch)
        assert run_cli(["simulate", "--config", config, "--latent", latent_path,
                        "--out", out]) == 0
        assert calls == [("dump_json", latent_text), ("write_text", latent_text, latent_path),
                         ("dump_json", system_text), ("write_text", system_text, out)]

    @pytest.mark.parametrize("argv, rendered", [
        (["analyze", "--input", "{system}"], 1),
        (["analyze", "--input", "{system}", "--format", "table"], 0),
        (["simulate", "--config", "{config}"], 1),
        (["retest", "--config", "{config}"], 1),
        (["aggregate", "--config", "{config}", "--ns", "5", "--trials", "100"], 0),
        (["audit", "--refs", "{refs}", "--intext", "{intext}", "--jt", "{jt}"], 1),
        (["omissions", "--sim", "{sim}", "--citations", "{cites}", "--k", "1"], 0),
        (["fixtures", "--name", "table1"], 1),
    ], ids=["analyze-json", "analyze-table", "simulate", "retest", "aggregate", "audit",
            "omissions", "fixtures"])
    def test_every_other_command_writes_once_to_out(self, tmp_path, monkeypatch, argv,
                                                    rendered):
        paths = {"system": tmp_path / "system.json",
                 "config": write_config(tmp_path, seed=1, n_authors=2, n_cited=2, replicates=2)}
        cio.save_system(builtin_fixture("table1"), paths["system"])
        paths["sim"], paths["cites"] = write_omission_docs(tmp_path, ORDERED, SCORES)
        for name, text in [("refs", "A\n"), ("intext", "A\n"), ("jt", "A | S | x\n")]:
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text)
        out = str(tmp_path / "out")
        calls = self.record(monkeypatch)
        assert run_cli([arg.format(**paths) for arg in argv] + ["--out", out]) == 0
        text = Path(out).read_text(encoding="utf-8")
        assert calls == [("dump_json", text)] * rendered + [("write_text", text, out)]


def two_author_document():
    return {
        "schema_version": "1",
        "author_ids": ["a", "b"],
        "citing_papers": [{"id": "p", "author_id": "a"}, {"id": "q", "author_id": "b"}],
        "cited_paper_ids": ["c", "d"],
        "realized": [[1, 0], [0, 1]],
        "accurate": [[1, 1], [0, 1]],
    }


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


class TestSystemDocumentTypes:
    """Ids are JSON strings in lists; anything else is exit 1, not a traceback."""

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize(
        "changes",
        [
            [(("citing_papers", 0, "id"), None)],
            [(("cited_paper_ids", 1), None)],
            [(("author_ids", 0), None), (("citing_papers", 0, "author_id"), None)],
            [(("author_ids",), "ab")],
            [(("cited_paper_ids",), "cd")],
            [(("citing_papers",), {"id": "p", "author_id": "a"})],
            [(("citing_papers", 1, "id"), 7)],
            [(("author_ids", 1), 1), (("citing_papers", 1, "author_id"), 1)],
        ],
        ids=["null-citing-id", "null-cited-id", "null-author-id", "string-author-ids",
             "string-cited-ids", "object-citing-papers", "int-citing-id", "int-author-id"],
    )
    def test_non_string_ids_exit_1(self, tmp_path, capsys, fmt, changes):
        doc = two_author_document()
        for path, value in changes:
            _set(doc, path, value)
        p = tmp_path / "sys.json"
        p.write_text(json.dumps(doc))
        code = run_cli(["analyze", "--input", str(p), "--format", fmt])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert f"error: {p}: malformed system document" in err

    def test_valid_document_analyzes(self, tmp_path, capsys):
        p = tmp_path / "sys.json"
        p.write_text(json.dumps(two_author_document()))
        for fmt in ("json", "table"):
            assert run_cli(["analyze", "--input", str(p), "--format", fmt]) == 0


class TestSystemDocumentMatrices:
    """Matrix cells are the JSON integers 0 and 1; load errors name the file
    and keep their type, and the CLI ends in exit 1, not a traceback."""

    @pytest.mark.parametrize(
        "path, value, error, message",
        [
            (("realized", 1, 1), True, ParseError,
             "malformed system document: 'realized' row 1 holds True, not a JSON integer"),
            (("accurate", 1, 1), 1.0, ParseError,
             "malformed system document: 'accurate' row 1 holds 1.0, not a JSON integer"),
            (("realized", 0, 0), "1", ParseError,
             "malformed system document: 'realized' row 0 holds '1', not a JSON integer"),
            (("accurate", 1), [0], ParseError,
             "malformed system document: 'accurate' is ragged: row 1 has 1 entries, "
             "row 0 has 2"),
            (("realized",), [1, 0], ParseError,
             "malformed system document: 'realized' must be a list of lists"),
            (("realized", 0, 0), 2, NonBinaryEntry, "realized[0][0] = 2 is not 0 or 1"),
            (("realized", 0, 0), -1, NonBinaryEntry, "realized[0][0] = -1 is not 0 or 1"),
            (("accurate", 0, 1), 300, NonBinaryEntry, "accurate[0][1] = 300 is not 0 or 1"),
            (("realized", 1, 0), 10**30, NonBinaryEntry,
             f"realized[1][0] = {10**30} is not 0 or 1"),
            (("realized",), [], DimensionMismatch,
             "realized must be a 2-D matrix, got ndim=1"),
            (("realized",), [[]], DimensionMismatch, "realized (1, 0) vs accurate (2, 2)"),
            (("schema_version",), "2", SchemaVersionUnsupported,
             "schema_version '2' not supported"),
        ],
        ids=["true", "float", "string", "ragged", "flat", "two", "minus-one",
             "beyond-int8", "beyond-int64", "empty", "empty-row", "schema-version"],
    )
    def test_bad_document_names_file_and_exits_1(self, tmp_path, capsys, path, value,
                                                 error, message):
        doc = two_author_document()
        _set(doc, path, value)
        p = tmp_path / "sys.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(error) as info:
            cio.load_system(p)
        assert type(info.value) is error
        assert str(info.value) == f"{p}: {message}"
        code = run_cli(["analyze", "--input", str(p), "--format", "table"])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert f"error: {p}: {message}" in err


def write_omission_docs(tmp_path, papers, scores, cite_ids=None):
    sim, cites = tmp_path / "sim.json", tmp_path / "cites.json"
    sim.write_text(json.dumps({"papers": papers, "scores": scores}))
    ids = [p["id"] for p in papers] if cite_ids is None else cite_ids
    cites.write_text(json.dumps({"papers": ids, "cites": [[0] * len(ids)] * len(ids)}))
    return sim, cites


ORDERED = [{"id": "a", "timestamp": 0}, {"id": "b", "timestamp": 1}]
SCORES = [[0, 0.5], [0.5, 0]]


class TestOmissionInputs:
    """Omission documents that break the indicator end in exit 1, not a traceback."""

    def run(self, capsys, sim, cites):
        code = run_cli(["omissions", "--sim", str(sim), "--citations", str(cites),
                        "--k", "1"])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "scores",
        [[[0, float("nan")], [float("nan"), 0]], [[0, None], [None, 0]],
         [[float("inf"), 0.5], [0.5, 0]], [[0, 10**400], [10**400, 0]]],
        ids=["nan", "null", "inf-diagonal", "int-beyond-float"],
    )
    def test_unusable_scores_exit_1(self, tmp_path, capsys, scores):
        code, err = self.run(capsys, *write_omission_docs(tmp_path, ORDERED, scores))
        assert code == 1
        assert "Traceback" not in err
        assert "error:" in err

    @pytest.mark.parametrize(
        "papers",
        [
            [{"id": 1, "timestamp": 0}, {"id": 2, "timestamp": 1}],
            [{"id": "a", "timestamp": 0}, {"id": "b", "timestamp": "2020"}],
            [{"id": "a", "timestamp": True}, {"id": "b", "timestamp": False}],
            [{"id": "a", "timestamp": float("nan")}, {"id": "b", "timestamp": 1}],
        ],
        ids=["int-ids", "mixed-timestamps", "bool-timestamps", "nan-timestamp"],
    )
    def test_unorderable_papers_exit_1(self, tmp_path, capsys, papers):
        code, err = self.run(capsys, *write_omission_docs(tmp_path, papers, SCORES))
        assert code == 1
        assert "Traceback" not in err
        assert "error:" in err

    @pytest.mark.parametrize("stamp", ["1e400", "-Infinity"])
    def test_non_finite_timestamp_exit_1_naming_file(self, tmp_path, capsys, stamp):
        sim, cites = write_omission_docs(tmp_path, ORDERED, SCORES)
        sim.write_text(
            '{"papers": [{"id": "a", "timestamp": 0}, {"id": "b", "timestamp": %s}], '
            '"scores": [[0, 0.5], [0.5, 0]]}' % stamp
        )
        code, err = self.run(capsys, sim, cites)
        assert code == 1
        assert "Traceback" not in err
        assert f"error: {sim}: timestamps must be finite" in err

    @pytest.mark.parametrize(
        "scores",
        [[[0, "0.5"], ["0.5", 0]], [[" 0 ", "0"], ["0", " 0 "]],
         [[0, True], [True, 0]], [[False, 0.5], [0.5, False]]],
        ids=["string", "padded-string", "true", "false"],
    )
    def test_non_number_scores_exit_1(self, tmp_path, capsys, scores):
        code, err = self.run(capsys, *write_omission_docs(tmp_path, ORDERED, scores))
        assert code == 1
        assert "Traceback" not in err
        assert "'scores' row 0 holds " in err
        assert "not a JSON number" in err

    @pytest.mark.parametrize(
        "cites",
        [[[0, True], [0, 0]], [[0, 0], [False, 0]], [[0, 0.0], [0, 0]],
         [[0, 1.0], [0, 0]], [[0, "1"], [0, 0]]],
        ids=["true", "false", "float-zero", "float-one", "string"],
    )
    def test_non_integer_cites_exit_1(self, tmp_path, capsys, cites):
        sim, cites_path = write_omission_docs(tmp_path, ORDERED, SCORES)
        cites_path.write_text(json.dumps({"papers": ["a", "b"], "cites": cites}))
        code, err = self.run(capsys, sim, cites_path)
        assert code == 1
        assert "Traceback" not in err
        assert "not a JSON integer" in err

    def test_ragged_scores_name_file_and_field(self, tmp_path, capsys):
        sim, cites = write_omission_docs(tmp_path, ORDERED, [[0, 0.5], [0.5]])
        code, err = self.run(capsys, sim, cites)
        assert code == 1
        assert "Traceback" not in err
        assert f"{sim}: malformed similarity document: 'scores' is ragged" in err

    def test_ragged_cites_name_file_and_field(self, tmp_path, capsys):
        sim, cites = write_omission_docs(tmp_path, ORDERED, SCORES)
        cites.write_text(json.dumps({"papers": ["a", "b"], "cites": [[0, 0], [0]]}))
        code, err = self.run(capsys, sim, cites)
        assert code == 1
        assert "Traceback" not in err
        assert f"{cites}: malformed citation document: 'cites' is ragged" in err

    def test_non_binary_cite_names_cell(self, tmp_path, capsys):
        sim, cites = write_omission_docs(tmp_path, ORDERED, SCORES)
        cites.write_text(json.dumps({"papers": ["a", "b"], "cites": [[0, 0], [2, 0]]}))
        code, err = self.run(capsys, sim, cites)
        assert code == 1
        assert "Traceback" not in err
        assert f"error: {cites}: citations[1][0] = 2 is not 0 or 1" in err

    def test_non_square_cites_name_file(self, tmp_path, capsys):
        sim, cites = write_omission_docs(tmp_path, ORDERED, SCORES)
        cites.write_text(json.dumps({"papers": ["a", "b"], "cites": [[0, 0, 0], [0, 0, 0]]}))
        code, err = self.run(capsys, sim, cites)
        assert code == 1
        assert "Traceback" not in err
        assert f"error: {cites}: citations (2, 3) vs 2 papers" in err

    @pytest.mark.parametrize("papers", ["ab", {"a": 1, "b": 2}, ["a", 2]],
                             ids=["string", "object", "int-id"])
    def test_citation_papers_must_be_a_list_of_strings(self, tmp_path, capsys, papers):
        """A string or an object whose list() is the similarity ids was accepted."""
        sim, cites = write_omission_docs(tmp_path, ORDERED, SCORES)
        cites.write_text(json.dumps({"papers": papers, "cites": [[0, 0], [1, 0]]}))
        code, err = self.run(capsys, sim, cites)
        assert code == 1
        assert err == (f"error: {cites}: malformed citation document: "
                       "'papers' must be a list of strings\n")

    def test_string_timestamps_accepted(self, tmp_path, capsys):
        papers = [{"id": "b", "timestamp": "2021-03"}, {"id": "a", "timestamp": "2020-01"}]
        code, _ = self.run(capsys, *write_omission_docs(tmp_path, papers, SCORES))
        assert code == 0

    def test_id_disagreement_is_parse_error(self, tmp_path):
        sim, cites = write_omission_docs(tmp_path, ORDERED, SCORES, ["b", "a"])
        with pytest.raises(ParseError, match="disagree"):
            cio.load_omission_inputs(sim, cites)

    def test_malformed_json_names_file(self, tmp_path):
        bad = tmp_path / "sim.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError, match="sim.json"):
            cio.load_omission_inputs(bad, bad)

    def test_loader_returns_checked_similarity(self, tmp_path):
        sim, cites = cio.load_omission_inputs(*write_omission_docs(tmp_path, ORDERED, SCORES))
        assert sim.paper_ids == ("a", "b")
        assert sim.timestamps == (0, 1)
        assert sim.scores[0, 1] == 0.5
        assert cites.tolist() == [[0, 0], [0, 0]]


def test_latent_sidecar_is_latent_to_document(tmp_path):
    config = write_config(tmp_path, seed=3, n_authors=2, papers_per_author=2, n_cited=3,
                          base_error=0.1)
    latent_path = tmp_path / "latent.json"
    assert run_cli(["simulate", "--config", config, "--out", str(tmp_path / "s.json"),
                    "--latent", str(latent_path)]) == 0
    _, latent = citenoise.generate_system(citenoise.GenerativeConfig(
        seed=3, n_authors=2, papers_per_author=2, n_cited=3, base_error=0.1))
    doc = cio.latent_to_document(latent)
    assert latent_path.read_text() == cio.dump_json(doc)
    assert list(doc) == ["schema_version", "author_offsets", "interaction_offsets",
                         "bias_offsets", "flip_probs", "author_of_paper", "accurate"]


def run_with_error(argv, capsys):
    code = run_cli([str(arg) for arg in argv])
    return code, capsys.readouterr().err


class TestDecodeLimits:
    """Inputs beyond the JSON or CSV decoder's limits end in exit 1 naming the file."""

    DEEP = "[" * 100_000 + "]" * 100_000

    @pytest.mark.parametrize("role", ["system", "config", "sim", "cites"])
    def test_deeply_nested_json(self, tmp_path, capsys, role):
        sim, cites = write_omission_docs(tmp_path, ORDERED, SCORES)
        deep = tmp_path / f"{role}-deep.json"
        deep.write_text(self.DEEP)
        argv = {
            "system": ["analyze", "--input", deep],
            "config": ["simulate", "--config", deep],
            "sim": ["omissions", "--sim", deep, "--citations", cites, "--k", "1"],
            "cites": ["omissions", "--sim", sim, "--citations", deep, "--k", "1"],
        }[role]
        code, err = run_with_error(argv, capsys)
        assert code == 1
        assert "Traceback" not in err
        assert f"error: {deep}: maximum recursion depth exceeded" in err

    @pytest.mark.parametrize(
        "text, line",
        [("citing_paper,author," + "c" * 131_073 + "\n", 1),
         ("citing_paper,author,c\n" + "p" * 131_073 + ",a,1\n", 2)],
        ids=["header", "body"],
    )
    def test_csv_field_beyond_limit(self, tmp_path, capsys, text, line):
        rp, ap = tmp_path / "R.csv", tmp_path / "A.csv"
        rp.write_text(text)
        ap.write_text("citing_paper,author,c\np,a,1\n")
        code, err = run_with_error(["analyze", "--input", rp, ap], capsys)
        assert code == 1
        assert "Traceback" not in err
        assert f"error: {rp}:{line}: field larger than field limit" in err


class TestErrorsNameTheirFile:
    """An error in an input file's contents names the file (or CSV pair) at fault."""

    def test_justification_table_row(self, tmp_path, capsys):
        refs, intext, jt = (tmp_path / n for n in ("refs.txt", "intext.txt", "jt.txt"))
        refs.write_text("A\n")
        intext.write_text("A\n")
        jt.write_text("A | S | x | y\n")
        code, err = run_with_error(
            ["audit", "--refs", refs, "--intext", intext, "--jt", jt], capsys
        )
        assert code == 1
        assert f"error: {jt}: line 1: expected 2 or 3 fields, got 4" in err
        with pytest.raises(MalformedRow) as info:
            cio.load_audit_inputs(refs, intext, jt)
        assert info.value.line_number == 1

    @pytest.mark.parametrize(
        "realized, accurate, message",
        [("citing_paper,author,c\np,a,1\np,a,0\n",
          "citing_paper,author,c\np,a,1\np,a,0\n",
          "duplicate citing-paper id: 'p'"),
         ("citing_paper,author,c\np,a,1\n", "citing_paper,author,d\np,a,1\n",
          "realized and accurate CSV files disagree on ids")],
        ids=["duplicate-id", "ids-disagree"],
    )
    def test_csv_pair(self, tmp_path, capsys, realized, accurate, message):
        rp, ap = tmp_path / "R.csv", tmp_path / "A.csv"
        rp.write_text(realized)
        ap.write_text(accurate)
        code, err = run_with_error(["analyze", "--input", rp, ap], capsys)
        assert code == 1
        assert f"error: {rp}, {ap}: {message}" in err

    @pytest.mark.parametrize(
        "scores, cite_ids, at_fault, message",
        [([[0, 0.5], [0.4, 0]], None, 0, "similarity matrix is not symmetric"),
         (SCORES, ["b", "a"], 1, "citation document paper ids disagree with similarity")],
        ids=["not-symmetric", "ids-disagree"],
    )
    def test_omission_documents(self, tmp_path, capsys, scores, cite_ids, at_fault,
                                message):
        sim, cites = write_omission_docs(tmp_path, ORDERED, scores, cite_ids)
        code, err = run_with_error(
            ["omissions", "--sim", sim, "--citations", cites, "--k", "1"], capsys
        )
        assert code == 1
        assert f"error: {(sim, cites)[at_fault]}: {message}" in err

    def test_invalid_config(self, tmp_path, capsys):
        config = write_config(tmp_path, seed=1, base_error=2.0)
        code, err = run_with_error(["simulate", "--config", config], capsys)
        assert code == 1
        assert f"error: {config}: base_error must be in [0, 1]" in err

    def test_unknown_config_keys(self, tmp_path, capsys):
        config = write_config(tmp_path, seed=1, colour="red", n_author=2)
        code, err = run_with_error(["simulate", "--config", config], capsys)
        assert code == 1
        assert err == f"error: {config}: unknown config keys: ['colour', 'n_author']\n"

    @pytest.mark.parametrize("command", ["simulate", "retest"])
    def test_more_cells_than_an_8_byte_array_can_hold(self, tmp_path, capsys, command):
        # J x K = 2**62: numpy's own "array is too big" error named no file.
        config = write_config(tmp_path, seed=1, n_authors=2**62, papers_per_author=1,
                              n_cited=1, replicates=2)
        code, err = run_with_error([command, "--config", config], capsys)
        assert code == 1
        assert err == (f"error: {config}: system dimensions n_authors * papers_per_author"
                       f" * n_cited must be at most {np.iinfo(np.intp).max // 8}\n")

    def test_replicates_beyond_the_largest_size(self, tmp_path, capsys):
        config = write_config(tmp_path, seed=1, replicates=2**70)
        code, err = run_with_error(["retest", "--config", config], capsys)
        assert code == 1
        assert err == (f"error: {config}: replicates must be at most "
                       f"{np.iinfo(np.intp).max}, got {2**70}\n")

    @pytest.mark.parametrize(
        "command, fields, message",
        [("simulate", dict(n_authors=2, papers_per_author=2, n_cited=3,
                           bias_shift=[0.1, 0.2, 1e308]),
          "flip probabilities leave [0, 1] on 7/12 cells"),
         ("retest", {}, "occasion decomposition needs replicates >= 2"),
         ("retest", dict(n_authors=2, papers_per_author=2, n_cited=3,
                         bias_shift=[0.1, 0.2, 1e308], replicates=2),
          "flip probabilities leave [0, 1] on 7/12 cells")],
        ids=["flip-probabilities", "one-replicate", "retest-flip-probabilities"],
    )
    def test_config_rejected_by_the_sampler(self, tmp_path, capsys, command, fields,
                                            message):
        """A config that is built but whose values the sampler rejects."""
        config = write_config(tmp_path, seed=3, **fields)
        code, err = run_with_error([command, "--config", config], capsys)
        assert code == 1
        assert err == f"error: {config}: {message}\n"

    def test_duplicate_similarity_id(self, tmp_path, capsys):
        papers = [{"id": "a", "timestamp": 0}, {"id": "a", "timestamp": 1}]
        sim, cites = write_omission_docs(tmp_path, papers, SCORES)
        code, err = run_with_error(
            ["omissions", "--sim", sim, "--citations", cites, "--k", "1"], capsys
        )
        assert code == 1
        assert err == f"error: {sim}: duplicate paper id: 'a'\n"

    @pytest.mark.parametrize(
        "role",
        ["system", "realized", "accurate", "config", "sim", "cites", "refs", "intext", "jt"],
    )
    def test_text_not_utf8(self, tmp_path, capsys, role):
        paths = {name: tmp_path / name for name in ("system", "refs", "intext", "jt")}
        cio.save_system(builtin_fixture("table1"), paths["system"])
        for name in ("realized", "accurate"):
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text("citing_paper,author,c\np,a,1\n")
        for name, text in [("refs", "A\n"), ("intext", "A\n"), ("jt", "A | S | x\n")]:
            paths[name].write_text(text)
        paths["sim"], paths["cites"] = write_omission_docs(tmp_path, ORDERED, SCORES)
        paths["config"] = Path(write_config(tmp_path, seed=1))
        commands = [
            ["analyze", "--input", paths["system"]],
            ["analyze", "--input", paths["realized"], paths["accurate"]],
            ["simulate", "--config", paths["config"]],
            ["omissions", "--sim", paths["sim"], "--citations", paths["cites"], "--k", "1"],
            ["audit", "--refs", paths["refs"], "--intext", paths["intext"], "--jt", paths["jt"]],
        ]
        bad = paths[role]
        bad.write_bytes(b"\xff" + bad.read_bytes())
        code, err = run_with_error(next(c for c in commands if bad in c), capsys)
        assert code == 1
        assert "Traceback" not in err
        assert f"error: {bad}: 'utf-8' codec can't decode" in err

    @pytest.mark.parametrize("role", ["realized", "realized_non_binary", "refs"])
    def test_text_not_utf8_position_is_within_file(self, tmp_path, capsys, role):
        """A file is decoded whole before anything else is checked: the
        error's byte position is its offset in the file, and it is reported
        before a fault that comes earlier in the file, such as a non-binary
        CSV cell on line 2."""
        rows = "".join(f"p{i:06d},a,1\n" for i in range(3000))
        header = "citing_paper,author,c\n"
        texts = {"realized": header + rows, "realized_non_binary": header + "p,a,2\n" + rows,
                 "accurate": "", "refs": rows, "intext": "A\n", "jt": "A | S | x\n"}
        paths = {name: tmp_path / name for name in texts}
        for name, text in texts.items():
            paths[name].write_text(text)
        data = bytearray(paths[role].read_bytes())
        data[20_000] = 0xFF
        paths[role].write_bytes(data)
        commands = {
            "realized": ["analyze", "--input", paths["realized"], paths["accurate"]],
            "realized_non_binary": ["analyze", "--input", paths["realized_non_binary"],
                                    paths["accurate"]],
            "refs": ["audit", "--refs", paths["refs"], "--intext", paths["intext"],
                     "--jt", paths["jt"]],
        }
        code, err = run_with_error(commands[role], capsys)
        assert code == 1
        assert (f"error: {paths[role]}: 'utf-8' codec can't decode byte 0xff in "
                "position 20000: invalid start byte") in err


class TestEachInputIsOpenedOnce:
    """Every loader takes a file's bytes from one open: when the byte path
    accepts the file, when it declines it and the per-cell decoder reads the
    same bytes, and when the file is not UTF-8."""

    # Ids the byte paths decline: an author id that is also a matrix key, a
    # paper id that is the citation key, and CSV ids that need quotes.
    DECLINED = citenoise.build_system(
        ["realized", 'a "x"'], [("p,1", 0), ("q", 1)], ["c", "d"],
        [[0, 1], [1, 0]], [[1, 1], [0, 0]],
    )

    def write_inputs(self, tmp_path, declined):
        system = self.DECLINED if declined else builtin_fixture("table1")
        paths = {"system": tmp_path / "system.json", "realized": tmp_path / "R.csv",
                 "accurate": tmp_path / "A.csv", "refs": tmp_path / "refs.txt",
                 "intext": tmp_path / "intext.txt", "jt": tmp_path / "jt.txt"}
        cio.save_system(system, paths["system"])
        cio.save_system_csv(system, paths["realized"], paths["accurate"])
        ids = ["cites", "b"] if declined else ["a", "b"]
        paths["sim"], paths["cites"] = write_omission_docs(
            tmp_path, [{"id": i, "timestamp": t} for t, i in enumerate(ids)], SCORES)
        paths["config"] = Path(write_config(tmp_path, seed=1, n_authors=2, n_cited=2,
                                            replicates=2))
        for name, text in [("refs", "A\n"), ("intext", "A\n"), ("jt", "A | S | x\n")]:
            paths[name].write_text(text)
        # The byte path must decline exactly the files meant to be declined.
        matrices = [cio._json_matrices(paths["system"].read_bytes(), ("realized", "accurate")),
                    cio._json_matrices(paths["cites"].read_bytes(), ("cites",)),
                    cio._csv_matrix(paths["realized"].read_bytes()),
                    cio._csv_matrix(paths["accurate"].read_bytes())]
        assert all((m is None) == declined for m in matrices)
        return paths

    @staticmethod
    def commands(paths):
        return [
            ["analyze", "--input", paths["system"]],
            ["analyze", "--input", paths["realized"], paths["accurate"]],
            ["simulate", "--config", paths["config"]],
            ["retest", "--config", paths["config"]],
            ["aggregate", "--config", paths["config"], "--ns", "1", "--trials", "100"],
            ["omissions", "--sim", paths["sim"], "--citations", paths["cites"], "--k", "1"],
            ["audit", "--refs", paths["refs"], "--intext", paths["intext"],
             "--jt", paths["jt"]],
        ]

    @staticmethod
    def opens(argv, capsys, monkeypatch):
        """(exit code, {path: times opened}) of one run of the command line."""
        counts = collections.Counter()
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            counts[os.fspath(file)] += 1
            return real_open(file, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", counting_open)
            code, _ = run_with_error(argv, capsys)
        return code, counts

    @pytest.mark.parametrize("declined", [False, True], ids=["accepted", "declined"])
    def test_valid_inputs(self, tmp_path, capsys, monkeypatch, declined):
        for argv in self.commands(self.write_inputs(tmp_path, declined)):
            code, counts = self.opens(argv, capsys, monkeypatch)
            inputs = [str(a) for a in argv if isinstance(a, Path)]
            assert code == 0
            assert {path: counts[path] for path in inputs} == dict.fromkeys(inputs, 1)

    def test_inputs_not_utf8(self, tmp_path, capsys, monkeypatch):
        paths = self.write_inputs(tmp_path, declined=False)
        bad = {}
        for path in paths.values():
            bad[path] = path.with_name("bad-" + path.name)
            bad[path].write_bytes(b"\xff" + path.read_bytes())
        for argv in self.commands(paths):
            for at in [i for i, a in enumerate(argv) if isinstance(a, Path)]:
                args = [*argv[:at], bad[argv[at]], *argv[at + 1:]]
                code, counts = self.opens(args, capsys, monkeypatch)
                assert code == 1
                # The bad file is read once; a file after it is not read at all.
                assert counts[str(args[at])] == 1
                assert all(counts[str(a)] <= 1 for a in args if isinstance(a, Path))


def test_text_inputs_read_cr_and_crlf_as_lf(tmp_path):
    """CR and CRLF read as LF, as in a file opened in text mode: key lines
    end at either, and a JSON error counts each line end as one character."""
    refs, intext, jt = (tmp_path / name for name in ("refs.txt", "intext.txt", "jt.txt"))
    refs.write_bytes(b"A\rB\r\nC\n")
    intext.write_bytes(b"A\rB\rC\r")
    jt.write_bytes(b"A | S | x\rB | S | y\r\nC | S | z\n")
    keys, in_text, entries = cio.load_audit_inputs(refs, intext, jt)
    assert keys == in_text == ["A", "B", "C"]
    assert len(entries) == 3
    for end in (b"\r", b"\r\n"):
        bad = tmp_path / "system.json"
        bad.write_bytes(end.join([b"{", b' "schema_version": "1",', b" x", b"}"]))
        with pytest.raises(ParseError, match=r"line 3 column 2 \(char 27\)"):
            cio.load_system(bad)
