"""File formats, chart emission, and the command-line interface."""

import csv
import json
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import woesim as ws
from woesim import cli, io
from woesim.charts import _nice_ticks, _tick_labels

AIV_GRID = tuple(0.5 * i for i in range(1, 15))
README = Path(__file__).resolve().parents[1] / "README.md"
#: A well-formed config JSON predictor, which each malformed document breaks once.
GOOD_PREDICTOR = {"name": "X1", "p_event": [0.5, 0.5], "p_nonevent": [0.4, 0.6]}


def tiny_records():
    spec = ws.RunSpec(
        configs=(ws.CONFIG_B,), sizes=(60, 100), rates=(0.05, 0.10),
        iterations=3, master_seed=21,
    )
    return ws.run_grid(spec)


class TestConfigJson:
    def test_round_trip_builtins(self, tmp_path):
        for cfg in ws.BUILTIN_CONFIGS.values():
            path = tmp_path / f"{cfg.id}.json"
            io.save_config(cfg, path)
            assert io.load_config(path) == cfg

    def test_builtin_b_matches_reference_block(self):
        cfg = io.resolve_config("B")
        assert cfg.predictors[0].p_event == (0.38, 0.51, 0.11)
        assert cfg.predictors[3].p_nonevent == (0.10, 0.40, 0.20, 0.30)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"id": "x", "predictors": [], "extra": 1}))
        with pytest.raises(ws.SchemaError, match="unexpected key"):
            io.load_config(path)

    def test_bad_distribution_names_predictor(self, tmp_path):
        doc = {
            "id": "x",
            "predictors": [
                {"name": "bad_one", "p_event": [0.5, 0.49], "p_nonevent": [0.5, 0.5]}
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ws.SchemaError, match="bad_one"):
            io.load_config(path)

    def test_nonnumeric_entry_reports_field(self, tmp_path):
        doc = {
            "id": "x",
            "predictors": [
                {"name": "X1", "p_event": [0.5, "half"], "p_nonevent": [0.5, 0.5]}
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ws.SchemaError, match=r"p_event\[1\]"):
            io.load_config(path)

    def test_invalid_json_and_shape(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ws.SchemaError, match="not valid JSON"):
            io.load_config(path)
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(ws.SchemaError, match="top level"):
            io.load_config(path)

    def test_resolve_unknown(self):
        with pytest.raises(ws.ConfigError):
            io.resolve_config("nope-not-a-file.json")


class TestResultsCsv:
    def test_lossless_round_trip(self, tmp_path):
        records = tiny_records()
        path = tmp_path / "results.csv"
        io.save_results_csv(records, path)
        assert io.load_results_csv(path) == records

    def test_header_order_pinned(self, tmp_path):
        path = tmp_path / "results.csv"
        io.save_results_csv(tiny_records()[:1], path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "config_id,aiv,n,event_rate,iteration,clamped,converged,"
            "theta_f1,theta_p4,f1_val,f1_test,p4_val,p4_test,gini_val,gini_test"
        )

    def test_round_trip_across_row_chunks(self, tmp_path):
        # io formats and parses rows in chunks; cross several chunk edges
        records = tiny_records() * 11
        path = tmp_path / "results.csv"
        io.save_results_csv(iter(records), path)
        assert len(path.read_text().splitlines()) == 1 + len(records)
        assert io.load_results_csv(path) == records

    def test_malformed_cell_after_multiline_id_names_its_line(self, tmp_path):
        # rows past the first chunk, the first with an id spanning two lines
        records = tiny_records() * 6
        records[0] = records[0]._replace(config_id="two\nlines")
        path = tmp_path / "results.csv"
        io.save_results_csv(records, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[70][6] = "maybe"  # the converged column
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(ws.SchemaError, match=r"line 72, column 'converged': .*'maybe'"):
            io.load_results_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ws.SchemaError, match="bad header"):
            io.load_results_csv(path)

    def test_row_of_another_field_count_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        io.save_results_csv(tiny_records(), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("B,1.0,50\n")
        with pytest.raises(ws.SchemaError, match="row has 3 fields, expected 15"):
            io.load_results_csv(path)


class TestSummaryCsv:
    def test_lossless_round_trip(self, tmp_path):
        summary = ws.summarize(tiny_records())
        path = tmp_path / "summary.csv"
        io.save_summary_csv(summary, path)
        assert io.load_summary_csv(path) == summary

    def test_header_order_pinned(self, tmp_path):
        path = tmp_path / "summary.csv"
        io.save_summary_csv(ws.summarize(tiny_records())[:1], path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "config_id,aiv,n,event_rate,metric,split,"
            "median,q25,q75,p05,p95,n_iter,n_nonconverged"
        )


@pytest.mark.parametrize(
    "cls, save, load, make_records",
    [
        (ws.IterationRecord, io.save_results_csv, io.load_results_csv, tiny_records),
        (ws.SummaryRecord, io.save_summary_csv, io.load_summary_csv, lambda: ws.summarize(tiny_records())),
    ],
    ids=["results", "summary"],
)
def test_a_record_is_one_value_however_it_is_built(tmp_path, cls, save, load, make_records):
    # records are the tuples of their CSV rows: built from a tuple, loaded
    # from a file or built by keyword, they are one value, and frozen
    records = make_records()
    path = tmp_path / "records.csv"
    save(records, path)
    built = {
        "made": [cls._make(tuple(r)) for r in records],
        "loaded": load(path),
        "keyword": [cls(**r._asdict()) for r in records],
    }
    for kind, others in built.items():
        assert others == records, kind
        assert [type(r) for r in others] == [cls] * len(records), kind
        assert list(map(hash, others)) == list(map(hash, records)), kind
        assert pickle.loads(pickle.dumps(others)) == records, kind
    record = records[0]
    assert record == tuple(record)
    with pytest.raises(AttributeError):
        record.n = 1


def test_readme_file_formats_match_written_headers(tmp_path):
    section = README.read_text(encoding="utf-8").split("## File formats", 1)[1].split("\n## ", 1)[0]
    documented = {
        name: re.search(rf"\*\*{name} CSV\*\*[^`]*`([^`]+)`", section).group(1)
        for name in ("Results", "Summary", "Guideline")
    }
    written = {}
    for name, save, empty in (
        ("Results", io.save_results_csv, []),
        ("Summary", io.save_summary_csv, []),
        ("Guideline", io.save_guideline_csv, ws.guideline_table({})),
    ):
        path = tmp_path / f"{name}.csv"
        save(empty, path)
        written[name] = path.read_text(encoding="utf-8").rstrip("\r\n")
    assert documented == written


class TestCharts:
    def test_svg_has_band_and_median_per_rate(self):
        summary = ws.summarize(tiny_records())
        svg = ws.emit_chart(summary, "B", "f1", "test")
        assert svg.startswith("<svg")
        assert svg.count('class="median"') == 2  # one per event rate
        assert svg.count('class="band"') == 2
        assert "sample size" in svg

    def test_empty_selection_rejected(self):
        summary = ws.summarize(tiny_records())
        with pytest.raises(ws.EmptyCell):
            ws.emit_chart(summary, "Z", "f1", "test")

    def test_infinite_cell_in_memory_refused_naming_its_row(self):
        # the summary loader refuses an infinity, so only records built in
        # memory bring one this far
        summary = ws.summarize(tiny_records())
        summary = [r._replace(median=math.inf) if r.n == 100 else r for r in summary]
        with pytest.raises(ValueError, match="n=100, rate=0.05"):
            ws.emit_chart(summary, "B", "f1", "test")

    @pytest.mark.parametrize(
        ("lo", "hi"),
        [(0.0, 0.7), (0.5, float(np.nextafter(0.5, 1.0))), (0.0, 1e-320), (0.1, 0.1 + 3e-11)],
    )
    def test_ticks_are_distinct_and_inside_their_span(self, lo, hi):
        # rounded to 10 decimals, the ticks of the three narrow spans used
        # to collapse onto seven 0.5s, seven 0.0s and three 0.1s; at 6
        # significant digits the 0.1 ticks were all labelled "0.1"
        ticks = _nice_ticks(lo, hi)
        assert ticks and ticks == sorted(set(ticks))
        assert lo <= ticks[0] and ticks[-1] <= hi
        labels = _tick_labels(ticks)
        assert len(set(labels)) == len(ticks)
        assert [float(label) for label in labels] == pytest.approx(ticks, rel=1e-5)
        if (lo, hi) == (0.0, 0.7):
            assert ticks == [0, 0.2, 0.4, 0.6]
            assert labels == ["0", "0.2", "0.4", "0.6"]

    def test_subnormal_ticks_are_labelled_in_their_shortest_form(self):
        # at 6 significant digits these read 2.49997e-321, 4.99994e-321,
        # 7.49992e-321 and 9.99989e-321: the exact values of the doubles
        labels = _tick_labels(_nice_ticks(0.0, 1e-320))
        assert labels == ["0", "2.5e-321", "5e-321", "7.5e-321", "1e-320"]
        assert _tick_labels([-5e-321, 0.0, 5e-321]) == ["-5e-321", "0", "5e-321"]

    def test_chart_of_a_config_id_with_markup_is_well_formed(self):
        # the id went into the SVG unescaped, which no XML parser accepts
        rows = [r._replace(config_id="A&<B>") for r in ws.summarize(tiny_records())]
        svg = ws.emit_chart(rows, "A&<B>", "f1", "test")
        title = ET.fromstring(svg).find("{http://www.w3.org/2000/svg}text")
        assert title.text == "config A&<B>: f1 (test split)"


def synthetic_summary_rows():
    """Summary rows for five fake configs whose medians follow known curves."""
    rows = []
    curves = {
        0.01: ws.CurveFit(L=0.9, k=0.45, x0=6.3, rss=0.0),
        0.05: ws.CurveFit(L=0.9, k=0.46, x0=3.3, rss=0.0),
    }
    for rate, curve in curves.items():
        for i, aiv in enumerate((0.5, 1.5, 3.0, 5.0, 7.0)):
            rows.append(ws.SummaryRecord(
                config_id=f"c{i}", aiv=aiv, n=2500, event_rate=rate,
                metric="f1", split="test", median=float(curve.predict(aiv)),
                q25=0.0, q75=1.0, p05=0.0, p95=1.0, n_iter=500, n_nonconverged=0,
            ))
    return rows, curves


class TestCli:
    def test_validate_round_trip(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        io.save_config(ws.CONFIG_B, path)
        assert cli.main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "B:" in out and "2.2869" in out

    def test_validate_missing_file_exits_2(self, capsys):
        assert cli.main(["validate", "missing.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_validate_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"id": "x", "predictors": [
            {"name": "X1", "p_event": [0.6, 0.5], "p_nonevent": [0.5, 0.5]}
        ]}))
        assert cli.main(["validate", str(path)]) == 2

    @pytest.mark.parametrize(("doc", "names"), [
        ({"id": "x"}, "missing key(s) ['predictors']"),
        ({"id": 3, "predictors": [GOOD_PREDICTOR]}, "id must be a string"),
        ({"id": "x", "predictors": []}, "predictors must be a nonempty list"),
        ({"id": "x", "predictors": {"X1": GOOD_PREDICTOR}}, "predictors must be a nonempty list"),
        ({"id": "x", "predictors": [1]}, "predictors[0] must be an object"),
        ({"id": "x", "predictors": [{"name": "X1", "p_event": [0.5, 0.5]}]},
         "predictors[0]: missing key(s) ['p_nonevent']"),
        ({"id": "x", "predictors": [dict(GOOD_PREDICTOR, name=1)]}, "predictors[0].name must be a string"),
        ({"id": "x", "predictors": [dict(GOOD_PREDICTOR, p_event=[])]},
         "predictors[0].p_event must be a nonempty list of numbers"),
        ({"id": "x", "predictors": [dict(GOOD_PREDICTOR, p_nonevent=0.5)]},
         "predictors[0].p_nonevent must be a nonempty list of numbers"),
        ({"id": "x", "predictors": [dict(GOOD_PREDICTOR, name="")]},
         "predictors[0]: predictor name must be nonempty"),
        ({"id": "", "predictors": [GOOD_PREDICTOR]}, "config id must be nonempty"),
        ({"id": "x", "predictors": [GOOD_PREDICTOR, GOOD_PREDICTOR]}, "config 'x': duplicate predictor names"),
    ], ids=["missing-key", "id-not-string", "no-predictors", "predictors-not-list",
            "predictor-not-object", "predictor-missing-key", "name-not-string", "empty-number-list",
            "number-list-not-list", "empty-name", "empty-id", "duplicate-names"])
    def test_validate_malformed_config_exits_2_naming_file_and_key(self, tmp_path, capsys, doc, names):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and names in err

    @pytest.mark.parametrize("argv", [
        ["validate", "{path}"],
        ["run", "--config", "{path}", "--sizes", "50", "--iters", "1", "--out", "{dir}/r.csv"],
    ], ids=["validate", "run"])
    def test_huge_integer_probability_exits_2_naming_it(self, tmp_path, capsys, argv):
        # float() of a 401-digit integer raised OverflowError: a traceback, exit 1
        path = tmp_path / "huge.json"
        path.write_text(
            '{"id": "x", "predictors": [{"name": "X1", "p_event": [0.5, 1' + "0" * 400 + '], '
            '"p_nonevent": [0.5, 0.5]}]}'
        )
        assert cli.main([a.format(path=path, dir=tmp_path) for a in argv]) == 2
        assert "predictors[0].p_event[1]" in capsys.readouterr().err

    def test_run_summarize_report_pipeline(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        summary = tmp_path / "summary.csv"
        chart = tmp_path / "chart.svg"
        assert cli.main([
            "run", "--config", "B", "--rates", "0.05,0.1", "--sizes", "60,100",
            "--iters", "2", "--seed", "13", "--out", str(results),
        ]) == 0
        assert io.load_results_csv(results)
        assert cli.main(["summarize", "--in", str(results), "--out", str(summary)]) == 0
        assert io.load_summary_csv(summary)
        assert cli.main([
            "report", "--in", str(summary), "--cell", "B:gini:test", "--out", str(chart),
        ]) == 0
        assert chart.read_text().startswith("<svg")

    def test_serial_run_and_post_run_commands_never_load_the_process_pool(self, tmp_path):
        # a fresh interpreter, so no other test has imported the pool yet;
        # multiprocessing and its dependencies cost ~1.5 MiB resident
        script = (
            "import sys\n"
            "from woesim import cli\n"
            "argvs = (\n"
            "    ['run', '--config', 'B', '--rates', '0.05', '--sizes', '60', '--iters', '2',\n"
            "     '--workers', '1', '--out', 'results.csv'],\n"
            "    ['summarize', '--in', 'results.csv', '--out', 'summary.csv'],\n"
            "    ['report', '--in', 'summary.csv', '--cell', 'B:f1:test', '--out', 'chart.svg'],\n"
            ")\n"
            "print([cli.main(argv) for argv in argvs])\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.partition('.')[0] == 'multiprocessing' or m == 'concurrent.futures.process'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ws.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-2:] == ["[0, 0, 0]", "[]"]

    def test_run_rejects_bad_rate(self, tmp_path):
        out = tmp_path / "r.csv"
        assert cli.main([
            "run", "--config", "B", "--rates", "1.5", "--sizes", "60",
            "--iters", "1", "--out", str(out),
        ]) == 2

    def test_run_rejects_zero_workers(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert cli.main([
            "run", "--config", "B", "--rates", "0.1", "--sizes", "60",
            "--iters", "1", "--workers", "0", "--out", str(out),
        ]) == 2
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("theta_adj", ["nan", "inf", "-1"])
    def test_run_refuses_bad_theta_adj_up_front(self, tmp_path, capsys, theta_adj):
        out = tmp_path / "r.csv"
        assert cli.main([
            "run", "--config", "B", "--rates", "0.1", "--sizes", "60",
            "--iters", "2", "--theta-adj", theta_adj, "--out", str(out),
        ]) == 2
        assert "theta_adj" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_run_refuses_seed_outside_u64(self, tmp_path, capsys, seed):
        out = tmp_path / "r.csv"
        assert cli.main([
            "run", "--config", "B", "--rates", "0.1", "--sizes", "60",
            "--iters", "1", "--seed", seed, "--out", str(out),
        ]) == 2
        assert "master seed" in capsys.readouterr().err
        assert not out.exists()

    def test_run_accepts_largest_seed(self, tmp_path):
        out = tmp_path / "r.csv"
        assert cli.main([
            "run", "--config", "B", "--rates", "0.1", "--sizes", "60",
            "--iters", "1", "--seed", str(2**64 - 1), "--out", str(out),
        ]) == 0
        assert len(io.load_results_csv(out)) == 1

    def test_run_rejects_repeated_config_id(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert cli.main([
            "run", "--config", "A", "--config", "A", "--rates", "0.1", "--sizes", "60",
            "--iters", "2", "--out", str(out),
        ]) == 2
        assert "config ids must be distinct" in capsys.readouterr().err
        assert not out.exists()

    def test_summarize_names_line_and_column_of_malformed_cell(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        io.save_results_csv(tiny_records(), results)
        lines = results.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[3].split(",")
        fields[1] = "abc"  # the aiv column
        lines[3] = ",".join(fields)
        results.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "summary.csv"
        assert cli.main(["summarize", "--in", str(results), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{results}: line 4, column 'aiv': " in err
        assert "'abc'" in err
        assert not out.exists()

    @pytest.mark.parametrize("column, text", [("aiv", "inf"), ("gini_test", "-inf"), ("f1_val", "1e999")])
    def test_summarize_refuses_an_infinite_value_naming_line_and_column(
        self, tmp_path, capsys, column, text
    ):
        # its quantiles used to come out NaN, with a numpy RuntimeWarning
        results = tmp_path / "results.csv"
        io.save_results_csv(tiny_records(), results)
        lines = results.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[3].rstrip("\r\n").split(",")
        fields[ws.IterationRecord._fields.index(column)] = text
        lines[3] = ",".join(fields) + "\r\n"
        results.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "summary.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["summarize", "--in", str(results), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{results}: line 4, column {column!r}: infinite value {text!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, option, token", [
        (["run", "--config", "B", "--rates", "0.1,abc", "--sizes", "50", "--iters", "1",
          "--out", "{dir}/r.csv"], "--rates", "abc"),
        (["run", "--config", "B", "--rates", "0.1", "--sizes", "50,,7x", "--iters", "1",
          "--out", "{dir}/r.csv"], "--sizes", "7x"),
        (["synth", "--d", "2", "--bins", "4,four", "--aiv", "1", "--out", "{dir}/s.json"],
         "--bins", "four"),
    ], ids=["rates", "sizes", "bins"])
    def test_malformed_list_option_exits_2_naming_option_and_token(
        self, tmp_path, capsys, monkeypatch, argv, option, token
    ):
        # --rates and --bins used to print "invalid _float_list value" and
        # "invalid _int_list value", the names of private helpers
        monkeypatch.setattr(cli, "run_grid", lambda *a, **k: pytest.fail("the grid ran"))
        assert cli.main([arg.format(dir=tmp_path) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option} takes comma-separated ")
        assert f"{token!r} in " in err and "_list" not in err
        assert not list(tmp_path.iterdir())

    def test_run_parallel_matches_serial_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["run", "--config", "A", "--rates", "0.1", "--sizes", "60,100",
                "--iters", "4", "--seed", "3", "--out"]
        assert cli.main(argv + [str(a)]) == 0
        assert cli.main(argv[:-1] + ["--workers", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_guideline_from_synthetic_summary(self, tmp_path, capsys):
        rows, curves = synthetic_summary_rows()
        summary = tmp_path / "summary.csv"
        guideline = tmp_path / "guideline.csv"
        io.save_summary_csv(rows, summary)
        assert cli.main([
            "guideline", "--in", str(summary), "--n", "2500",
            "--metric", "f1", "--out", str(guideline),
        ]) == 0
        text = guideline.read_text().splitlines()
        assert text[0] == "event_rate,aiv,predicted_median"
        assert len(text) == 1 + 2 * 14
        # refit on noiseless curve points reproduces the generating curve
        rate, aiv, value = text[1].split(",")
        assert float(rate) == 0.01 and float(aiv) == 0.5
        assert float(value) == pytest.approx(curves[0.01].predict(0.5), abs=1e-4)

    def test_guideline_reports_each_curve_fit_on_stderr(self, tmp_path, capsys):
        rows, curves = synthetic_summary_rows()
        summary = tmp_path / "summary.csv"
        guideline = tmp_path / "guideline.csv"
        io.save_summary_csv(rows, summary)
        assert cli.main([
            "guideline", "--in", str(summary), "--n", "2500",
            "--metric", "f1", "--out", str(guideline),
        ]) == 0
        captured = capsys.readouterr()
        fits = {
            rate: ws.fit_logistic_curve([(r.aiv, r.median) for r in rows if r.event_rate == rate])
            for rate in curves
        }
        # stdout carries the table and the path only
        assert captured.out == (
            f"{ws.guideline_table(fits).render()}\nwrote guideline table to {guideline}\n"
        )
        lines = captured.err.splitlines()
        assert len(lines) == len(curves)
        for line, (rate, fit) in zip(lines, sorted(fits.items())):
            assert line == (
                f"curve fit: rate {rate:g} L {fit.L:.6g} k {fit.k:.6g} x0 {fit.x0:.6g}"
                f" rss {fit.rss:.3g} points 5"
            )
            fields = line.split()
            assert float(fields[5]) == pytest.approx(curves[rate].L, abs=1e-4)
            assert float(fields[9]) == pytest.approx(curves[rate].x0, abs=1e-3)

    def test_guideline_without_matching_rows_exits_3(self, tmp_path):
        rows, _ = synthetic_summary_rows()
        summary = tmp_path / "summary.csv"
        io.save_summary_csv(rows, summary)
        out = tmp_path / "g.csv"
        assert cli.main([
            "guideline", "--in", str(summary), "--n", "999", "--out", str(out),
        ]) == 3

    def test_synth_then_validate(self, tmp_path, capsys):
        out = tmp_path / "synth.json"
        assert cli.main([
            "synth", "--d", "2", "--bins", "4,4", "--aiv", "5.51",
            "--tol", "0.05", "--seed", "7", "--out", str(out),
        ]) == 0
        cfg = io.load_config(out)
        assert abs(ws.aggregate_iv(cfg).aiv - 5.51) <= 0.05

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_synth_refuses_seed_outside_u64(self, tmp_path, capsys, seed):
        out = tmp_path / "synth.json"
        assert cli.main([
            "synth", "--d", "2", "--bins", "4,4", "--aiv", "5.51",
            "--seed", seed, "--out", str(out),
        ]) == 2
        assert "master seed" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_refuses_empty_id(self, tmp_path, capsys):
        # used to exit 0 and write the default id, synth-d2-aiv1
        out = tmp_path / "s.json"
        assert cli.main([
            "synth", "--d", "2", "--bins", "4,4", "--aiv", "1", "--seed", "3",
            "--id", "", "--out", str(out),
        ]) == 2
        assert "id must be nonempty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_synth_unreachable_exits_3(self, tmp_path):
        out = tmp_path / "synth.json"
        assert cli.main([
            "synth", "--d", "1", "--bins", "2", "--aiv", "50", "--out", str(out),
        ]) == 3

    @pytest.mark.parametrize("argv", [
        ["validate", "{dir}"],
        ["summarize", "--in", "{results}", "--out", "{dir}"],
        ["report", "--in", "{summary}", "--cell", "c0:f1:test", "--out", "{dir}"],
        ["run", "--config", "B", "--sizes", "60", "--iters", "1", "--out", "{dir}"],
        ["run", "--config", "B", "--sizes", "60", "--iters", "1", "--out", "{dir}/no/r.csv"],
        ["run", "--config", "B", "--sizes", "50,abc", "--iters", "1", "--out", "{dir}/r.csv"],
        ["run", "--config", "B", "--sizes", "50,1.5", "--iters", "1", "--out", "{dir}/r.csv"],
        ["synth", "--d", "2", "--bins", "4,4", "--aiv", "inf", "--out", "{dir}/s.json"],
        ["synth", "--d", "2", "--bins", "4,4", "--aiv", "1", "--tol", "inf",
         "--out", "{dir}/s.json"],
        ["synth", "--d", "2", "--bins", "1,4", "--aiv", "1", "--out", "{dir}/s.json"],
    ], ids=["validate-dir", "summarize-dir", "report-dir", "run-dir", "run-missing-dir",
            "run-sizes-word", "run-sizes-float", "synth-inf-aiv", "synth-inf-tol", "synth-one-bin"])
    def test_unusable_input_exits_2_up_front(self, tmp_path, capsys, monkeypatch, argv):
        # the directory paths used to end in an IsADirectoryError traceback,
        # after the whole grid for run; a missing --out directory was only
        # found after the grid too, and synth took an infinite --aiv or --tol
        results, summary = tmp_path / "results.csv", tmp_path / "summary.csv"
        io.save_results_csv(tiny_records(), results)
        io.save_summary_csv(synthetic_summary_rows()[0], summary)
        before = sorted(tmp_path.rglob("*"))
        monkeypatch.setattr(cli, "run_grid", lambda *a, **k: pytest.fail("the grid ran"))
        paths = dict(dir=tmp_path, results=results, summary=summary)
        assert cli.main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("out", ["", "no/r.csv"], ids=["run-dir", "run-missing-dir"])
    def test_unusable_run_out_is_a_spec_error(self, tmp_path, monkeypatch, out):
        monkeypatch.setattr(cli, "run_grid", lambda *a, **k: pytest.fail("the grid ran"))
        argv = ["run", "--config", "B", "--sizes", "60", "--iters", "1", "--out", str(tmp_path / out)]
        with pytest.raises(ws.SpecError, match="--out"):
            cli._COMMANDS["run"](cli._build_parser().parse_args(argv))

    def test_malformed_run_sizes_are_a_spec_error(self, tmp_path, monkeypatch):
        # a bare int() ValueError used to reach stderr without naming the flag
        monkeypatch.setattr(cli, "run_grid", lambda *a, **k: pytest.fail("the grid ran"))
        argv = ["run", "--config", "B", "--sizes", "50,abc", "--iters", "1", "--out", str(tmp_path / "r.csv")]
        with pytest.raises(ws.SpecError, match="--sizes .*'50,abc'"):
            cli._COMMANDS["run"](cli._build_parser().parse_args(argv))

    def test_out_of_memory_exits_3_without_traceback(self, tmp_path, capsys, monkeypatch):
        # a size like 10**11 used to end in numpy's _ArrayMemoryError traceback
        def run_grid(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.91 TiB for an array")

        monkeypatch.setattr(cli, "run_grid", run_grid)
        out = tmp_path / "r.csv"
        assert cli.main([
            "run", "--config", "A", "--sizes", "100000000000", "--rates", "0.1",
            "--iters", "1", "--out", str(out),
        ]) == 3
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 2.91 TiB for an array\n"
        assert not out.exists()

    @staticmethod
    def report_of(tmp_path, medians):
        """``report`` on one rate's rows at n = 100, 200, ..., each row's
        quartiles and median equal to its given value."""
        rows = [
            ws.SummaryRecord(
                config_id="B", aiv=1.0, n=100 * (i + 1), event_rate=0.05, metric="f1", split="test",
                median=m, q25=m, q75=m, p05=m, p95=m, n_iter=10, n_nonconverged=0,
            )
            for i, m in enumerate(medians)
        ]
        summary, chart = tmp_path / "summary.csv", tmp_path / "c.svg"
        # written as save_summary_csv writes, which refuses an infinity
        with open(summary, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([ws.SummaryRecord._fields, *rows])
        code = cli.main(["report", "--in", str(summary), "--cell", "B:f1:test", "--out", str(chart)])
        return code, chart

    def test_report_of_a_cell_a_few_ulps_wide_finishes(self, tmp_path):
        # a tick step below half an ulp of 0.5 must not stall the tick list;
        # the alarm is short because a stalled list takes memory fast
        def stuck(signum, frame):
            raise TimeoutError("report did not finish")

        previous = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(3)
        try:
            code, chart = self.report_of(tmp_path, [0.5, float(np.nextafter(0.5, 1.0))])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 0
        assert 1 <= chart.read_text().count('text-anchor="end"') <= 7  # count + 2 ticks at most

    @pytest.mark.parametrize("bad, row", [
        # the summary loader refuses an infinity; the chart refuses a NaN
        (math.inf, "line 3, column 'median'"),
        (math.nan, "n=200, rate=0.05"),
    ], ids=["inf", "nan"])
    def test_report_refuses_a_non_finite_cell_naming_its_row(self, tmp_path, capsys, bad, row):
        # neither an OverflowError traceback (inf) nor "nan" coordinates in
        # a written chart (NaN)
        code, chart = self.report_of(tmp_path, [0.5, bad, 0.6])
        assert code == 2
        assert row in capsys.readouterr().err
        assert not chart.exists()

    def test_report_refuses_finite_values_spanning_more_than_a_float(self, tmp_path, capsys):
        # the padded range would overflow to inf
        code, chart = self.report_of(tmp_path, [-1e308, 1e308])
        assert code == 2
        assert "too wide a range" in capsys.readouterr().err
        assert not chart.exists()

    def test_report_bad_cell_selector_exits_2(self, tmp_path):
        rows, _ = synthetic_summary_rows()
        summary = tmp_path / "summary.csv"
        io.save_summary_csv(rows, summary)
        argv = ["report", "--in", str(summary), "--cell", "B-f1-test", "--out", str(tmp_path / "c.svg")]
        assert cli.main(argv) == 2
        with pytest.raises(ws.SpecError, match="--cell must look like"):
            cli._COMMANDS["report"](cli._build_parser().parse_args(argv))
