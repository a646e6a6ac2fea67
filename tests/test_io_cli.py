"""File formats, chart emission, and the command-line interface."""

import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import woesim as ws
from woesim import cli, io

AIV_GRID = tuple(0.5 * i for i in range(1, 15))
README = Path(__file__).resolve().parents[1] / "README.md"


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
        records[0] = dataclasses.replace(records[0], config_id="two\nlines")
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


def test_readme_file_formats_match_written_headers(tmp_path):
    section = README.read_text(encoding="utf-8").split("## File formats", 1)[1].split("\n## ", 1)[0]
    documented = {
        name: re.search(rf"\*\*{name} CSV\*\*[^`]*`([^`]+)`", section).group(1)
        for name in ("Results", "Summary")
    }
    written = {}
    for name, save in (("Results", io.save_results_csv), ("Summary", io.save_summary_csv)):
        path = tmp_path / f"{name}.csv"
        save([], path)
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
        ["synth", "--d", "2", "--bins", "4,4", "--aiv", "inf", "--out", "{dir}/s.json"],
        ["synth", "--d", "2", "--bins", "4,4", "--aiv", "1", "--tol", "inf",
         "--out", "{dir}/s.json"],
    ], ids=["validate-dir", "summarize-dir", "report-dir", "run-dir", "run-missing-dir",
            "synth-inf-aiv", "synth-inf-tol"])
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

    def test_report_bad_cell_selector_exits_2(self, tmp_path):
        rows, _ = synthetic_summary_rows()
        summary = tmp_path / "summary.csv"
        io.save_summary_csv(rows, summary)
        assert cli.main([
            "report", "--in", str(summary), "--cell", "B-f1-test",
            "--out", str(tmp_path / "c.svg"),
        ]) == 2
