"""Command-line interface: tables, envelopes, exit codes, determinism."""

import json
import math
import tracemalloc

import pytest

import numpy as np

from dbarkit.cli import (RunConfig, _emit, _json_cell, columns_to_csv,
                         columns_to_json, main, parse_weight, render_from_log,
                         rows_to_csv)
from dbarkit.criteria import DEFAULT_SEED, run_criteria
from dbarkit.errors import ParameterDomainError
from dbarkit.spectrum import diagnostics, stirling_surrogate
from dbarkit.weights import DiscPolynomial, FockExponential, MomentSequence


def _body(config, verdict=None):
    """The envelope a command writes, with its rows left empty."""
    body = {"command": config.command, "config": config.as_dict(), "rows": []}
    if verdict is not None:
        body["verdict"] = verdict
    return body


def _envelope(config, rows, verdict=None):
    """The JSON envelope built row by row with json.dumps, the reference for
    the column writer."""
    body = _body(config, verdict)
    body["rows"] = [{k: _json_cell(v) for k, v in row.items()} for row in rows]
    return json.dumps(body, indent=2) + "\n"


class TestParseWeight:
    def test_families(self):
        assert parse_weight("disc:alpha=0") == DiscPolynomial(0.0)
        assert parse_weight("fock:m=2") == FockExponential(2.0)

    def test_bad_strings(self):
        for text in ("disc", "disc:beta=1", "disc:alpha", "fock:m=two",
                     "gauss:m=2", "disc:alpha=1,extra=2"):
            with pytest.raises(ParameterDomainError):
                parse_weight(text)

    def test_label_round_trip(self):
        # labels print the shortest repr of each parameter, so every float
        # round-trips, not only short decimals
        for w in (DiscPolynomial(0.0), DiscPolynomial(2.5), DiscPolynomial(7.3),
                  FockExponential(2.0), FockExponential(0.5), FockExponential(4.0),
                  DiscPolynomial(1.23456789), DiscPolynomial(1e-7),
                  DiscPolynomial(1e200), FockExponential(1.23456789),
                  FockExponential(1e-7), FockExponential(1e200)):
            assert parse_weight(w.label) == w

    def test_unknown_family_exit_code(self, capsys):
        assert main(["moments", "--weight", "gauss:m=2"]) == 2
        assert "unknown weight family" in capsys.readouterr().err


class TestRenderFromLog:
    def test_representable(self):
        assert render_from_log(0.0) == 1.0
        assert render_from_log(math.log(math.pi)) == pytest.approx(math.pi)

    def test_overflowing_value_becomes_string(self):
        s = render_from_log(800.0)
        assert isinstance(s, str)
        mant, _, exp = s.partition("e")
        assert float(mant) == pytest.approx(math.exp(800.0 - float(exp) * math.log(10.0)), rel=1e-9)
        assert int(exp) == math.floor(800.0 / math.log(10.0))


class TestMoments:
    def test_fock_table(self, capsys):
        assert main(["moments", "--weight", "fock:m=2", "--n-max", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,log_c2,c2,ratio"
        # c_n^2 = pi n!
        row3 = lines[4].split(",")
        assert float(row3[2]) == pytest.approx(math.pi * 6.0, rel=1e-12)

    def test_disc_values(self, capsys):
        assert main(["moments", "--weight", "disc:alpha=0", "--n-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        c2 = [float(line.split(",")[2]) for line in lines[1:]]
        want = [math.pi, math.pi / 2.0, math.pi / 3.0, math.pi / 4.0]
        assert c2 == pytest.approx(want, rel=1e-12)

    def test_parameter_error_exit_code(self, capsys):
        assert main(["moments", "--weight", "disc:alpha=-1"]) == 2
        assert "parameter error" in capsys.readouterr().err

    def test_overflowing_ratio_exit_code(self, capsys):
        # the ratio c_1^2 / c_0^2 of exp(-|z|^0.001) leaves the double range
        assert main(["moments", "--weight", "fock:m=1e-3"]) == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_json_envelope(self, capsys):
        assert main(["moments", "--weight", "fock:m=2", "--n-max", "2",
                     "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["command"] == "moments"
        assert body["config"]["weight"] == "fock:m=2"
        assert len(body["rows"]) == 3

    def test_huge_moments_become_strings(self, capsys):
        assert main(["moments", "--weight", "fock:m=2", "--n-max", "200",
                     "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert isinstance(body["rows"][0]["c2"], float)
        assert isinstance(body["rows"][200]["c2"], str)  # ln(pi 200!) > 700


class TestSpectrum:
    def test_gaussian_footer(self, capsys):
        assert main(["spectrum", "--weight", "fock:m=2", "--n-max", "100"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "n,lambda,partial_sum,ratio,stirling_surrogate"
        lambdas = [float(line.split(",")[1]) for line in lines[1:-1]]
        assert lambdas == pytest.approx([1.0] * 101, abs=1e-12)
        assert lines[-1].startswith("classification,NonCompact")

    def test_disc_verdict(self, capsys):
        assert main(["spectrum", "--weight", "disc:alpha=1",
                     "--n-max", "1000"]) == 0
        out = capsys.readouterr().out
        assert "classification,HilbertSchmidt" in out

    def test_fock4_verdict_json(self, capsys):
        assert main(["spectrum", "--weight", "fock:m=4", "--n-max", "2000",
                     "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["verdict"]["verdict"] == "CompactNotHilbertSchmidt"
        assert body["rows"][1]["lambda"] == pytest.approx(
            body["rows"][1]["stirling_surrogate"], rel=0.5)

    def test_no_surrogate_column_for_disc(self, capsys):
        assert main(["spectrum", "--weight", "disc:alpha=0", "--n-max", "30"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "stirling_surrogate" not in header


class TestColumnWriter:
    # the same values as columns (float ndarrays, a masked first cell) and
    # as row dicts (floats, None); -0.0 and inf must come out alike
    LAM = np.array([0.5, -0.0, 1e-300, np.inf, -2.5e10, np.nan])
    SUR = np.ma.masked_array([9.0, 1.0, -0.0, 1.0 / 3.0, 2.0, 7.0],
                             mask=[True, False, False, False, False, False])

    def columns(self):
        return {"n": np.arange(6), "lambda": self.LAM, "stirling_surrogate": self.SUR}

    def rows(self):
        return [{"n": n, "lambda": float(self.LAM[n]),
                 "stirling_surrogate": None if n == 0 else float(self.SUR.data[n])}
                for n in range(6)]

    def test_csv_matches_rows(self):
        footer = ["classification", "NonCompact", 0.25]
        text = columns_to_csv(self.columns(), footer=footer)
        assert text == rows_to_csv(self.rows(), footer=footer)
        assert text.splitlines()[1:3] == ["0,0.5,", "1,0,1"]

    def test_blocks_of_rows_join_up(self):
        # the writers format 4096 rows at a time; a table of 9000 spans three
        lam = np.random.default_rng(5).standard_normal(9000)
        lam[[0, 4095, 4096, 8999]] = -0.0
        columns = {"n": np.arange(9000), "lambda": lam}
        rows = [{"n": n, "lambda": float(v)} for n, v in enumerate(lam)]
        assert columns_to_csv(columns) == rows_to_csv(rows)
        config = RunConfig(command="spectrum")
        assert columns_to_json(_body(config), columns) == _envelope(config, rows)

    def test_json_matches_rows(self):
        config = RunConfig(command="spectrum", weight="fock:m=3", n_max=5)
        verdict = {"verdict": "NonCompact", "tail_window": [2, 5]}
        for v in (None, verdict):
            assert columns_to_json(_body(config, v), self.columns()) == \
                _envelope(config, self.rows(), v)
        assert columns_to_json(_body(config), {}) == _envelope(config, [])

    @pytest.mark.parametrize("weight", ["fock:m=3", "fock:m=2", "disc:alpha=1"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_spectrum_table_matches_rows(self, weight, fmt, capsys):
        # the spectrum command writes what the row writers give for its values
        assert main(["spectrum", "--weight", weight, "--n-max", "40",
                     "--format", fmt]) == 0
        out = capsys.readouterr().out
        w = parse_weight(weight)
        d = diagnostics(MomentSequence(w), 40)
        rows = []
        for n in range(41):
            row = {"n": n, "lambda": float(d.lambdas[n]),
                   "partial_sum": float(d.partial_sums[n]), "ratio": float(d.ratios[n])}
            if isinstance(w, FockExponential):
                row["stirling_surrogate"] = stirling_surrogate(w.m, n) if n else None
            rows.append(row)
        if fmt == "csv":
            assert out.splitlines()[:-1] == rows_to_csv(rows).splitlines()
        else:
            body = json.loads(out)
            config = RunConfig(command="spectrum", weight=weight, n_max=40, fmt="json")
            assert out == _envelope(config, rows, body["verdict"])


class TestStreamedWriter:
    # tables of 4095 to 8192 rows: one block short of, at, one row past and at
    # twice the 4096-row block of the writer
    @pytest.mark.parametrize("n_max", [4094, 4095, 4096, 8191])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_block_edges(self, n_max, fmt, to_file, tmp_path, capsys):
        path = tmp_path / f"t.{fmt}"
        argv = ["spectrum", "--weight", "fock:m=3", "--n-max", str(n_max),
                "--format", fmt] + (["--out", str(path)] if to_file else [])
        assert main(argv) == 0
        out = path.read_text(encoding="utf-8") if to_file else capsys.readouterr().out
        d = diagnostics(MomentSequence(FockExponential(3.0)), n_max)
        n = np.arange(n_max + 1)
        # the surrogate's n = 0 cell is masked
        sur = stirling_surrogate(3.0, np.maximum(n, 1))
        columns = {"n": n, "lambda": d.lambdas, "partial_sum": d.partial_sums,
                   "ratio": d.ratios,
                   "stirling_surrogate": np.ma.masked_array(sur, mask=n == 0)}
        rows = [{"n": k, "lambda": lam, "partial_sum": ps, "ratio": r,
                 "stirling_surrogate": s if k else None}
                for k, lam, ps, r, s in zip(n.tolist(), d.lambdas.tolist(),
                                            d.partial_sums.tolist(),
                                            d.ratios.tolist(), sur.tolist())]
        if fmt == "csv":
            footer = out.splitlines(keepends=True)[-1]
            assert footer.startswith("classification,")
            assert out == columns_to_csv(columns) + footer == rows_to_csv(rows) + footer
        else:
            body = json.loads(out)
            assert len(body["rows"]) == n_max + 1
            assert body["rows"][0]["stirling_surrogate"] is None
            config = RunConfig(command="spectrum", weight="fock:m=3", n_max=n_max,
                               fmt="json")
            envelope = _body(config, body["verdict"])
            assert out == columns_to_json(envelope, columns) == \
                _envelope(config, rows, body["verdict"])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_is_independent_of_rows(self, fmt, tmp_path):
        # the writer holds one block of text at a time, so ten times the rows
        # must not take more memory to write
        def peak(rows):
            x = np.random.default_rng(rows).standard_normal(rows)
            columns = {"n": np.arange(rows), "x": x}
            config = RunConfig(command="spectrum", fmt=fmt, out=str(tmp_path / "t"))
            tracemalloc.start()
            try:
                assert _emit(config, columns) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200_000) <= 1.5 * peak(20_000)


class TestWriteFailures:
    # a destination that cannot be written is an input error naming it
    @pytest.mark.parametrize("command", ["spectrum", "moments", "solve"])
    @pytest.mark.parametrize("dest", ["missing-directory", "directory"])
    def test_unwritable_out(self, command, dest, tmp_path, capsys):
        coeffs = tmp_path / "f.json"
        coeffs.write_text("[[0, 0], [1, 0]]")
        out = tmp_path / "missing" / "t.csv" if dest == "missing-directory" else tmp_path
        argv = [command, "--weight", "fock:m=2", "--out", str(out)]
        if command == "solve":
            argv.append(str(coeffs))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: cannot write") and str(out) in err

    def test_reproduce_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        out.write_text("")
        assert main(["reproduce", "--only", "telescoping", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: cannot write")
        assert str(out) in captured.err and captured.out == ""


class TestSolve:
    def test_linear_gaussian(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text("[[0, 0], [1, 0]]")
        assert main(["solve", "--weight", "fock:m=2", str(path)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "section,index,re,im,value"
        holo = [l for l in lines if l.startswith("holo_part")]
        assert holo == ["holo_part,0,-1,0,"]
        defect = [l for l in lines if l.startswith("defect_norm_sq")][0]
        assert float(defect.split(",")[4]) == pytest.approx(math.pi, rel=1e-12)
        orth = [l for l in lines if l.startswith("orthogonality_residual")]
        assert all(float(l.split(",")[4]) == 0.0 for l in orth)
        bound = [l for l in lines if l.startswith("bound_constant")][0]
        assert float(bound.split(",")[4]) == pytest.approx(1.0, abs=1e-12)

    def test_json_config_echoes_only_its_options(self, tmp_path, capsys):
        # solve has no --n-max, so its config has no n_max
        path = tmp_path / "f.json"
        path.write_text("[[0, 0], [1, 0]]")
        assert main(["solve", "--weight", "fock:m=2", "--format", "json", str(path)]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config == {"command": "solve", "format": "json", "seed": DEFAULT_SEED,
                          "weight": "fock:m=2", "coeffs": str(path)}

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[[1, 2], [3]]")
        assert main(["solve", "--weight", "fock:m=2", str(path)]) == 3
        assert "input error" in capsys.readouterr().err

    def test_non_finite_coefficients(self, tmp_path, capsys):
        # json reads NaN and Infinity as floats
        path = tmp_path / "nan.json"
        path.write_text("[[NaN, 0], [1, Infinity]]")
        assert main(["solve", "--weight", "disc:alpha=1", str(path)]) == 3
        out = capsys.readouterr()
        assert "input error" in out.err and out.out == ""

    def test_missing_file(self, capsys):
        assert main(["solve", "--weight", "fock:m=2", "/nonexistent.json"]) == 3

    def test_overflowing_norm_exit_code(self, tmp_path, capsys):
        # c_k^2 = pi k! overflows a double before k = 300
        path = tmp_path / "f.json"
        path.write_text(json.dumps([[1, 0]] * 300))
        assert main(["solve", "--weight", "fock:m=2", str(path)]) == 4
        assert "numerical failure" in capsys.readouterr().err


class TestReproduce:
    def test_single_criterion_artifact(self, tmp_path, capsys):
        assert main(["reproduce", "--only", "reproducing-property",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS: reproducing-property" in out
        assert "all criteria PASS" in out
        text = (tmp_path / "reproducing-property.csv").read_text()
        assert text.strip().splitlines()[-1] == "result,PASS"

    def test_json_artifact(self, tmp_path, capsys):
        assert main(["reproduce", "--only", "ball-divergence", "--format",
                     "json", "--out", str(tmp_path)]) == 0
        body = json.loads((tmp_path / "ball-divergence.json").read_text())
        assert body["pass"] is True
        assert body["criterion"] == "ball-divergence"

    def test_json_artifacts_match_rows(self, tmp_path, capsys):
        # every criterion's artifact is json.dumps of its row dicts
        assert main(["reproduce", "--format", "json", "--out", str(tmp_path)]) == 0
        for res in run_criteria():
            body = {"command": "reproduce", "criterion": res.cid, "title": res.title,
                    "pass": res.passed, "failures": res.failures,
                    "rows": [{k: _json_cell(v) for k, v in row.items()}
                             for row in res.rows]}
            assert (tmp_path / f"{res.cid}.json").read_text() == \
                json.dumps(body, indent=2) + "\n"

    def test_unknown_criterion_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["reproduce", "--only", "no-such-criterion"])
        assert info.value.code == 2


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["spectrum", "--weight", "fock:m=4", "--n-max", "200",
                         "--seed", "7", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_solve_deterministic(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("[[0.5, -0.25], [1, 2], [0, 0.125]]")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["solve", "--weight", "disc:alpha=1", str(path),
                         "--seed", "42", "--format", "json",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
