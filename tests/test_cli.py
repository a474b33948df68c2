import hashlib
import math
import re

import numpy as np
import pytest

from robinscatter import (
    Channel,
    ConfigError,
    PRESETS,
    RobinCondition,
    RootSolveError,
    ScanConfig,
    main,
    parse_config,
    robin_from_channel,
    run_pole_report,
    run_scan,
)
from robinscatter import cli as cli_module

PI = math.pi

# SHA-256 of the default 300-point preset CSVs.  A mismatch is a change of
# printed output: explain it, never re-pin it to hide it.
PRESET_CSV_SHA256 = {
    "fig1a": "723246b4264ebe3dbad77cb36e3c6e14fb5a521dd91e2cded89b201ab73fd6d5",
    "fig1b": "2ff4da125e1dde208a0482509f8853462b360bf29274cdb8e5bd6837143c7517",
    "fig1c": "74cc2f937ac41e551c5b3131912a500b3f2a869eed73690e5b63f537f4980cb9",
}

# SHA-256 of the 1e5-point preset CSVs (``--n 100000``): the scan's branch
# and formatting on a grid that resolves the fig1b resonance.
DENSE_CSV_SHA256 = {
    "fig1a": "393ae6047a4b7b4c6335b19a72ea0e921b8f4b48ad666b2b2e4502a753b8b1a4",
    "fig1b": "5895c87bd52225e6e23974667512c420683fdd54116b56c77746d400e2b7f3d6",
    "fig1c": "b5652944f8cfdd4873fbb4d702a6bf0d6ca969b6d54e4f5e35a0a5435ad42317",
}


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([None if f == "" else float(f) for f in line.split(",")])
    return comments, header, rows


class TestParseConfig:
    def test_channel_from_flags(self):
        config = parse_config(["--l", "1", "--lambda", "0.1", "--chi", "-25"])
        assert config.channel == Channel(1, 0.1, -25.0)
        assert robin_from_channel(config.channel).c == pytest.approx(9.75, abs=1e-12)
        assert config.outputs == ("full", "eff", "zero")

    def test_channel_from_surface_parameter(self):
        config = parse_config(["--l", "1", "--lambda", "0.1", "--c", "10.25"])
        assert config.channel.chi == pytest.approx(25.0, abs=1e-10)

    def test_chi_c_mutual_exclusion(self):
        with pytest.raises(ConfigError):
            parse_config(["--l", "1", "--lambda", "0.1", "--chi", "-25", "--c", "9.75"])
        with pytest.raises(ConfigError):
            parse_config(["--l", "1", "--lambda", "0.1"])

    def test_preset(self):
        config = parse_config(["--preset", "fig1c"])
        assert config.channel == Channel(1, 0.1, 25.0)
        assert robin_from_channel(config.channel).c == pytest.approx(10.25, abs=1e-12)
        assert (config.kmin, config.kmax, config.n_points) == (0.01, 3.0, 300)
        assert config.output_path == "fig1c.csv"

    def test_preset_with_override(self):
        config = parse_config(["--preset", "fig1a", "--c", "10.25", "--n", "50"])
        assert config.channel.chi == pytest.approx(25.0, abs=1e-10)
        assert config.n_points == 50

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            parse_config(["--preset", "fig9z"])

    def test_series_validity_enforced(self):
        with pytest.raises(ConfigError) as err:
            parse_config(["--l", "0", "--lambda", "0.5", "--chi", "1", "--kmax", "2.5"])
        assert "k*lambda" in str(err.value)
        # allowed when only the full solution is requested
        config = parse_config(
            ["--l", "0", "--lambda", "0.5", "--chi", "1", "--kmax", "2.5",
             "--outputs", "full"]
        )
        assert config.outputs == ("full",)

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "# a comment\n"
            "l = 1\n"
            "lambda = 0.1   # trailing comment\n"
            "chi = -25\n"
            "kmax = 1.5\n"
            "n = 40\n"
        )
        config = parse_config([str(cfg)])
        assert config.channel == Channel(1, 0.1, -25.0)
        assert config.kmax == 1.5
        assert config.n_points == 40

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("l = 1\nlambda = 0.1\nchi = -25\nkmax = 1.5\n")
        config = parse_config([str(cfg), "--kmax", "2.0"])
        assert config.kmax == 2.0

    def test_file_errors_cite_lines(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("l = 1\nbogus = 3\n")
        with pytest.raises(ConfigError) as err:
            parse_config([str(cfg)])
        assert f"{cfg}:2" in str(err.value)

        cfg.write_text("l = 1\nl = 2\n")
        with pytest.raises(ConfigError) as err:
            parse_config([str(cfg)])
        assert ":2" in str(err.value) and "duplicate" in str(err.value)

        cfg.write_text("l 1\n")
        with pytest.raises(ConfigError) as err:
            parse_config([str(cfg)])
        assert ":1" in str(err.value)

        with pytest.raises(ConfigError):
            parse_config([str(tmp_path / "missing.cfg")])

    def test_scan_config_validation(self):
        ch = Channel(1, 0.1, -25.0)
        with pytest.raises(ConfigError):
            ScanConfig(ch, 0.0, 1.0, 10, ("full",), "x.csv")
        with pytest.raises(ConfigError):
            ScanConfig(ch, 2.0, 1.0, 10, ("full",), "x.csv")
        with pytest.raises(ConfigError):
            ScanConfig(ch, 0.1, 1.0, 1, ("full",), "x.csv")
        with pytest.raises(ConfigError):
            ScanConfig(ch, 0.1, 1.0, 10, ("sideways",), "x.csv")
        with pytest.raises(ConfigError):
            ScanConfig(ch, 0.1, 1.0, 10, (), "x.csv")


class TestRunScan:
    def test_preset_csv(self, tmp_path):
        out = tmp_path / "fig1a.csv"
        config = parse_config(["--preset", "fig1a", "--out", str(out)])
        rows = run_scan(config)
        assert len(rows) == 300
        comments, header, data = read_csv(out)
        assert header == ["k", "delta_full", "delta_eff", "delta_zero", "s_re", "s_im"]
        assert len(comments) == 1
        for field in ("l=1", "lambda=0.1", "chi=-25", "c=9.75"):
            assert field in comments[0]
        ks = [r[0] for r in data]
        assert len(data) == 300
        assert all(b > a for a, b in zip(ks, ks[1:]))
        assert ks[0] == pytest.approx(0.01) and ks[-1] == pytest.approx(3.0)
        # every row: unit-modulus S-matrix from the full phase shift
        for r in data:
            assert abs(math.hypot(r[4], r[5]) - 1.0) < 1e-12

    @pytest.mark.parametrize("name", sorted(PRESET_CSV_SHA256))
    def test_preset_csv_bytes_pinned(self, name, tmp_path):
        out = tmp_path / f"{name}.csv"
        run_scan(parse_config(["--preset", name, "--out", str(out)]))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PRESET_CSV_SHA256[name]

    @pytest.mark.parametrize("name", sorted(DENSE_CSV_SHA256))
    def test_dense_preset_csv_bytes_pinned(self, name, tmp_path):
        out = tmp_path / f"{name}.csv"
        run_scan(parse_config(["--preset", name, "--n", "100000", "--out", str(out)]))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DENSE_CSV_SHA256[name]

    def test_bit_stable(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_scan(parse_config(["--preset", "fig1b", "--out", str(out1), "--n", "60"]))
        run_scan(parse_config(["--preset", "fig1b", "--out", str(out2), "--n", "60"]))
        assert out1.read_bytes() == out2.read_bytes()

    def test_plot_script_written(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_scan(parse_config(["--preset", "fig1c", "--out", str(out), "--n", "10"]))
        script = tmp_path / "scan.gp"
        assert script.exists()
        assert "scan.csv" in script.read_text()

    def test_degenerate_two_point_grid(self, tmp_path):
        out = tmp_path / "tiny.csv"
        config = parse_config(
            ["--l", "1", "--lambda", "0.1", "--chi", "-25",
             "--kmin", "0.999999", "--kmax", "1.0", "--n", "2", "--out", str(out)]
        )
        rows = run_scan(config)
        assert len(rows) == 2
        for row in rows:
            assert math.isfinite(row.delta_full)
            assert math.isfinite(row.delta_eff)

    def test_truncation_nulls(self, tmp_path):
        out = tmp_path / "trunc.csv"
        config = parse_config(
            ["--l", "0", "--lambda", "0.5", "--chi", "1",
             "--kmin", "0.1", "--kmax", "1.9", "--n", "10", "--out", str(out)]
        )
        rows = run_scan(config)
        _, _, data = read_csv(out)
        for row, parsed in zip(rows, data):
            if row.k * 0.5 >= 0.9:
                assert row.delta_eff is None and row.delta_zero is None
                assert parsed[2] is None and parsed[3] is None
            else:
                assert row.delta_eff is not None and parsed[2] is not None
            assert row.delta_full is not None and parsed[1] is not None

    def test_outputs_subset(self, tmp_path):
        out = tmp_path / "subset.csv"
        config = parse_config(
            ["--preset", "fig1a", "--out", str(out), "--n", "5", "--outputs", "full,zero"]
        )
        rows = run_scan(config)
        assert all(r.delta_eff is None for r in rows)
        assert all(r.delta_zero is not None for r in rows)


class TestPoleReport:
    def test_fig1a_report(self, tmp_path):
        out = tmp_path / "poles.csv"
        text = run_pole_report(Channel(1, 0.1, -25.0), str(out))
        assert "resonance" in text
        assert "bound" in text
        assert "1.55806" in text
        assert "closed form" in text
        assert "2.53227" in text  # real-axis closed-form estimate
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "re_k,im_k,kind,residual"
        data = [line.split(",") for line in lines[2:]]
        assert len(data) == 3
        kinds = {fields[2] for fields in data}
        assert kinds == {"bound", "resonance", "other"}
        for fields in data:
            float(fields[0]), float(fields[1]), float(fields[3])

    def test_l0_bound_state(self):
        text = run_pole_report(Channel(0, 0.001, 2.0))
        assert "bound" in text
        assert "+2.00402" in text

    def test_zero_coupling_flag(self):
        text = run_pole_report(Channel(1, 0.1, 0.0))
        assert "zero-energy bound state" in text

    def test_csv_parse_kinds(self, tmp_path):
        out = tmp_path / "poles.csv"
        run_pole_report(Channel(1, 0.1, -0.1), str(out))
        body = out.read_text()
        assert "resonance" in body and "bound" in body


class TestMain:
    def test_scan_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "fig1a.csv"
        code = main(["scan", "--preset", "fig1a", "--out", str(out), "--n", "20"])
        assert code == 0
        assert out.exists()
        assert "20 rows" in capsys.readouterr().out

    def test_poles_command(self, capsys):
        code = main(["poles", "--l", "1", "--lambda", "0.1", "--chi", "-25"])
        assert code == 0
        assert "resonance" in capsys.readouterr().out

    def test_poles_command_large_l_is_finite(self, capsys):
        code = main(["poles", "--l", "9", "--lambda", "0.1", "--chi", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("residual") == 19
        assert re.search(r"[+-](nan|inf)", out) is None

    def test_poles_outside_double_range_exit_three(self, capsys):
        code = main(["poles", "--l", "90", "--lambda", "0.1", "--chi", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "Traceback" not in err

    def test_presets_command(self, capsys):
        code = main(["presets"])
        assert code == 0
        out = capsys.readouterr().out
        for name, c in [("fig1a", "9.75"), ("fig1b", "9.999"), ("fig1c", "10.25")]:
            assert name in out and c in out

    def test_config_error_exit_two(self, tmp_path, capsys):
        code = main(["scan", "--l", "1", "--lambda", "0.1",
                     "--chi", "-25", "--c", "9.75"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_dirichlet_has_no_scan_channel(self, capsys):
        # c = inf has no finite coupling, so the scan config is rejected
        code = main(["scan", "--l", "1", "--lambda", "0.1", "--c", "inf"])
        assert code == 2
        assert "Dirichlet" in capsys.readouterr().err

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        code = main(["scan", "--preset", "fig1a", "--n", "5",
                     "--out", str(tmp_path / "no" / "such" / "dir.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--l", "90", "--lambda", "0.5", "--chi", "1", "--kmax", "1.7", "--n", "50"],
            ["--l", "200", "--lambda", "0.1", "--chi", "1", "--kmax", "2", "--n", "5"],
        ],
    )
    def test_scan_outside_double_range_exit_two(self, args, tmp_path, capsys):
        # v_l (l=90) or (2l+1)!! (l=200) overflows: a library ValueError
        out = tmp_path / "scan.csv"
        code = main(["scan", *args, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"l={args[1]}" in err and "k=" in err and "Traceback" not in err
        assert not out.exists()

    def test_numeric_failure_exit_three(self, monkeypatch, capsys):
        def boom(channel):
            raise RootSolveError("stalled")

        monkeypatch.setattr(cli_module, "find_poles", boom)
        code = main(["poles", "--l", "1", "--lambda", "0.1", "--chi", "-25"])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err


class TestPresetDefinitions:
    def test_surface_parameters(self):
        expected = {"fig1a": 9.75, "fig1b": 9.999, "fig1c": 10.25}
        for name, c in expected.items():
            p = PRESETS[name]
            ch = Channel(int(p["l"]), float(p["lambda"]), float(p["chi"]))
            assert robin_from_channel(ch).c == pytest.approx(c, abs=1e-12)
            assert p["kmin"] == 0.01 and p["kmax"] == 3.0 and p["n"] == 300


class TestOnePath:
    @pytest.mark.parametrize(
        "args, cfg_text",
        [
            (["--l", "1", "--lambda", "0.1", "--chi", "-25"], None),
            (["{cfg}"], "l = 1\nlambda = 0.1\nc = 10.25\nkmax = 2\n"),
            (["--preset", "fig1b"], None),
            (["--preset", "fig1a", "--c", "10.25"], None),
        ],
        ids=["flags", "config-file", "preset", "preset-c-override"],
    )
    def test_poles_and_scan_resolve_the_same_channel(
        self, args, cfg_text, tmp_path, monkeypatch, capsys
    ):
        if cfg_text is not None:
            cfg = tmp_path / "channel.cfg"
            cfg.write_text(cfg_text)
            args = [a.format(cfg=cfg) for a in args]
        seen = []

        def capture(channel, output_path=None):
            seen.append(channel)
            return ""

        monkeypatch.setattr(cli_module, "run_pole_report", capture)
        assert main(["poles", *args]) == 0
        assert seen == [parse_config(args).channel]

    def test_poles_takes_out_from_config_file(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"l = 1\nlambda = 0.1\nchi = -25\nout = {out}\n")
        assert main(["poles", str(cfg)]) == 0
        assert out.read_text().splitlines()[1] == "re_k,im_k,kind,residual"

    def test_poles_preset_writes_no_file(self, tmp_path, monkeypatch, capsys):
        # a preset's default output name (fig1b.csv) belongs to scan only
        monkeypatch.chdir(tmp_path)
        assert main(["poles", "--preset", "fig1b"]) == 0
        assert list(tmp_path.iterdir()) == []


class TestErrorContract:
    def test_unknown_flag_is_config_error_without_output(self, capsys):
        with pytest.raises(ConfigError, match="--bogus"):
            parse_config(["--bogus"])
        assert capsys.readouterr() == ("", "")

    def test_flag_and_file_values_fail_alike(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("l = 1.5\nlambda = 0.1\nchi = -25\n")
        with pytest.raises(ConfigError) as from_file:
            parse_config([str(cfg)])
        with pytest.raises(ConfigError) as from_flag:
            parse_config(["--l", "1.5", "--lambda", "0.1", "--chi", "-25"])
        assert str(from_flag.value) == str(from_file.value) == "l must be an integer, got '1.5'"

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--bogus"],
            ["poles", "--preset", "fig1b", "--kmax", "2"],
            ["frobnicate"],
            [],
        ],
    )
    def test_malformed_arguments_one_error_line(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--l", "200", "--lambda", "10", "--chi", "1",
             "--kmax", "0.05", "--n", "5", "--outputs", "full"],
            ["scan", "--l", "200", "--lambda", "0.01", "--c", "1",
             "--kmax", "0.05", "--n", "5", "--outputs", "full"],
            ["poles", "--l", "200", "--lambda", "0.01", "--c", "1"],
        ],
    )
    def test_channel_map_out_of_range_exit_two(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"l=200, lam={float(argv[4])!r}" in err
        assert list(tmp_path.iterdir()) == []

    def test_presets_stdout_pinned(self, capsys):
        assert main(["presets"]) == 0
        assert capsys.readouterr().out == (
            "fig1a: l=1 lambda=0.1 chi=-25.0 (c=9.75) k in [0.01, 3.0], 300 points\n"
            "fig1b: l=1 lambda=0.1 chi=-0.1 (c=9.999) k in [0.01, 3.0], 300 points\n"
            "fig1c: l=1 lambda=0.1 chi=25.0 (c=10.25) k in [0.01, 3.0], 300 points\n"
        )
