import pytest

from streamfem.cli import main


def test_diagnostics_assert_passes_at_defaults(tmp_path, capsys):
    """Every documented check passes at the shipped defaults, with the
    default quadrature rules on both routes."""
    code = main(["diagnostics", "--assert",
                 "--out", str(tmp_path / "diagnostics.csv")])
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 8
    assert code == 0


def _read_summary(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], [[float(v) for v in row.split(",")] for row in lines[1:]]


_SWEEP_KEYS = {"study", "method", "rhs", "degree", "dg_order", "fitted_rate",
               "fit_points"}


@pytest.mark.parametrize("argv, header, keys", [
    (["converge-k", "--mesh-list", "4", "--steps-list", "2,4,8",
      "--dg-order", "1"], "k,error", _SWEEP_KEYS | {"n", "expected_rate"}),
    (["converge-k", "--method", "mini", "--mesh-list", "4",
      "--steps-list", "2,4,8"], "k,error", _SWEEP_KEYS | {"n"}),
    (["converge-h", "--mesh-list", "2,4,8", "--steps-list", "4"], "h,error",
     _SWEEP_KEYS | {"steps", "expected_rate"}),
    (["stationary", "--mesh-list", "2,4,8"], "h,error",
     {"study", "degree", "fitted_rate", "expected_rate", "fit_points"}),
])
def test_study_output_format(tmp_path, capsys, argv, header, keys):
    out = tmp_path / "study.csv"
    assert main(argv + ["--out", str(out)]) == 0
    got_header, rows = _read_csv(out)
    assert got_header == header
    assert len(rows) == 3
    assert all(err > 0.0 for _, err in rows)
    summary = _read_summary(tmp_path / "study_summary.txt")
    assert set(summary) == keys
    assert summary["study"] == argv[0]
    # stream-function sweeps state the asymptotic rate: r + 1 in k for
    # dG(r), the degree l in h for the H1 error of C0IP P_l
    if "expected_rate" in summary:
        expected = (int(summary["dg_order"]) + 1 if argv[0] == "converge-k"
                    else int(summary["degree"]))
        assert summary["expected_rate"] == str(expected)
    assert f"{float(summary['fitted_rate']):.3f}" in capsys.readouterr().out


@pytest.mark.parametrize("mesh, code", [("4", 0), ("8", 1)])
def test_compare_mini_assert_exit_code(tmp_path, capsys, mesh, code):
    """--assert exits 1 exactly when a printed check fails; with three
    short steps the blow-up ratio is 15.7 at n=4 and 9.15 at n=8."""
    out = tmp_path / "compare.csv"
    assert main(["compare-mini", "--assert", "--mesh-list", mesh,
                 "--steps-list", "2,4,8", "--out", str(out)]) == code
    printed = capsys.readouterr().out
    assert ("FAIL" in printed) == bool(code)
    for tag in ("mini_g", "mini_gtilde", "sf_g", "sf_gtilde"):
        header, rows = _read_csv(tmp_path / f"compare_{tag}.csv")
        assert header == "k,error" and len(rows) == 3
    summary = _read_summary(tmp_path / "compare_summary.txt")
    assert set(summary) == {"study", "mini_blowup_ratio",
                            "streamfct_column_gap"}
    assert (float(summary["mini_blowup_ratio"]) >= 10.0) == (code == 0)


def test_config_precedence(tmp_path):
    """Explicit flags beat the config file, which beats the defaults."""
    config = tmp_path / "study.cfg"
    config.write_text("# tiny run\ndegree = 3\nsteps_list = 2,4\n"
                      "mesh_list = 4\n")
    out = tmp_path / "study.csv"
    assert main(["converge-k", "--config", str(config), "--degree", "2",
                 "--out", str(out)]) == 0
    summary = _read_summary(tmp_path / "study_summary.txt")
    assert summary["degree"] == "2"           # flag over file
    assert summary["n"] == "4"                # file over default 64
    assert summary["dg_order"] == "0"         # default
    assert len(_read_csv(out)[1]) == 2        # file over default 8,16,32,64


@pytest.mark.parametrize("argv, config", [
    (["converge-k", "--method", "mini", "--rhs", "f"], None),
    (["converge-k", "--mesh-list", "4,x"], None),
    (["converge-k"], "no_such_key = 1\n"),
    (["converge-k"], "steps_list = 2,four\n"),
    (["converge-k", "--config", "no_such_dir/study.cfg"], None),
])
def test_config_errors_exit_2(tmp_path, capsys, argv, config):
    """Bad flags, config keys, list entries and files end in a one-line
    usage error with exit code 2, not a traceback."""
    if config is not None:
        path = tmp_path / "study.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "study.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("streamfem: error: ")
    assert "Traceback" not in "\n".join(err)
    assert not (tmp_path / "study.csv").exists()


@pytest.mark.parametrize("argv, config, message", [
    (["converge-k", "--mesh-list", "4,x"], None,
     "--mesh-list: expected comma-separated integers, got '4,x'"),
    (["converge-k", "--steps-list", "2;4"], None,
     "--steps-list: expected comma-separated integers, got '2;4'"),
    (["converge-k"], "steps_list = 2,four\n",
     "steps_list: expected comma-separated integers, got '2,four'"),
    (["converge-k"], "degree = two\n",
     "degree: expected an integer, got 'two'"),
])
def test_bad_values_name_the_option_and_format(tmp_path, capsys, argv,
                                               config, message):
    if config is not None:
        path = tmp_path / "study.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "study.csv")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == \
        f"streamfem: error: {message}"


def test_fitted_rates_print_six_significant_digits(tmp_path):
    """Rates are slopes over three levels and print to 6 significant
    digits; every other summary float keeps 12."""
    out = tmp_path / "compare.csv"
    main(["compare-mini", "--mesh-list", "4", "--steps-list", "2,4,8",
          "--out", str(out)])
    for tag in ("mini_g", "mini_gtilde", "sf_g", "sf_gtilde"):
        rate = _read_summary(tmp_path / f"compare_{tag}_summary.txt")[
            "fitted_rate"]
        assert rate == f"{float(rate):.6g}"
    ratio = _read_summary(tmp_path / "compare_summary.txt")[
        "mini_blowup_ratio"]
    assert ratio == f"{float(ratio):.12g}" != f"{float(ratio):.6g}"


def test_missing_output_directory_exits_2_before_any_work(tmp_path, capsys,
                                                          monkeypatch):
    """A missing --out directory is a usage error found before the study
    runs, not a traceback after it."""
    import streamfem.cli as cli
    assembled = []
    monkeypatch.setattr(cli, "assemble_cip",
                        lambda *a, **k: assembled.append(a))
    missing = tmp_path / "no_such_dir"
    with pytest.raises(SystemExit) as exc:
        main(["stationary", "--mesh-list", "4,8",
              "--out", str(missing / "s.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == f"streamfem: error: --out: no such directory " \
                      f"{str(missing)!r}"
    assert "Traceback" not in "\n".join(err)
    assert assembled == []
    assert not missing.exists()
