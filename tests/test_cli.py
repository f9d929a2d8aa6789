import argparse
import ast
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import streamfem
from streamfem import cip, cli, dg_time
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


def test_diagnostics_builds_each_invariant_once(tmp_path, monkeypatch):
    """One run at the defaults (dG(0)) builds the basis arrays once (the
    one ``legder`` call; 52 when every basis built its own), the edge
    tables once per space, order and edge rule (``_edge_tables``: 3 for
    the form's space, 2 for the reversed mesh's; 15 when every side
    trace built its own) and tests the data of ``dg_solve`` and of
    ``bh_analytic``'s two sweeps once each (``_tested_data``: 3; 21 when
    each of the Galerkin check's 10 draws rebuilt ``bh_analytic``)."""
    counts = Counter()

    def counted(name, build):
        def call(*args):
            counts[name] += 1
            return build(*args)
        return call
    monkeypatch.setattr(np.polynomial.legendre, "legder",
                        counted("basis", np.polynomial.legendre.legder))
    monkeypatch.setattr(cip, "_edge_tables",
                        counted("edge", cip._edge_tables))
    monkeypatch.setattr(dg_time, "_tested_data",
                        counted("tested", dg_time._tested_data))
    dg_time._basis_arrays.cache_clear()
    assert main(["diagnostics", "--out",
                 str(tmp_path / "diagnostics.csv")]) == 0
    assert counts == {"basis": 1, "edge": 5, "tested": 3}


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
    assert summary["fit_points"] == "3"
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


@pytest.mark.parametrize("argv, config, order", [
    (["--dg-order", "1"], None, 1),
    (["--dg-order", "2"], "dg_order = 0\n", 2),
    ([], "dg_order = 1\n", 1),
])
def test_compare_mini_runs_both_methods_at_the_dg_order_given(
        tmp_path, capsys, argv, config, order):
    """compare-mini at dG(r > 0), set by the flag or the config key, runs
    MINI and the stream function at that one order: the run ends in its
    checks' result, not a usage error, every sweep records the order,
    and the MINI columns are not those of dG(0)."""
    if config is not None:
        path = tmp_path / "study.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]

    def run(*flags, out):
        code = main(["compare-mini", "--assert", "--mesh-list", "2",
                     "--steps-list", "1,2", *flags, "--out", str(out)])
        assert code == ("FAIL" in capsys.readouterr().out)
        return {tag: _read_csv(out.with_name(f"{out.stem}_{tag}.csv"))[1]
                for tag in ("mini_g", "mini_gtilde", "sf_g", "sf_gtilde")}

    out = tmp_path / "compare.csv"
    columns = run(*argv, out=out)
    for tag in columns:
        summary = _read_summary(tmp_path / f"compare_{tag}_summary.txt")
        assert summary["dg_order"] == str(order)
    lowest = run(out=tmp_path / "lowest.csv")
    for tag in ("mini_g", "mini_gtilde"):
        assert columns[tag] != lowest[tag]


@pytest.mark.parametrize("argv, config", [
    (["--dg-order", "3"], None),
    ([], "dg_order = 3\n"),
])
def test_converge_k_runs_mini_at_the_dg_order_given(tmp_path, argv, config):
    """The MINI method reads the dG order: dG(3) on a 2-cell mesh runs,
    records its order and has other errors than dG(0)."""
    if config is not None:
        path = tmp_path / "study.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    base = ["converge-k", "--method", "mini", "--mesh-list", "2",
            "--steps-list", "1,2"]
    assert main(base + argv + ["--out", str(tmp_path / "r3.csv")]) == 0
    assert _read_summary(tmp_path / "r3_summary.txt")["dg_order"] == "3"
    assert main(base + ["--out", str(tmp_path / "r0.csv")]) == 0
    assert _read_csv(tmp_path / "r3.csv") != _read_csv(tmp_path / "r0.csv")


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
    assert summary["fit_points"] == "2"       # the levels actually fitted


@pytest.mark.parametrize("argv, config", [
    (["converge-k", "--method", "mini", "--rhs", "f"], None),
    (["converge-k", "--mesh-list", "4,x"], None),
    (["converge-k"], "no_such_key = 1\n"),
    (["converge-k"], "steps_list = 2,four\n"),
    (["converge-k", "--config", "no_such_dir/study.cfg"], None),
    (["stationary", "--degree", "1", "--mesh-list", "2,4"], None),
    (["stationary", "--degree", "4", "--mesh-list", "2,4"], None),
    (["converge-k", "--dg-order", "-1", "--mesh-list", "2"], None),
    (["converge-k", "--mesh-list", "0,4"], None),
    (["converge-k", "--mesh-list", "2", "--steps-list", "0,2"], None),
    (["converge-k", "--mesh-list", "2", "--eta", "-1"], None),
    (["converge-k", "--mesh-list", "2"], "end_time = -1\n"),
    (["converge-k", "--mesh-list", "2,4", "--steps-list", "1,2"], None),
    (["converge-k", "--steps-list", "1,2"], "mesh_list = 2,4\n"),
    (["compare-mini", "--mesh-list", "2,4", "--steps-list", "1,2"], None),
    (["converge-h", "--mesh-list", "2,4", "--steps-list", "1,2"], None),
    (["converge-h", "--mesh-list", "2,4"], "steps_list = 1,2\n"),
    (["diagnostics", "--mesh-list", "2,4", "--steps-list", "1"], None),
    (["diagnostics", "--mesh-list", "2", "--steps-list", "1,2"], None),
    (["stationary", "--mesh-list", "2,4", "--steps-list", "4"], None),
    (["stationary", "--mesh-list", "2,4"], "steps_list = 4\n"),
    (["diagnostics", "--method", "mini", "--mesh-list", "2",
      "--steps-list", "1"], None),
    (["stationary", "--method", "mini", "--mesh-list", "2,4"], None),
    (["stationary", "--mesh-list", "2,4"], "method = mini\n"),
    (["stationary", "--dg-order", "5", "--mesh-list", "2,4"], None),
    (["stationary", "--rhs", "g_tilde", "--mesh-list", "2,4"], None),
    (["stationary", "--mesh-list", "2,4"], "dg_order = 1\n"),
    (["compare-mini", "--method", "streamfct", "--mesh-list", "2",
      "--steps-list", "1,2"], None),
    (["compare-mini", "--rhs", "f", "--mesh-list", "2",
      "--steps-list", "1,2"], None),
    (["compare-mini", "--mesh-list", "2", "--steps-list", "1,2"],
     "rhs = g\n"),
    (["converge-k", "--method", "mini", "--degree", "3", "--mesh-list", "2",
      "--steps-list", "1,2"], None),
    (["converge-k", "--method", "mini", "--eta", "8", "--mesh-list", "2",
      "--steps-list", "1,2"], None),
    (["converge-h", "--method", "mini", "--eta", "8", "--mesh-list", "2,4",
      "--steps-list", "2"], None),
    (["converge-k", "--mesh-list", "2", "--steps-list", "1,2"],
     "method = mini\ndegree = 3\n"),
    (["stationary", "--mesh-list", "4"], None),
    (["stationary", "--mesh-list", "4,4,4"], None),
    (["stationary"], "mesh_list = 8,4\n"),
    (["converge-h", "--mesh-list", "2,2", "--steps-list", "2"], None),
    (["converge-k", "--mesh-list", "2", "--steps-list", "4"], None),
    (["converge-k", "--mesh-list", "2"], "steps_list = 4,4\n"),
    (["compare-mini", "--mesh-list", "2", "--steps-list", "2"], None),
    (["diagnostics", "--rhs", "g_tilde"], None),
    (["diagnostics"], "rhs = f\n"),
    (["converge-k", "--mesh-list", "2", "--steps-list", "1,2", "--eta",
      "nan"], None),
    (["converge-k", "--mesh-list", "2", "--steps-list", "1,2", "--eta",
      "inf"], None),
    (["converge-k", "--mesh-list", "2", "--steps-list", "1,2"],
     "end_time = nan\n"),
    (["converge-k", "--mesh-list", "2", "--steps-list", "1,2"],
     "end_time = inf\n"),
    (["converge-h", "--mesh-list", "2,,4,", "--steps-list", "2"], None),
    (["converge-h", "--steps-list", "2"], "mesh_list = 2,,4\n"),
    (["stationary", "--mesh-list", "2,4"], "end_time = 7\n"),
    (["stationary", "--mesh-list", ""], None),
    (["converge-k", "--mesh-list", "2", "--steps-list", ""], None),
    (["converge-k", "--mesh-list", "2", "--steps-list", "1,2"],
     "degree = 3\ndegree = 2\n"),
])
def test_config_errors_exit_2(tmp_path, capsys, argv, config):
    """Bad flags, config keys, list entries, out-of-range values and files
    end in a one-line usage error with exit code 2, not a traceback."""
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
    (["stationary", "--mesh-list", ""], None,
     "--mesh-list: expected comma-separated integers, got ''"),
    (["converge-k", "--mesh-list", "2", "--steps-list", ""], None,
     "--steps-list: expected comma-separated integers, got ''"),
    (["converge-k", "--degree", "two"], None,
     "--degree: expected an integer, got 'two'"),
    (["converge-k", "--dg-order", "1.5"], None,
     "--dg-order: expected an integer, got '1.5'"),
    (["converge-k", "--eta", "five"], None,
     "--eta: expected a number, got 'five'"),
    (["converge-k"], "degree = 3\ndegree = 2\n",
     "degree: given twice in the config file"),
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


@pytest.mark.parametrize("argv, config, message", [
    (["converge-k", "--mesh-list", "2,4"], None,
     "--mesh-list: converge-k takes one entry, got 2"),
    (["diagnostics"], "steps_list = 1,2,4\n",
     "steps_list: diagnostics takes one entry, got 3"),
    (["stationary", "--steps-list", "4"], None,
     "--steps-list: not read by stationary"),
    (["diagnostics", "--method", "mini"], None,
     "--method: diagnostics runs the stream-function method only"),
    (["stationary", "--dg-order", "3", "--mesh-list", "2,4"], None,
     "--dg-order: not read by stationary"),
    (["diagnostics", "--rhs", "g_tilde"], None,
     "--rhs: not read by diagnostics"),
    (["diagnostics"], "rhs = f\n", "rhs: not read by diagnostics"),
    (["stationary", "--mesh-list", "4,4,4"], None,
     "--mesh-list: stationary fits a rate to at least two strictly "
     "increasing entries, got 4,4,4"),
    (["converge-k", "--mesh-list", "2"], "steps_list = 8\n",
     "steps_list: converge-k fits a rate to at least two strictly "
     "increasing entries, got 8"),
    (["stationary", "--mesh-list", "2,4"], "end_time = 7\n",
     "end_time: not read by stationary"),
])
def test_unused_inputs_name_the_option_and_the_study(tmp_path, capsys, argv,
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


def test_too_small_penalty_is_a_one_line_usage_error(tmp_path, capsys):
    """A positive penalty that only the exact coercivity check refuses
    ends in one usage line with exit code 2, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["converge-k", "--mesh-list", "2", "--steps-list", "1,2",
              "--eta", "0.5", "--out", str(tmp_path / "k.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == \
        "streamfem: error: eta=0.5 is too small: a_h is not definite"
    assert "Traceback" not in "\n".join(err)
    assert not (tmp_path / "k.csv").exists()


def test_solver_failure_is_one_error_line_and_exit_1(tmp_path, capsys,
                                                     monkeypatch):
    """A solve that misses its residual contract ends in one error line
    with its message and exit code 1, not a traceback."""
    import streamfem.cli as cli
    from streamfem.linalg import SolverError

    def fail(form, w):
        raise SolverError("residual 2.190e-10 above rtol 1.0e-10",
                          residual=2.19e-10)
    monkeypatch.setattr(cli, "ritz_projection", fail)
    code = main(["stationary", "--mesh-list", "2,4",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "streamfem: error: residual 2.190e-10 above rtol 1.0e-10"]
    assert captured.out == ""
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("argv, config, message", [
    (["stationary", "--mesh-list", "2,4", "--out", "{tmp}"], None,
     "--out: expected a file to write, got '{tmp}'"),
    (["diagnostics", "--out", "{tmp}"], None,
     "--out: expected a file to write, got '{tmp}'"),
    (["compare-mini", "--mesh-list", "2", "--steps-list", "1,2",
      "--out", ""], None, "--out: expected a file to write, got ''"),
    (["stationary", "--mesh-list", "2,4"], "out =\n",
     "out: expected a file to write, got ''"),
    (["stationary", "--mesh-list", "2,4"], "out = {tmp}/no_dir/x.csv\n",
     "out: no such directory '{tmp}/no_dir'"),
    pytest.param(["compare-mini", "--mesh-list", "2", "--steps-list", "1,2",
                  "--out", "{tmp}/c.csv"], None,
                 "--out: expected a file to write, got '{tmp}/c_mini_g.csv'",
                 marks=pytest.mark.out_dirs("c_mini_g.csv")),
    pytest.param(["stationary", "--mesh-list", "2,4", "--out", "{tmp}/s.csv"],
                 None,
                 "--out: expected a file to write, got '{tmp}/s_summary.txt'",
                 marks=pytest.mark.out_dirs("s_summary.txt")),
])
def test_bad_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                         request, argv, config, message):
    """An output path that is empty, a directory or in a missing directory,
    or a path derived from it (``Study.paths``) that is a directory, is a
    usage error naming the option or key as given, found before any mesh
    is built."""
    built = []
    monkeypatch.setattr(cli, "build_structured_mesh",
                        lambda *a: built.append(a))
    marker = request.node.get_closest_marker("out_dirs")
    made = list(marker.args) if marker else []
    for name in made:
        (tmp_path / name).mkdir()
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if config is not None:
        path = tmp_path / "study.cfg"
        path.write_text(config.format(tmp=tmp_path))
        argv = argv + ["--config", str(path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == f"streamfem: error: {message.format(tmp=tmp_path)}"
    assert built == []
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(made + (["study.cfg"] if config is not None else []))


# inputs small enough to run every study in a moment
_TINY = {"converge-k": ((2,), (1, 2)), "converge-h": ((2, 4), (2,)),
         "stationary": ((2, 4), (1,)), "diagnostics": ((2,), (2,)),
         "compare-mini": ((2,), (1, 2))}


@pytest.mark.parametrize("name", list(cli.STUDIES))
def test_records_hold_the_paths_derived_from_out(tmp_path, name):
    """A study's record writes exactly the paths its ``Study.paths``
    derives from ``out``, the paths checked before any work."""
    study = cli.STUDIES[name]
    out = tmp_path / "study.csv"
    mesh_list, steps_list = _TINY[name]
    record = study.run(cli.StudyConfig(mesh_list=mesh_list,
                                       steps_list=steps_list, out=str(out)))
    assert (tuple(record.csvs), tuple(record.summaries)) == study.paths(out)


def test_the_parser_and_main_read_only_the_study_table():
    """The subcommands are exactly the keys of ``STUDIES`` and ``main``
    names no study, so a study is added by its table entry alone."""
    (subcommands,) = [action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    assert list(subcommands.choices) == list(cli.STUDIES)
    constants = {node.value for node in
                 ast.walk(ast.parse(inspect.getsource(cli.main)))
                 if isinstance(node, ast.Constant)}
    assert not constants & set(cli.STUDIES)



def test_the_benchmark_calls_never_import_scipy_special(tmp_path):
    """The Gauss rules come from the table in ``quadrature``: in a fresh
    interpreter, tiny runs of the calls of every benchmark workload
    (``converge-k`` at P2 dG(0) and P3 dG(2), ``stationary`` at P3 and
    ``diagnostics``) leave scipy.special unimported."""
    runs = [["converge-k", "--degree", "2", "--dg-order", "0",
             "--mesh-list", "4", "--steps-list", "1,2"],
            ["converge-k", "--degree", "3", "--dg-order", "2",
             "--mesh-list", "4", "--steps-list", "1,2"],
            ["stationary", "--degree", "3", "--mesh-list", "2,4"],
            ["diagnostics", "--mesh-list", "4", "--steps-list", "2"]]
    runs = [[*argv, "--out", str(tmp_path / f"{argv[0]}.csv")]
            for argv in runs]
    script = ("import sys\n"
              "from streamfem import cli\n"
              f"print([cli.main(argv) for argv in {runs!r}])\n"
              "print('scipy.special' in sys.modules)\n")
    src = str(Path(streamfem.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["[0, 0, 0, 0]", "False"]
