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
