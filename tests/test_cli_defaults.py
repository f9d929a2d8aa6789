"""A bare study command runs the study at the defaults of ``StudyConfig``
and of its own table, the configuration perfbench builds directly."""

from dataclasses import replace

import pytest

from streamfem import cli


@pytest.mark.parametrize("study", sorted(cli._DEFAULTS))
def test_bare_command_gives_the_default_config(study):
    args = cli._build_parser().parse_args([study])
    assert cli._config_from_args(args) == replace(cli.StudyConfig(),
                                                  **cli._DEFAULTS[study])
