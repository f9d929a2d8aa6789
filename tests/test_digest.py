import importlib.util
from pathlib import Path

from streamfem import cli

_PATH = Path(__file__).resolve().parent.parent / "tools" / "digest.py"
_SPEC = importlib.util.spec_from_file_location("digest", _PATH)
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)


def test_the_digest_runs_every_study():
    """``tools/digest.py`` digests the outputs of every subcommand, so a
    new study cannot skip the bit-identity check."""
    assert {argv[0] for argv in digest.STUDIES} == set(cli.STUDIES)
