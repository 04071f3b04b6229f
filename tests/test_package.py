"""The package's export list."""
import spcnet


def test_every_exported_name_resolves():
    missing = [name for name in spcnet.__all__ if not hasattr(spcnet, name)]
    assert missing == []
