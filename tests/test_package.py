"""Package surface: every exported name resolves."""

import styleswap


def test_every_export_resolves():
    missing = [name for name in styleswap.__all__ if not hasattr(styleswap, name)]
    assert missing == []
