"""Miniature encoder-decoder transformer with swappable style adapters."""
