"""Rule-based Hindi question generation from karaka-labeled parses."""

__version__ = "0.1.0"
