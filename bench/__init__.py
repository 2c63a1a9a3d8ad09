"""The repository benchmark: ``python -m bench run`` (see README.md)."""
