"""The platform benchmark (see run.py and README.md)."""
