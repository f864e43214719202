"""Build script: a plain pure-Python package; metadata is in pyproject.toml."""

from setuptools import setup

setup()
