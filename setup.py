"""Build script: the package is pure Python, declared in pyproject.toml."""

from setuptools import setup

setup()
