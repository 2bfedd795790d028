"""Legacy setup shim.

Without the ``wheel`` package, PEP 660 editable installs are unavailable
offline; this file enables ``python setup.py develop`` (and, where
``wheel`` is installed, ``pip install -e . --no-use-pep517``).  Package
metadata lives in ``pyproject.toml``.
"""

from setuptools import setup

setup()
