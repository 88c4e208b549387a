"""Setup shim for environments without the ``wheel`` package.

This file enables ``python setup.py develop`` / legacy editable installs
on machines where PEP 660 editable wheels cannot be built (no ``wheel``
package, offline).
"""

from setuptools import setup

setup()
