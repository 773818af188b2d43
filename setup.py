"""Legacy setup shim.

All metadata, extras and console scripts live in setup.cfg; this file
exists so that ``pip install -e .`` works in offline environments
lacking the ``wheel`` package (pip falls back to ``setup.py develop``
there).
"""

from setuptools import setup

setup()
