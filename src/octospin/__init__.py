"""Octonion-algebra construction of Spin(7) rotations, exactly verified.

The package builds products of plane rotations of R^8 from octonion data,
decides Spin(7) membership through the octonion-compatibility relation,
projects along the double cover to SO(7), and keeps a winding-degree
ledger for the circle maps feeding the construction.  All of it runs over
exact rational arithmetic (the default) or 64-bit floats with tolerances.

The modules are the import surface: ``scalar``, ``octonion``, ``geometry``,
``spinmaps``, ``degree``, ``suites`` and ``cli``.
"""

__version__ = "0.1.0"
