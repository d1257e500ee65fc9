"""Fountain-coded storage and doped collection in circular squad networks.

Every name is imported from its module, e.g.
``from squadfountain.codec import SourceBlock``; the package root holds
only ``__version__``.
"""

__version__ = "0.1.0"
