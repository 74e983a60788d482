"""helikon: a numerical laboratory for minimal surfaces from Weierstrass data."""

__version__ = "0.1.0"
