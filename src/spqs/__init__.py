"""Quasi-states on the skew-symplectic matrix algebra: the Maslov quasi-state
computed by independent methods, constructors for the known quasi-state
families, and property-based verification of their defining identities.
Import each name from its module (e.g. `from spqs.maslov import maslov_evaluate`)."""

__version__ = "0.1.0"
