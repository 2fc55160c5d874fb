"""Stable, popular, and dominant matchings under strict preferences.

The package provides a data model for marriage and roommates instances,
head-to-head election primitives, a constrained proposal engine with
dominant-matching and witness construction, polynomial tests with
certificates for stability, popularity, and dominance, structural
classification algorithms, CNF-to-instance gadget compilers, and a naive
exhaustive oracle used as ground truth in the test suite.
"""

from .model import (
    Instance,
    Matching,
    ParseError,
    parse_instance,
    parse_matching,
    serialize_instance,
    serialize_matching,
)

__version__ = "0.1.0"

__all__ = [
    "Instance",
    "Matching",
    "ParseError",
    "parse_instance",
    "parse_matching",
    "serialize_instance",
    "serialize_matching",
    "__version__",
]
