"""Workloads: the paper's examples as fixtures, plus synthetic families.

``repro.workloads.paper`` transcribes every worked example of the paper
(Examples 1–4, Section 3.1, the Appendix) into constructor functions so
that tests and examples share a single source of truth.

``repro.workloads.synthetic`` generates the parameterised system families
the tests sweep and the ``bench/`` workloads build on.
"""

from .paper import (
    appendix_instance,
    example1_query,
    example1_system,
    example2_rewritten_text,
    example4_system,
    section31_dec,
    section31_instance,
    section31_system,
)
from .synthetic import (
    conflict_chain_system,
    import_star_system,
    peer_chain_system,
    referential_system,
    topology_system,
)

__all__ = [
    "example1_system", "example1_query", "example2_rewritten_text",
    "section31_dec", "section31_instance", "section31_system",
    "appendix_instance", "example4_system",
    "conflict_chain_system", "import_star_system", "referential_system",
    "peer_chain_system", "topology_system",
]
