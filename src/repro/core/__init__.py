"""The paper's contribution: the k-symmetry model and its machinery.

* :mod:`repro.core.naive` — naive anonymization (Section 1's baseline);
* :mod:`repro.core.partitions` — sub-automorphism partitions (Definition 2)
  and their verification;
* :mod:`repro.core.orbit_copy` — the orbit copying operation (Definition 3);
* :mod:`repro.core.anonymize` — Algorithm 1 plus the Section 5.1
  minimal-vertex variant;
* :mod:`repro.core.fsymmetry` — the f-symmetry generalisation and hub
  exclusion (Definition 5, Section 5.2);
* :mod:`repro.core.backbone` — graph backbone detection (Definition 4,
  Algorithm 2);
* :mod:`repro.core.sampling` — exact and approximate backbone-based sampling
  (Algorithms 3, 4, 5);
* :mod:`repro.core.republish` — sequential releases of an evolving network
  (Section 6 growth model) with monotone cells across releases;
* :mod:`repro.core.verify` — k-symmetry verification utilities.
"""

from repro.core.anonymize import AnonymizationResult, anonymize
from repro.core.backbone import BackboneResult, backbone
from repro.core.colored import (
    anonymize_colored,
    colored_orbit_partition,
    published_colors,
)
from repro.core.fsymmetry import (
    anonymize_f,
    constant_requirement,
    excluded_vertices_by_fraction,
    hub_exclusion_by_degree,
    hub_exclusion_by_fraction,
)
from repro.core.naive import naive_anonymization
from repro.core.orbit_copy import CopyRecord, MutablePartitionedGraph
from repro.core.partitions import (
    exhaustive_subautomorphism_check,
    is_subautomorphism_partition,
)
from repro.core.publication import (
    PublicationFormatError,
    load_publication,
    parse_publication,
    publication_texts,
    save_publication,
    save_publication_triple,
)
from repro.core.quotient import QuotientResult, quotient
from repro.core.republish import (
    GraphDelta,
    RepublicationResult,
    read_delta,
    republish,
    republish_naive,
    republish_published,
    validate_delta,
    write_delta,
)
from repro.core.sampling import (
    inverse_degree_probabilities,
    sample_approximate,
    sample_exact,
    sample_many,
)
from repro.core.verify import is_k_symmetric, verify_anonymization

__all__ = [
    "naive_anonymization",
    "is_subautomorphism_partition",
    "exhaustive_subautomorphism_check",
    "MutablePartitionedGraph",
    "CopyRecord",
    "AnonymizationResult",
    "anonymize",
    "anonymize_f",
    "constant_requirement",
    "hub_exclusion_by_fraction",
    "hub_exclusion_by_degree",
    "excluded_vertices_by_fraction",
    "BackboneResult",
    "backbone",
    "QuotientResult",
    "quotient",
    "PublicationFormatError",
    "load_publication",
    "parse_publication",
    "publication_texts",
    "save_publication",
    "save_publication_triple",
    "GraphDelta",
    "RepublicationResult",
    "republish",
    "republish_published",
    "republish_naive",
    "validate_delta",
    "read_delta",
    "write_delta",
    "anonymize_colored",
    "colored_orbit_partition",
    "published_colors",
    "sample_exact",
    "sample_approximate",
    "sample_many",
    "inverse_degree_probabilities",
    "is_k_symmetric",
    "verify_anonymization",
]
