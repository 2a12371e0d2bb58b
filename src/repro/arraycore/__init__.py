"""Array-first core: the CSR engine behind every pipeline pass.

The CSR kernels (:mod:`repro.graphs.csr`) cover read-only passes; this
package makes the array representation the only production one for the
anonymization pipeline itself. The flow is

``Graph`` (any labels, any insertion order)
    → :func:`array_space` (CSR rows in ascending-label order + the labels)
    → :class:`OverlayGraph` (frozen input CSR + the originals of the copies)
    → :class:`ArrayPartitionedGraph` (copy operations as records, one mint)
    → ``freeze()`` (the grown CSR in closed form) or ``to_graph()`` (back
      to the labels)
    → :mod:`~repro.arraycore.backbone` / the samplers (flat passes).

The dict implementations survive only as parity oracles in
:mod:`repro.core.reference`; ``repro.audit``'s ``differential:arraycore``
check pins every pass here byte-identical to its oracle. See
``docs/scale.md`` for the architecture story and
``benchmarks/bench_scale.py`` for the million-node trajectory.
"""

from repro.arraycore.backbone import backbone_arrays, component_classes_arrays
from repro.arraycore.overlay import OverlayGraph
from repro.arraycore.pipeline import PipelineReport, run_pipeline
from repro.arraycore.publication import publication_texts_from_arrays
from repro.arraycore.space import array_space
from repro.arraycore.state import ArrayPartitionedGraph

__all__ = [
    "ArrayPartitionedGraph",
    "OverlayGraph",
    "PipelineReport",
    "array_space",
    "backbone_arrays",
    "component_classes_arrays",
    "publication_texts_from_arrays",
    "run_pipeline",
]
