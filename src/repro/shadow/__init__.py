"""Shadow structures for run-time dependence marking.

The processor-wise shadow (:mod:`repro.shadow.log`) is a processor's
access log of one tested array for one stage, from which the paper's
``A_w`` / ``A_r`` marks follow: the elements written, the exposed reads
(reads not covered by an earlier write on the same processor -- exactly
the reads that trigger on-demand copy-in) and the reduction updates used
for speculative reduction validation.  Repeated same-type references to
an element do not change those marks (Section 2), which bounds the
analysis time by the number of *distinct* references.

Per-iteration mark lists (:mod:`repro.shadow.marklist`), the last-reference
table (:mod:`repro.shadow.lastref`) and the inverted edge table
(:mod:`repro.shadow.edges`) support full data-dependence-graph extraction
with the sliding-window test (Section 3).
"""

from repro.shadow.log import ShadowArray, make_shadow
from repro.shadow.marklist import IterationMarks, MarkList
from repro.shadow.lastref import LastReferenceTable
from repro.shadow.edges import DependenceEdge, EdgeKind, InvertedEdgeTable

__all__ = [
    "ShadowArray",
    "IterationMarks",
    "MarkList",
    "LastReferenceTable",
    "DependenceEdge",
    "EdgeKind",
    "InvertedEdgeTable",
    "make_shadow",
]
