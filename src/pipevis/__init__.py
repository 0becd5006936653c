"""pipevis: transparency ratings for ML production pipelines.

Scores how visible a pipeline's contributions are from a
bill-of-materials style assessment document: each leaf contribution
(data sources, human contributors) carries 1-4 judgements on quantity,
accuracy and freshness of its documentation, and the package aggregates
them into per-node and overall visibility indices.

Each submodule's ``__all__`` is its one list of public names; the package
re-exports all four.
"""

from . import ingest, metrics, model, report
from .ingest import *
from .metrics import *
from .model import *
from .report import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *model.__all__,
    *metrics.__all__,
    *ingest.__all__,
    *report.__all__,
]
