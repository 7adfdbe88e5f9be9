"""Search over digraphs whose edge costs arrive through tightening estimators.

Each module's ``__all__`` is the one declaration of its public names; the
package re-exports them all.
"""

from .anytime import *
from .bench import *
from .estimation import *
from .generators import *
from .graph import *
from .io import *
from .oracle import *
from .search import *
from .synth import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (anytime, bench, estimation, generators, graph, io, oracle, search, synth)
    for name in module.__all__
]
