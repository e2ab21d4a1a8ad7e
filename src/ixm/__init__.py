"""Workbench for partial bijections of the natural numbers.

Each layer is a module, from the bottom up: ``cardinal`` (the cardinals
statistics take), ``epset`` (eventually periodic sets), ``chart`` (charts,
their canonical form and images of sets), ``partition_action`` (finite
partitions and the induced block relation), ``ultrafilter`` (ultrafilter
oracles), ``classes`` (the candidate maximal classes S/P/V/A and their
separating witnesses), ``finite_model`` (the enumerated finite model),
``sampling`` and ``laws`` (seeded generators and law suites) and ``cli``
(the command line); ``errors`` holds the exceptions.  Import from those
modules: the root re-exports only the text forms ``ixmbench`` reads.
"""

from .cardinal import render_card
from .epset import parse_epset, render_epset

__version__ = "0.1.0"
