"""The registered checker suite.

Order here is presentation order in ``msropm dev lint`` rule listings; the
analyzer sorts findings by location, so registration order never affects
output stability.
"""

from repro.devtools.checkers.atomicity import AtomicityChecker
from repro.devtools.checkers.determinism import DeterminismChecker
from repro.devtools.checkers.hotpath import HotPathChecker
from repro.devtools.checkers.reachability import ReachabilityChecker
from repro.devtools.checkers.schema_coupling import SchemaCouplingChecker

CHECKERS = [
    DeterminismChecker,
    SchemaCouplingChecker,
    AtomicityChecker,
    HotPathChecker,
    ReachabilityChecker,
]
