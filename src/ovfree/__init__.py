"""Operator-valued free probability over matrix algebras A = M_k(C).

Moment/cumulant transforms over non-crossing partitions, eta-convolution
powers, an exact truncated Fock-module compression model, a freeness-axiom
mixed-moment evaluator, block moment-matrix positivity certificates, and the
counterexample pipeline for maps whose difference from the identity fails to
be completely positive.
"""

from .algebra import DEFAULT_TOL, PSDReport, dagger, matrix_units, psd_check
from .cpmaps import CPMap, NotCompletelyPositiveError, eta_minus_id_cp
from .converse import (
    CounterexampleReport,
    GNSModel,
    NonpositivityCertificate,
    NoWitnessError,
    TupleDistribution,
    Witness,
    build_gns,
    certify_nonpositive,
    compression_cumulants,
    counterexample_report,
    find_witness,
    pack_tuple,
    unpack_tuple,
)
from .fock import FockOp, FockSpace, build_fock, word_expectation
from .freeprod import MixedWord, compressed_distribution, evaluate
from .multimap import MultiMap
from .ncpart import NCPartition, enumerate_nc
from .ovdist import (
    OVDistribution,
    Realization,
    bernoulli,
    cumulants_from_moments,
    eta_power,
    moments_from_cumulants,
    moments_from_realization,
    positivity_certificate,
    semicircular,
)

__version__ = "0.1.0"
