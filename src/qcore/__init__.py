"""qcore: exact q-series arithmetic and identity verification for the
5-core partition function and its two theta-quotient analogs.

The building blocks:

- ``series``: exact truncated power series over Python integers.
- ``products``: Pochhammer factors, Euler products, theta functions, the
  three generating functions, and the evaluator for sums of quotients of
  them, through which chi, the Rogers-Ramanujan quotient and every product
  of Pochhammer factors are expanded.
- ``partitions``: hook-number oracle counting t-cores by enumeration.
- ``dissection``: residue-class dissections.
- ``registry``: every verified identity, congruence and census claim as
  data; series identities are sums of theta and Euler quotients.
- ``identities``: the uniform evaluator over the registry.
- ``bfile``: OEIS b-file import/export.
- ``cli``: the ``qcore`` command.
"""

from .bfile import BFile, BFileParseError, first_discrepancy, format_bfile, parse_bfile
from .dissection import Dissection, dissect
from .identities import (
    DEFAULT_KMAX,
    DEFAULT_ORDER,
    CensusResult,
    UnknownIdentity,
    UnknownSequence,
    check_congruence,
    record_ids,
    register,
    sequence,
    sign_census,
    summarize,
    unregister,
    verify,
    verify_all,
)
from .partitions import (
    OracleScaleExceeded,
    Partition,
    count_t_cores,
    partitions_of,
)
from .products import (
    PochhammerFactor,
    ThetaSpec,
    euler_f,
    evaluate_side,
    expand_pochhammer,
    gen_a5bar,
    gen_b5bar,
    gen_c5,
    phi,
    psi,
    theta_general,
    triple_product,
)
from .registry import CORE, EXTENDED, Record
from .reports import EXACT_MATCH, MISMATCH, SKIPPED, VerificationReport
from .series import NonUnitConstantTerm, TruncatedSeries, first_mismatch

__version__ = "0.1.0"
