"""divlat: exact analysis of arbitrarily-high-power divisibility for
integer matrices and endomorphisms of quadratic-ring lattices."""

from .classify import (
    ClassifyReport,
    FittingSplit,
    classify_operator,
    finite_order,
    is_semisimple,
    jordan_chevalley,
    roots_of_unity_spectrum,
)
from .divisibility import (
    DEFAULT_MAX_CANDIDATES,
    CertKind,
    DetNotPower,
    Exhausted,
    Found,
    NegativeDetEvenPower,
    NilpotentRankBound,
    OrderObstruction,
    ProvedImpossible,
    RootSearchOutcome,
    SpectralObstruction,
    SpectrumRow,
    SpectrumTable,
    coprime_root,
    divisibility_spectrum,
    impossibility_certificates,
    realizable_orders,
    root_search,
    zero_plus_finite_order,
)
from .exactalg import (
    IntMatrix,
    Lattice,
    QMatrix,
    char_poly,
    companion_matrix,
    cyclotomic,
    hnf,
    restrict_to_lattice,
)
from .fitting import clean_split, fitting_decompose
from .numberring import (
    IntegerRing,
    OKModule,
    QuadraticOrder,
    UnitGroupDesc,
    ZZ,
    embed_ok_matrix,
    lchar,
    mult_hypothesis,
    unit_group,
    unit_s_divisible,
)
from .supernat import (
    INF,
    AllFrom,
    Factorials,
    FiniteSet,
    Geometric,
    PrimeSet,
    Residue,
    SDescriptor,
    Supernatural,
    additive_hypothesis,
    gcd_sn,
    lcm_sn,
    mul_sn,
    pi_S,
)
from .verifier import TheoremReport, verify

__version__ = "0.1.0"
