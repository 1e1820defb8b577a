"""Exact-arithmetic workbench for twisted semigroup rings over square-free
semigroups: cocycle checking, gauge actions, ring isomorphism testing, and
outer-automorphism reports."""

from .cochain import TwoCochain, is_cocycle, is_normal, normalize
from .cohomology import (
    H1Report, OutRReport, SesReport, aut0_enumerate, b1_enumerate, h1,
    inner_triples, out_r, star_act, verify_ses, z1_enumerate,
)
from .errors import (
    DivisionByZero, DomainMismatch, ForgeError, InstanceFileInvalid, NotACocycle,
    NotAUnit, NotEnumerable, NotNilpotent, NotNormal, RingMismatch,
    SemigroupInvalid, SettingMismatch, UnknownElement, WitnessInvalid,
)
from .gauge import (
    Gauge, act_gauge, act_phi, cohomologous, gauge_stabilizer,
    stabilizer_of_class,
)
from .instances import Instance, RunConfig, diamond_demo_instance, load_instance, save_instance
from .ring import (
    RingElement, RingIso, TwistedRing, build_iso, find_ring_iso, identity_iso,
    inner_auto, verify_ring_hom,
)
from .scalars import (
    RingAuto, Scalar, ScalarDomain, enumerate_autos, enumerate_units, rho,
)
from .semigroup import SemigroupAuto, SquareFreeSemigroup

__version__ = "0.1.0"
