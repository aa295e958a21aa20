"""Named axiom bundles and membership checking.

Each theory is an ordered list of defining axioms plus the catalog
entries that are theses of it (derivable, hence expected to hold in
every model).  A membership check reports the first failing axiom's
verdict.
"""

from __future__ import annotations

import enum
from typing import Optional, Union

from .axioms import AxiomId, CatalogError, Verdict, check_axiom
from .core import ParthoodStructure, _Record, _set

A = AxiomId


class TheoryId(enum.Enum):
    SPO = "SPO"                # strict partial orders
    T1 = "T1"                  # SPO + unique sums
    T2 = "T2"                  # SPO + unique sums + proper-parts principle
    T3 = "T3"                  # SPO + strong supplementation
    MSPO_DAG = "MSPO_DAG"      # SPO + (sums are suprema) + (nonempty suprema are sums)
    MSPO_DDAG = "MSPO_DDAG"    # SPO + sum/supremum coincidence on nonempty sets
    MEM = "MEM"                # minimal extensional mereology
    MCM = "MCM"                # minimal closure mereology
    GM = "GM"                  # Grzegorczykian mereology
    GMU = "GMU"                # Grzegorczykian mereology with unity
    CM = "CM"                  # classical mereology

    def __str__(self) -> str:
        return self.value


TheoryLike = Union[TheoryId, str]

_SPO = (A.T, A.IRR)

THEORY_AXIOMS: dict[TheoryId, tuple[AxiomId, ...]] = {
    TheoryId.SPO: _SPO,
    TheoryId.T1: _SPO + (A.U_SUM,),
    TheoryId.T2: _SPO + (A.U_SUM, A.PPP),
    TheoryId.T3: _SPO + (A.SSP,),
    TheoryId.MSPO_DAG: _SPO + (A.SUM_SUB_SUP, A.DAGGER),
    TheoryId.MSPO_DDAG: _SPO + (A.DDAGGER,),
    TheoryId.MEM: (A.T, A.WSP, A.C_PROD),
    TheoryId.MCM: (A.T, A.WSP, A.C_PROD, A.C_BSUM),
    TheoryId.GM: _SPO + (A.SSP_PLUS, A.E_BSUM),
    TheoryId.GMU: _SPO + (A.SSP_PLUS, A.E_BSUM, A.UNITY),
    TheoryId.CM: _SPO + (A.U_SUM, A.E_SUM),
}

# Catalog entries derivable once the ingrediens relation partially
# orders the universe (asymmetry, acyclicity, and the antisymmetry-driven
# extensionality and uniqueness facts).
_ORDER_THESES = (A.ANTIS, A.AS, A.AC, A.EXT_ING, A.U_SUP)

# Consequences of unique sums over a strict partial order.
_U_SUM_THESES = _ORDER_THESES + (
    A.WSP, A.S_SUM, A.NO_ZERO, A.EXISTS_EXT, A.DIAMOND,
    A.EXT_PP, A.EXT_OV, A.EXT_EXT,
)

# Consequences of strong supplementation over a strict partial order.
_SSP_THESES = _U_SUM_THESES + (
    A.U_SUM, A.PPP, A.SSP_OV, A.SSP_EXT, A.SUM_SUB_SUP,
    A.DOLLAR_EXT, A.DOLLAR_OV,
)

_MEM_THESES = _SSP_THESES + (A.IRR, A.SSP)

# each entry de-duplicated, keeping first-mention order
DERIVED_THESES: dict[TheoryId, tuple[AxiomId, ...]] = {
    t: tuple(dict.fromkeys(theses)) for t, theses in {
        TheoryId.SPO: _ORDER_THESES,
        TheoryId.T1: _U_SUM_THESES,
        TheoryId.T2: _U_SUM_THESES + (A.EXT_PP,),
        TheoryId.T3: _SSP_THESES,
        TheoryId.MSPO_DAG: _SSP_THESES + (A.SSP, A.DDAGGER),
        TheoryId.MSPO_DDAG: _SSP_THESES + (A.SSP, A.SUM_SUB_SUP, A.DAGGER),
        TheoryId.MEM: _MEM_THESES,
        TheoryId.MCM: _MEM_THESES,
        TheoryId.GM: _MEM_THESES + (A.WSP, A.C_PROD, A.DDAGGER, A.DAGGER, A.C_BSUM),
        TheoryId.GMU: _MEM_THESES + (A.WSP, A.C_PROD, A.DDAGGER, A.DAGGER, A.C_BSUM),
        # Classical mereology proves the whole catalog except the unrestricted
        # supremum-to-sum inclusion, which fails in the one-element model at
        # the empty set.
        TheoryId.CM: tuple(a for a in AxiomId if a is not A.SUP_SUB_SUM),
    }.items()
}


class TheoryVerdict(_Record):
    __slots__ = ("theory", "holds", "failing")

    def __init__(self, theory: TheoryId, holds: bool,
                 failing: Optional[Verdict] = None):
        _set(self, "theory", theory)
        _set(self, "holds", holds)
        _set(self, "failing", failing)  # the first failing axiom's verdict

    def __str__(self) -> str:
        if self.holds:
            return f"{self.theory}: holds"
        return f"{self.theory}: fails at {self.failing.axiom}"


def theory_id(t: TheoryLike) -> TheoryId:
    if isinstance(t, TheoryId):
        return t
    try:
        return TheoryId[str(t).upper()]
    except KeyError:
        raise CatalogError(f"unknown theory code {t!r}") from None


def theory_axioms(t: TheoryLike) -> tuple[AxiomId, ...]:
    return THEORY_AXIOMS[theory_id(t)]


def derived_theses(t: TheoryLike) -> tuple[AxiomId, ...]:
    return DERIVED_THESES[theory_id(t)]


def check_theory(s: ParthoodStructure, t: TheoryLike) -> TheoryVerdict:
    code = theory_id(t)
    for a in THEORY_AXIOMS[code]:
        v = check_axiom(s, a)
        if not v.holds:
            return TheoryVerdict(code, False, v)
    return TheoryVerdict(code, True, None)
