"""supext: a finite-scale workbench for superextensions, weakly additive
functionals, binary normal subbases, regular embeddings, and inclusion
hyperspaces, all in exact rational arithmetic.

The public names load their module on first use (PEP 562), so a command
imports only the modules it needs.
"""

import importlib
import sys

_HOME = {
    **dict.fromkeys(("GroundSet", "PointMap", "SetFamily"), "setkit"),
    **dict.fromkeys(("MaxLinkedSystem", "complete_linked", "enumerate_mls", "eta_point"), "superext"),
    **dict.fromkeys(("PointFunction", "axiom_check", "evaluate", "phi"), "functionals"),
    **dict.fromkeys(("InclusionHyperspace", "enumerate_ih"), "inclusion"),
    **dict.fromkeys(("Subbase", "is_binary", "is_normal", "s_hull"), "subbase"),
    **dict.fromkeys(("FiniteTopSpace", "RegularOperator", "validate_regular"), "embed"),
}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        # the plain lookup, which fails with the AttributeError the protocol expects
        return object.__getattribute__(sys.modules[__name__], name)
    value = globals()[name] = getattr(importlib.import_module(f".{home}", __name__), name)
    return value
