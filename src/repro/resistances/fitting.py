"""Fitting coefficients of Model A.

The paper's k1 scales every *vertical* conductance and k2 every *lateral*
(liner) conductance; both absorb the mismatch between the three-path
abstraction and true 3-D spreading.  The case study additionally quotes a
coefficient c_{1,2} = 3.5 that we interpret as an effective bond-layer
conductance multiplier (see README.md, "Substitutions and assumptions").

``FittingCoefficients(1, 1, 1)`` makes Model A coefficient-free, which is
exactly the resistance set Model B distributes (Section III: "obtained
similar to (7)-(15) without k1 and k2").
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import constants
from ..units import require_positive


@dataclass(frozen=True, slots=True)
class FittingCoefficients:
    """(k1, k2, c_bond) of Model A.

    Parameters
    ----------
    k1:
        Vertical-path conductance multiplier (paper: 1.3 for the block,
        1.6 for the case study).
    k2:
        Lateral liner-path conductance multiplier (paper: 0.55 / 0.8).
    c_bond:
        Effective bond-layer conductance multiplier (paper's c_{1,2};
        1.0 for the block experiments, 3.5 for the case study).
    """

    k1: float = 1.0
    k2: float = 1.0
    c_bond: float = 1.0

    def __post_init__(self) -> None:
        require_positive("k1", self.k1)
        require_positive("k2", self.k2)
        require_positive("c_bond", self.c_bond)

    @classmethod
    def unity(cls) -> "FittingCoefficients":
        """No fitting — used by Model B and the 1-D baseline."""
        return cls(1.0, 1.0, 1.0)

    @classmethod
    def paper_block(cls) -> "FittingCoefficients":
        """k1=1.3, k2=0.55 used for Figs. 4–7."""
        return cls(constants.PAPER_K1, constants.PAPER_K2, 1.0)

    @classmethod
    def paper_case_study(cls) -> "FittingCoefficients":
        """k1=1.6, k2=0.8, c=3.5 used for the DRAM-µP system (Fig. 8)."""
        return cls(constants.CASE_K1, constants.CASE_K2, constants.CASE_C_BOND)
