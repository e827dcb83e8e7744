"""Physical constants and the parameter sets used throughout the paper.

Every conductivity quoted in Section IV of the paper is collected here so
experiments, tests and examples share a single source of truth.  Values the
paper does not state (notably the silicon conductivity) are standard
textbook numbers, listed in README.md under "Substitutions and
assumptions".
"""

from __future__ import annotations

from .units import um, w_per_mm3

# ---------------------------------------------------------------------------
# thermal conductivities, W/(m*K)
# ---------------------------------------------------------------------------

#: bulk silicon near 300 K (not stated in the paper; textbook value)
K_SILICON = 148.0
#: SiO2 — used for the ILD and the TSV liner (paper: kD = kL = 1.4)
K_SILICON_DIOXIDE = 1.4
#: polyimide bonding layer (paper: kb = 0.15)
K_POLYIMIDE = 0.15
#: copper TSV fill (paper: kf = 400)
K_COPPER = 400.0
#: tungsten — alternative via fill for via-middle processes
K_TUNGSTEN = 173.0
#: aluminium — package/back-metal studies
K_ALUMINIUM = 237.0
#: benzocyclobutene — alternative adhesive bond
K_BCB = 0.3

# ---------------------------------------------------------------------------
# paper-wide setup (Section IV, first paragraph)
# ---------------------------------------------------------------------------

#: footprint of the investigated block: 100 um x 100 um
PAPER_FOOTPRINT_AREA = um(100.0) * um(100.0)
#: thickness of the first-plane substrate (adjacent to the heat sink)
PAPER_T_SI1 = um(500.0)
#: extension of the TTSV into the first substrate
PAPER_L_EXT = um(1.0)
#: reference (heat sink) temperature, degC — ambient for absolute readouts
PAPER_SINK_TEMPERATURE_C = 27.0
#: device power density on top of each substrate, W/m^3 (paper: 700 W/mm^3)
PAPER_DEVICE_POWER_DENSITY = w_per_mm3(700.0)
#: interconnect Joule heat density in each ILD, W/m^3 (paper: 70 W/mm^3)
PAPER_ILD_POWER_DENSITY = w_per_mm3(70.0)
#: assumed thickness of the active device layer carrying the 700 W/mm^3
#: (the paper says "on the top surface"; see README.md, "Substitutions
#: and assumptions")
PAPER_DEVICE_LAYER_THICKNESS = um(1.0)

#: fitting coefficients used for Figs. 4-7 (captions): k1 = 1.3, k2 = 0.55
PAPER_K1 = 1.3
PAPER_K2 = 0.55

#: fabrication aspect-ratio ceiling the paper quotes for TSVs
MAX_TSV_ASPECT_RATIO = 10.0

# ---------------------------------------------------------------------------
# DRAM-uP case study (Section IV-E, Fig. 8)
# ---------------------------------------------------------------------------

#: case-study footprint: 10 mm x 10 mm
CASE_FOOTPRINT_AREA = 0.01 * 0.01
#: per-plane substrate thickness
CASE_T_SI = um(300.0)
CASE_T_D = um(20.0)
CASE_T_B = um(10.0)
CASE_TSV_RADIUS = um(30.0)
CASE_LINER_THICKNESS = um(1.0)
#: TTSV area density (0.5 % of the total circuit area)
CASE_TSV_DENSITY = 0.005
#: plane powers: processor 70 W (plane 1), DRAM 7 W each (planes 2, 3)
CASE_PLANE_POWERS = (70.0, 7.0, 7.0)
#: case-study fitting coefficients (Fig. 8 caption)
CASE_K1 = 1.6
CASE_K2 = 0.8
#: bond-layer conductance multiplier c_{1,2} (Fig. 8 caption; see
#: README.md, "Substitutions and assumptions")
CASE_C_BOND = 3.5
