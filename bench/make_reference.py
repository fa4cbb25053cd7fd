"""Write bench/reference.json: the analytic_curves reference panel (two
geometries per system shape) with the values the current source tree gives
for it.  Every analytic_curves run evaluates the panel too and checks its
values against this file to REFERENCE_REL_TOL.

    PYTHONPATH=src python3 bench/make_reference.py
"""

import json
import random
from pathlib import Path

import crmimo as cr

from worker import evaluate_case
from workloads import draw_cases

PANEL_PER_SHAPE = 2


def main():
    cases = draw_cases(random.Random("reference-panel"), PANEL_PER_SHAPE)
    values = [evaluate_case(cr, case) for case in cases]
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps({"cases": cases, "values": values},
                               indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
