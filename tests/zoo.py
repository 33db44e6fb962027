"""The robustness zoo: 33 measures, each on 9 takes x 7 beliefs x 3 budgets.

That is 189 markets per measure and 6,237 in all. The measures are
``_family_zoo``'s 8, ``scenario_zoo``'s 20 and five hard ones: two steep
wedges, a steeper symmetrized wedge, a falling tabulated density and a
mixture of two narrow kernels. The takes reach from just above 0.5 to the
float below 1, the beliefs include both ends of [0, 1], and the budgets run
from the sweeps' 1e-10 to 1e9. A market is a cell: its number is its index
in CELLS, the same for every measure.
"""

from functools import cache
from math import nextafter

from conftest import scenario_zoo
from parieq.measure import (BeliefMeasure, gaussian_mixture, symmetrized_wedge,
                            tabulated, wedge)
from parieq.response import MarketParams
from test_measure import _family_zoo

KAPPAS = (0.5001, 0.55, 0.6, 0.7, 0.8, 0.9, 0.95, 0.9999, nextafter(1.0, 0.0))
QS = (0.0, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0)
WS = (1e-10, 1.0, 1e9)

# every measure's markets, numbered kappa first, then q, then w
CELLS = tuple(MarketParams(kappa=kappa, q=q, w=w)
              for kappa in KAPPAS for q in QS for w in WS)


@cache
def measures() -> dict[str, BeliefMeasure]:
    """The 33 measures by name, built once."""
    named = {f"family{i}[{m.kind}]": m for i, m in enumerate(_family_zoo())}
    named.update((s.name, s.measure) for s in scenario_zoo())
    named.update({
        "wedge(2**20)": wedge(2**20),
        "wedge(2**40)": wedge(2**40),
        "symmetrized_wedge(2**30)": symmetrized_wedge(2**30),
        "tabulated[falling]": tabulated([(0.0, 2.0), (0.5, 0.2), (1.0, 1.5)]),
        "gaussian_mixture[narrow]": gaussian_mixture([1.0, 1.0], [0.7, 0.9],
                                                     [0.05, 0.05]),
    })
    return named
