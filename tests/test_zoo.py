"""Every zoo market solves or raises a declared error, and the cells that
raise or finish loosely are pinned.

A cell that solves must give p* in the band, the large bettor's stakes
within her budget and a finite residual. Two sets of cells are pinned per
measure, as ``tests/zoo.py`` numbers them, written as spans "a-b" of
consecutive cells: those where solve raises, and those whose residual is
above 1e-9. A change that moves a cell into or out of either set moves a
solve outcome, and must re-pin it here. So must a change that moves any bit
of a cell's solve or fixed_point on the measures that need no libm (see
ZOO_DIGEST).
"""

import hashlib
import math

import pytest

import zoo
from parieq.equilibrium import fixed_point, solve
from parieq.errors import ParieqError

LOOSE_RESIDUAL = 1e-9

# every cell at kappa = nextafter(1, 0): the band's ends lie within FP_TOL
# of 0 and 1, so the two bisected boundaries swap
_TOP_TAKE = "168-188"

# the cells where solve raises "action boundaries out of order", 912 in
# all; the true boundaries are ordered, so a solve on the composed map,
# which needs no boundary, should finish every one of them
RAISES = {name: _TOP_TAKE for name in zoo.measures()} | {
    "wedge(2**20)": "18-20 24-26 36-41 45-47 57-62 66-68 78-83 87-92 96-104 "
                    "108-113 117-125 129-134 138-146 150-167 171-188",
    "wedge(2**40)": "18-20 24-26 36-41 45-47 57-62 66-68 78-83 87-92 96-104 "
                    "108-113 117-125 129-134 138-146 150-155 159-167 171-188",
    "symmetrized_wedge(2**30)": "126-128 144-155 159-176 180-188",
    "gaussian_mixture[narrow]": "0-2 18-26 36-38 42-47 57-59 168-185",
}

# the cells that solve finishes with a residual above LOOSE_RESIDUAL, 189
# in all, on the two steep wedges and the narrow mixture: near a band end
# their totals jump between adjacent floats of p, and so does phi
LOOSE = {name: "" for name in zoo.measures()} | {
    "wedge(2**20)": "0-17 21-23 27-35 42-44 48-56 63-65 69-77 84-86 93-95 "
                    "105-107 114-116 126-128 135-137",
    "wedge(2**40)": "0-17 21-23 27-35 42-44 48-56 63-65 69-77 84-86 93-95 "
                    "105-107 114-116 126-128 135-137 147-149 156-158",
    "gaussian_mixture[narrow]": "3-17 27-35 39-41 48-56 60-62",
}


def _cells(spans: str) -> set[int]:
    # "a-b c" -> {a, a + 1, ..., b, c}
    cells = set()
    for span in spans.split():
        first, _, last = span.partition("-")
        cells.update(range(int(first), int(last or first) + 1))
    return cells


def test_the_pins_count_the_whole_zoo():
    assert len(zoo.measures()) == 33 and len(zoo.CELLS) == 189
    assert sum(len(_cells(s)) for s in RAISES.values()) == 912
    assert sum(len(_cells(s)) for s in LOOSE.values()) == 189


@pytest.mark.parametrize("name", list(zoo.measures()))
def test_every_cell_solves_or_raises_a_pinned_error(name):
    measure = zoo.measures()[name]
    raised, loose = set(), set()
    for cell, params in enumerate(zoo.CELLS):
        try:
            eq = solve(params, measure)
        except ParieqError as exc:
            assert str(exc).startswith("action boundaries out of order"), (cell, exc)
            raised.add(cell)
            continue
        assert 1.0 - params.kappa <= eq.p_star <= params.kappa, cell
        assert eq.atomic.a1 <= params.w and eq.atomic.a2 <= params.w, cell
        assert math.isfinite(eq.residual), cell
        if eq.residual > LOOSE_RESIDUAL:
            loose.add(cell)
    assert raised == _cells(RAISES[name])
    assert loose == _cells(LOOSE[name])


# the families whose masses use only + - * / and sqrt, as in
# test_output_digest.py, bare or scaled: the zoo's other measures are
# Gaussian mixtures, whose masses call erf
_LIBM_FREE = ("uniform", "wedge(", "symmetrized_wedge(", "tabulated(")

# sha256 over every cell of those 26 measures, 4,914 in all: per cell,
# solve's (p*, residual, d1*, d2*, a1, a2) as hex, or its error's class and
# message, then fixed_point's lane as hex, or None
ZOO_DIGEST = "ef63eedfd26a9389790a587513beb13a98914d98d2ce9f209c6e4b79c34326b7"


def _cell_lines(name):
    measure = zoo.measures()[name]
    for cell, params in enumerate(zoo.CELLS):
        try:
            eq = solve(params, measure)
            outcome = _hex((eq.p_star, eq.residual, eq.d1_star, eq.d2_star, eq.atomic.a1,
                            eq.atomic.a2))
        except ParieqError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        lane = _hex(fixed_point(params.kappa, params.q, params.w, measure))
        yield f"{name}|{cell}|{outcome}|{lane}\n"


def _hex(floats):
    # a tuple of floats as hex, or None
    return None if floats is None else " ".join(x.hex() for x in floats)


def test_the_libm_free_cells_keep_their_bits():
    names = [name for name, m in zoo.measures().items()
             if m.kind.removeprefix("scaled(").startswith(_LIBM_FREE)]
    assert len(names) == 26
    digest = hashlib.sha256()
    for name in names:
        for line in _cell_lines(name):
            digest.update(line.encode())
    assert digest.hexdigest() == ZOO_DIGEST
