"""Bitwise parity of the battery draw paths with the reference arithmetic.

The scalar cells (:class:`ThinFilmBattery`, :class:`IdealBattery`) and
the vector banks' single-cell path (:class:`BankBatteryView`, which runs
``draw_one``) are driven through the same random draw/rest/recharge
sequence as the oracles in ``tests/oracles.py``, ending with draws that
kill the cell.  Every ``DrawResult`` field and every state field must be
``==``, not approximately equal: the production draws only reorganise
*where* values live, never the order of a float operation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    CellState,
    reference_ideal_draw,
    reference_recharge,
    reference_thin_film_draw,
    reference_thin_film_rest,
)

from repro.battery.ideal import DEFAULT_VOLTAGE, IdealBattery
from repro.battery.thin_film import ThinFilmBattery, ThinFilmParameters
from repro.errors import BatteryError
from repro.sim.vector_bank import (
    BankBatteryView,
    IdealBatteryBank,
    ThinFilmBatteryBank,
)

#: One step: ("draw", energy, duration), ("rest", duration) or
#: ("recharge", energy).  Draws of up to 400 pJ against 1-60 nJ cells
#: kill many cells before the drain phase.
steps = st.one_of(
    st.tuples(
        st.just("draw"),
        st.one_of(st.just(0.0), st.floats(0.0, 400.0)),
        st.integers(1, 30_000),
    ),
    st.tuples(st.just("rest"), st.integers(0, 40_000)),
    st.tuples(st.just("recharge"), st.floats(0.0, 300.0)),
)
sequences = st.lists(steps, min_size=1, max_size=80)

thin_film_params = st.builds(
    ThinFilmParameters,
    capacity_pj=st.floats(4_000.0, 60_000.0),
    internal_resistance_ohm=st.floats(0.0, 120_000.0),
    ema_window_cycles=st.floats(500.0, 20_000.0),
    rate_penalty_coeff=st.floats(0.0, 2.0),
    rate_penalty_exponent=st.sampled_from([1.0, 1.5, 2.0, 2.7]),
    reference_current_ma=st.floats(0.005, 0.1),
    allow_recovery=st.booleans(),
)

#: The drain phase: draws of a quarter of the capacity.  Four empty any
#: cell; the ones after that must be refused.
DRAIN_DRAWS = 8


def _thin_film_state(cell) -> tuple:
    if isinstance(cell, BankBatteryView):
        bank, i = cell._bank, cell._index
        return (
            float(bank.consumed[i]),
            float(bank.delivered[i]),
            float(bank.ema[i]),
            bool(bank.alive[i]),
        )
    return (cell.consumed_pj, cell.delivered_pj, cell._ema_power, cell.alive)


def _ideal_state(cell) -> tuple:
    return (cell.consumed_pj, cell.delivered_pj, cell.alive)


def _check_draw(cell, reference, energy, duration, state_of, ref_state):
    """Draw from ``cell`` and the reference; both results and states
    must be identical.  A dead cell must refuse the draw."""
    if not reference.alive:
        with pytest.raises(BatteryError):
            cell.draw(energy, duration)
        return
    expected = reference.draw(energy, duration)
    result = cell.draw(energy, duration)
    assert (
        result.requested_pj,
        result.delivered_pj,
        result.died,
        result.voltage,
    ) == expected
    assert state_of(cell) == ref_state()


class _ThinFilmReference:
    def __init__(self, params):
        self.params = params
        self.cell = CellState()

    @property
    def alive(self) -> bool:
        return self.cell.alive

    def draw(self, energy, duration):
        return reference_thin_film_draw(self.cell, self.params, energy, duration)

    def state(self) -> tuple:
        c = self.cell
        return (c.consumed, c.delivered, c.ema, c.alive)


class _IdealReference:
    def __init__(self, capacity):
        self.capacity = capacity
        self.cell = CellState()

    @property
    def alive(self) -> bool:
        return self.cell.alive

    def draw(self, energy, duration):
        return reference_ideal_draw(
            self.cell, self.capacity, DEFAULT_VOLTAGE, energy
        )

    def state(self) -> tuple:
        c = self.cell
        return (c.delivered - c.recharged, c.delivered, c.alive)


def _drive(cell, reference, sequence, state_of, thin_film: bool, capacity):
    for step in sequence:
        if step[0] == "draw":
            _, energy, duration = step
            _check_draw(
                cell, reference, energy, duration, state_of, reference.state
            )
        elif step[0] == "rest":
            if reference.alive:
                cell.rest(step[1])
                if thin_film:
                    reference_thin_film_rest(
                        reference.cell, reference.params, step[1]
                    )
            assert state_of(cell) == reference.state()
        else:
            accepted = cell.recharge(step[1])
            assert accepted == reference_recharge(
                reference.cell, step[1], thin_film
            )
            assert state_of(cell) == reference.state()
    # The death draw: drain whatever survived the sequence.
    for _ in range(DRAIN_DRAWS):
        _check_draw(
            cell, reference, capacity / 4.0, 100, state_of, reference.state
        )
    assert not cell.alive


class TestThinFilmDrawParity:
    @settings(max_examples=150, deadline=None)
    @given(thin_film_params, sequences)
    def test_scalar_cell_matches_reference(self, params, sequence):
        _drive(
            ThinFilmBattery(params),
            _ThinFilmReference(params),
            sequence,
            _thin_film_state,
            thin_film=True,
            capacity=params.capacity_pj,
        )

    @settings(max_examples=100, deadline=None)
    @given(thin_film_params, sequences)
    def test_bank_view_matches_reference(self, params, sequence):
        bank = ThinFilmBatteryBank(3, params)
        _drive(
            BankBatteryView(bank, 1),
            _ThinFilmReference(params),
            sequence,
            _thin_film_state,
            thin_film=True,
            capacity=params.capacity_pj,
        )


class TestIdealDrawParity:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(1_000.0, 60_000.0), sequences)
    def test_scalar_cell_matches_reference(self, capacity, sequence):
        _drive(
            IdealBattery(capacity_pj=capacity),
            _IdealReference(capacity),
            sequence,
            _ideal_state,
            thin_film=False,
            capacity=capacity,
        )

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1_000.0, 60_000.0), sequences)
    def test_bank_view_matches_reference(self, capacity, sequence):
        bank = IdealBatteryBank(3, capacity)
        _drive(
            BankBatteryView(bank, 1),
            _IdealReference(capacity),
            sequence,
            _ideal_state,
            thin_film=False,
            capacity=capacity,
        )
