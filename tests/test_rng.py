from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atlm import rng
from atlm.rng import Pcg32


def test_reference_vector_seed42_stream54():
    # first six outputs of the pcg32 reference demo, srandom(42, 54)
    g = Pcg32(42, stream=54)
    assert [g.next_uint32() for _ in range(6)] == [
        0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B, 0xCBED606E]


def test_streams_are_independent():
    a = [Pcg32(1, stream=0).next_uint32() for _ in range(4)]
    b = [Pcg32(1, stream=1).next_uint32() for _ in range(4)]
    assert a != b


def first_draws(g: Pcg32) -> list[int]:
    return [g.next_uint32() for _ in range(4)]


@pytest.mark.parametrize("kind", [np.int8, np.int16, np.int32, np.int64,
                                  np.uint8, np.uint16, np.uint32, np.uint64])
def test_a_numpy_integer_seed_or_stream_draws_as_the_python_int(kind):
    # numpy integers used to overflow the 64-bit mask, or warn and draw numpy scalars
    want = first_draws(Pcg32(3, stream=5))
    for seed, stream in [(kind(3), 5), (3, kind(5)), (kind(3), kind(5))]:
        g = Pcg32(seed, stream)
        assert type(g.state) is int and type(g.inc) is int
        draws = first_draws(g)
        assert draws == want and {type(d) for d in draws} == {int}


def test_seed_and_stream_are_taken_mod_2_to_64():
    want = first_draws(Pcg32(3, stream=5))
    assert first_draws(Pcg32(3 + (1 << 64), stream=5 - (1 << 64))) == want
    assert first_draws(Pcg32(-1, stream=-1)) == first_draws(Pcg32((1 << 64) - 1, (1 << 64) - 1))


@pytest.mark.parametrize("bad", ["a", "3", 1.5, np.float64(3.0), None, [1]])
def test_a_seed_or_stream_that_is_no_integer_is_refused(bad):
    for args, name in [((bad,), "seed"), ((1, bad), "stream")]:
        with pytest.raises(ValueError) as caught:
            Pcg32(*args)
        assert str(caught.value) == f"{name} must be an integer, got {bad!r}"


def test_next_below_bounds_and_determinism():
    g = Pcg32(99, stream=7)
    draws = [g.next_below(10) for _ in range(1000)]
    assert set(draws) <= set(range(10))
    again = Pcg32(99, stream=7)
    assert [again.next_below(10) for _ in range(1000)] == draws


def test_next_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        Pcg32(1).next_below(0)


def test_shuffle_is_a_permutation_and_reproducible():
    items = list(range(50))
    g = Pcg32(3, stream=5)
    g.shuffle(items)
    assert sorted(items) == list(range(50))
    items2 = list(range(50))
    Pcg32(3, stream=5).shuffle(items2)
    assert items2 == items


def test_next_below_rejects_a_bound_above_2_to_32():
    with pytest.raises(ValueError):
        Pcg32(1).next_below((1 << 32) + 1)


def scalar_draws(g: Pcg32, bounds) -> list[int]:
    return [g.next_below(b) for b in bounds]


#: bounds near 2^32 reject up to about half their draws
HIGH_BOUNDS = st.integers((1 << 31) - 3, 1 << 32) | st.sampled_from(
    [(1 << 31) + 1, (1 << 31) + 2, 3 << 30, (1 << 32) - 1])


class TestDrawsBelow:
    @given(st.integers(0, (1 << 64) - 1), st.integers(0, (1 << 64) - 1),
           st.lists(st.integers(1, 300) | HIGH_BOUNDS, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_equals_next_below_draw_for_draw_with_the_same_end_state(self, seed, stream,
                                                                     bounds):
        bulk, scalar = Pcg32(seed, stream), Pcg32(seed, stream)
        assert bulk.draws_below(bounds) == scalar_draws(scalar, bounds)
        assert (bulk.state, bulk.inc) == (scalar.state, scalar.inc)
        assert bulk.next_uint32() == scalar.next_uint32()

    def test_a_long_run_of_rejections_is_drawn_again(self):
        # about half the draws below 2^31 + 1 are rejected
        bounds = [(1 << 31) + 1] * 500
        bulk, scalar = Pcg32(5, stream=9), Pcg32(5, stream=9)
        assert bulk.draws_below(bounds) == scalar_draws(scalar, bounds)
        assert bulk.state == scalar.state

    def test_jump_ahead_spans_thousands_of_draws(self):
        bounds = list(range(2, 81)) * 60
        bulk, scalar = Pcg32(1, stream=2), Pcg32(1, stream=2)
        assert bulk.draws_below(bounds) == scalar_draws(scalar, bounds)
        assert bulk.state == scalar.state

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_blocks_continue_the_stream(self, monkeypatch, block):
        monkeypatch.setattr(rng, "_BLOCK", block)
        bounds = [5, 9, (1 << 31) + 1, 2, 2, 100, 3 << 30, 7] * 4
        bulk, scalar = Pcg32(8, stream=3), Pcg32(8, stream=3)
        assert bulk.draws_below(bounds) == scalar_draws(scalar, bounds)
        assert bulk.state == scalar.state

    def test_jump_tables_are_slices_of_one_exact_table(self, monkeypatch):
        # the kept table grows on demand; every slice holds a^k and the sum of
        # a^j for j < k, mod 2^64, whatever sizes were asked for before
        monkeypatch.setattr(rng, "_tables", (np.ones(1, dtype=np.uint64),
                                             np.zeros(1, dtype=np.uint64)))
        a, mask = 6364136223846793005, (1 << 64) - 1
        powers = [pow(a, k, 1 << 64) for k in range(70)]
        for count in (5, 3, 40, 0, 70, 17):
            mult, plus = rng._jump_tables(count)
            assert mult.tolist() == powers[:count]
            assert plus.tolist() == [sum(powers[:k]) & mask for k in range(count)]
            assert not (mult.flags.writeable or plus.flags.writeable)

    def test_no_bounds_leave_the_state_alone(self):
        g = Pcg32(3)
        state = g.state
        assert g.draws_below([]) == [] and g.state == state

    @pytest.mark.parametrize("bounds", [[3, 0], [-1], [(1 << 32) + 1, 5]])
    def test_a_bound_outside_1_to_2_to_32_is_refused(self, bounds):
        with pytest.raises(ValueError):
            Pcg32(1).draws_below(bounds)


#: integer bounds, in range or not, and bounds that are no integer
ANY_BOUNDS = (st.integers(-2, 40) | st.booleans() | st.just((1 << 32) + 1)
              | st.floats(0, 40) | st.text(max_size=2) | st.none())


@given(st.integers(0, (1 << 64) - 1), st.lists(ANY_BOUNDS, max_size=6))
@settings(max_examples=300, deadline=None)
@example(1, [2.5])  # next_below drew 2.0 and draws_below 1
@example(1, [3, 2.0])
@example(1, [True, 5])
@example(1, ["7"])
def test_both_paths_take_and_refuse_the_same_bounds(seed, bounds):
    bulk, scalar = Pcg32(seed), Pcg32(seed)
    try:
        expected = scalar_draws(scalar, bounds)
    except ValueError:
        with pytest.raises(ValueError):
            bulk.draws_below(bounds)
        return
    assert bulk.draws_below(bounds) == expected and bulk.state == scalar.state


def scalar_shuffle(g: Pcg32, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = g.next_below(i + 1)
        items[i], items[j] = items[j], items[i]


@given(st.integers(0, (1 << 64) - 1),
       st.lists(st.integers(0, 40).map(lambda n: list(range(n))), max_size=6))
@settings(max_examples=100, deadline=None)
# holdout:10x30 on 200 rows: 30 lists of 200, one array of 5970 bounds
@example(2024, [list(range(200)) for _ in range(30)])
@example(6, [])  # no list
@example(6, [[], [0], []])  # lists of length 0 and 1 draw nothing
@example(6, [[0], list(range(5)), [], [0, 1]])
def test_shuffling_lists_together_equals_shuffling_them_in_turn(seed, lists):
    together, in_turn = Pcg32(seed, stream=11), Pcg32(seed, stream=11)
    want = [list(items) for items in lists]
    for items in want:
        scalar_shuffle(in_turn, items)
    together.shuffle(*lists)
    assert lists == want
    assert together.state == in_turn.state


SMALL_BOUNDS = [1, 2, 3, 7, 100, 1, 9, 127] * 8
HIGH_ARRAY_BOUNDS = [(1 << 31) + 1, 1 << 32, 3 << 30, 5] * 50


@pytest.mark.parametrize("bounds, kind", [(SMALL_BOUNDS, kind) for kind in (
    np.int8, np.int32, np.int64, np.uint16, np.uint64)] + [
    ([True] * 10, np.bool_), (HIGH_ARRAY_BOUNDS, np.int64), (HIGH_ARRAY_BOUNDS, np.uint64)])
def test_an_integer_array_of_bounds_draws_as_the_same_bounds_as_a_list(bounds, kind):
    array = np.array(bounds, dtype=kind)
    from_array, from_list = Pcg32(4, stream=2), Pcg32(4, stream=2)
    assert from_array.draws_below(array) == from_list.draws_below(bounds)
    assert from_array.state == from_list.state
    assert array.tolist() == bounds  # the caller's array is left as it was


@pytest.mark.parametrize("bounds", [[3.0, 5.0], [2.5], [4.0]])
def test_a_float_array_of_bounds_is_refused_as_float_bounds_are(bounds):
    for given_as in (bounds, np.array(bounds)):
        g = Pcg32(1)
        with pytest.raises(ValueError, match="bounds must be integers"):
            g.draws_below(given_as)
