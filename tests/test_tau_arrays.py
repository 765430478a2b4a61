"""tau arrays through the Bessel kernel and the c0 evaluators.

An array call returns, entry by entry, the bits of the scalar call at that
argument, and where a scalar call raises, it raises the error of the first
scalar call that does: the same class, message and diagnostic.
"""

import functools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defectlattice import (
    InvalidSpecError,
    QuadratureError,
    SeriesDivergenceError,
    bessel_j_array,
    c0_closed_form,
    c0_contour,
    c0_critical,
    s_greater,
    s_less,
    survival_series,
)
from defectlattice import bessel, survival

# tau in the sweep range, past it, and below 5e-9 (a Bessel argument under 1e-8)
TAUS = st.lists(
    st.one_of(st.floats(0.0, 20.0), st.floats(0.0, 5e-9), st.just(0.0)), min_size=1, max_size=12
)


def _scalar_loop(fn, taus):
    """The scalar calls in order: (values, None), or (values so far, first error)."""
    out = []
    for t in taus:
        try:
            out.append(fn(float(t)))
        except (SeriesDivergenceError, QuadratureError, InvalidSpecError) as exc:
            return out, exc
    return out, None


def _assert_rows_match(fn, taus):
    values, error = _scalar_loop(fn, taus)
    if error is None:
        got = fn(np.array(taus))
        assert got.shape == (len(taus),)
        assert np.array_equal(got, np.array(values, dtype=got.dtype))
        return
    with pytest.raises(type(error)) as raised:
        fn(np.array(taus))
    assert str(raised.value) == str(error)
    assert vars(raised.value) == vars(error)  # last_term or achieved


def _evaluators(delta, variant):
    gamma = math.sqrt(abs(1.0 - delta * delta))
    calls = {
        "c0_critical": c0_critical,
        "survival_series": functools.partial(survival_series, delta),
        "c0_closed_form": functools.partial(c0_closed_form, delta, mode=variant),
        "c0_contour": functools.partial(c0_contour, delta),
    }
    if 0.0 < gamma <= 1.0:
        calls["s_less"] = lambda t: s_less(t, gamma, variant=variant)
    if gamma > 0.0:
        calls["s_greater"] = lambda t: s_greater(t, gamma, variant=variant)
    return calls


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 120),
            st.one_of(st.floats(0.0, 60.0), st.floats(0.0, 1e-8), st.just(0.0)),
        ),
        min_size=1,
        max_size=10,
    )
)
@example(rows=[(300, 1e-6), (3, 2.0), (0, 0.0)])  # row 0 takes the _BIG rescale
@example(rows=[(5, 9999.0), (12, 1e-300)])
def test_bessel_rows_equal_scalar_calls(rows):
    l_max = np.array([l for l, _ in rows])
    x = np.array([v for _, v in rows])
    got = bessel_j_array(l_max, x)
    assert got.shape == (len(rows), l_max.max() + 1)
    for i, (l, v) in enumerate(rows):
        assert np.array_equal(got[i, : l + 1], bessel_j_array(l, v))
        assert not got[i, l + 1 :].any()


def test_bessel_rows_share_one_l_max():
    x = np.linspace(0.0, 8.0, 9)
    assert np.array_equal(bessel_j_array(6, x), bessel_j_array(np.full(9, 6), x))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    delta=st.floats(0.0, 6.0, exclude_min=True),
    taus=TAUS,
    variant=st.sampled_from(["reconciled", "printed"]),
)
@example(delta=0.99, taus=[0.5, 4.0, 1.0, 30.0], variant="reconciled")  # closed form cancels
@example(delta=6.0, taus=[0.2, 4.0, 0.0], variant="reconciled")  # survival_series cancels
@example(delta=1.0 + 5e-7, taus=[1.0, 10.0], variant="reconciled")  # closed form overflows
@example(delta=0.474, taus=[1.0, 6000.0, 2.0], variant="reconciled")  # s_less weights overflow
@example(delta=4.17, taus=[5000.0, 1.0], variant="printed")  # past the Bessel domain
@example(delta=4.17, taus=[1.0, 1e308], variant="reconciled")  # 2 tau overflows
@example(delta=0.474, taus=[1e308, 0.0], variant="printed")
@example(delta=0.1, taus=[0.0, 3.0, 3.5, 4.0, 3.0], variant="reconciled")  # radius per tau
def test_evaluator_rows_equal_scalar_calls(delta, taus, variant):
    for fn in _evaluators(delta, variant).values():
        _assert_rows_match(fn, taus)


@pytest.mark.parametrize(
    "fn, taus, err, match",
    [
        (functools.partial(c0_closed_form, 0.99), [0.5, 1.0, 4.0, 1.5, 5.0], SeriesDivergenceError,
         r"at tau=4\.0 loses"),
        (functools.partial(survival_series, 6.0), [0.2, 4.0, 0.3], SeriesDivergenceError,
         r"at tau=4\.0 loses"),
        (lambda t: s_less(t, 1e-3), [0.0, 4000.0, 0.0], SeriesDivergenceError, "orders"),
        (functools.partial(c0_contour, 4.17), [1.0, 1e308, 1e200], QuadratureError,
         r"did not converge with 4194304 points \(delta=4\.17, tau=1e\+308\)"),
        (lambda t: s_less(t, 0.88), [1.0, 6000.0], SeriesDivergenceError,
         r"s_less overflows at tau=6000\.0"),
        (c0_critical, [1.0, 1e308, 6000.0], InvalidSpecError,
         r"c0_critical needs tau < 5000 .*, got tau=1e\+308$"),
        # each names tau and its bound, not the Bessel argument 2 tau
        (c0_critical, [1.0, 6000.0, 1e308], InvalidSpecError,
         r"^c0_critical needs tau < 5000 \(2 tau inside the Bessel domain \|x\| < 10000\), "
         r"got tau=6000\.0$"),
        (functools.partial(c0_closed_form, 1.0), [0.0, 5000.0], InvalidSpecError,
         r"c0_critical needs tau < 5000 .*, got tau=5000\.0$"),
        (functools.partial(c0_closed_form, 1.0), [2.0, 1e308], InvalidSpecError,
         r"c0_critical needs tau < 5000 .*, got tau=1e\+308$"),
    ],
)
def test_one_failing_tau_raises_the_scalar_error(fn, taus, err, match):
    _, error = _scalar_loop(fn, taus)
    assert type(error) is err
    with pytest.raises(err, match=match) as raised:
        fn(np.array(taus))
    assert str(raised.value) == str(error)


@pytest.mark.parametrize("tau", [1.1e6, 1e8, 1e17])
@pytest.mark.parametrize("form", ["scalar", "array"])
def test_contour_gives_up_before_evaluating_a_node(tau, form):
    # from tau = 2^20 on, 2^21 points cannot resolve J_m(2 tau) for m <= 2 tau,
    # so the 2^22-point error is raised at once instead of after 16 doublings
    arg = tau if form == "scalar" else np.array([0.5, tau, 2.0])
    start = time.perf_counter()
    message = f"contour quadrature did not converge with 4194304 points (delta=0.5, tau={tau!r})"
    with pytest.raises(QuadratureError, match=f"^{re.escape(message)}$"):
        c0_contour(0.5, arg)
    assert time.perf_counter() - start < 0.05


def test_contour_still_converges_at_tau_1e6():
    # 2 tau = 2e6 lies below the 2^21 points of the last rule but one
    assert abs(c0_contour(0.5, 1e6)) < 1e-9


def test_contour_row_stops_at_its_node_cap():
    # the converging rows around it are unaffected; the capped row raises as alone
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match=r"4194304 points \(delta=0\.5, tau=10000000\.0\)"):
        c0_contour(0.5, np.array([0.5, 1e7, 2.0]))
    assert time.perf_counter() - start < 3.0


@pytest.mark.parametrize("block", [1, 7, 64, 300])
def test_rows_in_small_blocks_keep_their_bits(monkeypatch, block):
    taus = np.linspace(0.0, 6.0, 41)
    want = {name: fn(taus) for name, fn in _evaluators(0.474, "reconciled").items()}
    want["contour_near_1"] = c0_contour(0.1, taus)
    monkeypatch.setattr(bessel, "_BLOCK", block)
    got = {name: fn(taus) for name, fn in _evaluators(0.474, "reconciled").items()}
    got["contour_near_1"] = c0_contour(0.1, taus)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_row_blocks_respect_the_entry_cap(monkeypatch):
    monkeypatch.setattr(bessel, "_BLOCK", 1000)
    widths = [3, 5, 300, 2, 2, 4000, 1, 1, 200, 200]
    blocks = list(bessel._row_blocks(widths))
    assert [(b.start, b.stop) for b in blocks] == [(0, 3), (3, 5), (5, 6), (6, 10)]
    assert [b.start for b in blocks] == [0, *(b.stop for b in blocks[:-1])]
    assert blocks[-1].stop == len(widths)
    for b in blocks:
        rows = widths[b]
        assert len(rows) == 1 or len(rows) * max(rows) <= bessel._BLOCK
    assert list(bessel._row_blocks([])) == []


def test_contour_cache_is_bounded_and_holds_no_large_level():
    cache = survival._cached_node_factor
    assert cache.cache_info().maxsize is not None
    cache.cache_clear()
    c0_contour(0.5, 3000.0)  # doubles to 8192 points: 64 .. 4096 are cached
    assert cache.cache_info().currsize == 7
    a, b = cache(1.0, 0.75, 64)
    assert not (a.flags.writeable or b.flags.writeable)


def test_empty_tau_array():
    for fn in _evaluators(0.474, "reconciled").values():
        assert fn(np.array([])).shape == (0,)
    assert c0_contour(0.474, np.array([])).dtype == complex
    assert bessel_j_array(3, np.array([])).shape == (0, 4)  # one l_max sets the width
