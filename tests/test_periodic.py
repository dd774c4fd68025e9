from fractions import Fraction
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cycmax import (
    IndexInterval,
    PeriodicTuple,
    interval_average,
    right_maximal,
    tuple_from_json,
)
from cycmax import periodic
from cycmax.errors import CycmaxError
from cycmax.periodic import right_maximal_profile
from cycmax.structure import all_m_intervals, build_poset, m_interval

from oracles import json_tuple_from_json, link_parents, scan_profile, scan_right_maximal

fractions_st = st.fractions(min_value=0, max_value=1000, max_denominator=50)


def positive_fraction_lists(min_size=1, max_size=12):
    return st.lists(fractions_st, min_size=min_size, max_size=max_size).filter(
        lambda vs: any(v > 0 for v in vs)
    )


def tied_rational_lists(max_size=12):
    """Small integer entries, so many window averages tie exactly."""
    return st.lists(st.integers(0, 3), min_size=1, max_size=max_size).filter(any).map(
        lambda vs: [Fraction(v) for v in vs]
    )


# Float tuple on which rounding lifts the three-period window at the
# full-window start above the one-period mean window: lengths must be
# clamped to n.
CLAMP_REGRESSION = [
    6.561491559638452, 5.464779457176233, 5.470289501377164, 8.445990211921815, 7.245472344742572,
]


def brute_average(values, a, b):
    n = len(values)
    return sum(values[(j - 1) % n] for j in range(a, b + 1)) / Fraction(b - a + 1)


class TestPeriodicTuple:
    def test_rejects_empty_negative_and_zero(self):
        with pytest.raises(ValueError):
            PeriodicTuple([])
        with pytest.raises(ValueError):
            PeriodicTuple([1.0, -0.5])
        with pytest.raises(ValueError):
            PeriodicTuple([0, 0, 0])

    def test_rejects_entries_that_are_not_real_numbers(self):
        # a bool is an int to Python, but not an entry
        with pytest.raises(CycmaxError, match="cannot interpret true as a number"):
            PeriodicTuple([True, 2])
        for bad in ([1], None, "2", {"a": 1}):
            with pytest.raises(CycmaxError, match="cannot interpret"):
                PeriodicTuple([bad, 2], backend="rational")
        mixed = [1, 2.5, Fraction(1, 3), np.int64(4), np.float64(0.5)]
        assert PeriodicTuple(mixed, backend="float").values == tuple(float(v) for v in mixed)
        assert PeriodicTuple(mixed, backend="rational").values == tuple(Fraction(v) for v in mixed)

    def test_periodic_indexing(self, ref_rational):
        for i, entry in [(1, "6/5"), (11, "6/5"), (0, "5/2"), (-9, "6/5"), (35, "8/5")]:
            assert interval_average(ref_rational, IndexInterval(i, i)) == Fraction(entry)

    def test_prefix_matches_direct_sum_everywhere(self, ref_rational):
        # windows that start below index 1 and end past 2n read the prefix
        # table outside the two periods it stores
        x = ref_rational
        for a in range(-25, 12):
            for b in range(a, 45):
                direct = sum(x.values[(j - 1) % x.n] for j in range(a, b + 1))
                assert interval_average(x, IndexInterval(a, b)) == direct / (b - a + 1), (a, b)

    def test_backend_inference_and_casting(self):
        assert PeriodicTuple([Fraction(1, 2), 1]).backend == "rational"
        assert PeriodicTuple([0.5, 1]).backend == "float"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("backend", [None, "float", "rational"])
    def test_rejects_non_finite_entries(self, bad, backend):
        with pytest.raises(ValueError, match="finite"):
            PeriodicTuple([1.0, bad], backend=backend)

    @pytest.mark.parametrize(
        "values",
        [[1e308, 1e308], [5e307, 5e307], [1.7e308]],
        ids=["one-period", "third-period", "single"],
    )
    def test_rejects_prefix_overflow(self, values):
        # the sum over one period of [5e307, 5e307] is finite; over three it is not
        with pytest.raises(ValueError, match="overflow"):
            PeriodicTuple(values)
        with pytest.raises(ValueError, match="overflow"):
            tuple_from_json('{"values": %s}' % values, "float")

    def test_float_tuple_rejects_an_entry_past_the_float_range(self):
        with pytest.raises(ValueError, match="float range"):
            PeriodicTuple([1, 10**400], backend="float")
        with pytest.raises(ValueError, match="float range"):
            PeriodicTuple([Fraction(1), Fraction(10**400, 3)], backend="float")

    def test_large_entries_below_overflow_are_kept(self):
        x = PeriodicTuple([1e307, 1e307])
        assert right_maximal_profile(x).values == [1e307, 1e307]
        assert PeriodicTuple([Fraction(10) ** 400, 1], backend="rational").n == 2


NOT_FINITE = "entries must be finite, got "
NOT_A_NUMBER = "cannot interpret "
FLOAT_RANGE = "entries must lie within the float range (the rational backend reads them exactly)"

# entries -> the error each backend raises (None: the tuple is accepted)
CONSTRUCTOR_ERRORS = {
    "nan": ([1, float("nan")], NOT_FINITE + "nan"),
    "inf": ([1, float("inf")], NOT_FINITE + "inf"),
    "-inf": ([1, -float("inf")], NOT_FINITE + "-inf"),
    "np-nan": ([1, np.float64("nan")], NOT_FINITE + "np.float64(nan)"),
    "np-inf": ([1, np.float64("inf")], NOT_FINITE + "np.float64(inf)"),
    "np-minus-inf": ([1, np.float64("-inf")], NOT_FINITE + "np.float64(-inf)"),
    "np32-nan": ([1.0, np.float32("nan")], NOT_FINITE + "np.float32(nan)"),
    "bool": ([1, True], NOT_A_NUMBER + "true as a number"),
    "none": ([1.0, None], NOT_A_NUMBER + "None as a number"),
    "string": ([Fraction(1), "1"], NOT_A_NUMBER + "'1' as a number"),
    "np-bool": ([1, np.True_], NOT_A_NUMBER + "np.True_ as a number"),
    "negative-int": ([1, -1], "entries must be nonnegative"),
    "negative-np-int": ([1.0, np.int64(-1)], "entries must be nonnegative"),
    "negative-fraction": ([1, Fraction(-1, 2)], "entries must be nonnegative"),
    "negative-zero": ([-0.0, 0], "at least one entry must be positive"),
    "all-zero": ([0, 0.0, Fraction(0), np.int64(0)], "at least one entry must be positive"),
    # the first bad entry decides, and a type is checked before any sign
    "nan-then-string": ([float("nan"), "1"], NOT_FINITE + "nan"),
    "string-then-nan": (["1", float("nan")], NOT_A_NUMBER + "'1' as a number"),
    "negative-then-inf": ([-1, float("inf")], NOT_FINITE + "inf"),
    "three-period-overflow": (
        [1e308] * 3,
        {"float": "entries too large: their sum over three periods overflows", "rational": None},
    ),
    "past-float-range": ([1, 10**400], {"float": FLOAT_RANGE, "rational": None}),
}


def _expected(outcome, backend, values):
    if not isinstance(outcome, dict):
        return outcome
    if backend is None:
        backend = "rational" if any(isinstance(v, Fraction) for v in values) else "float"
    return outcome[backend]


class TestConstructorContract:
    """The messages, order of checks and stored tables of ``PeriodicTuple``."""

    @pytest.mark.parametrize("case", list(CONSTRUCTOR_ERRORS))
    @pytest.mark.parametrize("backend", ["float", "rational", None])
    def test_error_messages(self, case, backend):
        values, outcome = CONSTRUCTOR_ERRORS[case]
        message = _expected(outcome, backend, values)
        if message is None:
            assert PeriodicTuple(values, backend=backend).n == len(values)
            return
        with pytest.raises(CycmaxError) as info:
            PeriodicTuple(values, backend=backend)
        assert str(info.value) == message

    def test_unknown_backend_is_checked_after_the_entries(self):
        with pytest.raises(CycmaxError, match="^unknown backend 'decimal'$"):
            PeriodicTuple([1, 2], backend="decimal")
        with pytest.raises(CycmaxError, match="^cannot interpret"):
            PeriodicTuple([None], backend="decimal")

    @pytest.mark.parametrize("backend", ["float", "rational", None])
    def test_mixed_entries_tables(self, backend):
        mixed = [1, np.int64(4), np.float32(0.5), Fraction(1, 3), 2.5]
        x = PeriodicTuple(mixed, backend=backend)
        if backend == "float":
            values = [1.0, 4.0, 0.5, 1 / 3, 2.5]
            # running sums over one period, then the period sum plus each
            prefix = [0.0]
            for v in values:
                prefix.append(prefix[-1] + v)
            total, one = prefix[-1], prefix[1:]
            prefix += [total + s for s in one] + [(total + total) + s for s in one]
            assert x.values == tuple(values) and x._den is None
            assert all(type(v) is float for v in x.values + tuple(x._prefix2))
        else:
            values = [Fraction(1), Fraction(4), Fraction(1, 2), Fraction(1, 3), Fraction(5, 2)]
            # numerators over the common denominator 6
            prefix = [0, 6, 30, 33, 35, 50, 56, 80, 83, 85, 100, 106, 130, 133, 135, 150]
            assert x.values == tuple(values) and x._den == 6
            assert all(type(v) is Fraction for v in x.values)
            assert all(type(s) is int for s in x._prefix2)
        assert x.backend == ("rational" if backend is None else backend)
        # two periods are stored, and the third is served with the same bits
        assert x._prefix2 == prefix[: 2 * x.n + 1]
        assert [x._table(k) for k in range(3 * x.n + 1)] == prefix
        assert all(type(x._table(k)) is type(prefix[k]) for k in range(3 * x.n + 1))

    def test_numpy_integers_are_summed_exactly(self):
        x = PeriodicTuple([np.int64(2**62), np.int64(2**62)], backend="rational")
        assert x._prefix2[-1] == 4 * 2**62
        assert x._table(3 * x.n) == 6 * 2**62
        assert right_maximal_profile(x).values == [Fraction(2**62)] * 2

    @given(st.lists(st.integers(0, 2**70), min_size=1, max_size=12).filter(any))
    def test_int_entries_match_the_same_fractions(self, values):
        x = PeriodicTuple(values, backend="rational")
        y = PeriodicTuple([Fraction(v) for v in values], backend="rational")
        assert x._den == y._den == 1
        assert x._prefix2 == y._prefix2
        assert all(type(s) is int for s in x._prefix2)
        assert x.values == y.values
        assert all(type(v) is Fraction for v in x.values)
        assert right_maximal_profile(x) == right_maximal_profile(y)


class TestIntervalAverage:
    def test_full_period_average(self, ref_float, ref_rational):
        assert interval_average(ref_float, IndexInterval(1, 10)) == pytest.approx(2.26, abs=1e-12)
        assert interval_average(ref_rational, IndexInterval(1, 10)) == Fraction(113, 50)

    def test_short_window(self, ref_float, ref_rational):
        assert interval_average(ref_float, IndexInterval(2, 3)) == pytest.approx(2.9, abs=1e-12)
        assert interval_average(ref_rational, IndexInterval(2, 3)) == Fraction(29, 10)

    def test_constant_tuple(self):
        x = PeriodicTuple([3.5] * 7)
        for a, b in [(1, 1), (2, 9), (-3, 15)]:
            assert interval_average(x, IndexInterval(a, b)) == pytest.approx(3.5, abs=1e-12)

    @given(positive_fraction_lists(), st.integers(-4, 4), st.integers(1, 10), st.integers(1, 20))
    def test_shift_equivalence_exact(self, values, k, i, r):
        x = PeriodicTuple(values, backend="rational")
        iv = IndexInterval(i, i + r - 1)
        assert interval_average(x, iv) == interval_average(x, iv.shifted(k * x.n))

    @given(
        st.lists(st.floats(0.01, 100.0), min_size=2, max_size=15),
        st.integers(-3, 3),
        st.integers(1, 12),
        st.integers(1, 12),
    )
    def test_shift_equivalence_float(self, values, k, i, r):
        x = PeriodicTuple(values)
        iv = IndexInterval(i, i + r - 1)
        a = interval_average(x, iv)
        b = interval_average(x, iv.shifted(k * x.n))
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)

    @given(positive_fraction_lists(max_size=8), st.integers(1, 8), st.integers(1, 24))
    def test_matches_brute_force(self, values, a, r):
        x = PeriodicTuple(values, backend="rational")
        assert interval_average(x, IndexInterval(a, a + r - 1)) == brute_average(values, a, a + r - 1)


class TestRightMaximal:
    def test_reference_values(self, ref_float, ref_rational):
        assert right_maximal(ref_float, 3) == pytest.approx(3.5, abs=1e-12)
        assert right_maximal(ref_float, 9) == pytest.approx(2.26, abs=1e-12)
        assert right_maximal(ref_rational, 9) == Fraction(113, 50)

    def test_constant(self):
        x = PeriodicTuple([2.0] * 5)
        for i in range(1, 6):
            assert right_maximal(x, i) == 2.0
        # smallest maximizing window under strict comparison
        assert right_maximal_profile(x).lengths == [1] * 5

    def test_smallest_maximizer_reported(self):
        # both windows [1:1] and [1:3] average to 2; the shorter one wins
        x = PeriodicTuple([Fraction(2), Fraction(1), Fraction(3), Fraction(100)], backend="rational")
        prof = right_maximal_profile(x)
        assert prof.lengths[0] == 4  # [1:4] avg 106/4 = 26.5 beats everything
        x2 = PeriodicTuple([Fraction(2), Fraction(1), Fraction(3), Fraction(0)], backend="rational")
        prof2 = right_maximal_profile(x2)
        assert prof2.values[0] == Fraction(2) and prof2.lengths[0] == 1

    @given(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=14), st.integers(1, 14))
    def test_bounds_and_periodicity(self, values, i):
        x = PeriodicTuple(values)
        m = right_maximal(x, i)
        assert min(values) - 1e-12 <= m <= max(values) + 1e-12
        assert right_maximal(x, i + x.n) == pytest.approx(m, rel=1e-12)

    @given(positive_fraction_lists(max_size=9), st.integers(1, 9))
    def test_windows_past_one_period_never_win(self, values, i):
        x = PeriodicTuple(values, backend="rational")
        m = right_maximal(x, i)
        wide = max(
            interval_average(x, IndexInterval(i, i + r - 1)) for r in range(1, 3 * x.n + 1)
        )
        assert wide == m

    def test_profile_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            x = PeriodicTuple(rng.uniform(0.001, 50.0, n).tolist())
            values, lengths = right_maximal_profile(x)
            for i in range(1, n + 1):
                v, r = scan_right_maximal(x, i)
                assert values[i - 1] == v
                assert lengths[i - 1] == r

    def test_lookups_run_the_pass_once(self, monkeypatch):
        passes = []
        original = periodic._rising_sun

        def counted(x):
            passes.append(x.n)
            return original(x)

        monkeypatch.setattr(periodic, "_rising_sun", counted)
        x = PeriodicTuple(np.random.default_rng(9).uniform(0.05, 10.0, 2000).tolist())
        for i in range(1, x.n + 1):
            right_maximal(x, i)
            m_interval(x, i)
        assert passes == [2000]
        assert right_maximal_profile(x) is right_maximal_profile(x)
        assert passes == [2000]

    def test_clamp_regression_matches_scan(self):
        x = PeriodicTuple(CLAMP_REGRESSION)
        prof = right_maximal_profile(x)
        assert (prof.values, prof.lengths) == scan_profile(x)
        assert max(prof.lengths) == x.n
        assert build_poset(x).parent[prof.lengths.index(x.n) + 1] is None

    @given(tied_rational_lists(max_size=16))
    def test_tied_rationals_match_oracles_exactly(self, values):
        x = PeriodicTuple(values, backend="rational")
        prof = right_maximal_profile(x)
        assert (prof.values, prof.lengths) == scan_profile(x)
        assert build_poset(x).parent == link_parents(all_m_intervals(x), x.n)

    def test_float_parents_match_oracle(self):
        rng = np.random.default_rng(21)
        tuples = [rng.uniform(0.05, 10.0, int(rng.integers(1, 41))).tolist() for _ in range(300)]
        for values in tuples + [CLAMP_REGRESSION]:
            x = PeriodicTuple(values)
            assert build_poset(x).parent == link_parents(all_m_intervals(x), x.n)

    def test_float_pass_on_cancelling_entries(self):
        # 1e16 + 1 rounds to 1e16, so the rounded prefix table is not the
        # exact one, and the pass may stop at a window whose rounded
        # average is one unit in the last place below the scan's maximum
        rng = np.random.default_rng(22)
        for _ in range(300):
            x = PeriodicTuple(rng.choice([1e16, 1.0], int(rng.integers(1, 41))).tolist())
            prof = right_maximal_profile(x)
            p = x._prefix2
            for k, (got, r, best) in enumerate(zip(prof.values, prof.lengths, scan_profile(x)[0])):
                assert 1 <= r <= x.n and got == (p[k + r] - p[k]) / r
                assert best - 2 * sys.float_info.epsilon * best <= got <= best

    def test_float_parents_on_cancelling_entries_match_oracle(self):
        # the container search on the same classes: where 1e16 + 1 rounds
        # to 1e16, a pass that also walks a third period pops second-period
        # points by rounded averages the first period never forms
        rng = np.random.default_rng(2024)
        for _ in range(500):
            x = PeriodicTuple(rng.choice([1e16, 1.0], int(rng.integers(1, 30))).tolist())
            assert build_poset(x).parent == link_parents(all_m_intervals(x), x.n), x

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20))
    def test_float_values_agree_with_scan(self, values):
        x = PeriodicTuple(values)
        prof = right_maximal_profile(x)
        scan_values, _ = scan_profile(x)
        for got, want, r in zip(prof.values, scan_values, prof.lengths):
            assert 1 <= r <= x.n
            assert got == pytest.approx(want, rel=1e-12)


class TestForwardMaxAverage:
    """The largest average over windows starting strictly after i is the
    right maximal value at i + 1."""

    def test_reference_values(self, ref_float):
        assert right_maximal(ref_float, 2 + 1) == pytest.approx(3.5, abs=1e-12)
        assert right_maximal(ref_float, 8 + 1) == pytest.approx(2.26, abs=1e-12)

    def test_constant(self):
        x = PeriodicTuple([4.0] * 6)
        assert right_maximal(x, 3 + 1) == 4.0

    @given(st.lists(st.floats(0.01, 50.0), min_size=2, max_size=12), st.integers(1, 12))
    def test_between_mean_and_max(self, values, i):
        x = PeriodicTuple(values)
        m = right_maximal(x, i + 1)
        mean = interval_average(x, IndexInterval(1, x.n))
        assert mean - 1e-12 * max(mean, 1.0) <= m <= max(values) + 1e-12


def _read(reader, text):
    """The entries as ``float.hex`` strings, or the message of the ``CycmaxError``."""
    try:
        return [v.hex() for v in reader(text, "float").values]
    except CycmaxError as exc:
        return str(exc)


BIG = 2**1024 - 2**970  # the least integer that rounds past the float range

# documents orjson rejects or reads differently from json, in both encodings
READER_CASES = [
    '{"values": [1, NaN]}',
    '{"values": [Infinity, 1]}',
    '{"values": [-Infinity]}',
    '{"values": [1e400, 1]}',
    '{"values": [1, -1e400]}',
    '{"values": [1, "\ud800"]}',
    '{"values": [1, 2], "note": "\udc00"}',
    '{"values": [%s, 1]}' % (10**400),
    '{"values": [%s, 1]}' % ("9" * 5000),
    '{"values": [1], "seed": %s}' % ("9" * 5000),
    '{"values": [1, 2]}' + " ",
    '{"values": [1, 2],}',
    '{"values": [01]}',
    '{"values": [1.]}',
    '{"values": ' + "[" * 40 + "1" + "]" * 40 + "}",
    '{"values": ' + "[" * 5000 + "1" + "]" * 5000 + "}",
    '{"values": [1], "deep": ' + "[" * 5000 + "]" * 5000 + "}",
    '{"values": [1], "deep": ' + '{"a":' * 5000 + "1" + "}" * 5000 + "}",
    '{"values": [1, 2], "values": [3]}',
    "",
    "[1, 2]",
] + [
    # integers past 64 bits, which orjson returns as floats
    '{"values": [%d, 1]}' % v
    for v in (2**63, 2**64 - 1, 2**64, 2**64 + 1, 3**50, 10**30 + 1, 2**1023 + 2**970, BIG - 1, BIG, BIG + 1, -(2**64) - 5)
]


class TestJson:
    @pytest.mark.parametrize("text", READER_CASES, ids=range(len(READER_CASES)))
    def test_reader_matches_the_json_reader(self, text):
        for doc in (text, text.encode("utf-8", "surrogatepass")):
            assert _read(tuple_from_json, doc) == _read(json_tuple_from_json, doc)

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-16-le", "utf-32", "latin-1"])
    def test_reader_matches_the_json_reader_on_other_encodings(self, encoding):
        doc = '{"values": [1.5, 2], "note": "caf\u00e9"}'
        for text in (doc.encode(encoding), "\ufeff" + doc):
            assert _read(tuple_from_json, text) == _read(json_tuple_from_json, text)

    def test_reader_matches_the_json_reader_on_seeded_literals(self):
        # shortest reprs, 30-digit mantissas, subnormals and long integers
        rng = np.random.default_rng(31)
        texts = []
        for _ in range(2000):
            scaled = rng.uniform(0, 1e3, 3) * 10.0 ** rng.integers(-320, 300, 3)
            reprs = [repr(v) for v in scaled.tolist()]
            mantissas = [
                "%d.%se%d" % (rng.integers(1, 10), "".join(map(str, rng.integers(0, 10, 29))), rng.integers(-340, 309))
                for _ in range(3)
            ]
            subnormals = [repr(int(k) * 2.0**-1074) for k in rng.integers(1, 2**52, 3)]
            integers = [str(int(d) * 10 ** int(e)) for d, e in zip(rng.integers(1, 10**18, 3), rng.integers(0, 300, 3))]
            texts.append('{"values": [%s]}' % ", ".join(reprs + mantissas + subnormals + integers))
        for text in texts:
            assert _read(tuple_from_json, text) == _read(json_tuple_from_json, text), text

    def test_parse_float_backend(self):
        x = tuple_from_json('{"values": [1.2, 3, "7/2"]}', "float")
        assert x.backend == "float"
        assert x.values == (1.2, 3.0, 3.5)

    def test_parse_rational_reads_decimals_exactly(self):
        x = tuple_from_json('{"values": [1.2, 3, "7/2"]}', "rational")
        assert x.values == (Fraction(6, 5), Fraction(3), Fraction(7, 2))

    @pytest.mark.parametrize(
        "text",
        ['{"values": []}', '{"nope": [1]}', "[1, 2]", '{"values": [0, 0]}', '{"values": [-1, 2]}'],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises((CycmaxError, ValueError)):
            tuple_from_json(text, "float")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("backend", ["float", "rational"])
    def test_rejects_non_finite_entries(self, token, backend):
        with pytest.raises(CycmaxError, match="finite"):
            tuple_from_json('{"values": [1, %s]}' % token, backend)

    @pytest.mark.parametrize("backend", ["float", "rational"])
    def test_rejects_boolean_entries(self, backend):
        with pytest.raises(CycmaxError, match="true"):
            tuple_from_json('{"values": [true, 2, false]}', backend)
        with pytest.raises(CycmaxError, match="false"):
            PeriodicTuple([False, 1], backend=backend)

    @pytest.mark.parametrize(
        "entry", [str(10**400), '"1e400"', '"%d/3"' % 10**400], ids=["integer", "exponent", "ratio"]
    )
    def test_float_backend_rejects_entries_past_the_float_range(self, entry):
        with pytest.raises(ValueError, match="float range"):
            tuple_from_json('{"values": [1, %s]}' % entry, "float")
        x = tuple_from_json('{"values": [1, %s]}' % entry, "rational")
        assert x.values[1] > 10**300

    def test_decimal_exponents_read_exactly_up_to_the_int_digit_limit(self):
        # a literal and a string read the same, exactly, up to the limit
        # Python sets on integer literals; one past it is rejected at once
        limit = sys.get_int_max_str_digits()
        assert tuple_from_json('{"values": [1e300, 1]}', "rational").values[0] == 10**300
        assert periodic._exact_number("1e300") == 10**300
        assert periodic._exact_number("25e-%d" % limit) == Fraction(25, 10**limit)
        # an exponent of more digits than the limit fails as the int literal would
        for text, match in [("1e%d" % (limit + 1), "exponent"), ("1e-1000000", "exponent"), ("1e" + "9" * 5000, "limit")]:
            with pytest.raises(CycmaxError, match=match):
                periodic._exact_number(text)
            with pytest.raises(CycmaxError, match=match):
                tuple_from_json('{"values": [%s, 1]}' % text, "rational")
