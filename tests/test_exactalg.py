import random
from fractions import Fraction
from math import gcd

import pytest

from hurwitztau.errors import (
    ConfigurationError,
    DomainError,
    NonInvertibleError,
    OutOfWindowError,
)
from hurwitztau.exactalg import (
    BetaSeries,
    BRing,
    GradedPoly,
    LaurentWindow,
    QRing,
    log_pieces,
    series_exp,
    series_inv,
)

F = Fraction


def beta(d):
    return BetaSeries.variable(d)


class TestBetaSeries:
    def test_difference_of_squares(self):
        one = BetaSeries.one(2)
        a = one + beta(2)
        b = one - beta(2)
        assert a * b == BetaSeries([1, 0, -1])

    def test_truncation_drops_square(self):
        one = BetaSeries.one(1)
        a = one + beta(1)
        b = one - beta(1)
        assert a * b == BetaSeries.one(1)

    def test_additive_identity(self):
        a = BetaSeries([F(1, 3), F(2), F(-5, 7)])
        assert a + BetaSeries.zero(2) == a

    def test_mismatched_orders_rejected(self):
        with pytest.raises(ConfigurationError):
            BetaSeries.one(2) + BetaSeries.one(3)

    def test_inverse_geometric(self):
        a = BetaSeries.one(3) - beta(3)
        assert series_inv(a) == BetaSeries([1, 1, 1, 1])

    def test_inverse_of_one_and_constants(self):
        assert series_inv(BetaSeries.one(4)) == BetaSeries.one(4)
        assert series_inv(BetaSeries.constant(2, 2)) == BetaSeries.constant(F(1, 2), 2)

    def test_inverse_requires_unit(self):
        with pytest.raises(NonInvertibleError):
            series_inv(beta(3))

    def test_log_exp_basics(self):
        assert BetaSeries(log_pieces(BetaSeries.one(3).coeffs, F(0))) == BetaSeries.zero(3)
        assert series_exp(BetaSeries.zero(3)) == BetaSeries.one(3)
        mercator = BetaSeries(log_pieces((BetaSeries.one(3) + beta(3)).coeffs, F(0)))
        assert mercator == BetaSeries([0, F(1), F(-1, 2), F(1, 3)])

    def test_log_exp_preconditions(self):
        with pytest.raises(DomainError):
            GradedPoly({((), (), 0): BetaSeries.constant(2, 3)}, 1, 3).log()
        with pytest.raises(DomainError):
            series_exp(BetaSeries.one(3))

    def test_round_trips_random(self):
        rng = random.Random(7)
        for _ in range(25):
            d = rng.randint(1, 6)
            coeffs = [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(d + 1)]
            coeffs[0] = F(1)
            a = BetaSeries(coeffs)
            assert series_exp(BetaSeries(log_pieces(a.coeffs, F(0)))) == a
            assert a * series_inv(a) == BetaSeries.one(d)

    def test_ring_axioms_random(self):
        rng = random.Random(11)
        for _ in range(20):
            d = rng.randint(0, 5)

            def rand():
                return BetaSeries(
                    [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d + 1)]
                )

            a, b, c = rand(), rand(), rand()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_shift(self):
        a = BetaSeries([1, 2, 3])
        assert a.shift(1) == BetaSeries([0, 1, 2])
        # beyond the truncation order the product is zero, of the same order
        assert a.shift(3) == a.shift(5) == BetaSeries.zero(2)

    def test_beta_power(self):
        assert BRing(2).beta_power(1) == BetaSeries([0, 1, 0])
        assert BRing(2).beta_power(4) == BetaSeries.zero(2)
        assert QRing(Fraction(1, 3)).beta_power(2) == Fraction(1, 9)


# ---------------------------------------------------------------------------
# Reference: the Fraction-list arithmetic that BetaSeries ran before it kept
# integer numerators over one denominator.  Every reference_* takes and
# returns plain lists of Fractions, one per beta-order.
# ---------------------------------------------------------------------------


def reference_add(a, b):
    return [x + y for x, y in zip(a, b)]


def reference_neg(a):
    return [-x for x in a]


def reference_scale(a, f):
    return [x * f for x in a]


def reference_mul(a, b):
    out = [F(0)] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += x * b[j]
    return out


def reference_shift(a, k):
    return ([F(0)] * k + list(a))[: len(a)]


def reference_inv(a):
    """b_0 = 1/a_0, b_m = -(1/a_0) sum_{k=1..m} a_k b_{m-k}."""
    inv0 = 1 / a[0]
    out = [inv0]
    for m in range(1, len(a)):
        out.append(-inv0 * sum((a[k] * out[m - k] for k in range(1, m + 1)), F(0)))
    return out


def reference_exp(a):
    """exp of a series with a_0 = 0: n E_n = sum_{k=1..n} k a_k E_{n-k}."""
    out = [F(1)]
    for n in range(1, len(a)):
        out.append(sum((k * a[k] * out[n - k] for k in range(1, n + 1)), F(0)) / n)
    return out


def reference_log_pieces(pieces):
    """log of sum_n x^n P_n, P_0 = 1, each P_n a coefficient list:
    n L_n = n P_n - sum_{k=1..n-1} k L_k P_{n-k}."""
    zero = [F(0)] * len(pieces[0])
    out = [zero]
    for n in range(1, len(pieces)):
        acc = reference_scale(pieces[n], n)
        for k in range(1, n):
            acc = reference_add(acc, reference_neg(
                reference_mul(reference_scale(out[k], k), pieces[n - k])))
        out.append(reference_scale(acc, F(1, n)))
    return out


def random_coeffs(rng, d):
    """Zero, integer, or mixed-denominator coefficients with some zero entries."""
    kind = rng.randrange(4)
    if kind == 0:
        return [F(0)] * (d + 1)
    if kind == 1:
        return [F(rng.randint(-6, 6)) for _ in range(d + 1)]
    if kind == 2:  # a common factor that the denominator must absorb
        return [F(6 * rng.randint(-3, 3), rng.choice((4, 9, 12))) for _ in range(d + 1)]
    return [F(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.8 else F(0)
            for _ in range(d + 1)]


def random_scalar(rng):
    f = F(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))
    return f if rng.random() < 0.7 else f.numerator


def assert_matches(series, ref):
    """series is canonical and holds exactly the reference coefficients."""
    nums, den = series.nums, series.den
    assert type(nums) is tuple and all(type(n) is int for n in nums)
    assert type(den) is int and den > 0 and gcd(den, *nums) == 1
    assert series.d_max == len(ref) - 1
    assert series.coeffs == tuple(ref)
    assert [series[d] for d in range(len(ref))] == ref
    assert bool(series) == any(ref)


class TestBetaSeriesReference:
    def test_arithmetic_matches_fraction_lists(self):
        rng = random.Random(2024)
        for _ in range(300):
            d = rng.randint(0, 6)
            ra, rb = random_coeffs(rng, d), random_coeffs(rng, d)
            a, b = BetaSeries(ra), BetaSeries(rb)
            f = random_scalar(rng)
            k = rng.randint(0, d + 3)
            assert_matches(a, ra)
            assert_matches(a + b, reference_add(ra, rb))
            assert_matches(a - b, reference_add(ra, reference_neg(rb)))
            assert_matches(-a, reference_neg(ra))
            assert_matches(a * b, reference_mul(ra, rb))
            assert_matches(a * f, reference_scale(ra, f))
            assert_matches(f * a, reference_scale(ra, f))
            assert_matches(a / f, reference_scale(ra, 1 / F(f)))
            assert_matches(a + f, reference_add(ra, [F(f)] + [F(0)] * d))
            assert_matches(f - a, reference_add([F(f)] + [F(0)] * d, reference_neg(ra)))
            assert_matches(a.shift(k), reference_shift(ra, k))
            if ra[0]:
                assert_matches(series_inv(a), reference_inv(ra))
                assert_matches(b / a, reference_mul(rb, reference_inv(ra)))
            u = [F(0)] + ra[1:]
            assert_matches(series_exp(BetaSeries(u)), reference_exp(u))

    def test_dilate_matches_fraction_lists(self):
        rng = random.Random(7)
        for _ in range(300):
            d = rng.randint(0, 6)
            ra, rb = random_coeffs(rng, d), random_coeffs(rng, d)
            a, b = BetaSeries(ra), BetaSeries(rb)
            x, y = rng.randint(-12, 12), rng.randint(-5, 5)
            assert_matches(a.dilate(x), [c * F(x) ** k for k, c in enumerate(ra)])
            assert (a * b).dilate(x) == a.dilate(x) * b.dilate(x)
            assert (a + b).dilate(x) == a.dilate(x) + b.dilate(x)
            assert a.dilate(x).dilate(y) == a.dilate(x * y)
            if ra[0]:
                assert series_inv(a).dilate(x) == series_inv(a.dilate(x))

    def test_dilate_by_zero_and_one(self):
        a = BetaSeries([F(2, 3), F(-1, 6), 0, F(5, 4)])
        assert a.dilate(1) == a
        assert_matches(a.dilate(0), [F(2, 3), 0, 0, 0])
        assert_matches(BetaSeries([F(1, 2), F(1, 2)]).dilate(0), [F(1, 2), 0])

    def test_comparison_matches_fraction_lists(self):
        rng = random.Random(99)
        for _ in range(300):
            d = rng.randint(0, 6)
            ra, rb = random_coeffs(rng, d), random_coeffs(rng, d)
            a, b = BetaSeries(ra), BetaSeries(rb)
            assert (a == b) == (ra == rb)
            assert (a == ra[0]) == (ra[1:] == [F(0)] * d)
            assert bool(a) == any(ra)

    def test_equal_values_have_equal_fields(self):
        # the same value reached by different routes must compare and hash equal
        rng = random.Random(5)
        for _ in range(300):
            d = rng.randint(0, 6)
            a, b = BetaSeries(random_coeffs(rng, d)), BetaSeries(random_coeffs(rng, d))
            f = random_scalar(rng)
            for same in ((a + b) - b, (a * f) / f, a * BetaSeries.one(d), -(-a)):
                assert same == a and hash(same) == hash(a)
            assert a - a == BetaSeries.zero(d) and (a - a).den == 1
            assert BetaSeries.constant(f, d) == f and hash(BetaSeries.constant(f, d)) == hash(
                BetaSeries([f] + [0] * d))

    def test_log_pieces_matches_fraction_lists(self):
        rng = random.Random(17)
        for _ in range(60):
            d, n = rng.randint(0, 6), rng.randint(1, 4)
            refs = [[F(1)] + [F(0)] * d] + [random_coeffs(rng, d) for _ in range(n)]
            got = log_pieces([BetaSeries(r) for r in refs], BetaSeries.zero(d))
            for piece, ref in zip(got, reference_log_pieces(refs), strict=True):
                assert_matches(piece, ref)

    def test_scalar_over_series_matches_series_inv(self):
        rng = random.Random(31)
        for _ in range(200):
            d = rng.randint(0, 6)
            ra = random_coeffs(rng, d)
            if not ra[0]:
                continue
            a = BetaSeries(ra)
            assert_matches(1 / a, reference_inv(ra))
            assert 1 / a == series_inv(a)
            assert F(2, 3) / a == series_inv(a) * F(2, 3)

    def test_scalar_over_non_unit_raises(self):
        with pytest.raises(NonInvertibleError):
            1 / BetaSeries([0, 1, 2])
        with pytest.raises(NonInvertibleError):
            F(1, 2) / BetaSeries.zero(3)

    def test_division_by_zero_scalar(self):
        with pytest.raises(ZeroDivisionError):
            BetaSeries.one(2) / 0
        with pytest.raises(OutOfWindowError):
            BetaSeries.one(2)[3]

    def test_arithmetic_builds_no_fraction(self, fractions_made):
        a = BetaSeries([F(1, 3), F(-2, 5), 0, F(7, 2)])
        b = BetaSeries([F(1, 2), 3, F(-1, 6), 0])
        f = F(-3, 4)
        with fractions_made() as made:
            for op in (lambda: a + b, lambda: a - b, lambda: -a, lambda: a * b,
                       lambda: a * f, lambda: 2 * a, lambda: a / f, lambda: a + f,
                       lambda: 2 - a, lambda: a.shift(2), lambda: a.dilate(-3),
                       lambda: a == b, lambda: a == f,
                       lambda: hash(a), lambda: bool(a), lambda: series_inv(a), lambda: b / a):
                op()
        assert made == []


class TestGradedPoly:
    def test_t1_squared(self):
        t1 = GradedPoly({((1,), (), 0): BetaSeries.one(0)}, 3, 0)
        sq = t1 * t1
        assert sq.coeff((2,), (), 0) == BetaSeries.one(0)

    def test_weight_cutoff_drops_products(self):
        t2 = GradedPoly({((0, 1), (), 0): BetaSeries.one(0)}, 3, 0)
        assert not (t2 * t2).terms  # weight 4 > w_max 3

    def test_log_cuts_at_weight(self):
        # log(1 + t_1 s_1) at w_max = 1 keeps only the linear term in each alphabet
        u = GradedPoly({((1,), (1,), 1): BetaSeries.one(0)}, 1, 0)
        p = GradedPoly.one(1, 0) + u
        assert p.log() == u
        # at w_max = 2 the weight-2 correction survives the inclusive cutoff
        u2 = GradedPoly({((1,), (1,), 1): BetaSeries.one(0)}, 2, 0)
        logged = (GradedPoly.one(2, 0) + u2).log()
        assert logged.coeff((2,), (2,), 2) == BetaSeries.constant(F(-1, 2), 0)

    def test_exp_coefficient(self):
        u = GradedPoly({((1,), (1,), 1): BetaSeries.one(0)}, 2, 0)
        e = u.exp()
        assert e.coeff((2,), (2,), 2) == BetaSeries.constant(F(1, 2), 0)

    def test_pure_grade_terms_rejected(self):
        # gamma alone has no t- or s-weight, so its powers never leave the
        # window: a 2 w_max-term log of 1 + gamma would give exp(log p) != p
        gamma = GradedPoly({((), (), 1): BetaSeries.one(0)}, 1, 0)
        with pytest.raises(DomainError):
            (GradedPoly.one(1, 0) + gamma).log()
        with pytest.raises(DomainError):
            gamma.exp()

    def test_coeff_out_of_window(self):
        p = GradedPoly.one(2, 0)
        assert p.coeff((2,), (), 0) == BetaSeries.zero(0)
        with pytest.raises(OutOfWindowError):
            p.coeff((3,), (), 0)

    def test_grades_add_under_mul(self):
        a = GradedPoly({((1,), (), 2): BetaSeries.one(0)}, 4, 0)
        b = GradedPoly({((0, 1), (), 3): BetaSeries.one(0)}, 4, 0)
        assert list((a * b).terms) == [((1, 1), (), 5)]


class TestLaurentWindow:
    def test_known_zero_above(self):
        w = LaurentWindow(-2, (F(5), F(1), F(2)))  # 5 z^-2 + z^-1 + 2
        assert w.get(3) == 0
        assert w.get(-2) == 5
        with pytest.raises(OutOfWindowError):
            w.get(-3)

    def test_mul_tracks_valid_window(self):
        u = LaurentWindow(-2, (F(1), F(1), F(1)))  # z^-2 + z^-1 + 1, unknown below -2
        v = LaurentWindow(-1, (F(1), F(1)))  # z^-1 + 1
        prod = u.mul(v)
        # valid from max(-2 + 0, -1 + 0) = -1
        assert prod.lo == -1
        assert prod.get(0) == 1
        assert prod.get(-1) == 2

    def test_residue_pairing(self):
        u = LaurentWindow(-3, (F(0), F(2), F(0), F(1)))  # 2 z^-2 + 1
        v = LaurentWindow(-1, (F(0), F(0), F(3)))  # 3 z, known down to z^-1
        assert u.residue_with(v) == 6

    def test_euler_and_shift(self):
        u = LaurentWindow(-1, (F(4), F(7)))
        assert u.euler().coeffs == (F(-4), F(0))
        assert u.shift(2).lo == 1

    def test_series_window_zero_above_is_its_own_order(self):
        w = LaurentWindow(-1, (BetaSeries.one(3), beta(3)))
        above = w.get(5)
        assert above == BetaSeries.zero(3) and above.d_max == 3


def reference_window_mul(u, v, ring):
    """LaurentWindow.mul as it was when it took the ring for its zero."""
    lo = max(u.lo + v.hi, v.lo + u.hi)
    hi = u.hi + v.hi
    if lo > hi:
        raise OutOfWindowError("window too shallow for LaurentWindow.mul")
    out = [ring.zero()] * (hi - lo + 1)
    for i, a in enumerate(u.coeffs):
        if not a:
            continue
        for k, b in enumerate(v.coeffs):
            e = u.lo + i + v.lo + k
            if lo <= e <= hi and b:
                out[e - lo] = out[e - lo] + a * b
    return LaurentWindow(lo, tuple(out))


def random_series_window(rng, d):
    return LaurentWindow(rng.randint(-6, 1), tuple(
        BetaSeries(random_coeffs(rng, d)) for _ in range(rng.randint(1, 6))))


def test_series_window_mul_and_residue_match_ring_reference():
    rng = random.Random(13)
    multiplied = residues = 0
    for _ in range(300):
        d = rng.randint(0, 4)
        ring = BRing(d)
        u, v = random_series_window(rng, d), random_series_window(rng, d)
        try:
            want = reference_window_mul(u, v, ring)
        except OutOfWindowError:
            with pytest.raises(OutOfWindowError):
                u.mul(v)
            continue
        assert u.mul(v) == want
        multiplied += 1
        if want.lo <= -1:
            got = u.residue_with(v)
            assert got == (want.coeffs[-1 - want.lo] if want.hi >= -1 else ring.zero())
            assert got.d_max == d
            residues += 1
    assert multiplied > 50 and residues > 20
