import random
from fractions import Fraction

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
        ring = QRing()
        w = LaurentWindow(-2, (F(5), F(1), F(2)))  # 5 z^-2 + z^-1 + 2
        assert w.get(3, ring) == 0
        assert w.get(-2, ring) == 5
        with pytest.raises(OutOfWindowError):
            w.get(-3, ring)

    def test_mul_tracks_valid_window(self):
        ring = QRing()
        u = LaurentWindow(-2, (F(1), F(1), F(1)))  # z^-2 + z^-1 + 1, unknown below -2
        v = LaurentWindow(-1, (F(1), F(1)))  # z^-1 + 1
        prod = u.mul(v, ring)
        # valid from max(-2 + 0, -1 + 0) = -1
        assert prod.lo == -1
        assert prod.get(0, ring) == 1
        assert prod.get(-1, ring) == 2

    def test_residue_pairing(self):
        ring = QRing()
        u = LaurentWindow(-3, (F(0), F(2), F(0), F(1)))  # 2 z^-2 + 1
        v = LaurentWindow(-1, (F(0), F(0), F(3)))  # 3 z, known down to z^-1
        assert u.residue_with(v, ring) == 6

    def test_euler_and_shift(self):
        ring = QRing()
        u = LaurentWindow(-1, (F(4), F(7)))
        assert u.euler(ring).coeffs == (F(-4), F(0))
        assert u.shift(2).lo == 1
