from fractions import Fraction

import pytest

from hurwitztau import hurwitz
from hurwitztau.errors import DomainError, ResourceError
from hurwitztau.exactalg import BetaSeries
from hurwitztau.hurwitz import (
    H_connected_via_oracle,
    H_via_characters,
    H_via_paths,
    H_via_profiles,
    build_table,
    connected_table_entries,
    verify_connected,
    verify_routes,
)
from hurwitztau.partitions import Partition, enumerate_partitions, genus_of
from hurwitztau.weights import WeightFamily, belyi, exponential, quantum, signed

F = Fraction

ROUTE_FAMILIES = [
    belyi(),
    WeightFamily("finite_c", c=(1, F(1, 2)), label="finite_c(1,1/2)"),
    signed(),
    exponential(),
    quantum(F(1, 2)),
]


def test_d0_calibration():
    for fam in ROUTE_FAMILIES:
        for n in range(1, 6):
            for mu in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    series = H_via_characters(fam, mu, nu, 0)
                    want = F(1, mu.z_order()) if mu == nu else F(0)
                    assert series[0] == want


def test_exponential_benchmark_values():
    series = H_via_characters(exponential(), Partition((2,)), Partition((1, 1)), 3)
    assert series[1] == F(1, 2)
    assert series[2] == 0
    assert series[3] == F(1, 12)


def test_belyi_benchmark_values():
    series = H_via_characters(belyi(), Partition((2,)), Partition((1, 1)), 4)
    assert series[1] == F(1, 2)
    assert all(series[d] == 0 for d in (2, 3, 4))


def test_weight_mismatch_zero_series():
    series = H_via_characters(belyi(), Partition((2,)), Partition((1, 1, 1)), 3)
    assert series == BetaSeries.zero(3)
    assert H_via_profiles(belyi(), Partition((2,)), Partition((3,)), 1) == 0
    assert H_via_paths(belyi(), Partition((2,)), Partition((3,)), 1) == 0


def test_profiles_oracle_examples():
    mu, nu = Partition((2,)), Partition((1, 1))
    assert H_via_profiles(exponential(), mu, nu, 1) == F(1, 2)
    assert H_via_paths(belyi(), mu, nu, 1) == F(1, 2)


@pytest.mark.parametrize("fam", ROUTE_FAMILIES, ids=lambda f: f.label)
def test_route_equivalence(fam):
    report = verify_routes(fam, n_max=4, d_max=3)
    assert report["ok"], report


def test_symmetry_in_mu_nu():
    for fam in (belyi(), exponential()):
        for n in (2, 3, 4):
            parts = enumerate_partitions(n)
            for mu in parts:
                for nu in parts:
                    assert H_via_characters(fam, mu, nu, 3) == H_via_characters(
                        fam, nu, mu, 3
                    )


def test_exact_rationality_everywhere():
    fam = WeightFamily("finite_c", c=(F(2, 3), F(1, 5)))
    table = build_table(fam, 4, 3)
    assert all(isinstance(v, F) for v in table.values())


def test_single_sheet_connected_equals_disconnected():
    entries = connected_table_entries(exponential(), 1, 3)
    one = Partition((1,))
    series = H_via_characters(exponential(), one, one, 3)
    for d in range(4):
        assert entries.get((one, one, d), F(0)) == series[d]


def test_connected_two_sheets():
    entries = connected_table_entries(exponential(), 2, 3)
    assert entries[(Partition((2,)), Partition((1, 1)), 1)] == F(1, 2)
    oracle = H_connected_via_oracle(exponential(), Partition((2,)), Partition((1, 1)), 1)
    assert oracle == F(1, 2)


@pytest.mark.parametrize("fam", ROUTE_FAMILIES, ids=lambda f: f.label)
def test_connected_consistency(fam):
    report = verify_connected(fam, n_max=3, d_max=3)
    assert report["ok"], report


def test_verify_connected_logs_tau_once(monkeypatch):
    # the weight-N coefficients of log tau read only tau terms of weight <= N,
    # so one log tau at n_max serves every N
    weights = []

    def spy(family, N, d_max):
        weights.append(N)
        return connected_table_entries(family, N, d_max)

    monkeypatch.setattr(hurwitz, "connected_table_entries", spy)
    assert verify_connected(exponential(), 3, 3)["ok"]
    assert weights == [3]


def _off_by_one_at(route, key):
    """route(family, mu, nu, d), plus 1 at the one key (mu, nu, d)."""
    def perturbed(family, mu, nu, d):
        return route(family, mu, nu, d) + ((mu, nu, d) == key)

    return perturbed


def test_verify_routes_reports_a_perturbed_route(monkeypatch):
    # negative control: one wrong R3 value fails the check at its key, with
    # every route's value there
    fam, mu, nu = exponential(), Partition((2, 1)), Partition((3,))
    monkeypatch.setattr(hurwitz, "H_via_paths", _off_by_one_at(H_via_paths, (mu, nu, 3)))
    want = H_via_characters(fam, mu, nu, 3)[3]
    assert verify_routes(fam, n_max=3, d_max=3) == {
        "ok": False, "family": fam.label, "n_max": 3, "d_max": 3,
        "mu": (2, 1), "nu": (3,), "d": 3,
        "profiles": str(want), "paths": str(want + 1), "characters": str(want), "tau": str(want),
    }


def test_verify_connected_reports_a_perturbed_oracle(monkeypatch):
    fam, mu, nu = exponential(), Partition((2, 1)), Partition((3,))
    monkeypatch.setattr(hurwitz, "H_connected_via_oracle",
                        _off_by_one_at(H_connected_via_oracle, (mu, nu, 1)))
    want = connected_table_entries(fam, 3, 3)[(mu, nu, 1)]
    assert verify_connected(fam, n_max=3, d_max=3) == {
        "ok": False, "family": fam.label, "mu": (2, 1), "nu": (3,), "d": 1,
        "log_tau": str(want), "oracle": str(want + 1),
    }


def test_verify_connected_fails_a_nonzero_inadmissible_genus(monkeypatch):
    two = Partition((2,))
    assert not genus_of(two, two, 1)[1]  # genus 1/2

    def planted(family, N, d_max):
        return {**connected_table_entries(family, N, d_max), (two, two, 1): F(1)}

    monkeypatch.setattr(hurwitz, "connected_table_entries", planted)
    report = verify_connected(exponential(), n_max=3, d_max=3)
    assert report["ok"] is False
    assert report["reason"] == "inadmissible genus with nonzero entry"
    assert (report["mu"], report["nu"], report["d"], report["genus"]) == ((2,), (2,), 1, "1/2")


def _negative_window_cases():
    from hurwitztau import correlators, cutjoin, partitions, taufn

    fam = belyi()
    refused = {
        "partitions_up_to": lambda: partitions.partitions_up_to(-1),
        "build_tau": lambda: taufn.build_tau(fam, -1, 2),
        "build_table": lambda: build_table(fam, -1, 2),
        "connected_table_entries": lambda: connected_table_entries(fam, -1, 2),
        "pde_check": lambda: cutjoin.pde_check(fam, -1, 2),
        "reconstruct_tau": lambda: cutjoin.reconstruct_tau(fam, -1, 2),
        "schur_eigen_check": lambda: cutjoin.schur_eigen_check(-1, 2),
        "multipair_two_point": lambda: correlators.multipair_two_point(
            fam, F(1, 21), F(2, 3), (F(2),), degree=-1),
    }
    cases = [pytest.param(call, DomainError, id=name) for name, call in refused.items()]
    for n_max in (0, -1):
        vacuous = {"ok": True, "family": fam.label, "checked": 0}
        cases.append(pytest.param(lambda n_max=n_max: verify_connected(fam, n_max, 3),
                                  vacuous, id=f"verify_connected-n_max{n_max}"))
    return cases


@pytest.mark.parametrize("call,expected", _negative_window_cases())
def test_negative_window(call, expected):
    # a negative weight window is refused as outside the domain, not with an
    # IndexError; verify_connected checks nothing below n_max 1
    if expected is DomainError:
        with pytest.raises(DomainError, match="cannot partition a negative integer"):
            call()
    else:
        assert call() == expected


def test_connected_parity_vanishing():
    for fam in (belyi(), exponential()):
        for n in (2, 3, 4):
            entries = connected_table_entries(fam, n, 4)
            for (mu, nu, d), value in entries.items():
                g, admissible = genus_of(mu, nu, d)
                assert admissible, (mu, nu, d, value, g)


def test_build_table_refuses_large_N_before_enumerating(monkeypatch):
    # p(80) is about 1.6 * 10^7: the cap must be checked before any partition is listed
    def refuse(N):
        raise AssertionError(f"enumerate_partitions({N}) ran")

    monkeypatch.setattr(hurwitz, "enumerate_partitions", refuse)
    with pytest.raises(ResourceError, match="N=80 > 10"):
        build_table(exponential(), 80, 1)
