"""The benchmark's workloads: seed -> job, pinned result digests, the verify sweep.

A job is a dict.  CLI jobs carry the argv handed to ``hurwitztau.cli`` and
the digest its ``result`` must have; the sweep job carries its parameters.

Run as a script, ``python3 bench/workloads.py sweep '<params json>'`` runs the
verify sweep in this interpreter and prints its report as one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction as F

WORKLOADS = ("table", "connected", "kp", "verify_sweep")

# The CLI jobs use the exp family for every seed: at N 8 the belyi and
# quantum(1/2) tables cost about 22 % and 15 % less than exp, so drawing the
# family from the seed would put that draw into the run-to-run spread.
CLI_ARGS = {
    "table": ["hurwitz", "--family", "exp", "--N", "8", "--dmax", "4"],
    "connected": ["hurwitz", "--family", "exp", "--N", "7", "--dmax", "4", "--connected"],
    "kp": ["tau", "--family", "exp", "--wmax", "8", "--dmax", "3", "--probe", "4"],
}

# SHA-256 of the canonical ``result`` object (see result_digest), recorded at
# the commit that introduced the benchmark.  ``config`` is not hashed, so
# report metadata may change without counting as a failure.
DIGESTS = {
    "table": "a0fc5324f3053a4484393194ca1ac33775a2351318549db0f9d771739badd9c7",
    "connected": "f70f3de6c50499858061f9803c0e1abc05fbc6a3f28165e79306132bdc6b76ea",
    "kp": "46e96f264ba93d80934ace97679ee61ce6674390182a8184d249e91e8c886a82",
}

# Parameter sets of the verify sweep.  Entry 0 is the acceptance suite's own;
# every entry was checked to be non-singular on all sweep windows.
SWEEP_PARAMS = (
    {"q": "1/2", "beta_belyi": "1/21", "beta_c2": "1/23", "gamma5": "1",
     "beta6": "1/21", "gamma6": "2/3", "sigma6": "2", "sigma_series": "1/2"},
    {"q": "1/3", "beta_belyi": "1/25", "beta_c2": "1/27", "gamma5": "2/3",
     "beta6": "1/23", "gamma6": "1/2", "sigma6": "3", "sigma_series": "1/3"},
    {"q": "2/3", "beta_belyi": "1/29", "beta_c2": "1/31", "gamma5": "3/2",
     "beta6": "1/25", "gamma6": "3/4", "sigma6": "3/2", "sigma_series": "2/3"},
    {"q": "1/4", "beta_belyi": "2/43", "beta_c2": "1/22", "gamma5": "1/2",
     "beta6": "1/27", "gamma6": "1", "sigma6": "5/2", "sigma_series": "1/4"},
)


def job_for(workload: str, seed: int) -> dict:
    """The seed draws the sweep's parameter set; seed 0 gives the acceptance one."""
    if workload == "verify_sweep":
        index = 0 if seed == 0 else random.Random(seed).randrange(len(SWEEP_PARAMS))
        return {"kind": "sweep", "params": SWEEP_PARAMS[index]}
    return {"kind": "cli", "argv": CLI_ARGS[workload], "digest": DIGESTS[workload]}


def canonical_digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(report_text: str) -> str:
    """Digest of a CLI report's ``result`` only."""
    return canonical_digest(json.loads(report_text)["result"])


def all_ok(obj) -> bool:
    """False if any nested dict says ``ok: false`` or ``equal: false``."""
    if isinstance(obj, dict):
        if obj.get("ok") is False or obj.get("equal") is False:
            return False
        return all(all_ok(v) for v in obj.values())
    if isinstance(obj, list):
        return all(all_ok(v) for v in obj)
    return True


def run_sweep(params: dict) -> list:
    """Library calls of acceptance criteria 1 and 3-8 in one interpreter."""
    from hurwitztau import adaptedbasis as ab
    from hurwitztau import correlators, cutjoin, hurwitz, taufn
    from hurwitztau.exactalg import BetaSeries, BRing, GradedPoly, QRing
    from hurwitztau.partitions import genus_of
    from hurwitztau.weights import WeightFamily, belyi, exponential, quantum, signed

    p = {k: F(v) for k, v in params.items()}
    c2 = WeightFamily("finite_c", c=(1, F(1, 2)), label="finite_c(1,1/2)")
    route_families = [belyi(), c2, signed(), exponential(), quantum(p["q"])]
    out = []

    def record(check, label, ok, **extra):
        out.append({"check": check, "family": label, "ok": bool(ok), **extra})

    # criterion 1: R1 = R2 = R3
    for fam in route_families:
        rep = hurwitz.verify_routes(fam, n_max=4, d_max=3)
        record("routes", fam.label, rep["ok"], checked=rep.get("checked"))

    # criterion 3: log-tau connected numbers against the oracle, genus parity
    for fam in route_families:
        rep = hurwitz.verify_connected(fam, n_max=3, d_max=3)
        record("connected", fam.label, rep["ok"], checked=rep.get("checked"))
    for fam in (belyi(), exponential()):
        for n in (2, 3, 4):
            entries = hurwitz.connected_table_entries(fam, n, 4)
            ok = all(genus_of(mu, nu, d)[1] for (mu, nu, d) in entries)
            record("connected_parity", fam.label, ok, n=n, entries=len(entries))

    # criterion 4: Hirota residual at w 6, probe 3, and its negative control
    for fam in (exponential(), belyi()):
        residual = taufn.hirota_residual(taufn.build_tau(fam, 6, 4), 3)
        ok = bool(residual) and not any(residual.values())
        record("hirota", fam.label, ok, monomials=len(residual))
    tau = taufn.build_tau(belyi(), 6, 4)
    terms = dict(tau.body.terms)
    terms[((1,), (1,), 1)] = terms[((1,), (1,), 1)] + BetaSeries.one(4)
    corrupted = taufn.TauSeries(tau.family, 6, 4, GradedPoly(terms, 6, 4))
    record("hirota_negative_control", "belyi",
           any(taufn.hirota_residual(corrupted, 3).values()))

    # criterion 5: the adapted-basis suite on the full declared window
    for fam, beta in ((belyi(), p["beta_belyi"]), (c2, p["beta_c2"])):
        b = ab.build_basis(fam, beta, p["gamma5"], s=(beta,), k_range=(-3, 5), depth=-10)
        for check in (ab.pairing_check, ab.ladder_R, ab.kac_schwarz_check,
                      ab.quantum_curve_residual, ab.euler_P, ab.recursion_Q):
            record(f"basis.{check.__name__}", fam.label, check(b)["ok"])
        record("basis.general_Q_cross_check", fam.label, ab.general_Q_cross_check(b, 6)["ok"])

    # criterion 6: kernel routes, CD finite rank, gen_A, h-orthogonality
    beta, gamma, sigma = p["beta6"], p["gamma6"], p["sigma6"]
    win = (-6, -1, -6, 5)
    for fam in (belyi(), c2, signed()):
        b = ab.build_basis(fam, beta, gamma, sigma=(sigma,), k_range=(-8, 8), depth=-16,
                           s=(sigma * beta,))
        k_tau = correlators.K2_via_tau(fam, beta, gamma, (sigma,), win)
        k_bas, _ = correlators.K2_via_basis(b, win)
        record("kernel_routes", fam.label, correlators.kernels_equal(k_tau, k_bas, QRing()))
    sig_s = (p["sigma_series"],)
    b_exp = ab.build_basis(exponential(), None, 1, sigma=sig_s, k_range=(-6, 7), depth=-14,
                           d_max=5)
    k_tau = correlators.K2_via_tau(exponential(), None, 1, sig_s, win, d_max=5)
    k_bas, _ = correlators.K2_via_basis(b_exp, win)
    record("kernel_routes_series", "exponential",
           correlators.kernels_equal(k_tau, k_bas, BRing(5)))
    for c in ((1,), (1, F(1, 2))):
        for sig in ((sigma,), (sigma, F(1, 3))):
            fam = WeightFamily("finite_c", c=c)
            rank = len(sig) * len(c)
            A = correlators.cd_matrix(fam, beta, sig, rank + 3)
            record("cd_finite_rank", fam.label,
                   all(v == 0 for (i, j), v in A.items() if i + j > rank), sigma=len(sig))
    for fam, sig in ((belyi(), (sigma,)), (c2, (sigma, F(1, 3)))):
        A = correlators.cd_matrix(fam, beta, sig, 8)
        G = correlators.gen_A(fam, sig, (8, 8), beta_val=beta)
        record("gen_A", fam.label,
               all(A[(i, j)] == G[(i, j)] for i in range(9) for j in range(9) if i + j <= 8))
        b = ab.build_basis(fam, beta, gamma, sigma=sig, k_range=(-8, 8), depth=-16,
                           s=tuple(x * beta for x in sig))
        record("cd_kernel", fam.label, correlators.cd_kernel(b, (-4, -1, -3, 3))["ok"])
    for s in ((F(1),), (F(1), F(1, 2))):
        record("h_orthogonality", "", correlators.h_orthogonality(s, 3, 12)["ok"], s=len(s))
    record("multipair_two_point", "belyi",
           correlators.multipair_two_point(belyi(), beta, gamma, (sigma,), degree=5)["ok"])

    # criterion 7: cut-and-join
    record("schur_eigen", "", cutjoin.schur_eigen_check(6, 8)["ok"])
    for fam in (belyi(), c2):
        record("reconstruct_tau", fam.label, cutjoin.reconstruct_tau(fam, 5, 4)["ok"])
        record("pde", fam.label, cutjoin.pde_check(fam, 4, 3)["ok"])
        record("single_rep", fam.label, cutjoin.build_Vk_and_single_rep(fam, 3)["ok"])
    record("pde", "exponential", cutjoin.pde_check(exponential(), 4, 3)["ok"])
    index = cutjoin.resolve_exponential_index(3, 3)["matching_index"]
    record("exponential_index", "exponential", index == [1], index=index)

    # criterion 8: W = dF
    for fam in (exponential(), belyi()):
        for args, kw in (((1, 3, 5, 3), {}), ((2, 3, 6, 3), {}),
                         ((2, 2, 5, 3), {"connected": True}),
                         ((2, 2, 5, 3), {"connected": True, "genus": 0})):
            rep = taufn.check_W_equals_dF(fam, *args, **kw)
            record("W_equals_dF", fam.label, rep["equal"], args=list(args), **kw)
    return out


if __name__ == "__main__":
    if sys.argv[1:2] != ["sweep"] or len(sys.argv) != 3:
        sys.exit("usage: workloads.py sweep '<params json>'")
    print(json.dumps(run_sweep(json.loads(sys.argv[2])), sort_keys=True))
