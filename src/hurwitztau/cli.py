"""Command-line front end: configure a weight family and truncations, run the
computations and verification suites, emit tables and machine-readable reports.

Exit codes: 0 success, 1 configuration error, 2 resource/budget error,
3 verification failure (any check in the requested suite came back false).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import __version__, adaptedbasis, correlators, cutjoin, hurwitz, taufn
from .errors import ConfigurationError, HurwitzTauError, ResourceError
from .exactalg import BetaSeries, exp_weight
from .partitions import enumerate_partitions
from .symfun import support
from .weights import WeightFamily, belyi, exponential, quantum, r_factor, signed

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RESOURCE = 2
EXIT_VERIFY = 3

# Flags that choose how a report is written, not what it computes: left out of
# the report's config and of its config_hash.
OUTPUT_FLAGS = ("format", "out", "config")

# Every beta-series holds d_max + 1 coefficients and a product of two costs
# (d_max + 1)^2, so a huge --dmax would allocate and multiply without end: at
# 64, ``basis --family exp --beta series --sigma 1/2`` takes 19-25 s on a
# 2-core machine.  The quantum family's series are far larger at the same
# order, which every work budget weighs (_g_bits).
DMAX_CAP = 64

# (minimum, cap) of each integer flag, per command, checked after the config
# file is merged and before any compute: every minimum (exit 1), then every cap
# (exit 2).  Below its minimum a run would be empty or vacuous (None: no such
# value): Q_1 and Q_2 act only from weight 2, at weight 0 tau is the constant 1,
# and cut-and-join needs beta, which d_max 0 cannot represent.  The cap bounds
# the flag's magnitude, since a run's cost grows without bound in each flag.
# Each cost is one run at the cap (or as named) with every other flag at its
# default, on a 2-core machine.
FLAG_BOUNDS = {
    # N: ``hurwitz --N 10 --dmax 3`` takes 4 s; the character route sums over
    # the p(N) partitions of N for each of the p(N)^2 pairs
    "hurwitz": {"N": (0, hurwitz.CHAR_TABLE_N_CAP), "dmax": (0, DMAX_CAP)},
    # wmax: ``tau --wmax 12 --dmax 3`` takes 2.0 s (22 s with ``--family exp
    # --dmax 64``); probe: ``--wmax 10 --probe 5`` takes 6.2 s and ``--wmax 12
    # --dmax 3 --probe 5`` 7.7 s, while ``--wmax 12 --probe 6`` ran past 60 s
    "tau": {"wmax": (1, 12), "probe": (0, 5), "dmax": (0, DMAX_CAP)},
    # ``--beta 1/1001 --s 1/1001`` at ``--k-hi 40`` takes 5.3 s (over 100 s at
    # 100) and at ``--depth -100`` 0.34 s (1.6 s at -200)
    "basis": {"k_lo": (None, 40), "k_hi": (None, 40), "depth": (None, 100),
              "dmax": (0, DMAX_CAP)},
    # each entry of zlo,zhi,wlo,whi: ``--window=-40,-1,-40,40`` takes 4.4 s at
    # ``--beta 1/1001 --s 1/1001`` and 4.3 s with ``--family exp --beta series
    # --sigma 1/2``
    "kernel": {"window": (None, 40), "dmax": (0, DMAX_CAP)},
    # ``cutjoin --wmax 10`` takes 3.6 s, and the cost doubles with each weight
    "cutjoin": {"wmax": (2, 10), "dmax": (1, DMAX_CAP)},
}


def _partition_terms(n_max: int, power: int) -> int:
    """sum over n <= n_max of p(n)^power."""
    return sum(len(enumerate_partitions(n)) ** power for n in range(n_max + 1))


def _g_bits(family: WeightFamily, dmax: int) -> int:
    """The size of G(beta) to order dmax: the bits of its numerators and common
    denominator.  G(beta) is formed here, in 0.01 s for quantum(1/2) at order
    64, but in seconds for a q of many digits (1.0-1.2 s at q = 10^-9)."""
    g = r_factor(family, 1, dmax)
    return sum(n.bit_length() for n in (*g.nums, g.den))


def _series_weight(args) -> int:
    """1 at a rational beta.  In series mode, every scalar is a beta-series
    whose product costs about (dmax + 1) (bits + 500) / 7500 times a rational
    one, bits = _g_bits."""
    if args.beta != "series":
        return 1
    return max(1, (args.dmax + 1) * (_g_bits(make_family(args), args.dmax) + 500) // 7500)


def _g_weighted(args, work: int) -> int:
    """work times G(beta)'s size relative to exp's at the same order, if that
    is above 1: the beta-series products of hurwitz, tau and cutjoin cost about
    as much more as their coefficients have bits.  At q = 1 - 10^-9 and order
    40, quantum's G(beta) holds 254 times exp's bits."""
    bits = _g_bits(make_family(args), args.dmax)
    return max(work, work * bits // _g_bits(exponential(), args.dmax))


def _window_work(k_lo: int, k_hi: int, depth: int) -> int:
    """The basis window's length times its k-count, times the length again
    plus |depth|: the pairing multiplies windows pairwise, and the coefficients
    grow with the depth, since w_k reads rho_{-j-1} down to j = depth."""
    length = max(k_hi - depth, 0)
    return length * max(k_hi - k_lo + 1, 0) * (length + abs(depth))


_SERIES_WEIGHT = ("with S = 1 at a rational beta, "
                  "else max(1, (dmax+1) (bits(G(beta)) + 500) // 7500)")
_G_WEIGHT = "G = max(1, bits(G(beta)) / bits(exp's G(beta))) to order dmax"

# Flags within their caps still multiply, so a run is also refused by its
# predicted work, after every cap and before any compute (exit 2): command ->
# (predict(args), its formula, budget).  Partition terms times (dmax + 1)^2, one
# beta-series product: the character route sums the p(n) partitions of n for
# each of the p(n)^2 pairs, tau holds sum p(n)^2 terms, and the Hirota residual
# multiplies every pair of the R terms of t-weight <= probe + 1, each weighed by
# the size of G(beta) (_g_weighted).  basis and kernel weigh their basis window
# (_window_work) by the cost of a scalar (_series_weight).  Each budget admits
# every run costed above.
WORK_BUDGETS = {
    # exp ``--N 10 --dmax 12`` (19,764,043) takes 10 s, ``--N 10 --dmax 64`` over 150 s
    "hurwitz": (lambda a: _g_weighted(a, _partition_terms(a.N, 3) * (a.dmax + 1) ** 2),
                "sum_{n<=N} p(n)^3 (dmax+1)^2 G, " + _G_WEIGHT, 20_000_000),
    # exp ``--wmax 12 --dmax 64`` (53,437,800) takes 22 s and ``--wmax 12 --dmax 24
    # --probe 5`` (35,467,500) 19 s; ``--dmax 32 --probe 5`` (61,798,572) 22 s,
    # ``--dmax 64 --probe 3`` (60,197,800) 26 s and ``--dmax 64 --probe 5`` 45 s
    "tau": (lambda a: _g_weighted(a, (_partition_terms(a.wmax, 2)
                                      + (_partition_terms(a.probe + 1, 2) if a.probe else 0) ** 2)
                                  * (a.dmax + 1) ** 2),
            "(sum_{n<=wmax} p(n)^2 + R^2) (dmax+1)^2 G, R = sum_{n<=probe+1} p(n)^2 "
            "(0 at probe 0), " + _G_WEIGHT, 60_000_000),
    # at beta = s = 1/1001, ``--k-hi 40`` (132,000) takes 5.3 s, ``--depth -100``
    # (193,725) 0.34 s, ``--depth -100 --k-hi 12`` (379,904) 0.68 s and ``--depth
    # -100 --k-lo -10 --k-hi 10`` (485,100) 1.05 s; at ``--beta series --sigma 1/2
    # --dmax 64``, exp (344,250) takes 20-24 s and quantum(1/2) (2,689,875) over 150 s
    "basis": (lambda a: _window_work(a.k_lo, a.k_hi, a.depth) * _series_weight(a),
              "(k_hi - depth) (k_hi - k_lo + 1) (k_hi - depth + |depth|) S, " + _SERIES_WEIGHT,
              379_904),
    # over the basis window of _kernel_basis_window: ``--window=-40,-1,-40,40``
    # (850,750) takes 4.4 s at beta = s = 1/1001 and 4.3 s at exp ``--beta series
    # --sigma 1/2``, 11.5 s there at ``--dmax 16`` (1,701,500); exp at ``--dmax 64``
    # takes 6.6 s at ``--window=-10,-1,-10,10`` (1,806,420), 21 s at
    # ``--window=-20,-1,-20,20`` (11,973,780) and ran past 90 s at -40 (86,776,500)
    "kernel": (lambda a: _window_work(*_kernel_basis_window(a)) * _series_weight(a),
               "(k_hi - depth) (k_hi - k_lo + 1) (k_hi - depth + |depth|) S over the basis "
               "window the kernel reads, " + _SERIES_WEIGHT, 2_000_000),
    # ``--wmax 10 --dmax 10`` (433,543) takes 17 s, ``--wmax 10 --dmax 64`` over 90 s
    "cutjoin": (lambda a: _g_weighted(a, _partition_terms(a.wmax, 2) * (a.dmax + 1) ** 2),
                "sum_{n<=wmax} p(n)^2 (dmax+1)^2 G, " + _G_WEIGHT, 500_000),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config errors exit 1, not argparse's default 2
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"not a rational: {text!r}") from exc


def _fraction_list(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(_fraction(part) for part in text.split(","))


def make_family(args) -> WeightFamily:
    name = args.family
    if name == "belyi":
        return belyi()
    if name == "exp":
        return exponential()
    if name == "signed":
        return signed()
    if name == "quantum":
        if args.q is None:
            raise ConfigurationError("--family quantum needs --q")
        return quantum(_fraction(args.q))
    if name == "finite":
        return WeightFamily("finite_c", c=_fraction_list(args.c or ""))
    if name == "dual":
        return WeightFamily("dual_finite_c", c=_fraction_list(args.c or ""))
    raise ConfigurationError(f"unknown family {name!r}")


def serialize(obj):
    """JSON-ready form: rationals as 'p/q' strings, exponent keys as arrays.
    A type with no form here raises TypeError rather than reach a report."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, BetaSeries):
        return {"beta_series": [str(c) for c in obj.coeffs]}
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj):
            return {k: serialize(v) for k, v in obj.items()}
        return [
            {"key": serialize(k), "value": serialize(v)}
            for k, v in sorted(obj.items(), key=lambda kv: json.dumps(serialize(kv[0])))
        ]
    if isinstance(obj, correlators.KernelWindow):  # a tuple: before the list branch
        return {"window": [obj.zlo, obj.zhi, obj.wlo, obj.whi], "cells": serialize(obj.cells)}
    if isinstance(obj, (list, tuple)):
        return [serialize(x) for x in obj]
    if obj is None or isinstance(obj, (int, str)):  # bool is an int
        return obj
    raise TypeError(f"cannot serialize a {type(obj).__name__}")


def emit(args, result: dict) -> None:
    """Write the report: the run's config (every flag of the subcommand but the
    output flags, and the library version), its hash and the result."""
    config = {"command": args.command, "version": __version__}
    config.update((dest, getattr(args, dest)) for dest in args.config_flags)
    payload = {
        "config": config,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest(),
        "result": serialize(result),
    }
    if args.format == "csv":
        text = _to_csv(result)
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _write_atomic(path: str, text: str) -> None:
    """Write a regular file through a temporary file beside it and os.replace,
    so that a killed or failed run never leaves a partial report.  A symlink is
    followed; a pipe or device is written directly, since it cannot be replaced."""
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return
        target = os.path.realpath(path)
        tmp = f"{target}.{os.getpid()}.tmp"
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigurationError(f"cannot write --out {path}: {exc.strerror}") from exc


def _to_csv(result: dict) -> str:
    lines = []
    if "entries" in result:
        lines.append("mu,nu,d,value,connected")
        # connected-only entries (no disconnected value) follow the table rows
        for row in result["entries"] + result.get("connected_only_entries", []):
            mu = " ".join(str(p) for p in row["mu"])
            nu = " ".join(str(p) for p in row["nu"])
            lines.append(
                f"{mu},{nu},{row['d']},{row.get('value', '')},{row.get('connected', '')}"
            )
    else:
        lines.append("check,ok")
        for key, value in sorted(result.items()):
            if isinstance(value, dict) and "ok" in value:
                lines.append(f"{key},{value['ok']}")
            elif isinstance(value, bool):
                lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def _report_ok(result) -> bool:
    if isinstance(result, dict):
        if result.get("ok") is False or result.get("equal") is False:
            return False
        return all(_report_ok(v) for k, v in result.items() if isinstance(v, (dict, list)))
    if isinstance(result, list):
        return all(_report_ok(v) for v in result)
    return True


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_hurwitz(args) -> dict:
    family = make_family(args)
    table = hurwitz.build_table(family, args.N, args.dmax)
    connected = (
        hurwitz.connected_table_entries(family, args.N, args.dmax) if args.connected else {}
    )

    rows = []
    for (mu, nu, d), value in sorted(table.items()):  # keys are unique: sorted by (mu, nu, d)
        row = {"mu": list(mu.parts), "nu": list(nu.parts), "d": d, "value": str(value)}
        if (mu, nu, d) in connected:
            row["connected"] = str(connected[(mu, nu, d)])
        rows.append(row)
    result = {"route": "characters", "entries": rows}
    if args.connected:
        result["connected_only_entries"] = [
            {"mu": list(mu.parts), "nu": list(nu.parts), "d": d, "connected": str(value)}
            for (mu, nu, d), value in sorted(connected.items())
            if (mu, nu, d) not in table
        ]
    if args.verify_routes:
        result["route_verification"] = hurwitz.verify_routes(
            family, n_max=min(args.N, 4), d_max=min(args.dmax, 3)
        )
    return result


def cmd_tau(args) -> dict:
    family = make_family(args)
    tau = taufn.build_tau(family, args.wmax, args.dmax)
    grades_ok = all(exp_weight(t) == exp_weight(s) == g for (t, s, g) in tau.body.terms)
    result = {
        "constant_term_is_one": tau.body.constant_term() == BetaSeries.one(args.dmax),
        "grade_consistency": {"ok": grades_ok},
        "terms": dict(sorted(tau.body.terms.items())),
    }
    if args.probe:
        residual = taufn.hirota_residual(tau, args.probe)
        nonzero = [k for k, v in residual.items() if v]
        result["hirota"] = {
            "ok": not nonzero,
            "probe_degree": args.probe,
            "monomials_checked": len(residual),
            "first_counterexample": serialize(nonzero[0]) if nonzero else None,
        }
    return result


def _basis_params(args) -> tuple:
    """(beta, gamma, sigma) from --beta --gamma --s --sigma: beta is None in
    series mode, and sigma is --sigma or s/beta (adaptedbasis.basis_sigma)."""
    beta = None if args.beta == "series" else _fraction(args.beta)
    sigma = _fraction_list(args.sigma) if args.sigma else None
    s = _fraction_list(args.s)
    return beta, _fraction(args.gamma), adaptedbasis.basis_sigma(beta, s, sigma)


def cmd_basis(args) -> dict:
    family = make_family(args)
    beta, gamma, sigma = _basis_params(args)
    b = adaptedbasis.build_basis(
        family, beta, gamma, k_range=(args.k_lo, args.k_hi), depth=args.depth,
        sigma=sigma, d_max=args.dmax,
    )
    # first: it raises where a = R^{-1} divides by a vanishing gamma G(-beta j),
    # so such a window exits before the slower checks run
    kac_schwarz = adaptedbasis.kac_schwarz_check(b)
    euler = adaptedbasis.euler_P(b)
    result = {
        "window": {"k_lo": b.k_lo, "k_hi": b.k_hi, "depth": b.depth},
        "pairing": adaptedbasis.pairing_check(b),
        "ladder": adaptedbasis.ladder_R(b),
        "kac_schwarz": kac_schwarz,
        "quantum_curve": adaptedbasis.quantum_curve_residual(b),
        "euler": {k: v for k, v in euler.items() if k in ("ok", "checks", "failures")},
        "euler_matrices": {"Pt+": euler["Pt+"], "Pt-": euler["Pt-"]},
    }
    if family.degree is not None:
        rq = adaptedbasis.recursion_Q(b)
        result["recursion_Q"] = {
            k: v for k, v in rq.items() if k in ("ok", "checks", "failures", "band")
        }
        result["recursion_matrices"] = {"Q+": rq["Q+"], "Q-": rq["Q-"]}
        result["general_Q_cross_check"] = adaptedbasis.general_Q_cross_check(b, 6)
    return result


def _kernel_window(text: str) -> tuple:
    """--window zlo,zhi,wlo,whi as four integers, refused if the window is empty."""
    try:
        window = tuple(int(x) for x in text.split(","))
    except ValueError:
        window = ()
    if len(window) != 4:
        raise ConfigurationError(f"--window needs four integers zlo,zhi,wlo,whi, got {text!r}")
    if window[0] > window[1] or window[2] > window[3]:
        raise ConfigurationError(
            f"--window {text!r} is empty: needs zlo <= zhi and wlo <= whi"
        )
    return window


def _kernel_basis_window(args) -> tuple:
    """(k_lo, k_hi, depth) of the basis that --window reads: w_j and w*_{1-j}
    for 1 <= j <= -zlo, below every exponent of the window."""
    zlo, _, wlo, _ = _kernel_window(args.window)
    k_lo = min(0, 1 + zlo) - 1
    if args.check_finiteness:
        # the CD check reads w*_k down to k = 1 - LM, which the window alone may not reach
        k_lo = min(k_lo, 1 - adaptedbasis.q_band(make_family(args), _basis_params(args)[2]))
    return k_lo, max(1, -zlo) + 1, min(zlo, wlo, 0, k_lo + 1) - 2


def cmd_kernel(args) -> dict:
    family = make_family(args)
    beta, gamma, sigma = _basis_params(args)
    window = _kernel_window(args.window)
    k_lo, k_hi, depth = _kernel_basis_window(args)
    b = adaptedbasis.build_basis(
        family, beta, gamma, sigma=sigma, k_range=(k_lo, k_hi), depth=depth,
        d_max=args.dmax,
    )
    k_tau = correlators.K2_via_tau(family, beta, gamma, b.sigma, window, d_max=args.dmax)
    k_bas, info = correlators.K2_via_basis(b, window)
    result = {
        "kernel_routes_equal": {
            "ok": correlators.kernels_equal(k_tau, k_bas, b.ring),
            "j_cutoff": info["j_cutoff"],
        },
        "kernel": k_tau,
    }
    if args.check_finiteness:
        # the window clamped into z in [-4, -1], w in [-3, 3], so never empty
        wlo, whi = (min(max(x, -3), 3) for x in window[2:])
        rank_window = (min(max(window[0], -4), -1), -1, wlo, whi)
        cd = correlators.cd_kernel(b, rank_window)
        result["cd"] = {k: cd[k] for k in
                        ("ok", "rank", "finiteness_failures", "identity_failures")}
        gen = correlators.gen_A(family, b.sigma, (6, 6), beta_val=beta, d_max=args.dmax)
        A = correlators.cd_matrix(family, beta, b.sigma, 6, d_max=args.dmax)
        result["gen_A_matches"] = {
            "ok": all(gen[(i, j)] == A[(i, j)] for i in range(7) for j in range(7))
        }
        result["h_orthogonality"] = {"ok": correlators.h_orthogonality(b.sigma, 3, 12)["ok"]}
    return result


def cmd_curve(args) -> dict:
    return adaptedbasis.classical_curve(
        make_family(args), _fraction_list(args.s), _fraction(args.gamma)
    )


def cmd_cutjoin(args) -> dict:
    family = make_family(args)
    M = family.degree
    # the single-Hurwitz check runs at beta-order M * w, like a --dmax of that size
    rep_w = min(args.wmax, 3)
    if M is not None and M * rep_w > DMAX_CAP:
        raise ResourceError(
            f"--c cap exceeded: {M} entries need single-Hurwitz beta-order "
            f"{M * rep_w} > {DMAX_CAP}"
        )
    result = {
        "eigen": cutjoin.schur_eigen_check(min(args.wmax + 2, 6), 8),
        "reconstruction": cutjoin.reconstruct_tau(family, args.wmax, args.dmax),
        "pde": cutjoin.pde_check(family, args.wmax, args.dmax),
    }
    if M is not None:
        result["single_hurwitz_rep"] = cutjoin.build_Vk_and_single_rep(family, rep_w)
    if args.resolve_index:
        result["exponential_index"] = cutjoin.resolve_exponential_index(3, 3)
    return result


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="hurwitztau", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--family", default="belyi",
                       choices=["belyi", "exp", "signed", "quantum", "finite", "dual"])
        p.add_argument("--c", default=None, help="comma-separated rational c-list for finite/dual")
        p.add_argument("--q", default=None, help="rational q for the quantum family")
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")
        p.add_argument("--config", help="JSON file with defaults; flags override")

    def basis_params(p):  # the adapted basis of basis and kernel: one of --s, --sigma
        p.add_argument("--beta", default="1/21")
        p.add_argument("--gamma", default="1")
        s_or_sigma = p.add_mutually_exclusive_group()
        s_or_sigma.add_argument("--s", default="1/21")
        s_or_sigma.add_argument("--sigma", default=None,
                                help="series mode: sigma = s/beta directly")

    p = sub.add_parser("hurwitz", help="weighted Hurwitz number tables")
    common(p)
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--connected", action="store_true", default=False)
    p.add_argument("--verify-routes", action="store_true", dest="verify_routes", default=False)
    p.set_defaults(func=cmd_hurwitz)

    p = sub.add_parser("tau", help="build the tau-series and run its invariants")
    common(p)
    p.add_argument("--wmax", type=int, default=4)
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--probe", type=int, default=0, help="Hirota probe degree (0 = skip)")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("basis", help="adapted-basis verification suite")
    common(p)
    basis_params(p)
    p.add_argument("--k-lo", type=int, default=-3, dest="k_lo")
    p.add_argument("--k-hi", type=int, default=5, dest="k_hi")
    p.add_argument("--depth", type=int, default=-10)
    p.add_argument("--dmax", type=int, default=4)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("kernel", help="pair correlator and Christoffel-Darboux suite")
    common(p)
    basis_params(p)
    p.add_argument("--window", default="-5,-1,-4,4")
    p.add_argument("--dmax", type=int, default=4)
    p.add_argument("--check-finiteness", action="store_true")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("curve", help="classical spectral curve")
    common(p)
    p.add_argument("--gamma", default="1")
    p.add_argument("--s", default="1")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("cutjoin", help="cut-and-join operator suite")
    common(p)
    p.add_argument("--wmax", type=int, default=4)
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--resolve-index", action="store_true", dest="resolve_index", default=False)
    p.set_defaults(func=cmd_cutjoin)
    return parser


def _check_config_value(key: str, value, action) -> None:
    """A config value must have the type its flag parses to, and be one of its choices."""
    if action.nargs == 0:
        expected = bool
    elif action.type is int:
        expected = int
    else:
        expected = str
    if type(value) is not expected:
        raise ConfigurationError(
            f"config key {key!r} needs a JSON {expected.__name__}, got {value!r}"
        )
    if action.choices is not None and value not in action.choices:
        raise ConfigurationError(
            f"config key {key!r} must be one of {', '.join(action.choices)}, got {value!r}"
        )


def _read_config_file(path: str, actions: dict, groups: list, given: set) -> dict:
    """The file's JSON object as flag defaults, each checked against its flag,
    with at most one flag of each mutually exclusive group in the file and the
    command line's flags (dests ``given``) together."""
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    defaults = {}
    for key, value in values.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ConfigurationError(f"unknown config key {key!r}")
        _check_config_value(key, value, actions[dest])
        defaults[dest] = value
    for group in groups:
        in_file = [a.dest for a in group._group_actions if a.dest in defaults]
        if len(in_file) > 1:
            raise ConfigurationError(
                f"config keys {' and '.join(map(repr, in_file))} cannot be given together"
            )
        for a in group._group_actions:
            if in_file and a.dest in given and a.dest not in in_file:
                raise ConfigurationError(
                    f"config key {in_file[0]!r} cannot be given with {a.option_strings[0]}"
                )
    return defaults


def _given_on_command_line(parser, argv, command) -> set:
    """The dests argv gives: argv parsed again with the command's defaults
    suppressed, so that only the flags it gives are set."""
    defaults = {a: a.default for a in command._actions}
    for a in defaults:
        a.default = argparse.SUPPRESS
    try:
        return set(vars(parser.parse_args(argv)))
    finally:
        for a, default in defaults.items():
            a.default = default


def _check_relations(args) -> None:
    """The flags that need one another, each a config error: the family's
    flags (make_family), and per command the flags that bound each other."""
    family = make_family(args)
    if args.command == "hurwitz" and args.verify_routes and args.N < 1:
        # at N 0 the routes share no entry to compare
        raise ConfigurationError(f"hurwitz --verify-routes needs --N >= 1, got {args.N}")
    if args.command == "tau" and args.probe and args.wmax < 2 * args.probe:
        raise ConfigurationError(
            f"tau --probe {args.probe} needs --wmax >= {2 * args.probe}, got {args.wmax}: "
            "the Hirota residual reads tau up to weight 2 * probe"
        )
    if args.command in ("basis", "kernel"):
        _, _, sigma = _basis_params(args)  # refuses beta 0, and series mode without sigma
    if args.command == "basis":
        _check_basis_window(args, family, sigma)
    if args.command == "kernel" and args.check_finiteness and family.degree is None:
        raise ConfigurationError("--check-finiteness needs a polynomial family")


def _check_basis_window(args, family: WeightFamily, sigma: tuple) -> None:
    """Refuse a basis window on which a check would compare nothing;
    build_basis refuses an empty window itself."""
    k_lo, k_hi, depth = args.k_lo, args.k_hi, args.depth
    L = support(sigma)
    LM = adaptedbasis.q_band(family, sigma) if family.degree is not None else 0
    if k_lo <= k_hi and depth < k_lo:
        for empty, check, needs in (
            (k_hi == k_lo, "ladder", "--k-hi > --k-lo"),
            (k_hi - k_lo < L, "Euler", f"--k-hi >= --k-lo + {L}, the sigma support"),
            (k_hi - k_lo < LM, "recursion_Q", f"--k-hi >= --k-lo + {LM}, the recursion band"),
            (depth > -k_lo, "pairing", f"--depth <= {-k_lo}"),
        ):
            if empty:
                raise ConfigurationError(
                    f"basis window k in [{k_lo}, {k_hi}], depth {depth} has no "
                    f"{check} check: needs {needs}"
                )


def _check_bounds(args) -> None:
    """Every FLAG_BOUNDS minimum of the command, then every relation between
    its flags (_check_relations), then every cap, then its WORK_BUDGETS
    predicted work: a config error outranks a resource error."""
    bounds = FLAG_BOUNDS.get(args.command, {})
    for flag, (least, _) in bounds.items():
        value = getattr(args, flag)
        if least is not None and value < least:
            raise ConfigurationError(f"{args.command} needs --{flag} >= {least}, got {value}")
    _check_relations(args)
    for flag, (_, cap) in bounds.items():
        values = _kernel_window(args.window) if flag == "window" else [getattr(args, flag)]
        for value in values:
            if abs(value) > cap:
                shown = value if value >= 0 else f"|{value}|"
                raise ResourceError(f"--{flag.replace('_', '-')} cap exceeded: {shown} > {cap}")
    if args.command in WORK_BUDGETS:
        predict, formula, budget = WORK_BUDGETS[args.command]
        if (work := predict(args)) > budget:
            raise ResourceError(f"{args.command} predicted work exceeded: "
                                f"{formula} = {work} > {budget}")


def _join_negative_values(argv: list) -> list:
    """argv with each value that starts with '-' and a digit joined to the flag
    before it, ``--window -6,-1,-6,5`` as ``--window=-6,-1,-6,5``: argparse
    before Python 3.13 takes such a value for an unknown flag unless it is a
    plain negative number."""
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and len(prev) > 2 and "=" not in prev \
                and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        command = sub.choices[args.command]
        actions = {a.dest: a for a in command._actions if a.dest != "help"}
        if args.config:
            # the file's values become defaults, so flags given explicitly override them
            defaults = _read_config_file(args.config, actions, command._mutually_exclusive_groups,
                                         _given_on_command_line(parser, argv, command))
            command.set_defaults(**defaults)
            args = parser.parse_args(argv)
        _check_bounds(args)
        args.config_flags = [dest for dest in actions if dest not in OUTPUT_FLAGS]
        result = args.func(args)
        emit(args, result)
        return EXIT_OK if _report_ok(result) else EXIT_VERIFY
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except HurwitzTauError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
