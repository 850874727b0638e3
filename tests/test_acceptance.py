"""Acceptance gate: nine cross-validation criteria, one verdict line each.

Every criterion prints ``[PASS]``/``[FAIL]`` with its measured numbers even
under pytest's output capture, so the run log doubles as a certification
report.  The criteria exercise the full stack end to end: integral-equation
boundaries vs an independent lattice oracle, structural properties, value
agreement, Monte Carlo closure of the optimal prediction error, policy
optimality against baselines, distributional laws of the last zero, the
smooth-fit property, and the summary figure.
"""

import json
import time

import numpy as np
import pytest

from lastzero import (
    FixedTimeRule,
    OptimalRule,
    ProblemSpec,
    SimConfig,
    SqrtRule,
    boundary_residuals,
    build_value_surface,
    collect_last_zeros,
    evaluate_policies,
    h_curves,
    mean_g,
    oracle_compare,
    value_at,
)
from lastzero.cli import main as cli_main
from oracles import smooth_fit_diagnostic, zero_drift_closed_form

DRIFTS = (-1.0, 0.0, 1.0)
T = 1.0
MC_SEED = 2024
KS_SEED = 12


def _verdict(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} "
              f"({detail})", flush=True)


@pytest.fixture(scope="session")
def solve_times():
    return {}


@pytest.fixture(scope="session")
def mc_reports(boundaries_for, z_star_bellman):
    """One streamed 10^5-path ensemble per drift scoring all five policies."""
    cfg = SimConfig(n_paths=100_000, n_steps=4000, seed=MC_SEED)
    out = {}
    for mu in DRIFTS:
        bp = boundaries_for(mu)
        spec = bp.spec
        rules = [
            OptimalRule(bp),
            OptimalRule(bp, factor=0.8),
            OptimalRule(bp, factor=1.25),
            FixedTimeRule(mean_g(spec), spec.T),
            SqrtRule(1.3 * z_star_bellman, spec.T),
        ]
        reports = evaluate_policies(spec, rules, cfg)
        out[mu] = {
            "reports": reports,
            "vstar": value_at(spec, bp, 0, 0) + mean_g(spec),
        }
    return out


def test_criterion_1_oracle_agreement(boundaries_for, bellman_for,
                                      solve_times, capsys):
    """Integral-equation boundaries vs lattice oracle, sup-norm on [0, 0.95]."""
    details = []
    ok = True
    for mu in DRIFTS:
        t0 = time.monotonic()
        bp_int = boundaries_for(mu)
        solve_times[mu] = time.monotonic() - t0
        _, bp_lat = bellman_for(mu)
        sup = oracle_compare(bp_int, bp_lat).sup_norm
        ok &= sup <= 0.02 and solve_times[mu] <= 300.0
        details.append(f"mu={mu:+.0f} sup={sup:.4f} "
                       f"solve={solve_times[mu]:.1f}s")
    _verdict(capsys, 1, "boundary agreement with lattice oracle", ok,
             "; ".join(details) + "; limits sup<=0.02, solve<=300s")
    assert ok


def test_criterion_2_structural_suite(boundaries_for, capsys):
    """Monotonicity, terminal pinning, h-curve sandwich, residual certificate."""
    worst_res = 0.0
    ok = True
    for mu in DRIFTS:
        bp = boundaries_for(mu)
        hc = h_curves(bp.spec, bp.grid)
        ok &= bool(np.all(np.diff(bp.b_minus) >= 0.0))
        ok &= bool(np.all(np.diff(bp.b_plus) <= 0.0))
        ok &= bp.b_minus[-1] == 0.0 and bp.b_plus[-1] == 0.0
        ok &= bool(np.all(bp.b_minus <= hc.h_minus + 1e-9))
        ok &= bool(np.all(hc.h_minus <= 1e-12))
        ok &= bool(np.all(hc.h_plus >= -1e-12))
        ok &= bool(np.all(hc.h_plus <= bp.b_plus + 1e-9))
        res = boundary_residuals(bp.spec, bp, bp.grid)
        worst_res = max(worst_res, float(np.max(np.abs(res))))
    ok &= worst_res <= 1e-5
    _verdict(capsys, 2, "boundary structure and equation residuals", ok,
             f"worst independent-requadrature residual {worst_res:.2e} "
             f"<= 1e-5 at all grid points, all drifts")
    assert ok


def test_criterion_3_zero_drift_shape(boundaries_for, capsys):
    """mu=0: mirror symmetry and square-root profile of the boundaries."""
    bp = boundaries_for(0.0)
    sym = float(np.max(np.abs(bp.b_minus + bp.b_plus)))
    mask = (bp.grid >= 0.05) & (bp.grid <= 0.9)
    z = bp.b_plus[mask] / np.sqrt(T - bp.grid[mask])
    spread = float((z.max() - z.min()) / np.median(z))
    ok = sym <= 1e-3 and spread <= 0.01
    _verdict(capsys, 3, "zero-drift symmetry and sqrt shape", ok,
             f"max|b-+b+|={sym:.2e} <= 1e-3, "
             f"rel spread of b+/sqrt(T-t)={spread:.2e} <= 1e-2")
    assert ok


def test_criterion_4_value_consistency(boundaries_for, bellman_for, capsys):
    """V(0,0) integral vs lattice; sign, terminal, monotone, Lipschitz."""
    details = []
    ok = True
    for mu in DRIFTS:
        bp = boundaries_for(mu)
        surf_lat, _ = bellman_for(mu)
        i0 = int(np.argmin(np.abs(surf_lat.x_grid)))
        v_lat = float(surf_lat.values[0, i0])
        v_int = value_at(bp.spec, bp, 0.0, 0.0)
        diff = abs(v_int - v_lat)
        ok &= diff <= 2e-3
        surf = build_value_surface(bp.spec, bp, n_t=100, n_x=200)
        ok &= bool(np.all(surf.values <= 0.0))
        ok &= bool(np.all(surf.values[-1] == 0.0))
        ok &= float(np.min(np.diff(surf.values, axis=0))) >= -1e-9
        dx = surf.x_grid[1] - surf.x_grid[0]
        lip = float(np.max(np.abs(np.diff(surf.values, axis=1))) / dx)
        bound = 12.0 * np.sqrt(T) + 4.0 * abs(mu) * T
        ok &= lip <= bound
        details.append(f"mu={mu:+.0f} |dV(0,0)|={diff:.1e} lip={lip:.2f}")
    _verdict(capsys, 4, "value agreement and surface invariants", ok,
             "; ".join(details) + "; limits 2e-3 and 12*sqrt(T)+4|mu|T")
    assert ok


def test_criterion_5_monte_carlo_closure(mc_reports, capsys):
    """Optimal rule's simulated error reproduces V* within 3 SE, SE small;
    at mu = 0 also the exact V* of the driftless problem."""
    details = []
    ok = True
    for mu in DRIFTS:
        opt = mc_reports[mu]["reports"][0]
        vstar = mc_reports[mu]["vstar"]
        gap = abs(opt.estimate - vstar)
        ok &= gap <= 3.0 * opt.std_error
        ok &= opt.std_error <= 2e-3
        detail = f"mu={mu:+.0f} |est-V*|={gap:.1e} "
        if mu == 0.0:
            exact_gap = abs(opt.estimate - zero_drift_closed_form(T)[1])
            ok &= exact_gap <= 3.0 * opt.std_error
            detail += f"|est-V*exact|={exact_gap:.1e} "
        details.append(detail + f"SE={opt.std_error:.1e}")
    _verdict(capsys, 5, "Monte Carlo closure of the optimal error", ok,
             "; ".join(details) + "; limits 3*SE and SE<=2e-3")
    assert ok


def test_criterion_6_empirical_optimality(mc_reports, capsys):
    """No baseline beats the optimal rule; at least two are strictly worse."""
    details = []
    ok = True
    for mu in DRIFTS:
        reports = mc_reports[mu]["reports"]
        opt, baselines = reports[0], reports[1:]
        se = opt.std_error
        none_better = all(r.estimate >= opt.estimate - 2.0 * se
                          for r in baselines)
        n_worse = sum(r.estimate >= opt.estimate + 5.0 * se
                      for r in baselines)
        ok &= none_better and n_worse >= 2
        margins = ", ".join(
            f"{r.policy_name}:{(r.estimate - opt.estimate) / se:+.1f}SE"
            for r in baselines)
        details.append(f"mu={mu:+.0f} [{margins}]")
    _verdict(capsys, 6, "optimal rule dominates baselines", ok,
             "; ".join(details))
    assert ok


def test_criterion_7_distribution_of_last_zero(capsys):
    """Arcsine law (KS) for the sampled g; E g = T/2 at zero drift."""
    spec = ProblemSpec(mu=0.0, T=T)
    cfg = SimConfig(n_paths=100_000, n_steps=25_600, seed=KS_SEED)
    g = np.sort(collect_last_zeros(spec, cfg))
    cdf = (2.0 / np.pi) * np.arcsin(np.sqrt(np.clip(g / T, 0.0, 1.0)))
    i = np.arange(1, g.size + 1)
    ks = float(max(np.max(cdf - (i - 1) / g.size),
                   np.max(i / g.size - cdf)))
    mean_errs = [abs(mean_g(ProblemSpec(mu=0.0, T=t)) - t / 2.0)
                 for t in (0.5, 1.0, 4.0)]
    ok = ks <= 0.01 and max(mean_errs) <= 1e-8
    _verdict(capsys, 7, "arcsine law and exact mean of g", ok,
             f"KS={ks:.4f} <= 0.01 (1e5 paths), "
             f"max |E g - T/2| = {max(mean_errs):.1e} <= 1e-8")
    assert ok


def test_criterion_8_smooth_fit(boundaries_for, capsys):
    """Derivative gap at both boundaries vanishes as the step shrinks."""
    details = []
    ok = True
    t_samples = np.linspace(0.05, 0.9, 20)
    for mu in DRIFTS:
        bp = boundaries_for(mu)
        rep = smooth_fit_diagnostic(bp, t_samples)
        frac = rep.decreasing_fraction()
        final = rep.final_gap_max()
        ok &= frac >= 0.9 and final <= 1e-2
        details.append(f"mu={mu:+.0f} decreasing={frac:.2f} "
                       f"final={final:.1e}")
    _verdict(capsys, 8, "smooth fit at the boundaries", ok,
             "; ".join(details) + "; limits >=0.9 and <=1e-2 "
             "at eps=1e-4*sqrt(T)")
    assert ok


def test_criterion_9_figure(boundaries_for, tmp_path, capsys):
    """Plot over three drifts: dashed symmetric mu=0, asymmetric otherwise,
    all curves meeting at (T, 0)."""
    paths = []
    for mu in DRIFTS:
        p = tmp_path / f"b_{mu:+.0f}.json"
        boundaries_for(mu).save_json(p)
        paths.append(str(p))
    svg_path = tmp_path / "fig.svg"
    rc = cli_main(["plot", "--boundaries", *paths, "--out", str(svg_path)])
    svg = svg_path.read_text()

    polylines = [el for el in svg.split(">") if "<polyline" in el]
    dashed_ok = all(("stroke-dasharray" in el) == ('data-mu="0"' in el)
                    for el in polylines)
    meet_ok = all('data-t-end="1"' in el and 'data-b-end="0"' in el
                  for el in polylines)
    bp0 = boundaries_for(0.0)
    sym_ok = float(np.max(np.abs(bp0.b_minus + bp0.b_plus))) <= 1e-3
    asym = min(abs(abs(boundaries_for(mu).b_minus[0])
                   - boundaries_for(mu).b_plus[0]) for mu in (-1.0, 1.0))
    ok = (rc == 0 and len(polylines) == 6 and dashed_ok and meet_ok
          and sym_ok and asym > 0.05)
    _verdict(capsys, 9, "boundary figure reproduction", ok,
             f"6 curves, dashed-iff-zero-drift={dashed_ok}, "
             f"meet-at-(T,0)={meet_ok}, mu=0 symmetric={sym_ok}, "
             f"asymmetry(|mu|=1)={asym:.2f}")
    assert ok
