"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``). Criteria pin
physical reference values, closed-form oracles, solver contracts,
cross-parametrization consistency, and byte-determinism, each with its
runtime budget.
"""

import math
import time

import numpy as np

from wormbec.cli import main
from wormbec.feshbach import (SPECIES, cesium_condensate, healing_length,
                              scattering_from_field, sound_speed_from_field,
                              sound_speed_from_scattering)
from wormbec.geometry import (ShapeFunction, embedding_height, metric_factor,
                              proper_distance)
from wormbec.gp3d import (DEFAULT_LIGHT_SPEED, gp_time_offset,
                          metric_congruence_check, solve_matching,
                          zero_order_solution)
from wormbec.profile1d import (field_profile_1d, sample_profile_1d,
                               scattering_profile_1d, slope_metric)
from wormbec.profile3d import (LabLayout, detect_asymptotes, field_profile_3d,
                               lab_profiles_3d, scattering_profile_3d,
                               sound_speed_profile_3d)

CS = cesium_condensate()
RES = CS.resonance

XI_REFERENCE_UM = {"Li": 0.648, "Na": 0.195, "K": 0.115, "Rb": 0.053, "Cs": 0.034}


class Criterion:
    """Collects checks for one criterion and prints its verdict."""

    def __init__(self, number: int, title: str, budget_s: float):
        self.number = number
        self.title = title
        self.budget_s = budget_s
        self.failures: list[str] = []
        self.started = time.perf_counter()

    def check(self, ok: bool, detail: str) -> None:
        if not ok:
            self.failures.append(detail)

    def finish(self) -> None:
        elapsed = time.perf_counter() - self.started
        if elapsed > self.budget_s:
            self.failures.append(f"runtime {elapsed:.2f}s exceeds {self.budget_s}s")
        verdict = "PASS" if not self.failures else "FAIL"
        print(f"[criterion {self.number}] {verdict} ({elapsed:.2f}s) - {self.title}")
        assert not self.failures, "; ".join(self.failures)


def test_criterion_1_slope_reproduction():
    c = Criterion(1, "slope of a/(100 a0) at x=10 um is 0.038/um +-0.001 "
                     "(Cs, q=0.95, b0=1)", budget_s=1.0)
    slope = slope_metric(ShapeFunction(1.0, 0.95), RES, 10.0)
    c.check(abs(slope - 0.038) <= 1e-3, f"slope {slope!r}")
    c.finish()


def test_criterion_2_healing_length_table():
    c = Criterion(2, "healing lengths for 5 species match the reference "
                     "table within 2%", budget_s=1.0)
    for name, xi_ref in XI_REFERENCE_UM.items():
        xi_b = healing_length(0.01, SPECIES[name]) * 1e6
        c.check(abs(xi_b - xi_ref) / xi_ref <= 0.02,
                f"{name} at 0.01 m/s: {xi_b!r} vs {xi_ref}")
        xi_a = healing_length(0.02, SPECIES[name]) * 1e6
        c.check(abs(xi_a - xi_ref / 2.0) / (xi_ref / 2.0) <= 0.02,
                f"{name} at 0.02 m/s: {xi_a!r} vs {xi_ref / 2.0}")
    c.finish()


def test_criterion_3_ellis_closed_form_oracles():
    c = Criterion(3, "proper distance, embedding height, and time offset "
                     "match the inverse-power closed forms to 1e-8",
                  budget_s=5.0)
    b0 = 3.0
    shape = ShapeFunction(b0, -1.0)
    energy = math.sqrt(2.0)
    energy_term = math.sqrt(energy * energy - 1.0)
    worst = 0.0
    for ratio in np.geomspace(1.0 + 1e-6, 100.0, 60):
        r = b0 * float(ratio)
        chord = math.sqrt(r * r - b0 * b0)
        for label, value, exact in (
                ("distance", proper_distance(shape, r), chord),
                ("height", embedding_height(shape, r), b0 * math.acosh(r / b0)),
                ("offset", gp_time_offset(r, energy, b0), energy_term * chord)):
            rel = abs(value - exact) / exact
            worst = max(worst, rel)
            c.check(rel <= 1e-8, f"{label} at r={r!r}: rel {rel:.2e}")
    print(f"  worst closed-form deviation: {worst:.2e}")
    c.finish()


def test_criterion_4_gp_congruence():
    c = Criterion(4, "flow-adapted metric pulls back to the diagonal metric "
                     "to 1e-12 at 1000 random points", budget_s=1.0)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        b0 = rng.uniform(0.1, 5.0)
        r = b0 * (1.0 + rng.uniform(1e-6, 100.0))
        gamma = 1.0 + rng.uniform(1e-6, 9.0)
        c_ref = 1.0 if rng.uniform() < 0.5 else DEFAULT_LIGHT_SPEED
        dev = metric_congruence_check(r, gamma, c_ref, b0)
        worst = max(worst, dev)
        c.check(dev < 1e-12, f"deviation {dev:.2e} at r={r!r}, gamma={gamma!r}")
    c.check(metric_congruence_check(2.0, 1.0, 1.0, 1.0) == 0.0,
            "gamma=1 must recover the diagonal metric exactly")
    print(f"  worst congruence deviation: {worst:.2e}")
    c.finish()


def test_criterion_5_exact_system_solver():
    c = Criterion(5, "matching solver: residuals < 1e-12 and deviation from "
                     "the small-velocity limit < 1e-9 for four reference "
                     "parameter sets", budget_s=10.0)
    for v_inf, b0 in ((0.001, 0.1), (0.009, 1.0), (0.01, 1.0), (0.01, 3.0)):
        solution = solve_matching(v_inf, b0, 1.1 * b0, 10.0 * b0, 0.05 * b0)
        tag = f"(v_inf={v_inf}, b0={b0})"
        c.check(bool(solution.converged.all()), f"{tag}: unconverged points")
        max_res = max(float(np.abs(solution.residual1).max()),
                      float(np.abs(solution.residual2).max()))
        c.check(max_res < 1e-12, f"{tag}: max residual {max_res:.2e}")
        dev_cs0, dev_vr = solution.zero_order_deviation()
        c.check(dev_cs0 < 1e-9, f"{tag}: cs0 deviation {dev_cs0:.2e}")
        c.check(dev_vr < 1e-9, f"{tag}: vr deviation {dev_vr:.2e}")
    c.finish()


def test_criterion_6_asymptote_localization():
    c = Criterion(6, "detected field poles sit at x = R -+ b0*(sqrt(1 + "
                     "(c_s/v)^2) - 1) within one grid step", budget_s=1.0)
    cs_bg = CS.background_sound_speed
    c.check(abs(cs_bg - 0.0120) / 0.0120 <= 0.01,
            f"background sound speed {cs_bg!r} m/s")
    v_inf, b0, R, step = 0.01, 1.0, 5.0, 0.0625
    offset = b0 * (math.sqrt(1.0 + (cs_bg / v_inf) ** 2) - 1.0)
    expected = [R - offset, R + offset]
    profile = lab_profiles_3d(LabLayout(R=R, b0=b0), v_inf, CS, step)
    detected = detect_asymptotes(profile)
    c.check(len(detected) == 2, f"expected 2 poles, found {detected}")
    for found, target in zip(detected, expected):
        c.check(abs(found - target) <= step,
                f"pole at {found!r}, expected {target!r} within {step}")
    c.finish()


def test_criterion_7_throat_identities():
    c = Criterion(7, "throat identities a=0, B=B_res+width, c_s=0, "
                     "cs0=v_inf, z=0, l=0 for randomized parameters",
                  budget_s=1.0)
    rng = np.random.default_rng(103)
    for _ in range(50):
        b0 = rng.uniform(0.1, 10.0)
        q = rng.uniform(-2.0, 0.99)
        v_inf = rng.uniform(1e-3, 0.02)
        shape = ShapeFunction(b0, q)
        c.check(scattering_profile_1d(shape, b0) == 0.0, "a(throat) != 0")
        c.check(field_profile_1d(shape, RES, b0) == RES.b_res + RES.width,
                "B(throat) != B_res + width")
        c.check(proper_distance(shape, b0) == 0.0, "l(throat) != 0")
        c.check(embedding_height(shape, b0) == 0.0, "z(throat) != 0")
        cs0, cs = sound_speed_profile_3d(b0, v_inf, b0)
        c.check(cs == 0.0, "c_s(throat) != 0")
        c.check(cs0 == v_inf, "cs0(throat) != v_inf")
        c.check(field_profile_3d(b0, v_inf, b0, CS) == RES.b_res + RES.width,
                "B_3d(throat) != B_res + width")
        profile = sample_profile_1d(shape, CS, x_max=float(2 * b0), step=float(b0))
        throat = profile.x == 0.0
        c.check(throat.sum() == 1 and profile.c_s[throat][0] == 0.0
                and profile.a_over_abg[throat][0] == 0.0,
                "throat sample not exactly zero")
    c.finish()


def test_criterion_8_cross_parametrization_consistency():
    c = Criterion(8, "field -> scattering -> sound-speed compositions agree "
                     "across both recipes to 1e-10", budget_s=5.0)
    rng = np.random.default_rng(107)
    cs_bg = CS.background_sound_speed
    for _ in range(400):
        b0 = rng.uniform(0.3, 10.0)
        q = rng.uniform(-2.0, 0.99)
        shape = ShapeFunction(b0, q)
        x = rng.uniform(0.01, 20.0)
        r = b0 + x
        b_field = field_profile_1d(shape, RES, r)
        a_direct = scattering_profile_1d(shape, r)
        a_via_field = scattering_from_field(b_field, RES) / RES.a_bg
        c.check(abs(a_via_field - a_direct) <= 1e-10 * max(1.0, abs(a_direct)),
                f"1d scattering mismatch at r={r!r}")
        speed_direct = sound_speed_from_scattering(RES.a_bg * a_direct, CS)
        speed_via_field = sound_speed_from_field(b_field, CS)
        c.check(abs(speed_via_field - speed_direct)
                <= 1e-10 * max(speed_direct, 1e-6),
                f"1d sound-speed mismatch at r={r!r}")
    for _ in range(400):
        b0 = rng.uniform(0.3, 5.0)
        v_inf = rng.uniform(0.005, 0.02)
        r = b0 * (1.0 + rng.uniform(0.01, 3.0))
        denom = 1.0 - (v_inf / cs_bg) ** 2 * ((r / b0) ** 2 - 1.0)
        if abs(denom) < 1e-3 or denom < 0.0:
            continue  # pole-flagged zone excluded
        b_field = field_profile_3d(r, v_inf, b0, CS)
        a_direct = scattering_profile_3d(r, v_inf, b0, CS)
        a_via_field = scattering_from_field(b_field, RES) / RES.a_bg
        c.check(abs(a_via_field - a_direct) <= 1e-10 * max(1.0, abs(a_direct)),
                f"3d scattering mismatch at r={r!r}")
        _, cs_direct = sound_speed_profile_3d(r, v_inf, b0)
        cs_via_field = sound_speed_from_field(b_field, CS)
        c.check(abs(cs_via_field - cs_direct) <= 1e-10 * max(cs_direct, 1e-6),
                f"3d sound-speed mismatch at r={r!r}")
    c.finish()


def test_criterion_9_determinism(tmp_path):
    c = Criterion(9, "identical configs produce byte-identical outputs for "
                     "every subcommand", budget_s=30.0)
    runs = {
        "profile1d": ["profile1d", "--set", "grid.step_um=0.5"],
        "solve-gp": ["solve-gp", "--set", "grid.r_step_um=0.5"],
        "profile3d": ["profile3d", "--set", "grid.step_um=0.25"],
        "embed": ["embed", "--set", "grid.r_step_um=0.25"],
    }
    for name, args in runs.items():
        out1 = tmp_path / f"{name}-1"
        out2 = tmp_path / f"{name}-2"
        for out in (out1, out2):
            code = main([*args, "--out", str(out)])
            c.check(code == 0, f"{name} exited {code}")
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        c.check(files1 == files2, f"{name}: file sets differ")
        for filename in files1:
            identical = ((out1 / filename).read_bytes()
                         == (out2 / filename).read_bytes())
            c.check(identical, f"{name}: {filename} differs between runs")
    c.finish()
