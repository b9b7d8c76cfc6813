"""Command-line front end.

Subcommands: profile1d, solve-gp, profile3d, embed, presets. Each takes
--config PATH, --out DIR, --strict, --format csv|json, and repeatable
--set SECTION.KEY=VALUE overrides. --set accepts any key of
``config.SCHEMA`` (for example ``grid.step_um=0.05``, or
``species:NAME.mass_u=7`` for a preset); an unknown section or key is an
error. Exit codes: 0 success, 1 usage/config/numeric failure (one line on
stderr), 2 feasibility failure under --strict.
"""

from __future__ import annotations

import argparse
import sys
from itertools import product
from typing import Sequence

from . import gp3d, profile1d, profile3d
from .config import RunConfig, load_config
from .exceptions import ConfigError, ConvergenceError, DomainError
from .feshbach import m_to_bohr
from .geometry import ShapeFunction, embedding_height, uniform_grid
from .gp3d import solve_matching
from .profile3d import LabLayout, feasibility_report_3d, lab_profiles_3d
from .tableio import write_json, write_table

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; exit 2 is reserved for --strict feasibility
    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    return f"{value:g}"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="INI config file")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--strict", action="store_true",
                        help="exit 2 when the feasibility audit fails")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="profile table format (reports are always JSON)")
    parser.add_argument("--set", dest="overrides", action="append",
                        metavar="SECTION.KEY=VALUE", default=[],
                        help="override one config value (repeatable)")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="wormbec",
        description="Synthesize and audit condensate control profiles that "
                    "make phonons propagate on wormhole spacetimes.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, text in (
            ("profile1d", "1+1D field/scattering/sound-speed profiles "
                          "with the slope feasibility audit"),
            ("solve-gp", "solve the exact 3+1D matching system on a radial grid"),
            ("profile3d", "3+1D lab profiles with asymptote detection and "
                          "resolution audit"),
            ("embed", "embedding diagram (r, z) table"),
            ("presets", "list species and resonance presets"),
    ):
        _add_common(sub.add_parser(name, help=text, description=text))
    return parser


def cmd_profile1d(cfg: RunConfig, strict: bool) -> int:
    all_feasible = True
    for q, b0 in product(cfg.q_list, cfg.b0_list):
        shape = ShapeFunction(b0=b0, q=q)
        profile = profile1d.sample_profile_1d(shape, cfg.spec, cfg.x_max, cfg.x_step)
        audit = profile1d.feasibility_1d(
            shape, cfg.spec, cfg.x_max, cfg.x_step,
            threshold=cfg.slope_threshold, window=cfg.throat_exclusion)
        tag = f"q{_fmt(q)}_b0{_fmt(b0)}"
        write_table(cfg.out_dir / f"profile1d_{tag}", profile1d.CSV_COLUMNS,
                    profile.columns(), cfg.out_format)
        all_feasible = all_feasible and audit.feasible
        write_json(cfg.out_dir / f"feasibility_{tag}.json", {
            "wormhole": {"b0_um": b0, "q": q,
                         "throat_class": shape.throat_class.value},
            "grid": {"x_max_um": cfg.x_max, "step_um": cfg.x_step},
            "species": cfg.spec.species.name,
            "a_bg_a0": m_to_bohr(cfg.spec.resonance.a_bg),
            "feasibility": {
                "max_slope_per_um": audit.max_slope,
                "slope_at_x_um": audit.slope_at,
                "threshold_per_um": audit.threshold,
                "exclusion_window_um": audit.window,
                "feasible": audit.feasible,
            },
            "slope_at_x10": profile1d.slope_metric(shape, cfg.spec.resonance, 10.0),
        })
    if strict and not all_feasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_solve_gp(cfg: RunConfig, strict: bool) -> int:
    b0 = cfg.single_b0()
    r_min = cfg.r_min if cfg.r_min is not None else 1.1 * b0
    r_max = cfg.r_max if cfg.r_max is not None else 10.0 * b0
    r_step = cfg.r_step if cfg.r_step is not None else 0.05 * b0
    solution = solve_matching(cfg.v_inf, b0, r_min, r_max, r_step,
                              throat_epsilon=cfg.throat_epsilon)
    tag = f"vinf{_fmt(cfg.v_inf)}_b0{_fmt(b0)}"
    write_table(cfg.out_dir / f"gp_solution_{tag}", gp3d.CSV_COLUMNS,
                solution.columns(), cfg.out_format)
    dev_cs0, dev_vr = solution.zero_order_deviation()
    points_converged = int(solution.converged.sum())
    write_json(cfg.out_dir / f"gp_summary_{tag}.json", {
        "v_inf_m_per_s": cfg.v_inf,
        "b0_um": b0,
        "fold_radius_um": gp3d.fold_radius(cfg.v_inf, b0),
        "grid": {"r_min_um": r_min, "r_max_um": r_max, "step_um": r_step},
        "points": int(solution.radii.size),
        "points_converged": points_converged,
        "max_abs_residual1": float(abs(solution.residual1).max()),
        "max_abs_residual2": float(abs(solution.residual2).max()),
        "max_rel_deviation_from_zero_order": {"cs0": dev_cs0, "vr": dev_vr},
    })
    if strict and points_converged < solution.radii.size:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_profile3d(cfg: RunConfig, strict: bool) -> int:
    b0 = cfg.single_b0()
    layout = LabLayout(R=cfg.layout_r, b0=b0)
    profile = lab_profiles_3d(layout, cfg.v_inf, cfg.spec, cfg.x_step,
                              pole_delta=cfg.pole_delta)
    tag = f"R{_fmt(cfg.layout_r)}_b0{_fmt(b0)}_vinf{_fmt(cfg.v_inf)}"
    write_table(cfg.out_dir / f"profile3d_{tag}", profile3d.CSV_COLUMNS,
                profile.columns(), cfg.out_format,
                blank_nan=profile3d.BLANK_NAN_COLUMNS)
    report = feasibility_report_3d(layout, cfg.v_inf, cfg.spec, profile,
                                   cfg.x_step,
                                   resolution_factor=cfg.resolution_factor)
    write_json(cfg.out_dir / f"report_{tag}.json", report)
    feasible = (report["near_asymptote_samples"] == 0
                and report["resolution"]["passed"])
    if strict and not feasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_embed(cfg: RunConfig, strict: bool) -> int:
    for q in cfg.q_list:
        if q >= 1.0:
            raise DomainError(f"no embedding for q = {q!r}: signature broken")
    for q, b0 in product(cfg.q_list, cfg.b0_list):
        shape = ShapeFunction(b0=b0, q=q)
        r_max = cfg.r_max if cfg.r_max is not None else 5.0 * b0
        if r_max <= b0:
            raise ConfigError(f"[grid] r_max_um must exceed b0, got {r_max!r}")
        r_step = cfg.r_step if cfg.r_step is not None else (r_max - b0) / 200.0
        radii = uniform_grid(b0, r_max - b0, r_step)
        write_table(cfg.out_dir / f"embedding_q{_fmt(q)}_b0{_fmt(b0)}",
                    ("r_um", "z_um"), (radii, embedding_height(shape, radii)),
                    cfg.out_format)
    return EXIT_OK


def cmd_presets(cfg: RunConfig, strict: bool) -> int:
    lines = ["species (mass from standard atomic weight):"]
    for name in sorted(cfg.species_registry):
        species = cfg.species_registry[name]
        lines.append(f"  {name:4s} mass = {species.mass!r} kg")
    lines.append("resonances:")
    for name in sorted(cfg.resonance_registry):
        res = cfg.resonance_registry[name]
        lines.append(f"  {name:4s} a_bg = {_fmt(m_to_bohr(res.a_bg))} a0, "
                     f"width = {_fmt(res.width)} G, "
                     f"B_res = {_fmt(res.b_res)} G")
    lines.append("defaults:")
    lines.append(f"  density = {cfg.spec.density!r} m^-3")
    lines.append(f"  slope capability = {cfg.slope_threshold!r} per um")
    lines.append(f"  resolution factor = {cfg.resolution_factor!r}")
    print("\n".join(lines))
    return EXIT_OK


_COMMANDS = {
    "profile1d": cmd_profile1d,
    "solve-gp": cmd_solve_gp,
    "profile3d": cmd_profile3d,
    "embed": cmd_embed,
    "presets": cmd_presets,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(config_path=args.config, overrides=args.overrides,
                          out_dir=args.out, out_format=args.format)
        return _COMMANDS[args.command](cfg, args.strict)
    except (ConfigError, DomainError, ConvergenceError, ArithmeticError, OSError) as exc:
        message = " ".join(str(exc).splitlines())
        print(f"wormbec {args.command}: error: {message}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
