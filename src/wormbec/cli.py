"""Command-line front end.

Subcommands: profile1d, solve-gp, profile3d, embed, presets (solve-gp and
profile3d take one b0 and one q, profile1d and embed lists). Each takes
--out DIR (default .), --strict, --format csv|json (default csv), and
repeatable --set SECTION.KEY=VALUE overrides. Options are spelled in
full (``allow_abbrev=False``): ``--o`` is an unrecognized argument, not
--out; ``--out=DIR`` and ``--set=ITEM`` are full spellings. Only --out and
--format set where a run writes and its table format. --set is the one
route for every setting and preset, and no option reads a file of them: it
accepts any key of ``config.SCHEMA`` (for example ``grid.step_um=0.05``,
or ``species:NAME.mass_u=7`` for a preset), and an unknown section or key
is an error. Each command reads a setting by that section and key from the
settings ``config.load_config`` resolves.

Each command composes its JSON reports from plain values (numbers,
strings, lists and the audits' sections) and returns the verdict that
--strict reads from them, so one function knows each report. Exit codes:
0 success, 1 usage/config/numeric failure, 2 feasibility failure under
--strict. ``main`` returns every code; only --help leaves through
argparse's SystemExit(0). An exit 1 prints one stderr line, from
``main``: ``wormbec SUB: error: MESSAGE`` once argparse has chosen a
subcommand, else ``wormbec: error: MESSAGE``; a usage error's message ends
with ``; see wormbec[ SUB] --help``. A run's files reach --out only when
its command returns (``tableio.staged``): a run that exits 1 writes no
file and leaves an earlier run's files as they were. The directories
--out lacks are made with the first file; a run that exits 1 removes
those it made (a directory that was there before stays), and presets,
which writes no file, makes none.

Environment: the one variable read is OPENBLAS_NUM_THREADS (below), and it
changes no byte; the argv states every setting and preset (``config``), so
an arithmetic error's line, which repeats the --set items, repeats the run.
Each command imports the kernels it runs, so ``presets``, --help and usage
or config errors never import numpy.

BLAS threads: OpenBLAS starts a pool of them inside ``import numpy``
unless OPENBLAS_NUM_THREADS says otherwise, though no CLI run calls BLAS.
One thread only spares the import that start-up: on two cores ``import
numpy`` took a median 166 ms with one thread against 236 ms without. When
``main`` makes a process's first numpy import, it sets
OPENBLAS_NUM_THREADS=1 for that import only and removes it afterwards;
this covers ``python -m wormbec``, the installed script and in-process
``main()`` calls alike, and ``os.environ`` is left as it was. A value the
user has set wins, and a process that has loaded numpy already keeps its
BLAS pool. The trade-off: a process whose first numpy import happens
inside a ``main()`` call keeps one BLAS thread for the rest of its life.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import product
from pathlib import Path
from typing import Callable, Sequence

from .config import RunConfig, load_config
from .exceptions import ConfigError, ConvergenceError, DomainError
from .feshbach import m_to_bohr

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    # a usage error is a ConfigError, whose line main prints (exit 1; exit 2
    # is reserved for --strict feasibility)
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(f"{message}; see {self.prog} --help")


def _directory(text: str) -> Path:
    # an in-process argv can hold a NUL, which no path call takes
    if "\0" in text:
        raise argparse.ArgumentTypeError(f"a path cannot hold a NUL byte: {text!r}")
    return Path(text)


def _fmt(value: float) -> str:
    return f"{value:g}"


def _add_common(parser: argparse.ArgumentParser, command: Callable[..., int]) -> None:
    parser.set_defaults(run=command)
    parser.add_argument("--out", metavar="DIR", type=_directory, default=".",
                        help="output directory (default: .)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 2 when the feasibility audit fails")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="profile table format, default csv (reports are always JSON)")
    parser.add_argument("--set", dest="overrides", action="append",
                        metavar="SECTION.KEY=VALUE", default=[],
                        help="override one config value (repeatable)")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="wormbec", allow_abbrev=False,
        description="Synthesize and audit condensate control profiles that "
                    "make phonons propagate on wormhole spacetimes.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, command, text in (
            ("profile1d", cmd_profile1d, "1+1D field/scattering/sound-speed "
                                         "profiles with the slope feasibility audit"),
            ("solve-gp", cmd_solve_gp, "solve the exact 3+1D matching system "
                                       "on a radial grid"),
            ("profile3d", cmd_profile3d, "3+1D lab profiles with asymptote "
                                         "detection and resolution audit"),
            ("embed", cmd_embed, "embedding diagram (r, z) table"),
            ("presets", cmd_presets, "list species and resonance presets"),
    ):
        _add_common(sub.add_parser(name, help=text, description=text, allow_abbrev=False),
                    command)
    return parser


def _shapes(wormhole: dict, sweep: bool) -> list:
    """The ShapeFunction of each (q, b0) pair in [wormhole], q outermost. A
    sweep rejects two values of one key that print alike (``_fmt``), as their
    tables would share a file name; other commands take one b0_um and one q."""
    from .geometry import ShapeFunction
    for key in ("q", "b0_um") if sweep else ("b0_um", "q"):
        if not sweep and len(wormhole[key]) != 1:
            raise ConfigError(f"this subcommand needs exactly one {key} value, "
                              f"got {list(wormhole[key])}")
        seen: dict[str, float] = {}
        for value in wormhole[key]:
            other = seen.setdefault(_fmt(value), value)
            if other != value:
                raise ConfigError(f"[wormhole] {key} values {other!r} and {value!r} "
                                  f"share the file tag {_fmt(value)}")
    return [ShapeFunction(b0=b0, q=q) for q, b0 in product(wormhole["q"], wormhole["b0_um"])]


def _bound(grid: dict, key: str, default: float, b0: float) -> float:
    """[grid] KEY, else DEFAULT (derived from b0), which must be finite."""
    if grid[key] is not None:
        return grid[key]
    if not math.isfinite(default):
        raise ConfigError(f"[grid] {key}: the default overflows at b0_um = {b0!r}; "
                          f"set grid.{key}")
    return default


def cmd_profile1d(cfg: RunConfig, out: Path, fmt: str) -> bool:
    from . import profile1d, tableio
    grid = cfg.settings["grid"]
    x_max, step = grid["x_max_um"], grid["step_um"]
    all_feasible = True
    for shape in _shapes(cfg.settings["wormhole"], sweep=True):
        profile = profile1d.sample_profile_1d(shape, cfg.spec, x_max, step)
        valid = profile.columns["valid"]
        report = {
            "wormhole": {"b0_um": shape.b0, "q": shape.q,
                         "throat_class": shape.throat_class},
            "grid": {"x_max_um": x_max, "step_um": step},
            "species": cfg.spec.species.name,
            "a_bg_a0": m_to_bohr(cfg.spec.resonance.a_bg),
            "feasibility": profile1d.feasibility_1d(
                shape, cfg.spec, profile,
                threshold=cfg.settings["thresholds"]["slope_per_um"],
                window=grid["throat_exclusion_um"]),
            "slope_at_x10": profile1d.slope_metric(shape, cfg.spec.resonance, 10.0),
            # the written table: each row of the half but the throat's twice
            "invalid_samples": 2 * int((~valid).sum()) - int(~valid[0]),
        }
        all_feasible = all_feasible and report["feasibility"]["feasible"]
        tag = f"q{_fmt(shape.q)}_b0{_fmt(shape.b0)}"
        tableio.write_table(out / f"profile1d_{tag}", profile, fmt)
        tableio.write_json(out / f"feasibility_{tag}.json", report)
    return all_feasible


def cmd_solve_gp(cfg: RunConfig, out: Path, fmt: str) -> bool:
    from . import gp3d, tableio
    grid = cfg.settings["grid"]
    v_inf = cfg.settings["observer"]["v_inf_m_per_s"]
    shape, = _shapes(cfg.settings["wormhole"], sweep=False)
    b0 = shape.b0
    r_min = _bound(grid, "r_min_um", 1.1 * b0, b0)
    r_max = _bound(grid, "r_max_um", 10.0 * b0, b0)
    r_step = _bound(grid, "r_step_um", 0.05 * b0, b0)
    solution, statistics = gp3d.solve_matching(v_inf, shape, r_min, r_max, r_step)
    summary = {
        "v_inf_m_per_s": v_inf,
        "b0_um": b0,
        "q": shape.q,
        "fold_radius_um": gp3d.fold_radius(v_inf, shape),
        "grid": {"r_min_um": r_min, "r_max_um": r_max, "step_um": r_step},
        **statistics,
    }
    tag = f"vinf{_fmt(v_inf)}_b0{_fmt(b0)}"
    tableio.write_table(out / f"gp_solution_{tag}", solution, fmt)
    tableio.write_json(out / f"gp_summary_{tag}.json", summary)
    return summary["points_converged"] == summary["points"]


def cmd_profile3d(cfg: RunConfig, out: Path, fmt: str) -> bool:
    from . import profile3d, tableio
    thresholds, spec = cfg.settings["thresholds"], cfg.spec
    v_inf, step = cfg.settings["observer"]["v_inf_m_per_s"], cfg.settings["grid"]["step_um"]
    R, (shape,) = cfg.settings["layout"]["R_um"], _shapes(cfg.settings["wormhole"], sweep=False)
    layout = profile3d.LabLayout(R=R, shape=shape)
    profile = profile3d.lab_profiles_3d(layout, v_inf, spec, step,
                                        pole_delta=thresholds["pole_delta"])
    columns = profile.columns
    near = columns["near_asymptote"]
    report = {
        "layout": {"R_um": R, "b0_um": shape.b0, "q": shape.q},
        "v_inf_m_per_s": v_inf,
        "background_sound_speed_m_per_s": spec.background_sound_speed,
        "asymptotes": {
            "analytic_x_um": profile3d.analytic_asymptote_positions(layout, v_inf, spec),
            "detected_x_um": profile3d.detect_asymptotes(profile),
            "radius_um": profile3d.asymptote_radius(v_inf, shape, spec),
        },
        "max_a_over_abg": float(columns["a_over_abg"].max()),
        # the written table: each row of the half but the throat's twice
        "near_asymptote_samples": 2 * int(near.sum()) - int(near[0]),
        "resolution": profile3d.resolution_audit(
            float(columns["cs0_m_per_s"][0]), spec.species, step, shape=shape,
            factor=thresholds["resolution_factor"]),
    }
    tag = f"R{_fmt(R)}_b0{_fmt(shape.b0)}_vinf{_fmt(v_inf)}"
    tableio.write_table(out / f"profile3d_{tag}", profile, fmt)
    tableio.write_json(out / f"report_{tag}.json", report)
    return (report["near_asymptote_samples"] == 0 and not report["asymptotes"]["analytic_x_um"]
            and report["resolution"]["passed"])


def cmd_embed(cfg: RunConfig, out: Path, fmt: str) -> bool:
    from . import geometry, tableio
    wormhole, grid = cfg.settings["wormhole"], cfg.settings["grid"]
    if grid["r_max_um"] is not None and grid["r_max_um"] <= max(wormhole["b0_um"]):
        raise ConfigError(f"[grid] r_max_um must exceed b0, got {grid['r_max_um']!r}")
    for shape in _shapes(wormhole, sweep=True):
        b0 = shape.b0
        r_max = _bound(grid, "r_max_um", 5.0 * b0, b0)
        r_step = _bound(grid, "r_step_um", (r_max - b0) / 200.0, b0)
        radii = geometry.uniform_grid(b0, r_max - b0, r_step)
        table = tableio.Table({"r_um": radii, "z_um": geometry.embedding_height(shape, radii)})
        tableio.write_table(out / f"embedding_q{_fmt(shape.q)}_b0{_fmt(b0)}", table, fmt)
    return True


def cmd_presets(cfg: RunConfig) -> bool:
    thresholds = cfg.settings["thresholds"]
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
    lines.append(f"  density = {cfg.settings['condensate']['density_per_m3']!r} m^-3")
    lines.append(f"  slope capability = {thresholds['slope_per_um']!r} per um")
    lines.append(f"  resolution factor = {thresholds['resolution_factor']!r}")
    print("\n".join(lines))
    return True


def main(argv: Sequence[str] | None = None) -> int:
    # argparse names the subcommand here before it parses the subcommand's
    # options, so a usage error among them is reported under that name
    args = argparse.Namespace(command=None, overrides=[])
    try:
        extra = _build_parser().parse_known_args(argv, args)[1]
        if extra:  # argparse itself would report these under "wormbec"
            raise ConfigError(f"unrecognized arguments: {' '.join(extra)}; "
                              f"see wormbec {args.command} --help")
        cfg = load_config(args.overrides)
        if args.run is cmd_presets:  # writes no file, so needs no tableio (numpy)
            passed = cmd_presets(cfg)
        else:
            # the first module to import numpy: one BLAS thread (module docstring)
            one_thread = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
            if one_thread:
                os.environ["OPENBLAS_NUM_THREADS"] = "1"
            try:
                from . import tableio
            finally:
                if one_thread:
                    os.environ.pop("OPENBLAS_NUM_THREADS", None)
            with tableio.staged():
                passed = args.run(cfg, args.out, args.format)
        return EXIT_OK if passed or not args.strict else EXIT_INFEASIBLE
    except (ConfigError, DomainError, ConvergenceError, ArithmeticError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, ArithmeticError):  # name the inputs that overflowed
            given = [f"--set {item}" for item in args.overrides]
            message += f" [{', '.join(given) or 'default settings'}]"
        message = " ".join(message.splitlines())
        prog = f"wormbec {args.command}" if args.command else "wormbec"
        print(f"{prog}: error: {message}", file=sys.stderr)
        return EXIT_ERROR
