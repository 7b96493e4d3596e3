"""Command-line front end.

Subcommands: validate, stress, search, trace, period, lightray, switch.
Exit codes: 0 success, 1 input error, 2 validity violation, 3 infeasible
search.  All numeric output uses 17 significant digits and is deterministic
for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .errors import GeometryError, InputError, MissingKeyError, SearchError, ShellSwitchError
from .fields import amplitudes, real, required
from .geodesic import (
    _exterior_leg,
    diametral_crossing_time,
    null_crossing_time,
    oscillation_period,
    trajectory,
)
from .search import (
    SearchConfig,
    find_meeting_radius,
    one_shell_spacetime,
    solve_switch_configuration,
    two_shell_spacetime,
)
from .spacetime import (
    induced_metric_gap,
    shell_stress,
    spacetime_from_config,
    stress_report,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: line {exc.lineno} col {exc.colno}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}")
    except RecursionError:
        raise InputError(f"invalid JSON in {path}: nested deeper than the parser's recursion limit")
    if not isinstance(doc, dict):
        raise InputError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


@contextmanager
def _writing(path):
    """Every output write runs in here: a path that cannot be written is an
    input error (exit 1), not a traceback."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _dump_json(doc, path: str | None) -> None:
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, default=float, allow_nan=False) + "\n"
    except ValueError as exc:
        # the inputs are checked finite: a NaN or infinity here is the program's
        raise ShellSwitchError(f"output holds a non-finite number: {exc}") from exc
    if path is None:
        sys.stdout.write(text)
    else:
        with _writing(path):
            Path(path).write_text(text)


def _write_csv(path: Path, header: str, rows) -> None:
    """Rows of three floats, each to 17 significant digits."""
    _write_rows(path, header, "%.17g,%.17g,%.17g\n", rows)


def _write_rows(path: Path, header: str, row_format: str, rows) -> None:
    """One line per row, row_format % row.  The trace tables pass a column
    that is already text as a %s cell, formatted "%.17g," once and shared."""
    text = header + "\n" + "".join([row_format % row for row in rows])
    with _writing(path):
        path.write_text(text)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_validate(doc, args) -> int:
    st = spacetime_from_config(doc)
    shells = []
    for j, R in enumerate(st.shells):
        stress = shell_stress(st, j)
        shells.append({
            "radius": R,
            "junction_gap": induced_metric_gap(st, j),
            "rho": stress.rho,
            "P_tangential": stress.P_tangential,
        })
    report = {
        "patches": [
            {"mass": p.mass, "r_min": p.r_min, "r_max": p.r_max} for p in st.patches
        ],
        "shells": shells,
        "lapses": list(st.lapses),
        "warnings": list(st.warnings),
    }
    _dump_json(report, args.out)
    return EXIT_OK


def cmd_stress(doc, args) -> int:
    _dump_json(stress_report(spacetime_from_config(doc)), args.out)
    return EXIT_OK


def cmd_search(doc, args) -> int:
    config = _search_config(doc, args.ratio)
    solution = solve_switch_configuration(config)
    _dump_json(solution.as_dict(), args.out)
    if args.out is not None:
        out = Path(args.out)
        _write_csv(out.with_name(out.stem + "_curve.csv"), "R1,f,ratio", solution.curve)
    return EXIT_OK


def cmd_trace(doc, args) -> int:
    if args.samples < 2:
        raise InputError("sample count must be at least 2")
    config = _search_config(doc, args.ratio)
    solution = solve_switch_configuration(config)
    meeting = find_meeting_radius(solution, config)
    outdir = Path(args.out or ".")
    with _writing(outdir):
        outdir.mkdir(parents=True, exist_ok=True)

    branches = {
        "gamma1": one_shell_spacetime(config, solution.R),
        "gamma2": two_shell_spacetime(config, solution.R1),
    }
    t_max = float(config.q) * solution.dt1
    t_cells = None
    for name, st in branches.items():
        t, r, tau = trajectory(st, config.r_i, t_max, args.samples).T.tolist()
        if t_cells is None:  # both branches sample the same times, t_max * i / (samples - 1)
            t_cells = ["%.17g," % v for v in t]
        _write_rows(outdir / f"{name}.csv", "t_global,r,tau", "%s%.17g,%.17g\n", zip(t_cells, r, tau))
    _far_side_tables(outdir, config, solution, args.samples)
    _dump_json(
        {"meeting": meeting.as_dict(), "solution": solution.as_dict()},
        str(outdir / "meeting.json"),
    )
    return EXIT_OK


def _far_side_tables(outdir: Path, config, solution, samples: int) -> None:
    """(t_global, r, tau) along each branch's first far-side excursion.

    In the shared exterior both branches follow the rest-release cycloid from
    r_i, mirrored about their far apoapsis at half a period: an outbound pass
    from R1 up to r_i, then an inbound pass back down.  The apoapsis row is
    written once, so t_global strictly increases.  Each distinct radius is
    solved and formatted once, for both tables: most inbound radii equal an
    outbound one bit for bit, and radii are positive, so equal radii have
    equal text.
    """
    r_lo = solution.R1
    outbound = [r_lo + (config.r_i - r_lo) * i / (samples - 1) for i in range(samples)]
    radii = outbound + [config.r_i - (r - r_lo) for r in outbound[1:]]
    signs = [-1] * samples + [+1] * (samples - 1)
    legs = {r: (*_exterior_leg(config.release[0], r)[:2], "%.17g," % r) for r in set(radii)}
    t_es, tau_es, r_cells = zip(*(legs[r] for r in radii))
    halves = {
        "gamma1": (solution.dt1 / 2.0, solution.dtau1 / 2.0),
        "gamma2": (solution.dt2 / 2.0, solution.dtau2 / 2.0),
    }
    for name, (t_half, tau_half) in halves.items():
        ts = [t_half + sign * t_e for sign, t_e in zip(signs, t_es)]
        _write_rows(outdir / f"farside_{name}.csv", "t_global,r,tau", "%.17g,%s%.17g\n",
                    ((ts[i], r_cells[i], tau_half + signs[i] * tau_es[i])
                     for i in sorted(range(len(ts)), key=ts.__getitem__)))


def cmd_period(doc, args) -> int:
    st = spacetime_from_config(doc)
    r_i = real(doc, "r_i")
    dt, dtau, legs = oscillation_period(st, r_i)
    _dump_json(
        {
            "dt_global": dt,
            "dtau": dtau,
            "legs": [
                {
                    "patch": leg.patch_index,
                    "r_outer": leg.r_outer,
                    "r_inner": leg.r_inner,
                    "dt_local": leg.dt_local,
                    "dt_global": leg.dt_global,
                    "dtau": leg.dtau,
                }
                for leg in legs
            ],
        },
        args.out,
    )
    return EXIT_OK


def cmd_lightray(doc, args) -> int:
    r_a, r_b = real(doc, "r_a"), real(doc, "r_b")
    for key, r in (("r_a", r_a), ("r_b", r_b)):
        if r < 0.0:
            raise InputError(f"{key} must be >= 0, got {r!r}")
    diametral = doc.get("diametral", False)
    if not isinstance(diametral, bool):
        raise InputError(f"diametral must be true or false, got {diametral!r}")
    fn = diametral_crossing_time if diametral else null_crossing_time
    result = {}
    if "patches" in doc:
        result["dt_global"] = fn(spacetime_from_config(doc), r_a, r_b)
    else:
        # branch delays for a solved two-branch configuration
        config = _search_config(doc)
        solution = solve_switch_configuration(config)
        result["dt_branch1"] = fn(one_shell_spacetime(config, solution.R), r_a, r_b)
        result["dt_branch2"] = fn(two_shell_spacetime(config, solution.R1), r_a, r_b)
    _dump_json(result, args.out)
    return EXIT_OK


def cmd_switch(doc, args) -> int:
    from . import switch as sw  # here, so that the other subcommands load no numpy

    B = sw.OperatorSpec.from_json(required(doc, "B"), name="B")
    psi = amplitudes(required(doc, "psi"), "psi")
    if "C" in doc and "D" in doc:
        C = sw.OperatorSpec.from_json(doc["C"], name="C")
        D = sw.OperatorSpec.from_json(doc["D"], name="D")
        branches, orders = sw.broken_switch_slots(C, D, B), sw.BROKEN_ORDERS
    else:
        A = sw.OperatorSpec.from_json(required(doc, "A"), name="A")
        branches, orders = sw.switch_slots(A, B), sw.SWITCH_ORDERS
    joint = sw.run_general_protocol(branches, psi)
    plus = sw.measure_control_diagonal(joint, +1)
    minus = sw.measure_control_diagonal(joint, -1)
    _dump_json(
        {
            "joint_state": [[z.real, z.imag] for z in joint.amplitudes],
            "branch_orders": {"M1": orders[0], "M2": orders[1]},
            "measurement": {
                "plus": {"probability": plus.probability,
                         "target": [[z.real, z.imag] for z in plus.target]},
                "minus": {"probability": minus.probability,
                          "target": [[z.real, z.imag] for z in minus.target]},
            },
        },
        args.out,
    )
    return EXIT_OK


def _search_config(doc: dict, ratio: tuple[int, int] | None = None) -> SearchConfig:
    """Search config from a document plus the --ratio override.

    A config the search rejects is an input error, not an infeasible search.
    """
    if ratio is not None:
        doc = {**doc, "p": ratio[0], "q": ratio[1]}
    try:
        return SearchConfig.from_dict(doc)
    except SearchError as exc:
        raise InputError(f"search config: {exc}") from exc


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (input error); argparse's own 2 means invalid geometry here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def out_path(text: str) -> str:
    """An --out value: any non-empty path.  Without --out, JSON goes to stdout
    and trace writes into the working directory; "" would be a third case."""
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return text


def ratio(text: str) -> tuple[int, int]:
    """A --ratio value: two integers as p/q.  A zero q is left to SearchConfig."""
    p, _, q = text.partition("/")
    try:
        return int(p), int(q)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected <int>/<int>, got {text!r}") from None


FLAGS = {
    "--ratio": dict(type=ratio, default=None, help="target ratio as p/q"),
    "--samples": dict(type=int, default=512, help="rows per trajectory table, at least 2"),
}

# name: (handler, help, flags it reads beyond --config and --out)
SUBCOMMANDS = {
    "validate": (cmd_validate, "check a spacetime config", ()),
    "stress": (cmd_stress, "shell surface stress-energy report", ()),
    "search": (cmd_search, "solve the switch geometry conditions", ("--ratio",)),
    "trace": (cmd_trace, "trajectories and meeting event", ("--ratio", "--samples")),
    "period": (cmd_period, "oscillation period for a spacetime", ()),
    "lightray": (cmd_lightray, "radial null crossing times", ()),
    "switch": (cmd_switch, "quantum switch state evolution", ()),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later main call:
    parse_args keeps no state between calls."""
    parser = _Parser(
        prog="shellswitch",
        description="Glued shell spacetimes, radial geodesics, and the "
        "gravitational quantum switch parameter search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="input JSON config")
        p.add_argument(
            "--out", type=out_path, default=None,
            help="output directory" if name == "trace" else "output path",
        )
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return SUBCOMMANDS[args.command][0](_load_json(args.config), args)
    except MissingKeyError as exc:
        print(f"INPUT ERROR: {exc} in {args.config}", file=sys.stderr)
        return EXIT_INPUT
    except InputError as exc:
        print(f"INPUT ERROR: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GeometryError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SearchError as exc:
        print(f"INFEASIBLE: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ShellSwitchError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (KeyError, TypeError, ValueError) as exc:
        print(f"INPUT ERROR: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
