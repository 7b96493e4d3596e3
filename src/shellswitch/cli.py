"""Command-line front end.

Subcommands: validate, stress, search, trace, period, lightray, switch.
Exit codes: 0 success, 1 input error, 2 validity violation, 3 infeasible
search.  All numeric output uses 17 significant digits and is deterministic
for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import GeometryError, InputError, SearchError, ShellSwitchError
from .fields import amplitude, finite, real
from .geodesic import (
    diametral_crossing_time,
    null_crossing_time,
    oscillation_period,
    trajectory,
)
from .search import (
    SearchConfig,
    _exterior_spans,
    find_meeting_radius,
    one_shell_spacetime,
    solve_switch_configuration,
    two_shell_spacetime,
)
from .spacetime import (
    DEFAULT_HORIZON_MARGIN,
    induced_metric_gap,
    shell_stress,
    spacetime_from_config,
    stress_report,
)
from . import switch as sw

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: line {exc.lineno} col {exc.colno}")


def _dump_json(doc, path: str | None) -> None:
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, default=float, allow_nan=False) + "\n"
    except ValueError as exc:
        # the inputs are checked finite: a NaN or infinity here is the program's
        raise ShellSwitchError(f"output holds a non-finite number: {exc}") from exc
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands

def cmd_validate(args) -> int:
    doc = _load_json(args.config)
    st = spacetime_from_config(doc, horizon_margin=args.horizon_margin)
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


def cmd_stress(args) -> int:
    doc = _load_json(args.config)
    st = spacetime_from_config(doc, horizon_margin=args.horizon_margin)
    _dump_json(stress_report(st), args.out)
    return EXIT_OK


def cmd_search(args) -> int:
    config = _search_config(_load_json(args.config), args.ratio, args.tol)
    solution = solve_switch_configuration(config)
    _dump_json(solution.as_dict(), args.out or None)
    if args.out:
        out = Path(args.out)
        _write_csv(out.with_name(out.stem + "_curve.csv"), "R1,f,ratio", solution.curve)
    return EXIT_OK


def cmd_trace(args) -> int:
    if args.samples < 2:
        raise InputError("sample count must be at least 2")
    config = _search_config(_load_json(args.config), args.ratio, args.tol)
    solution = solve_switch_configuration(config)
    meeting = find_meeting_radius(solution, config)
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)

    branches = {
        "gamma1": one_shell_spacetime(config, solution.R),
        "gamma2": two_shell_spacetime(config, solution.R1),
    }
    t_max = float(config.q) * solution.dt1
    for name, st in branches.items():
        samples = trajectory(st, config.r_i, t_max, args.samples)
        _write_csv(outdir / f"{name}.csv", "t_global,r,tau", samples)
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
    written once, so t_global strictly increases.
    """
    r_lo = solution.R1
    radii = [r_lo + (config.r_i - r_lo) * i / (samples - 1) for i in range(samples)]
    passes = ((-1, radii), (+1, [config.r_i - (r - r_lo) for r in radii[1:]]))
    spans = [(sign, r, *_exterior_spans(config, r)) for sign, rs in passes for r in rs]
    halves = {
        "gamma1": (solution.dt1 / 2.0, solution.dtau1 / 2.0),
        "gamma2": (solution.dt2 / 2.0, solution.dtau2 / 2.0),
    }
    for name, (t_half, tau_half) in halves.items():
        rows = sorted(
            ((t_half + sign * t_e, r, tau_half + sign * tau_e) for sign, r, t_e, tau_e in spans),
            key=lambda row: row[0],
        )
        _write_csv(outdir / f"farside_{name}.csv", "t_global,r,tau", rows)


def cmd_period(args) -> int:
    doc = _load_json(args.config)
    st = spacetime_from_config(doc, horizon_margin=args.horizon_margin)
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


def cmd_lightray(args) -> int:
    doc = _load_json(args.config)
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
        st = spacetime_from_config(doc, horizon_margin=args.horizon_margin)
        result["dt_global"] = fn(st, r_a, r_b)
    else:
        # branch delays for a solved two-branch configuration
        config = _search_config(doc)
        solution = solve_switch_configuration(config)
        result["dt_branch1"] = fn(one_shell_spacetime(config, solution.R), r_a, r_b)
        result["dt_branch2"] = fn(two_shell_spacetime(config, solution.R1), r_a, r_b)
    _dump_json(result, args.out)
    return EXIT_OK


def cmd_switch(args) -> int:
    doc = _load_json(args.config)
    B = sw.OperatorSpec.from_json(doc["B"], name="B")
    psi = [amplitude(z, f"psi[{i}]") for i, z in enumerate(doc["psi"])]
    if "C" in doc and "D" in doc:
        C = sw.OperatorSpec.from_json(doc["C"], name="C")
        D = sw.OperatorSpec.from_json(doc["D"], name="D")
        slots = sw.broken_switch_slots(C, D, B)
        orders = {"M1": ["B", "C"], "M2": ["D", "B"]}
    else:
        slots = sw.switch_slots(sw.OperatorSpec.from_json(doc["A"], name="A"), B)
        o1, o2 = sw.SWITCH_ORDERS
        orders = {"M1": list(o1), "M2": list(o2)}
    joint = sw.run_general_protocol(slots, psi)
    plus = sw.measure_control_diagonal(joint, +1)
    minus = sw.measure_control_diagonal(joint, -1)
    _dump_json(
        {
            "joint_state": [[z.real, z.imag] for z in joint.amplitudes],
            "branch_orders": orders,
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


def _search_config(doc: dict, ratio: str | None = None, tol: float | None = None) -> SearchConfig:
    """Search config from a document plus the --ratio/--tol overrides.

    A config the search rejects is an input error, not an infeasible search.
    """
    if ratio:
        p, q = ratio.split("/")
        doc = {**doc, "p": int(p), "q": int(q)}
    if tol is not None:
        doc = {**doc, "tol": tol}
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


def margin(text: str) -> float:
    """A --horizon-margin value: a finite number (the fields rule), not negative."""
    if finite(float(text), "the margin", argparse.ArgumentTypeError) < 0.0:
        raise argparse.ArgumentTypeError(f"the margin must be >= 0, got {text}")
    return float(text)


FLAGS = {
    "--horizon-margin": dict(
        type=margin, default=DEFAULT_HORIZON_MARGIN,
        help="relative shell-horizon clearance required at validation",
    ),
    "--ratio": dict(default=None, help="target ratio as p/q"),
    "--tol": dict(type=float, default=None, help="root tolerance override"),
    "--samples": dict(type=int, default=512, help="rows per trajectory table, at least 2"),
}
SEARCH_FLAGS = ("--ratio", "--tol")

# name: (handler, help, flags it reads beyond --config and --out)
SUBCOMMANDS = {
    "validate": (cmd_validate, "check a spacetime config", ("--horizon-margin",)),
    "stress": (cmd_stress, "shell surface stress-energy report", ("--horizon-margin",)),
    "search": (cmd_search, "solve the switch geometry conditions", SEARCH_FLAGS),
    "trace": (cmd_trace, "trajectories and meeting event", SEARCH_FLAGS + ("--samples",)),
    "period": (cmd_period, "oscillation period for a spacetime", ("--horizon-margin",)),
    "lightray": (cmd_lightray, "radial null crossing times", ("--horizon-margin",)),
    "switch": (cmd_switch, "quantum switch state evolution", ()),
}


def build_parser() -> argparse.ArgumentParser:
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
            "--out", default=None,
            help="output directory" if name == "trace" else "output path",
        )
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return SUBCOMMANDS[args.command][0](args)
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
