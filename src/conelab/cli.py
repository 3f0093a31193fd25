"""Command-line interface: verify / faces / sweep / mesh / nice3d.

Exit code 0 means every check in the requested pipeline passed; failures
name the failing section on stderr. All outputs are deterministic for a
given configuration.

A command's argv is parsed by its own parser, the one argparse builds for
it as a subcommand; the full tree of five subparsers is built only for
top-level help, a missing or unknown command, and leftover arguments. Cold,
that is ~0.8 ms against ~2.3 ms to build and parse (2-core Xeon).
"""

from __future__ import annotations

import argparse
import encodings.ascii  # noqa: F401  (codec of meshes.write_obj)
import locale  # noqa: F401  (argparse's gettext imports it on first use)
import sys

from . import meshes, niceness, reporting
from .linalg import DomainError


def _parse_eps(text):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad epsilon list {text!r}") from exc


# Run flags: dest -> (RunConfig field, flag, type, help). Each command takes
# only the flags it reads; every default is the RunConfig field's.
_RUN_FLAGS = {
    "theta_grid": ("theta_grid_size", "--theta-grid", int, "ruling-parameter grid size"),
    "eps": ("eps_list", "--eps", _parse_eps,
            "comma-separated refinement levels, strictly decreasing"),
}


# Each sweep level samples 0, epsilon and T, so no output reads --samples;
# verify and sweep accept it for the command lines of perfbench/run.py.
_IGNORED_SAMPLES = ("--samples", {"type": int, "help": "ignored: no output reads it"})

# Per command: (help summary, default --out, flags in the order its help
# lists them): a run flag's dest, "out" (undocumented for mesh, whose default
# follows --which), or (option string, add_argument keywords).
_COMMANDS = {
    "verify": ("run the full pipeline, emit a JSON report", "verify_report.json",
               (_IGNORED_SAMPLES, "theta_grid", "eps", "out")),
    "faces": ("emit the face atlas with exposure reports", "face_atlas.json",
              ("theta_grid", "out")),
    "sweep": ("divergence sweep as CSV", "sweep.csv",
              (_IGNORED_SAMPLES, "eps", "out",
               ("--control", {"action": "store_true",
                              "help": "run the polyhedral control cone instead"}))),
    "mesh": ("export a triangle mesh as OBJ", None,
             (("--which", {"choices": ("C", "Cprime"), "default": "C"}),
              ("--samples", {"type": int, "default": 64}), "out")),
    "nice3d": ("3D closedness ingredient checks", "nice3d_report.json", ("out",)),
}


def _add_flags(parser, name):
    """Add command name's flags to parser."""
    _, out, flags = _COMMANDS[name]
    for flag in flags:
        if flag == "out":
            parser.add_argument("--out", default=out, **({"help": "output path"} if out else {}))
        elif isinstance(flag, str):
            field, option, kind, text = _RUN_FLAGS[flag]
            default = getattr(reporting.RunConfig, field)
            shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
            parser.add_argument(option, dest=flag, type=kind, default=default,
                                help=f"{text} (default {shown})")
        else:
            parser.add_argument(flag[0], **flag[1])


def build_parser():
    """The full tree: the top-level parser and one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="Verify the 4D facially-exposed-but-not-nice cone construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=summary), name)
    return parser


def _parse(argv):
    """build_parser().parse_args(argv), from the named command's parser alone
    when it leaves no argument over."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"conelab {argv[0]}")
        _add_flags(parser, argv[0])
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def _config(args):
    fields = {field: getattr(args, dest)
              for dest, (field, *_) in _RUN_FLAGS.items() if hasattr(args, dest)}
    return reporting.RunConfig(**fields)


def main(argv=None):
    args = _parse(argv)
    try:
        if args.command == "verify":
            report = reporting.run_verify(_config(args))
            reporting.write_json(args.out, report)
            print(f"wrote {args.out}; overall: {report['overall']}")
            if report["failures"]:
                print("FAILED sections: " + ", ".join(report["failures"]), file=sys.stderr)
                return 1
            return 0

        if args.command == "faces":
            atlas = reporting.run_faces(_config(args))
            reporting.write_json(args.out, atlas)
            print(f"wrote {args.out}; failed reports: {atlas['failed_reports']}")
            return 0 if atlas["failed_reports"] == 0 else 1

        if args.command == "sweep":
            sweep = niceness.divergence_sweep(args.eps, control=args.control)
            reporting.write_sweep_csv(args.out, sweep)
            print(f"wrote {args.out}; verdict: {sweep['verdict']}")
            return 0

        if args.command == "mesh":
            out = args.out or f"{args.which}.obj"
            mesh = meshes.build_mesh(args.which, args.samples)
            meshes.write_obj(out, mesh)
            v, f = mesh.counts
            print(f"wrote {out}: {v} vertices, {f} triangles")
            return 0

        if args.command == "nice3d":
            report = reporting.run_nice3d()
            reporting.write_json(args.out, report)
            print(f"wrote {args.out}; pass: {report['pass']}")
            return 0 if report["pass"] else 1

    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:  # MemoryError: a size too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
