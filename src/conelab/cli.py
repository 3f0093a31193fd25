"""Command-line interface: verify / faces / sweep / mesh / nice3d.

Exit code 0 means every check in the requested pipeline passed; failures
name the failing section on stderr. All outputs are deterministic for a
given configuration.

A well-formed command line, a command followed only by its flags, each
given whole or by a unique prefix with its value as the next argument, is
read straight from the flag table (_read), through each flag's type and
choices as argparse applies them. Everything else, help and every usage
error included, goes to the argparse tree of five subparsers, so argparse,
gettext and locale load only for those. Cold, the table reads the
benchmark's command lines in 0.02-0.05 ms, where the command's own
argparse parser took 0.38-0.49 ms (2-core Xeon, BENCH_parse.json).
"""

import sys
from types import SimpleNamespace

# reporting's layers load before meshes: with meshes first, a cold start's
# gen-0 garbage collection fell into main (~0.15 ms of a 0.7 ms nice3d run)
from . import reporting, meshes, niceness
from .linalg import DomainError


def _parse_eps(text):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        import argparse  # argparse's own error type keeps its message

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
               ("--control", {"action": "store_true", "default": False,
                              "help": "run the polyhedral control cone instead"}))),
    "mesh": ("export a triangle mesh as OBJ", None,
             (("--which", {"choices": meshes.BODY_NAMES, "default": "C"}),
              ("--samples", {"type": int, "default": 64}), "out")),
    "nice3d": ("3D closedness ingredient checks", "nice3d_report.json", ("out",)),
}


def _flags(name):
    """Command name's flags, option string -> add_argument keywords with the
    dest, in the order its help lists them."""
    _, out, flags = _COMMANDS[name]
    table = {}
    for flag in flags:
        if flag == "out":
            table["--out"] = {"dest": "out", "default": out,
                              **({"help": "output path"} if out else {})}
        elif isinstance(flag, str):
            field, option, kind, text = _RUN_FLAGS[flag]
            default = getattr(reporting.RunConfig, field)
            shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
            table[option] = {"dest": flag, "type": kind, "default": default,
                             "help": f"{text} (default {shown})"}
        else:
            table[flag[0]] = {"dest": flag[0][2:], **flag[1]}
    return table


def build_parser():
    """The full tree: the top-level parser and one subparser per command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="conelab",
        description="Verify the 4D facially-exposed-but-not-nice cone construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for option, keywords in _flags(name).items():
            command.add_argument(option, **keywords)
    return parser


def _read(name, tokens):
    """The namespace build_parser().parse_args([name, *tokens]) gives, read
    from the flag table; None for a line argparse must read: help, "--", an
    "=" form, a value starting with "-", a positional, an unknown or
    ambiguous option, and a value its type or choices refuse."""
    flags = _flags(name)
    args = {"command": name, **{kw["dest"]: kw.get("default") for kw in flags.values()}}
    tokens = iter(tokens)
    for token in tokens:
        # a prefix of --help ("--" included) may mean help; every flag starts
        # with "--" and holds no "=", so no other positional or "=" form matches
        hits = [token] if token in flags else [o for o in flags if o.startswith(token)]
        if "--help".startswith(token) or len(hits) != 1:
            return None
        keywords = flags[hits[0]]
        if keywords.get("action") == "store_true":
            value = True
        else:
            text = next(tokens, "-")  # a missing value declines as "-" does
            if text.startswith("-"):
                return None
            try:
                value = keywords.get("type", str)(text)
            except Exception:  # the tree calls the type again: argparse reports it or raises
                return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        args[keywords["dest"]] = value
    return SimpleNamespace(**args)


def _parse(argv):
    """build_parser().parse_args(argv), from the flag table where it reads
    the whole line."""
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    return build_parser().parse_args(argv) if args is None else args


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
