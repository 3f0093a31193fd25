"""Command-line interface: verify / faces / sweep / mesh / nice3d.

Exit code 0 means every check in the requested pipeline passed; failures
name the failing section on stderr. All outputs are deterministic for a
given configuration.

One table, _COMMANDS, holds each command's flags as argparse keywords. A
well-formed command line, a command followed only by its flags, each given
whole with its value as the next argument, is read straight from it
(_read), through each flag's type and choices as argparse applies them.
Everything else, a flag's prefix, help and every usage error included, goes
to the argparse tree that build_parser makes from the same table, so
argparse, gettext and locale load only for those. Cold, the table reads the
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


# Flags of several commands; a run flag's default is its RunConfig field's.
# Each sweep level samples 0, epsilon and T, so no output reads --samples;
# verify and sweep accept it for the command lines of perfbench/run.py.
_GRID_SIZE, _LEVELS = reporting.RunConfig.theta_grid_size, reporting.RunConfig.eps_list
_THETA_GRID = {"--theta-grid": {"type": int, "default": _GRID_SIZE,
                                "help": f"ruling-parameter grid size (default {_GRID_SIZE})"}}
_EPS = {"--eps": {"type": _parse_eps, "default": _LEVELS,
                  "help": "comma-separated refinement levels, strictly decreasing "
                          f"(default {','.join(map(str, _LEVELS))})"}}
_SAMPLES = {"--samples": {"type": int, "help": "ignored: no output reads it"}}


def _out(path):
    return {"--out": {"default": path, "help": "output path"}}


# Per command: its help summary and its flags, option string -> add_argument
# keywords, in the order its help lists them. Each dest is argparse's own
# (--theta-grid -> theta_grid). mesh's --out is undocumented: its default
# follows --which.
_COMMANDS = {
    "verify": ("run the full pipeline, emit a JSON report",
               {**_SAMPLES, **_THETA_GRID, **_EPS, **_out("verify_report.json")}),
    "faces": ("emit the face atlas with exposure reports",
              {**_THETA_GRID, **_out("face_atlas.json")}),
    "sweep": ("divergence sweep as CSV",
              {**_SAMPLES, **_EPS, **_out("sweep.csv"),
               "--control": {"action": "store_true", "default": False,
                             "help": "run the polyhedral control cone instead"}}),
    "mesh": ("export a triangle mesh as OBJ",
             {"--which": {"choices": meshes.BODY_NAMES, "default": "C"},
              "--samples": {"type": int, "default": 64}, "--out": {}}),
    "nice3d": ("3D closedness ingredient checks", _out("nice3d_report.json")),
}


def build_parser():
    """The full tree: the top-level parser and one subparser per command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="conelab",
        description="Verify the 4D facially-exposed-but-not-nice cone construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for option, keywords in flags.items():
            command.add_argument(option, **keywords)
    return parser


def _read(name, tokens):
    """The namespace build_parser().parse_args([name, *tokens]) gives, read
    from the table; None for a line argparse must read: a token that is not
    one of the command's flags given whole (help, "--", a prefix, an "="
    form, a positional), a value starting with "-", and a value its type or
    choices refuse."""
    flags = _COMMANDS[name][1]
    args = {option[2:].replace("-", "_"): kw.get("default") for option, kw in flags.items()}
    tokens = iter(tokens)
    for token in tokens:
        keywords = flags.get(token)
        if keywords is None:
            return None
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
            if value not in keywords.get("choices", (value,)):
                return None
        args[token[2:].replace("-", "_")] = value
    return SimpleNamespace(command=name, **args)


def _parse(argv):
    """build_parser().parse_args(argv), from the table where it reads the
    whole line."""
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    return build_parser().parse_args(argv) if args is None else args


def _run(args):
    """Run the command and write its output: the path, the summary printed
    after it, and the failure text ("" when every check passed)."""
    if args.command == "verify":
        report = reporting.run_verify(reporting.RunConfig(args.theta_grid, args.eps))
        reporting.write_json(args.out, report)
        failed = ", ".join(report["failures"])
        return args.out, f"; overall: {report['overall']}", failed and "sections: " + failed
    if args.command == "faces":
        atlas = reporting.run_faces(reporting.RunConfig(args.theta_grid))
        reporting.write_json(args.out, atlas)
        failed = atlas["failed_reports"]
        return (args.out, f"; failed reports: {failed}",
                f"face reports: {failed}, listed in {args.out}" if failed else "")
    if args.command == "sweep":
        sweep = niceness.divergence_sweep(args.eps, control=args.control)
        reporting.write_sweep_csv(args.out, sweep)
        return args.out, f"; verdict: {sweep['verdict']}", ""
    if args.command == "mesh":
        out = args.out or f"{args.which}.obj"
        mesh = meshes.build_mesh(args.which, args.samples)
        meshes.write_obj(out, mesh)
        return out, ": {} vertices, {} triangles".format(*mesh.counts), ""
    report = reporting.run_nice3d()
    reporting.write_json(args.out, report)
    failed = ", ".join([k for k in ("octant", "half_disc") if not report[k]["pass"]]
                       + ([] if report["perp_normal_rejected"] else ["perp_normal_rejected"]))
    return args.out, f"; pass: {report['pass']}", failed and "checks: " + failed


def main(argv=None):
    args = _parse(argv)
    try:
        # the printing stays in the try: a closed stdout is one error line too
        out, summary, failure = _run(args)
        print(f"wrote {out}{summary}")
        if failure:
            print(f"FAILED {failure}", file=sys.stderr)
        return 1 if failure else 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:  # MemoryError: a size too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
