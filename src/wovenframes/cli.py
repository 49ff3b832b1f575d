"""Command-line front end.

Exit codes: 0 = check passed / certificate satisfied / info rendered,
1 = valid run with a negative verdict (not woven / hypothesis rejected),
2 = usage or input error.  Reports go to stdout as deterministic JSON;
errors go to stderr as a single machine-parsable line, written in one place:
``main`` catches every ToolError, and the parser's ``error`` raises usage
errors as InvalidArgumentError, so they take the same path.

A process starts at ``run``, the entry of both ``python -m wovenframes`` and
the ``wovenframes`` script: it calls ``main``, flushes stdout and stderr, and
ends with ``os._exit``, skipping the interpreter's teardown (about 20 ms of a
140 ms run, after the report is already written).  Any exception other than
``SystemExit`` leaves ``run`` as it came, with its traceback and the normal
exit.  Called in-process, as ``main.main(args, prog_name)``, ``main`` raises
``SystemExit`` with the exit code, and nothing ends the interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn

from . import certify as ct
from . import io as fio
from .errors import InvalidArgumentError, InvalidParamsError, ToolError
from .frames import Bounds, _bessel_sum, frame_bounds
from .linalg import DEFAULT_TOL, check_tol
from .weaving import (
    DEFAULT_CAP,
    FrameFamily,
    Partition,
    exhaustive_woven_check,
    is_tight_weaving,
    sampled_woven_estimate,
    weaving_alternate_dual,
    weaving_bounds,
    weaving_canonical_dual,
)

CERTIFY_METHODS = (
    "dual-canonicals",
    "op-characterization",
    "dual-pair",
    "op-family",
    "synthesis-gap",
    "positivity",
    "lm-perturb",
    "invertible",
    "synthesis-perturb",
)


class _Parser(argparse.ArgumentParser):
    """Raises every usage error as InvalidArgumentError, for ``main`` to report."""

    def error(self, message: str) -> NoReturn:
        raise InvalidArgumentError(message)


def _emit(command: str, inputs: dict, result, positive: bool) -> NoReturn:
    sys.stdout.write(fio.render_report(command, inputs, result))
    # flushed here, so that a failed write raises from this frame
    sys.stdout.flush()
    sys.exit(0 if positive else 1)


def _one_weaving(file: str, partition: str) -> tuple[FrameFamily, Partition, dict]:
    """The family, the parsed --partition and the report inputs of a one-weaving command."""
    family = fio.parse_frame_file(file)
    try:
        assignment = tuple(int(x) for x in partition.split(","))
    except ValueError:
        raise InvalidParamsError(f"partition must be a comma-separated word, got {partition!r}")
    p = Partition(assignment, family.m)
    return family, p, {"file": file, "partition": p}


def _parse_csv_floats(text: str, name: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise InvalidParamsError(f"--{name} must be comma-separated numbers, got {text!r}")


def frames_info(opts) -> NoReturn:
    family = fio.parse_frame_file(opts.file)
    bounds = [frame_bounds(fr) for fr in family.frames]
    result = {
        "dim": family.dim,
        "vectors_per_frame": family.size,
        "num_frames": family.m,
        "frames": [
            {"label": fr.label, "bounds": b, "is_frame": b.lower > 0.0}
            for fr, b in zip(family.frames, bounds)
        ],
        "bessel_upper_bound": _bessel_sum(bounds),
    }
    _emit("frames info", {"file": opts.file}, result, positive=True)


def weave_check(opts) -> NoReturn:
    family = fio.parse_frame_file(opts.file)
    if opts.mode == "exhaustive":
        report = exhaustive_woven_check(family, cap=opts.cap, threads=opts.threads)
        inputs = {"file": opts.file, "mode": opts.mode, "cap": opts.cap}
    else:
        report = sampled_woven_estimate(family, samples=opts.samples, seed=opts.seed)
        inputs = {"file": opts.file, "mode": opts.mode, "samples": opts.samples, "seed": opts.seed}
    _emit("weave check", inputs, report, positive=report.woven)


def weave_bounds_cmd(opts) -> NoReturn:
    family, p, inputs = _one_weaving(opts.file, opts.partition)
    b = weaving_bounds(family, p)
    result = {"bounds": b, "is_frame": b.lower > 0.0}
    _emit("weave bounds", inputs, result, positive=True)


def weave_dual(opts) -> NoReturn:
    family, p, inputs = _one_weaving(opts.file, opts.partition)
    if opts.alternate is None:
        dual = weaving_canonical_dual(family, p)
        kind = "canonical"
    else:
        coeffs = fio.parse_coefficients_file(opts.alternate)
        dual = weaving_alternate_dual(family, p, coeffs, tol=opts.tol)
        kind = "alternate"
        inputs["alternate"] = opts.alternate
    result = {"kind": kind, "dual": dual}
    _emit("weave dual", inputs, result, positive=True)


def weave_tight(opts) -> NoReturn:
    family, p, inputs = _one_weaving(opts.file, opts.partition)
    a = is_tight_weaving(family, p, tol=opts.tol)
    result = {"tight": a is not None, "constant": a}
    _emit("weave tight", inputs, result, positive=a is not None)


def _parse_universal(text: str) -> Bounds:
    vals = _parse_csv_floats(text, "universal")
    if len(vals) != 2:
        raise InvalidParamsError("--universal needs exactly two values A,B")
    return Bounds(vals[0], vals[1])


def _resolve_universal(opts, family: FrameFamily) -> Bounds:
    if opts.universal is not None:
        return _parse_universal(opts.universal)
    report = exhaustive_woven_check(family, cap=opts.cap, threads=opts.threads)
    if not report.woven:
        raise InvalidParamsError(
            "family is not woven, so no universal bounds exist; this certifier "
            "requires a woven family (pass --universal to override)"
        )
    return Bounds(report.universal_lower, report.universal_upper)


def certify_cmd(opts) -> NoReturn:
    method, k = opts.method, opts.k
    family = fio.parse_frame_file(opts.file)
    inputs = {"file": opts.file, "method": method}

    def two_frames():
        if family.m < 2:
            raise InvalidParamsError(f"method {method} needs at least two frames")
        return family.frames[0], family.frames[1]

    if method == "dual-canonicals":
        f, g = two_frames()
        bounds = _resolve_universal(opts, FrameFamily([f, g]))
        inputs["universal"] = bounds
        cert = ct.certify_dual_canonicals(f, g, bounds)
    elif method == "op-characterization":
        if opts.universal is None:
            raise InvalidParamsError("op-characterization needs --universal A,B (A is tested)")
        a = _parse_universal(opts.universal).lower
        inputs["lower_bound"] = a
        cert = ct.verify_operator_characterization(family, a, cap=opts.cap, threads=opts.threads)
    elif method == "dual-pair":
        f, g = two_frames()
        cert = ct.certify_commuting_dual_pair(f, g, tol=opts.tol)
    elif method == "op-family":
        if opts.ops is None:
            raise InvalidParamsError("op-family needs --ops <file>")
        operators = fio.parse_operators_file(opts.ops)
        inputs.update({"ops": opts.ops, "k": k})
        cert = ct.certify_operator_family(family.frames[0], operators, k)
    elif method == "synthesis-gap":
        inputs["k"] = k
        cert = ct.certify_synthesis_gap(family, k)
    elif method == "positivity":
        inputs["k"] = k
        cert = ct.certify_positivity(family, k)
    elif method == "lm-perturb":
        if opts.lambdas is None or opts.mus is None:
            raise InvalidParamsError("lm-perturb needs --lambda and --mu (one value per i != k)")
        lam = _parse_csv_floats(opts.lambdas, "lambda")
        mu = _parse_csv_floats(opts.mus, "mu")
        if len(lam) != len(mu):
            raise InvalidParamsError("--lambda and --mu must have equal lengths")
        params = [ct.PerturbParams(a, b) for a, b in zip(lam, mu)]
        inputs.update({"k": k, "lambda": lam, "mu": mu})
        cert = ct.certify_lm_perturbation(family, k, params)
    elif method == "invertible":
        if opts.ops is None:
            raise InvalidParamsError("invertible needs --ops <file>")
        operators = fio.parse_operators_file(opts.ops)
        bounds = _resolve_universal(opts, family)
        inputs.update({"ops": opts.ops, "universal": bounds})
        cert, _ = ct.certify_invertible_stability(family, bounds, operators)
    else:  # synthesis-perturb
        if opts.perturbed is None:
            raise InvalidParamsError("synthesis-perturb needs --perturbed <file>")
        other = fio.parse_frame_file(opts.perturbed)
        bounds = _resolve_universal(opts, family)
        inputs.update({"perturbed": opts.perturbed, "universal": bounds})
        cert = ct.certify_synthesis_perturbation(family, other, bounds)

    _emit("certify", inputs, cert, positive=cert.hypothesis_satisfied)


def _parser(prog: str | None) -> _Parser:
    """The command tree; each command's parser names the function that runs it as ``func``."""

    def commands(parser):
        return parser.add_subparsers(metavar="COMMAND", required=True)

    def command(group, name, summary, func=None):
        parser = group.add_parser(name, help=summary, description=summary, allow_abbrev=False)
        parser.set_defaults(func=func)
        return parser

    root = _Parser(
        prog=prog,
        description="Finite frame toolkit: weaving bounds, wovenness checks, duals, certificates.",
        allow_abbrev=False,
    )
    for name, kind, default, help in (
        ("tol", float, DEFAULT_TOL, "Duality / residual tolerance."),
        ("cap", int, DEFAULT_CAP, "Exhaustive enumeration cap on m^n."),
        ("seed", int, 1, "Seed for sampled mode."),
        ("samples", int, 10000, "Sample count for sampled mode."),
        ("threads", int, 1, "Worker threads for exhaustive scans."),
    ):
        root.add_argument(f"--{name}", type=kind, default=default, help=f"{help} [default: %(default)s]")
    groups = commands(root)

    frames = commands(command(groups, "frames", "Single-frame information."))
    command(frames, "info", "Report per-frame bounds and frame verdicts.", frames_info).add_argument("file")

    weave = commands(command(groups, "weave", "Weaving-level analysis."))
    check = command(weave, "check", "Decide (or estimate) wovenness over all partitions.", weave_check)
    check.add_argument("file")
    check.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive", help="[default: %(default)s]")
    for name, summary, func in (
        ("bounds", "Optimal bounds of one weaving.", weave_bounds_cmd),
        ("dual", "Canonical (or alternate) dual of one weaving.", weave_dual),
        ("tight", "Test one weaving for tightness.", weave_tight),
    ):
        parser = command(weave, name, summary, func)
        parser.add_argument("file")
        parser.add_argument("--partition", required=True, help="Comma-separated assignment word, e.g. 0,0,1.")
        if name == "dual":
            parser.add_argument(
                "--alternate", help="Coefficients file selecting kernel combinations for an alternate dual."
            )

    certify = command(groups, "certify", "Run one sufficient-condition certifier.", certify_cmd)
    certify.add_argument("method", choices=CERTIFY_METHODS)
    certify.add_argument("file")
    certify.add_argument("--k", type=int, default=0, help="Reference frame index. [default: %(default)s]")
    certify.add_argument("--lambda", dest="lambdas", help="Comma-separated lambda values.")
    certify.add_argument("--mu", dest="mus", help="Comma-separated mu values.")
    certify.add_argument("--ops", help="Operators file.")
    certify.add_argument("--universal", help="Known universal bounds A,B of the woven family.")
    certify.add_argument("--perturbed", help="Frame file with the perturbed family (synthesis-perturb).")
    return root


def main(args: list[str] | None = None, prog_name: str | None = None) -> NoReturn:
    """Run one command on ``args`` (default ``sys.argv[1:]``) and raise SystemExit
    with its exit code.  Every ToolError, usage errors included, ends here as one
    JSON line on stderr and exit 2.  ``prog_name`` (default: the name the
    process was started as) is the program named in help pages."""
    args = sys.argv[1:] if args is None else args
    try:
        parser = _parser(prog_name)
        try:
            opts = parser.parse_args(args)
        except InvalidArgumentError as exc:
            # argparse reads the value of an unknown option before the command as the command
            i = 0
            while i < len(args) and args[i].partition("=")[0] in parser._option_string_actions:
                i += 1 if "=" in args[i] else 2
            option, value = (list(args[i : i + 2]) + ["", ""])[:2]
            if option.startswith("-") and "=" not in option and f"invalid choice: {value!r}" in exc.message:
                raise InvalidArgumentError(f"unrecognized arguments: {option} {value}") from None
            raise
        check_tol(opts.tol)
        for name, least in (("threads", 1), ("samples", 1), ("seed", 0), ("cap", 1)):
            if getattr(opts, name) < least:
                raise InvalidArgumentError(f"{name} must be >= {least}")
        opts.func(opts)
    except ToolError as exc:
        print(json.dumps({"error": exc.code, "message": exc.message}, sort_keys=True), file=sys.stderr)
        sys.exit(2)


# the in-process entry that callers such as the benchmark's traced child use
main.main = main


def run(prog_name: str | None = None) -> NoReturn:
    """Run ``main`` as a process and end it without interpreter teardown.

    Only ``SystemExit`` is caught; its code maps to an exit status as CPython
    maps it: None is 0, an int is itself, anything else is printed to stderr
    and exits 1.  Both streams are flushed before ``os._exit``, so a report
    arrives whole, and a flush that fails raises here like any other write.
    The scans join their worker threads before a report is emitted, so no
    thread is running at exit.
    """
    code = None
    try:
        main(prog_name=prog_name)
    except SystemExit as exc:
        code = exc.code
    if code is not None and not isinstance(code, int):
        print(code, file=sys.stderr)
        code = 1
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code or 0)
