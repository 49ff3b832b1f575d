"""Command-line front end.

Exit codes: 0 = check passed / certificate satisfied / info rendered,
1 = valid run with a negative verdict (not woven / hypothesis rejected),
2 = usage or input error.  Reports go to stdout as deterministic JSON;
errors go to stderr as a single machine-parsable line, written in one place:
the group class of ``main``.

A process starts at ``run``, the entry of both ``python -m wovenframes`` and
the ``wovenframes`` script: it calls ``main``, flushes stdout and stderr, and
ends with ``os._exit``, skipping the interpreter's teardown (about 20 ms of a
140 ms run, after the report is already written).  Any exception other than
``SystemExit`` leaves ``run`` as it came, with its traceback and the normal
exit.  Called in-process, as ``CliRunner`` calls it, ``main`` raises
``SystemExit`` as any click group does, and nothing ends the interpreter.
"""

from __future__ import annotations

import json
import os
import sys
from typing import NoReturn

import click

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
    weave,
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


class _OneLineErrors(click.Group):
    """Reports every ToolError, and every usage error click raises, as one
    JSON line on stderr with exit 2.  A bare invocation still prints help."""

    def make_context(self, *args, **kwargs):
        return self._guard(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return self._guard(super().invoke, ctx)

    @staticmethod
    def _guard(step, *args, **kwargs):
        try:
            return step(*args, **kwargs)
        except click.exceptions.NoArgsIsHelpError:
            raise
        except click.ClickException as exc:
            error = InvalidArgumentError(exc.format_message())
        except ToolError as exc:
            error = exc
        click.echo(json.dumps({"error": error.code, "message": error.message}, sort_keys=True), err=True)
        sys.exit(2)


def _emit(command: str, inputs: dict, result, positive: bool):
    click.echo(fio.render_report(command, inputs, result), nl=False)
    sys.exit(0 if positive else 1)


def _one_weaving(file, partition: str) -> tuple[FrameFamily, Partition, dict]:
    """The family, the parsed --partition and the report inputs of a one-weaving command."""
    family = fio.parse_frame_file(file)
    try:
        assignment = tuple(int(x) for x in partition.split(","))
    except ValueError:
        raise InvalidParamsError(f"partition must be a comma-separated word, got {partition!r}")
    p = Partition(assignment, family.m)
    return family, p, {"file": str(file), "partition": p}


def _parse_csv_floats(text: str, name: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise InvalidParamsError(f"--{name} must be comma-separated numbers, got {text!r}")


@click.group(cls=_OneLineErrors)
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True, help="Duality / residual tolerance.")
@click.option("--cap", type=int, default=DEFAULT_CAP, show_default=True, help="Exhaustive enumeration cap on m^n.")
@click.option("--seed", type=int, default=1, show_default=True, help="Seed for sampled mode.")
@click.option("--samples", type=int, default=10000, show_default=True, help="Sample count for sampled mode.")
@click.option("--threads", type=int, default=1, show_default=True, help="Worker threads for exhaustive scans.")
@click.pass_context
def main(ctx, tol, cap, seed, samples, threads):
    """Finite frame toolkit: weaving bounds, wovenness checks, duals, certificates."""
    check_tol(tol)
    for name, value, least in (
        ("threads", threads, 1), ("samples", samples, 1), ("seed", seed, 0), ("cap", cap, 1)
    ):
        if value < least:
            raise InvalidArgumentError(f"{name} must be >= {least}")
    ctx.obj = {"tol": tol, "cap": cap, "seed": seed, "samples": samples, "threads": threads}


@main.group("frames")
def frames_group():
    """Single-frame information."""


@frames_group.command("info")
@click.argument("file", type=click.Path())
@click.pass_obj
def frames_info(opts, file):
    """Report per-frame bounds and frame verdicts."""
    family = fio.parse_frame_file(file)
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
    _emit("frames info", {"file": str(file)}, result, positive=True)


@main.group("weave")
def weave_group():
    """Weaving-level analysis."""


@weave_group.command("check")
@click.argument("file", type=click.Path())
@click.option("--mode", type=click.Choice(["exhaustive", "sample"]), default="exhaustive", show_default=True)
@click.pass_obj
def weave_check(opts, file, mode):
    """Decide (or estimate) wovenness over all partitions."""
    family = fio.parse_frame_file(file)
    if mode == "exhaustive":
        report = exhaustive_woven_check(family, cap=opts["cap"], threads=opts["threads"])
        inputs = {"file": str(file), "mode": mode, "cap": opts["cap"]}
    else:
        report = sampled_woven_estimate(family, samples=opts["samples"], seed=opts["seed"])
        inputs = {"file": str(file), "mode": mode, "samples": opts["samples"], "seed": opts["seed"]}
    _emit("weave check", inputs, report, positive=report.woven)


@weave_group.command("bounds")
@click.argument("file", type=click.Path())
@click.option("--partition", required=True, help="Comma-separated assignment word, e.g. 0,0,1.")
@click.pass_obj
def weave_bounds_cmd(opts, file, partition):
    """Optimal bounds of one weaving."""
    family, p, inputs = _one_weaving(file, partition)
    b = weaving_bounds(family, p)
    result = {"bounds": b, "is_frame": b.lower > 0.0}
    _emit("weave bounds", inputs, result, positive=True)


@weave_group.command("dual")
@click.argument("file", type=click.Path())
@click.option("--partition", required=True, help="Comma-separated assignment word.")
@click.option("--alternate", type=click.Path(), default=None,
              help="Coefficients file selecting kernel combinations for an alternate dual.")
@click.pass_obj
def weave_dual(opts, file, partition, alternate):
    """Canonical (or alternate) dual of one weaving."""
    family, p, inputs = _one_weaving(file, partition)
    if alternate is None:
        dual = weaving_canonical_dual(family, p)
        kind = "canonical"
    else:
        coeffs = fio.parse_coefficients_file(alternate)
        dual = weaving_alternate_dual(family, p, coeffs, tol=opts["tol"])
        kind = "alternate"
        inputs["alternate"] = str(alternate)
    result = {"kind": kind, "dual": dual}
    _emit("weave dual", inputs, result, positive=True)


@weave_group.command("tight")
@click.argument("file", type=click.Path())
@click.option("--partition", required=True, help="Comma-separated assignment word.")
@click.pass_obj
def weave_tight(opts, file, partition):
    """Test one weaving for tightness."""
    family, p, inputs = _one_weaving(file, partition)
    a = is_tight_weaving(family, p, tol=opts["tol"])
    result = {"tight": a is not None, "constant": a}
    _emit("weave tight", inputs, result, positive=a is not None)


def _parse_universal(text: str) -> Bounds:
    vals = _parse_csv_floats(text, "universal")
    if len(vals) != 2:
        raise InvalidParamsError("--universal needs exactly two values A,B")
    return Bounds(vals[0], vals[1])


def _resolve_universal(opts, family: FrameFamily, universal: str | None) -> Bounds:
    if universal is not None:
        return _parse_universal(universal)
    report = exhaustive_woven_check(family, cap=opts["cap"], threads=opts["threads"])
    if not report.woven:
        raise InvalidParamsError(
            "family is not woven, so no universal bounds exist; this certifier "
            "requires a woven family (pass --universal to override)"
        )
    return Bounds(report.universal_lower, report.universal_upper)


@main.command("certify")
@click.argument("method", type=click.Choice(CERTIFY_METHODS))
@click.argument("file", type=click.Path())
@click.option("--k", type=int, default=0, show_default=True, help="Reference frame index.")
@click.option("--lambda", "lambdas", default=None, help="Comma-separated lambda values.")
@click.option("--mu", "mus", default=None, help="Comma-separated mu values.")
@click.option("--ops", type=click.Path(), default=None, help="Operators file.")
@click.option("--universal", default=None, help="Known universal bounds A,B of the woven family.")
@click.option("--perturbed", type=click.Path(), default=None,
              help="Frame file with the perturbed family (synthesis-perturb).")
@click.pass_obj
def certify_cmd(opts, method, file, k, lambdas, mus, ops, universal, perturbed):
    """Run one sufficient-condition certifier."""
    family = fio.parse_frame_file(file)
    inputs = {"file": str(file), "method": method}

    def two_frames():
        if family.m < 2:
            raise InvalidParamsError(f"method {method} needs at least two frames")
        return family.frames[0], family.frames[1]

    if method == "dual-canonicals":
        f, g = two_frames()
        bounds = _resolve_universal(opts, FrameFamily([f, g]), universal)
        inputs["universal"] = bounds
        cert = ct.certify_dual_canonicals(f, g, bounds)
    elif method == "op-characterization":
        if universal is None:
            raise InvalidParamsError("op-characterization needs --universal A,B (A is tested)")
        a = _parse_universal(universal).lower
        inputs["lower_bound"] = a
        cert = ct.verify_operator_characterization(
            family, a, cap=opts["cap"], threads=opts["threads"]
        )
    elif method == "dual-pair":
        f, g = two_frames()
        cert = ct.certify_commuting_dual_pair(f, g, tol=opts["tol"])
    elif method == "op-family":
        if ops is None:
            raise InvalidParamsError("op-family needs --ops <file>")
        operators = fio.parse_operators_file(ops)
        inputs.update({"ops": str(ops), "k": k})
        cert = ct.certify_operator_family(family.frames[0], operators, k)
    elif method == "synthesis-gap":
        inputs["k"] = k
        cert = ct.certify_synthesis_gap(family, k)
    elif method == "positivity":
        inputs["k"] = k
        cert = ct.certify_positivity(family, k)
    elif method == "lm-perturb":
        if lambdas is None or mus is None:
            raise InvalidParamsError("lm-perturb needs --lambda and --mu (one value per i != k)")
        lam = _parse_csv_floats(lambdas, "lambda")
        mu = _parse_csv_floats(mus, "mu")
        if len(lam) != len(mu):
            raise InvalidParamsError("--lambda and --mu must have equal lengths")
        params = [ct.PerturbParams(a, b) for a, b in zip(lam, mu)]
        inputs.update({"k": k, "lambda": lam, "mu": mu})
        cert = ct.certify_lm_perturbation(family, k, params)
    elif method == "invertible":
        if ops is None:
            raise InvalidParamsError("invertible needs --ops <file>")
        operators = fio.parse_operators_file(ops)
        bounds = _resolve_universal(opts, family, universal)
        inputs.update({"ops": str(ops), "universal": bounds})
        cert, _ = ct.certify_invertible_stability(family, bounds, operators)
    else:  # synthesis-perturb
        if perturbed is None:
            raise InvalidParamsError("synthesis-perturb needs --perturbed <file>")
        other = fio.parse_frame_file(perturbed)
        bounds = _resolve_universal(opts, family, universal)
        inputs.update({"perturbed": str(perturbed), "universal": bounds})
        cert = ct.certify_synthesis_perturbation(family, other, bounds)

    _emit("certify", inputs, cert, positive=cert.hypothesis_satisfied)


def run() -> NoReturn:
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
        main()
    except SystemExit as exc:
        code = exc.code
    if code is not None and not isinstance(code, int):
        print(code, file=sys.stderr)
        code = 1
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code or 0)
