"""Child processes of the benchmark, one fresh interpreter each.

    child.py setup DIR COUNT               import wovenframes.cli, parse the inputs of
                                           COUNT families, print the monotonic clock
    child.py cli SPANS -- ARGS...          run the CLI with every layer traced
    child.py queries DIR SEED SECONDS [SPANS]
                                           closed loop of library queries

The untraced CLI runs as ``python -m wovenframes``, not through this file.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

QUERY_NAMES = (
    "frame_bounds",
    "weaving_bounds",
    "weaving_canonical_dual",
    "weaving_alternate_dual",
    "dual-canonicals",
    "dual-pair",
    "op-family",
    "synthesis-gap",
    "positivity",
    "lm-perturb",
    "invertible",
    "synthesis-perturb",
)


def parse_inputs(directory: Path, count: int) -> list[dict]:
    """The workload's inputs, read through the package's parsers."""
    from wovenframes import io

    pool = []
    for i in range(count):
        entry = {"family": io.parse_frame_file(directory / f"family-{i}.json")}
        if (directory / f"operators-{i}.json").exists():
            entry["ops"] = io.parse_operators_file(directory / f"operators-{i}.json")
            entry["perturbed"] = io.parse_frame_file(directory / f"perturbed-{i}.json")
            entry["coeffs"] = io.parse_coefficients_file(directory / f"coefficients-{i}.json")
            entry["universal"] = json.loads((directory / f"universal-{i}.json").read_text())["universal"]
        pool.append(entry)
    return pool


def setup(directory: Path, count: int):
    import wovenframes.cli  # noqa: F401

    parse_inputs(directory, count)
    print(repr(time.perf_counter()))


def cli(spans_path: str, args: list[str]):
    import spans
    from wovenframes import cli as wcli

    tracer = spans.Tracer()
    spans.install(tracer)
    index = tracer.begin("cli.main")
    code = 0
    try:
        wcli.main.main(args=args, prog_name="wovenframes")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.end(index)
        tracer.write(spans_path)
    sys.exit(code)


def _prepare(entry, stack, k, lam):
    """Untimed per-family set-up: certifier arguments and frozen verdicts."""
    import numpy as np
    import oracle
    from wovenframes import Bounds, PerturbParams, canonical_dual, lm_perturbation_min_mu

    fam = entry["family"]
    entry["bounds"] = Bounds(*entry["universal"])
    entry["dual0"] = canonical_dual(fam.frames[0])
    # the slack keeps the (lambda, mu) definition check clear of rounding
    entry["params"] = [
        PerturbParams(lam, lm_perturbation_min_mu(fam.frames[k], fam.frames[i], lam) + 1e-9)
        for i in range(fam.m) if i != k
    ]
    perturbed = np.array([fr.vectors for fr in entry["perturbed"].frames])
    entry["expected"] = oracle.expected_verdicts(
        stack, np.array(entry["ops"]), perturbed, entry["universal"], k, lam
    )


def _call(name, entry, partition, frame_index, k):
    from wovenframes import certify, frames, weaving

    fam = entry["family"]
    if name == "frame_bounds":
        return frames.frame_bounds(fam.frames[frame_index])
    if name == "weaving_bounds":
        return weaving.weaving_bounds(fam, partition)
    if name == "weaving_canonical_dual":
        return weaving.weaving_canonical_dual(fam, partition)
    if name == "weaving_alternate_dual":
        return weaving.weaving_alternate_dual(fam, partition, entry["coeffs"])
    if name == "dual-canonicals":
        return certify.certify_dual_canonicals(fam.frames[0], fam.frames[1], entry["bounds"])
    if name == "dual-pair":
        return certify.certify_commuting_dual_pair(fam.frames[0], entry["dual0"])
    if name == "op-family":
        return certify.certify_operator_family(fam.frames[0], entry["ops"], k)
    if name == "synthesis-gap":
        return certify.certify_synthesis_gap(fam, k)
    if name == "positivity":
        return certify.certify_positivity(fam, k)
    if name == "lm-perturb":
        return certify.certify_lm_perturbation(fam, k, entry["params"])
    if name == "invertible":
        return certify.certify_invertible_stability(fam, entry["bounds"], entry["ops"])[0]
    return certify.certify_synthesis_perturbation(fam, entry["perturbed"], entry["bounds"])


def _check(name, result, entry, stack, partition, frame_index) -> list[str]:
    import numpy as np
    import oracle

    rows = stack[list(partition.assignment), np.arange(stack.shape[1])]
    if name == "frame_bounds":
        return oracle.check_bounds((result.lower, result.upper), stack[frame_index])
    if name == "weaving_bounds":
        return oracle.check_bounds((result.lower, result.upper), rows)
    if name.startswith("weaving_"):
        return oracle.check_dual(result.vectors, rows, canonical=name == "weaving_canonical_dual")
    if result.hypothesis_satisfied != entry["expected"][name]:
        return [f"{name} verdict {result.hypothesis_satisfied} != expected {entry['expected'][name]}"]
    return []


def queries(directory: Path, seed: int, seconds: float, spans_path: str | None):
    import numpy as np
    import spans
    import workloads
    from wovenframes import Partition

    count = len(list(directory.glob("family-*.json")))
    pool = parse_inputs(directory, count)
    stacks = [workloads.load_stack(directory / f"family-{i}.json") for i in range(count)]
    k, lam = workloads.REFERENCE_FRAME, workloads.LM_LAMBDA
    for entry, stack in zip(pool, stacks):
        _prepare(entry, stack, k, lam)
    tracer = None
    if spans_path:
        tracer = spans.Tracer()
        spans.install(tracer)

    m, n = stacks[0].shape[:2]
    schedule = np.random.default_rng([seed, 1])
    done = []  # (round, family, name, seconds, result or error, partition, frame index)
    # families are drawn without replacement, so every run weighs them evenly
    families = []
    start = time.perf_counter()
    for rnd in itertools.count():
        if time.perf_counter() - start >= seconds:
            break
        families = families or [int(x) for x in schedule.permutation(count)]
        fam_index = families.pop()
        partition = Partition(tuple(int(x) for x in schedule.integers(m, size=n)), m)
        frame_index = int(schedule.integers(m))
        for q in schedule.permutation(len(QUERY_NAMES)):
            name = QUERY_NAMES[q]
            if tracer:
                tracer.op = len(done)
            t0 = time.perf_counter()
            try:
                result = _call(name, pool[fam_index], partition, frame_index, k)
            except Exception as exc:  # a failed query is counted, not fatal
                result = exc
            done.append((rnd, fam_index, name, time.perf_counter() - t0, result, partition, frame_index))
    loop_s = time.perf_counter() - start
    if tracer:
        tracer.write(spans_path)

    ops = []
    for rnd, fam_index, name, dt, result, partition, frame_index in done:
        if isinstance(result, Exception):
            errors = [f"{name} raised {result!r}"]
        else:
            errors = _check(name, result, pool[fam_index], stacks[fam_index], partition, frame_index)
        ops.append({"round": rnd, "family": fam_index, "query": name, "seconds": dt, "errors": errors})
    print(json.dumps({"loop_s": loop_s, "ops": ops}))


def main(argv: list[str]):
    mode = argv[0]
    if mode == "setup":
        setup(Path(argv[1]), int(argv[2]))
    elif mode == "cli":
        cli(argv[1], argv[argv.index("--") + 1:])
    elif mode == "queries":
        queries(Path(argv[1]), int(argv[2]), float(argv[3]), argv[4] if len(argv) > 4 else None)
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
