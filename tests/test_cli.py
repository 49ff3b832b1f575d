import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from support import (
    CliRunner,
    clamped_shift_frame,
    counterexample_family,
    example_pair,
    family_to_dict,
    full_flat_scan,
    random_woven_family,
)
from wovenframes import (
    Bounds,
    Certificate,
    Frame,
    FrameFamily,
    Partition,
    WeavingReport,
    lm_perturbation_min_mu,
    weaving,
)
from wovenframes.cli import CERTIFY_METHODS, main
from wovenframes.io import (
    parse_coefficients_file,
    parse_frame_file,
    parse_operators_file,
    render_report,
)
from wovenframes.errors import (
    DimensionMismatchError,
    EmptyFamilyError,
    ParseError,
)


@pytest.fixture
def runner():
    return CliRunner()


def write_family(path, family):
    doc = family_to_dict(family)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    f, g = example_pair()
    return write_family(tmp_path / "pair.json", FrameFamily([f, g]))


@pytest.fixture
def counter_file(tmp_path):
    return write_family(tmp_path / "counter.json", counterexample_family())


class TestParsing:
    def test_round_trip(self, tmp_path, pair_file):
        fam = parse_frame_file(pair_file)
        again = write_family(tmp_path / "again.json", fam)
        back = parse_frame_file(again)
        assert back.m == fam.m
        for a, b in zip(fam.frames, back.frames):
            assert a.label == b.label
            np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            parse_frame_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_frame_file(tmp_path / "absent.json")

    def test_empty_family(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"dim": 2, "frames": []}))
        with pytest.raises(EmptyFamilyError):
            parse_frame_file(p)

    def test_dim_mismatch(self, tmp_path):
        p = tmp_path / "mismatch.json"
        p.write_text(
            json.dumps({"dim": 3, "frames": [{"label": "F", "vectors": [[1.0, 0.0]]}]})
        )
        with pytest.raises(DimensionMismatchError):
            parse_frame_file(p)

    def test_ragged_frames(self, tmp_path):
        p = tmp_path / "ragged.json"
        p.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "frames": [
                        {"vectors": [[1.0, 0.0], [0.0, 1.0]]},
                        {"vectors": [[1.0, 0.0]]},
                    ],
                }
            )
        )
        with pytest.raises(DimensionMismatchError):
            parse_frame_file(p)

    def test_boolean_dim_exit_two(self, runner, tmp_path):
        p = tmp_path / "bool_dim.json"
        p.write_text(json.dumps({"dim": True, "frames": [{"vectors": [[1.0]]}]}))
        with pytest.raises(ParseError):
            parse_frame_file(p)
        res = runner.invoke(main, ["frames", "info", str(p)])
        assert res.exit_code == 2
        assert json.loads(res.stderr)["error"] == "parse-error"

    def test_operators_file(self, tmp_path):
        p = tmp_path / "ops.json"
        p.write_text(json.dumps({"operators": [[[1.0, 0.0], [0.0, 1.0]]]}))
        ops = parse_operators_file(p)
        assert len(ops) == 1
        np.testing.assert_array_equal(ops[0], np.eye(2))

    def test_coefficients_file(self, tmp_path):
        p = tmp_path / "coeff.json"
        p.write_text(json.dumps({"coefficients": [[0.0], [1.0]]}))
        np.testing.assert_array_equal(parse_coefficients_file(p), [[0.0], [1.0]])

    @pytest.mark.parametrize("entry", ["true", '"2"', "1" + "0" * 400], ids=["bool", "string", "huge-int"])
    @pytest.mark.parametrize(
        "parse, template",
        [
            (parse_frame_file, '{"dim": 2, "frames": [{"vectors": [[%s, 0], [0, 1]]}]}'),
            (parse_operators_file, '{"operators": [[[%s, 0], [0, 1]]]}'),
            (parse_coefficients_file, '{"coefficients": [[%s], [1]]}'),
        ],
        ids=["frame", "operators", "coefficients"],
    )
    def test_entries_must_be_json_numbers(self, tmp_path, parse, template, entry):
        p = tmp_path / "entries.json"
        p.write_text(template % entry)
        with pytest.raises(ParseError):
            parse(p)


class TestWeaveCheck:
    def test_woven_exit_zero(self, runner, pair_file):
        res = runner.invoke(main, ["weave", "check", pair_file])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["result"]["woven"] is True
        assert doc["result"]["partitions_examined"] == 8

    def test_not_woven_exit_one(self, runner, counter_file):
        res = runner.invoke(main, ["weave", "check", counter_file])
        assert res.exit_code == 1
        doc = json.loads(res.output)
        assert doc["result"]["woven"] is False
        assert doc["result"]["witness_partition"] == [0, 0, 1]

    def test_all_zero_family_exit_one(self, runner, tmp_path):
        # the one family whose largest weaving trace squares to 0 and is accepted
        path = write_family(tmp_path / "zero.json", FrameFamily([Frame(np.zeros((3, 2)))] * 2))
        for mode in ("exhaustive", "sample"):
            res = runner.invoke(main, ["weave", "check", path, "--mode", mode])
            assert res.exit_code == 1
            doc = json.loads(res.output)["result"]
            assert (doc["woven"], doc["universal_lower"], doc["universal_upper"]) == (False, 0.0, 0.0)

    def test_missing_file_exit_two(self, runner, tmp_path):
        res = runner.invoke(main, ["weave", "check", str(tmp_path / "absent.json")])
        assert res.exit_code == 2

    def test_cap_exit_two(self, runner, pair_file):
        res = runner.invoke(main, ["--cap", "4", "weave", "check", pair_file])
        assert res.exit_code == 2

    def test_sampled_mode(self, runner, pair_file):
        res = runner.invoke(
            main, ["--samples", "100", "--seed", "3", "weave", "check", pair_file, "--mode", "sample"]
        )
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["result"]["mode"] == "sampled"
        assert doc["result"]["seed"] == 3

    def test_byte_identical_reruns(self, runner, pair_file):
        args = ["weave", "check", pair_file]
        outs = {runner.invoke(main, args).output for _ in range(3)}
        assert len(outs) == 1

    def test_thread_count_invariant_output(self, runner, pair_file, tmp_path, monkeypatch):
        rng = np.random.default_rng(37)
        # 2^15 words at d=2
        cells = write_family(
            tmp_path / "cells.json",
            FrameFamily([Frame(rng.normal(size=(15, 2))) for _ in range(2)]),
        )
        # identical frames at d=8: all 2^15 weavings tie exactly on lambda_min
        fr = Frame(rng.normal(size=(15, 8)))
        all_tied = write_family(tmp_path / "all_tied.json", FrameFamily([fr, fr]))
        # 2^15 words at d=3
        two_chunks = write_family(
            tmp_path / "two_chunks.json",
            FrameFamily([Frame(rng.normal(size=(15, 3))) for _ in range(2)]),
        )
        stacks = []
        scan = weaving._scan

        def recording_scan(s):
            stacks.append(len(s))
            return scan(s)

        monkeypatch.setattr(weaving, "_scan", recording_scan)
        for path, words in ((pair_file, 8), (cells, 2**15), (all_tied, 2**15), (two_chunks, 2**15)):
            outputs, sizes = [], []
            for threads in ("1", "2"):
                stacks.clear()
                outputs.append(runner.invoke(main, ["--threads", threads, "weave", "check", path]).output)
                sizes.append(sorted(stacks))
            assert json.loads(outputs[0])["result"]["partitions_examined"] == words
            assert outputs[0] == outputs[1]
            assert sizes[0] == sizes[1]

    def test_cell_path_output_matches_the_flat_scan(self, runner, pair_file, tmp_path):
        # d = 2 families: stdout is the full scan's report, at 1 and 2 threads
        rng = np.random.default_rng(79)
        base = rng.normal(size=(12, 2))
        near = FrameFamily([Frame(base), Frame(base + 0.3 * rng.normal(size=(12, 2)))])
        # integer vectors with zero and parallel ones; frame 2 spans one line only
        ints = rng.integers(-2, 3, size=(3, 7, 2)).astype(float)
        ints[1, :4] = 2 * ints[0, :4]
        ints[:, 5] = 0.0
        ints[2, :, 1] = 0.0
        paths = [
            pair_file,
            write_family(tmp_path / "near.json", near),
            write_family(tmp_path / "ints.json", FrameFamily([Frame(x) for x in ints])),
        ]

        codes = set()
        for path in paths:
            report = full_flat_scan(parse_frame_file(path))
            inputs = {"file": path, "mode": "exhaustive", "cap": weaving.DEFAULT_CAP}
            expected = (1 - report.woven, render_report("weave check", inputs, report), "")
            for t in ("1", "2"):
                r = runner.invoke(main, ["--threads", t, "weave", "check", path])
                assert (r.exit_code, r.stdout, r.stderr) == expected
            codes.add(r.exit_code)
        assert codes == {0, 1}

    def test_fewer_than_one_thread_exit_two(self, runner, pair_file):
        # the group validates --threads, --samples and --seed for every mode
        invocations = (
            ["--threads", "0", "weave", "check", pair_file],
            ["--threads", "-5", "weave", "check", pair_file],
            ["--threads", "0", "weave", "check", pair_file, "--mode", "sample"],
            ["--samples", "0", "weave", "check", pair_file],
            ["--seed", "-1", "weave", "check", pair_file, "--mode", "sample"],
        )
        for args in invocations:
            res = runner.invoke(main, args)
            assert res.exit_code == 2
            assert res.stdout == ""
            assert len(res.stderr.splitlines()) == 1
            assert json.loads(res.stderr)["error"] == "invalid-argument"

    def test_sampled_seed_invariance(self, runner, pair_file):
        a = runner.invoke(main, ["--seed", "7", "weave", "check", pair_file, "--mode", "sample"])
        b = runner.invoke(main, ["--seed", "7", "weave", "check", pair_file, "--mode", "sample"])
        assert a.output == b.output


class TestFramesInfo:
    def test_basic(self, runner, pair_file):
        res = runner.invoke(main, ["frames", "info", pair_file])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["result"]["dim"] == 2
        assert doc["result"]["num_frames"] == 2
        assert doc["result"]["bessel_upper_bound"] == pytest.approx(6.0)
        first = doc["result"]["frames"][0]
        assert first["is_frame"] is True
        assert first["bounds"]["lower"] == pytest.approx(1.0)

    def test_solves_each_frame_once(self, runner, tmp_path, monkeypatch):
        family = random_woven_family(np.random.default_rng(5), 3, 6, 2)[0]
        path = write_family(tmp_path / "three.json", family)
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(s):
            solved.append(s.shape)
            return eigvalsh(s)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        res = runner.invoke(main, ["frames", "info", path])
        monkeypatch.undo()
        assert res.exit_code == 0
        assert solved == [(2, 2)] * 3
        # the sum of the bounds it reports, in frame order, as the library sums them
        assert json.loads(res.output)["result"]["bessel_upper_bound"] == weaving.bessel_upper_bound(family)


class TestWeaveBounds:
    def test_partition_word(self, runner, pair_file):
        res = runner.invoke(main, ["weave", "bounds", pair_file, "--partition", "0,0,1"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["result"]["bounds"]["lower"] == pytest.approx(1.0)
        assert doc["result"]["bounds"]["upper"] == pytest.approx(3.0)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("mode", ["exhaustive", "sample"])
    def test_witness_replays_the_check(self, runner, tmp_path, d, mode):
        # d = 2 takes the cell path, d = 3 the flat scan
        rng = np.random.default_rng(211 + d)
        for i in range(4):
            base = rng.normal(size=(12, d))
            fam = FrameFamily([Frame(base), Frame(base + 0.3 * rng.normal(size=(12, d)))])
            path = write_family(tmp_path / f"family-{i}.json", fam)
            check = runner.invoke(main, ["weave", "check", path, "--mode", mode]).output
            word = ",".join(map(str, json.loads(check)["result"]["witness_partition"]))
            bounds = runner.invoke(main, ["weave", "bounds", path, "--partition", word]).output
            lower = re.search(r'"universal_lower": (\S+),', check).group(1)
            assert re.search(r'"lower": (\S+),', bounds).group(1) == lower

    def test_bad_partition_exit_two(self, runner, pair_file):
        res = runner.invoke(main, ["weave", "bounds", pair_file, "--partition", "0,2,0"])
        assert res.exit_code == 2
        assert json.loads(res.stderr)["error"] == "index-out-of-range"


class TestWeaveDual:
    def test_canonical(self, runner, pair_file):
        res = runner.invoke(main, ["weave", "dual", pair_file, "--partition", "0,0,1"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["result"]["kind"] == "canonical"
        np.testing.assert_allclose(
            doc["result"]["dual"]["vectors"],
            [[2 / 3, 1 / 3], [1 / 3, 2 / 3], [1 / 3, -1 / 3]],
            atol=1e-12,
        )

    def test_alternate(self, runner, pair_file, tmp_path):
        coeff = tmp_path / "coeff.json"
        coeff.write_text(json.dumps({"coefficients": [[1.0], [0.0]]}))
        res = runner.invoke(
            main,
            ["weave", "dual", pair_file, "--partition", "0,0,1", "--alternate", str(coeff)],
        )
        assert res.exit_code == 0
        assert json.loads(res.output)["result"]["kind"] == "alternate"

    def test_tol_must_be_finite_and_nonnegative(self, runner, pair_file, tmp_path):
        # U's rows lie outside ker(T_W): every non-finite tol used to accept it
        coeff = tmp_path / "outside.json"
        coeff.write_text(json.dumps({"coefficients": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}))
        args = ["weave", "dual", pair_file, "--partition", "0,0,1", "--alternate", str(coeff)]
        for tol in ("1e-10", "0"):
            res = runner.invoke(main, ["--tol", tol, *args])
            assert res.exit_code == 2
            assert json.loads(res.stderr)["error"] == "constraint-violated"
        for tol in ("nan", "inf", "-1"):
            res = runner.invoke(main, ["--tol", tol, *args])
            assert res.exit_code == 2
            assert res.stdout == ""
            assert len(res.stderr.splitlines()) == 1
            assert json.loads(res.stderr)["error"] == "invalid-argument"

    def test_singular_weaving_exit_two(self, runner, counter_file):
        res = runner.invoke(main, ["weave", "dual", counter_file, "--partition", "0,0,1"])
        assert res.exit_code == 2
        assert json.loads(res.stderr)["error"] == "not-a-frame"


class TestWeaveTight:
    def test_tight_pair(self, runner, tmp_path):
        fam = FrameFamily([Frame(np.eye(2), label="F"), Frame(np.eye(2), label="G")])
        path = write_family(tmp_path / "tight.json", fam)
        res = runner.invoke(main, ["weave", "tight", path, "--partition", "0,1"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["result"]["tight"] is True
        assert doc["result"]["constant"] == pytest.approx(1.0)

    def test_three_frames(self, runner, tmp_path):
        fam = FrameFamily([Frame(s * np.eye(2)) for s in (1.0, 2.0, 3.0)])
        path = write_family(tmp_path / "triple.json", fam)
        res = runner.invoke(main, ["weave", "tight", path, "--partition", "2,2"])
        assert res.exit_code == 0
        assert json.loads(res.output)["result"]["constant"] == pytest.approx(9.0)

    def test_not_tight(self, runner, pair_file):
        res = runner.invoke(main, ["weave", "tight", pair_file, "--partition", "0,0,1"])
        assert res.exit_code == 1
        assert json.loads(res.output)["result"]["tight"] is False


class TestCertifyCommand:
    def test_dual_pair_positive(self, runner, tmp_path):
        fam = FrameFamily([Frame(0.5 * np.eye(3), label="F"), Frame(2.0 * np.eye(3), label="G")])
        path = write_family(tmp_path / "scaled.json", fam)
        res = runner.invoke(main, ["certify", "dual-pair", path])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["result"]["guaranteed_lower"] == pytest.approx(1 / 8)
        assert doc["result"]["guaranteed_upper"] == pytest.approx(17 / 4)

    def test_dual_canonicals_reject_exit_one(self, runner, pair_file):
        res = runner.invoke(main, ["certify", "dual-canonicals", pair_file])
        assert res.exit_code == 1
        assert json.loads(res.output)["result"]["hypothesis_satisfied"] is False

    def test_positivity_reject(self, runner, tmp_path):
        fam = FrameFamily(
            [clamped_shift_frame(6, (0, 1)), clamped_shift_frame(6, (0, 1, 2))]
        )
        path = write_family(tmp_path / "shift.json", fam)
        res = runner.invoke(main, ["certify", "positivity", path, "--k", "0"])
        assert res.exit_code == 1
        doc = json.loads(res.output)
        assert doc["result"]["margins"]["min_difference_eigenvalue"] == pytest.approx(-1.0)

    def test_op_characterization(self, runner, pair_file):
        res = runner.invoke(
            main, ["certify", "op-characterization", pair_file, "--universal", "0.4,6"]
        )
        assert res.exit_code == 0

    def test_op_characterization_needs_two_universal_values(self, runner, pair_file):
        for universal in ("3", "1,2,3"):
            res = runner.invoke(
                main, ["certify", "op-characterization", pair_file, "--universal", universal]
            )
            assert res.exit_code == 2
            assert json.loads(res.stderr)["error"] == "invalid-params"

    def test_op_family(self, runner, pair_file, tmp_path):
        ops = tmp_path / "ops.json"
        ops.write_text(
            json.dumps({"operators": [np.eye(2).tolist(), (1.1 * np.eye(2)).tolist()]})
        )
        res = runner.invoke(main, ["certify", "op-family", pair_file, "--ops", str(ops)])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["result"]["guaranteed_lower"] == pytest.approx((1 - 0.1 * np.sqrt(3)) ** 2)

    def test_lm_perturb(self, runner, tmp_path):
        f, _ = example_pair()
        fam = FrameFamily([f, Frame(f.vectors.copy(), label="copy")])
        path = write_family(tmp_path / "dup.json", fam)
        res = runner.invoke(
            main, ["certify", "lm-perturb", path, "--k", "0", "--lambda", "0.5", "--mu", "0"]
        )
        assert res.exit_code == 0

    def test_invertible(self, runner, pair_file, tmp_path):
        ops = tmp_path / "ops.json"
        ops.write_text(
            json.dumps({"operators": [np.eye(2).tolist(), np.eye(2).tolist()]})
        )
        res = runner.invoke(main, ["certify", "invertible", pair_file, "--ops", str(ops)])
        assert res.exit_code == 0

    def test_synthesis_perturb(self, runner, pair_file, tmp_path):
        fam = parse_frame_file(pair_file)
        moved = FrameFamily(
            [Frame(fr.vectors + 1e-3, label=fr.label) for fr in fam.frames]
        )
        other = write_family(tmp_path / "moved.json", moved)
        res = runner.invoke(
            main, ["certify", "synthesis-perturb", pair_file, "--perturbed", other]
        )
        assert res.exit_code == 0

    def test_synthesis_gap(self, runner, pair_file):
        res = runner.invoke(main, ["certify", "synthesis-gap", pair_file, "--k", "0"])
        assert res.exit_code in (0, 1)
        assert json.loads(res.output)["result"]["method"] == "synthesis-gap"

    def test_unknown_method(self, runner, pair_file):
        res = runner.invoke(main, ["certify", "nope", pair_file])
        assert res.exit_code == 2

    def test_missing_required_option(self, runner, pair_file):
        res = runner.invoke(main, ["certify", "op-family", pair_file])
        assert res.exit_code == 2
        assert json.loads(res.stderr)["error"] == "invalid-params"

    def test_not_woven_without_universal(self, runner, counter_file):
        res = runner.invoke(main, ["certify", "dual-canonicals", counter_file])
        assert res.exit_code == 2


# result fields that hold frame bounds, which scale as the operators do
BOUND_FIELDS = {"lower", "upper", "universal_lower", "universal_upper", "bessel_upper_bound", "constant"}


def scaled_bounds(doc, factor):
    """``doc`` with every bound field multiplied by ``factor``."""
    if isinstance(doc, dict):
        return {
            key: value * factor if key in BOUND_FIELDS and isinstance(value, float) else scaled_bounds(value, factor)
            for key, value in doc.items()
        }
    if isinstance(doc, list):
        return [scaled_bounds(x, factor) for x in doc]
    return doc


class TestScaleInvariance:
    """Multiplying every vector by 2^k multiplies every frame operator by 4^k
    exactly, so every report is the unscaled one with each bound times 4^k,
    and every verdict and exit code is unchanged: no zero cut is absolute."""

    @staticmethod
    def families():
        rng = np.random.default_rng(151)
        angles = np.pi / 2 + np.arange(3) * 2 * np.pi / 3
        mb = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        base = rng.normal(size=(8, 3))
        return {
            # d = 2 and d = 3, walked and sampled in blocks of 16
            "cells": random_woven_family(rng, 2, 8, 2)[0],
            "flat": random_woven_family(rng, 2, 8, 3)[0],
            # every weaving is tight, and every positivity difference is 0
            "tight": FrameFamily([Frame(mb), Frame(-mb)]),
            # f_1j = c_j f_0j with c_j > 1: woven, and positivity holds at k = 0
            "grown": FrameFamily([Frame(base), Frame((1.0 + rng.random((8, 1))) * base)]),
            "counterexample": counterexample_family(),
        }

    def run_all(self, runner, path, family, factor, threads):
        word = ",".join(str(j % family.m) for j in range(family.size))
        lam = 1e-3
        mu = lm_perturbation_min_mu(family.frames[0], family.frames[1], lam)
        assert mu > 0.0
        commands = {
            "info": ["frames", "info", path],
            "exhaustive": ["weave", "check", path],
            "sample": ["--samples", "300", "--seed", "5", "weave", "check", path, "--mode", "sample"],
            "bounds": ["weave", "bounds", path, "--partition", word],
            "tight": ["weave", "tight", path, "--partition", word],
            "positivity": ["certify", "positivity", path],
            "synthesis-gap": ["certify", "synthesis-gap", path],
            # mu = 0 fails the (lambda, mu) definition; just above the least mu passes it
            "lm-fails": ["certify", "lm-perturb", path, "--lambda", repr(lam), "--mu", "0.0"],
            "lm-passes": [
                "certify", "lm-perturb", path, "--lambda", repr(lam), "--mu", repr(mu * (1 + 1e-6) * factor),
            ],
        }
        return {
            name: runner.invoke(main, ["--threads", str(threads)] + args)
            for name, args in commands.items()
        }

    # at 2^-250 and 2^250, LAPACK would rescale the operators by factors of its
    # own, so every bound comes from the vectors scaled to a largest entry in
    # [1/2, 1), scaled back
    @pytest.mark.parametrize("k", [-250, -40, -20, 20, 250])
    def test_reports_scale_exactly(self, runner, tmp_path, monkeypatch, k):
        monkeypatch.setattr(weaving, "_block", lambda d: 16)
        factor = 4.0**k
        for name, family in self.families().items():
            scaled = FrameFamily([Frame(np.ldexp(fr.vectors, k), fr.label) for fr in family.frames])
            plain_path = write_family(tmp_path / f"{name}.json", family)
            scaled_path = write_family(tmp_path / f"{name}-scaled.json", scaled)
            for threads in (1, 2):
                plain = self.run_all(runner, plain_path, family, 1.0, threads)
                other = self.run_all(runner, scaled_path, family, factor, threads)
                for command, res in plain.items():
                    case = (name, threads, command)
                    assert other[command].exit_code == res.exit_code, case
                    if res.exit_code == 2:
                        continue
                    got, want = json.loads(other[command].output), json.loads(res.output)
                    if command in ("positivity", "synthesis-gap", "lm-passes"):
                        assert got["result"]["hypothesis_satisfied"] == want["result"]["hypothesis_satisfied"], case
                        continue
                    want["inputs"]["file"] = scaled_path
                    assert got == scaled_bounds(want, factor), case
            # the family keeps its character: some verdicts are positive
            assert plain["exhaustive"].exit_code == (1 if name == "counterexample" else 0)


OVERFLOW = {"dim": 2, "frames": [{"vectors": [[1e200, 0], [0, 1], [1, 1]]}, {"vectors": [[1, 0], [1, 1], [1, -1]]}]}
OVERFLOW_SPLIT = {"dim": 2, "frames": [{"vectors": [[1e154, 0], [0, 1], [1, 1]]}, {"vectors": [[1, 0], [1e154, 0], [1, -1]]}]}
# a woven pair whose rank-one terms all round to 0, and whose largest trace squares below the normal floats
TINY = {"dim": 2, "frames": [{"vectors": [[1e-170, 0], [0, 1e-170]]}, {"vectors": [[1e-170, 1e-170], [0, 1e-170]]}]}


class TestErrorContract:
    """Every exit-2 path writes nothing to stdout and one JSON line to stderr."""

    @pytest.fixture
    def files(self, tmp_path, pair_file):
        docs = {
            "overflow": OVERFLOW,
            "split": OVERFLOW_SPLIT,
            "tiny": TINY,
            "lenient": {"dim": 2, "frames": [{"vectors": [[True, "2"], [0, "1e0"]]}]},
            "ops": {"operators": [np.eye(2).tolist(), np.eye(2).tolist()]},
            "huge_ops": {"operators": [[[1e200, 0], [0, 1]], np.eye(2).tolist()]},
            "rank_one_ops": {"operators": [[[1, 2], [3, 6]], np.eye(2).tolist()]},
        }
        raw = {
            # deeper than the parser recurses
            "nested": b"[" * 200_000,
            # past the int-string limit of 4,300 digits
            "long_int": b'{"dim": 1, "frames": [{"vectors": [[1' + b"0" * 5000 + b"]]}]}",
            # a UTF-16 byte-order mark, not UTF-8 text
            "not_utf8": b"\xff\xfe",
        }
        raw.update((name, json.dumps(doc).encode()) for name, doc in docs.items())
        paths = {"pair": pair_file, "absent": str(tmp_path / "absent.json")}
        for name, data in raw.items():
            paths[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_bytes(data)
        return paths

    @pytest.mark.parametrize(
        "args, code",
        [
            # family whose largest weaving trace overflows when squared, for each command
            (["frames", "info", "{overflow}"], "invalid-argument"),
            (["frames", "info", "{split}"], "invalid-argument"),
            (["weave", "check", "{overflow}"], "invalid-argument"),
            (["weave", "check", "{split}"], "invalid-argument"),
            (["weave", "check", "{overflow}", "--mode", "sample"], "invalid-argument"),
            (["weave", "check", "{split}", "--mode", "sample"], "invalid-argument"),
            (["weave", "bounds", "{overflow}", "--partition", "0,0,1"], "invalid-argument"),
            (["weave", "dual", "{overflow}", "--partition", "0,0,1"], "invalid-argument"),
            (["weave", "tight", "{overflow}", "--partition", "0,0,1"], "invalid-argument"),
            (["certify", "positivity", "{overflow}"], "invalid-argument"),
            (["certify", "synthesis-perturb", "{pair}", "--perturbed", "{overflow}"], "invalid-argument"),
            # family whose largest weaving trace squares below the smallest normal float
            (["frames", "info", "{tiny}"], "invalid-argument"),
            (["weave", "check", "{tiny}"], "invalid-argument"),
            (["weave", "check", "{tiny}", "--mode", "sample"], "invalid-argument"),
            # operators whose Gram trace overflows when squared
            (["certify", "invertible", "{pair}", "--ops", "{huge_ops}", "--universal", "1,3"], "invalid-argument"),
            (["certify", "op-family", "{pair}", "--ops", "{huge_ops}"], "invalid-argument"),
            # a rank-one operator has sigma_min = 0, not the Gram product's rounding
            (["certify", "invertible", "{pair}", "--ops", "{rank_one_ops}", "--universal", "1,3"], "singular-operator"),
            # booleans and numeric strings are not numbers
            (["frames", "info", "{lenient}"], "parse-error"),
            # files the JSON parser cannot read
            (["weave", "check", "{nested}"], "parse-error"),
            (["weave", "check", "{long_int}"], "parse-error"),
            (["weave", "check", "{not_utf8}"], "parse-error"),
            # option values that do not parse
            (["weave", "bounds", "{pair}", "--partition", "0,x,1"], "invalid-params"),
            (["certify", "lm-perturb", "{pair}", "--lambda", "half", "--mu", "0"], "invalid-params"),
            # certifier options missing or of unequal lengths
            (["certify", "op-characterization", "{pair}"], "invalid-params"),
            (["certify", "lm-perturb", "{pair}", "--lambda", "0.5"], "invalid-params"),
            (["certify", "lm-perturb", "{pair}", "--lambda", "0.5,0.5", "--mu", "0"], "invalid-params"),
            (["certify", "invertible", "{pair}"], "invalid-params"),
            (["certify", "synthesis-perturb", "{pair}"], "invalid-params"),
            # non-finite numeric options
            (["certify", "invertible", "{pair}", "--ops", "{ops}", "--universal", "1,inf"], "invalid-argument"),
            (["certify", "lm-perturb", "{pair}", "--lambda", "0.5", "--mu", "inf"], "invalid-params"),
            # usage errors the parser raises
            (["weave", "bounds", "{pair}"], "invalid-argument"),
            (["--threads", "abc", "weave", "check", "{pair}"], "invalid-argument"),
            (["certify", "nosuch", "{pair}"], "invalid-argument"),
            (["--nosuch", "weave", "check", "{pair}"], "invalid-argument"),
            (["weave", "check"], "invalid-argument"),
            (["weave", "check", "{pair}", "--mode", "bogus"], "invalid-argument"),
            # no command at all
            ([], "invalid-argument"),
            # an option name is never abbreviated
            (["--thr", "2", "weave", "check", "{pair}"], "invalid-argument"),
            # a value that starts with "-" and is not a plain negative number is read as an option
            (["weave", "bounds", "{pair}", "--partition", "-1,0,0"], "invalid-argument"),
            # errors the library raises
            (["weave", "check", "{absent}"], "parse-error"),
            (["--cap", "4", "weave", "check", "{pair}"], "cap-exceeded"),
            (["weave", "bounds", "{pair}", "--partition", "0,2,0"], "index-out-of-range"),
            (["--tol", "nan", "weave", "check", "{pair}"], "invalid-argument"),
            # --cap is validated with the other numeric options, not read as a cap
            (["--cap", "0", "weave", "check", "{pair}"], "invalid-argument"),
            (["--cap", "-5", "certify", "positivity", "{pair}"], "invalid-argument"),
        ],
        ids=lambda v: (" ".join(v) or "no-arguments") if isinstance(v, list) else v,
    )
    # a warning printed before the error line would break the one-line contract
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_json_line(self, runner, files, args, code):
        res = runner.invoke(main, [a.format(**files) for a in args])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert json.loads(res.stderr)["error"] == code

    def test_help_pages_exit_zero(self, runner):
        for args in (["--help"], ["weave", "check", "--help"], ["certify", "--help"]):
            res = runner.invoke(main, args)
            assert res.exit_code == 0
            assert res.stdout.startswith("usage: ")


SRC = Path(__file__).resolve().parents[1] / "src"


def run_process(args, stdout=subprocess.PIPE):
    """``python -m wovenframes args`` as a child process.  PYTHONUNBUFFERED is
    removed, so stdout is block-buffered, as it is under a shell pipe."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-m", "wovenframes", *args],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
    )


class TestProcessEntry:
    """A process ends through ``cli.run``, with ``os._exit`` in place of the
    interpreter's teardown; it must print what ``main`` prints under CliRunner,
    byte for byte, and exit with the same code."""

    @pytest.fixture
    def files(self, tmp_path, pair_file, counter_file):
        overflow = tmp_path / "overflow.json"
        overflow.write_text(json.dumps(OVERFLOW))
        absent = tmp_path / "absent.json"
        return {"pair": pair_file, "counter": counter_file, "overflow": str(overflow), "absent": str(absent)}

    @pytest.mark.parametrize(
        "args, code, error",
        [
            (["weave", "check", "{pair}"], 0, None),
            (["weave", "check", "{counter}"], 1, None),
            # one error the library raises, one the parser raises, one from a family that overflows
            (["weave", "check", "{absent}"], 2, "parse-error"),
            (["--threads", "abc", "weave", "check", "{pair}"], 2, "invalid-argument"),
            (["weave", "check", "{overflow}"], 2, "invalid-argument"),
            (["--help"], 0, None),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_matches_the_click_group(self, runner, files, args, code, error):
        args = [a.format(**files) for a in args]
        proc = run_process(args)
        # the program is named after how it was started
        res = runner.invoke(main, args, prog_name="python -m wovenframes")
        assert (proc.returncode, proc.stdout, proc.stderr) == (res.exit_code, res.stdout_bytes, res.stderr_bytes)
        assert proc.returncode == code
        if error is not None:
            assert proc.stdout == b""
            assert len(proc.stderr.splitlines()) == 1
            assert json.loads(proc.stderr)["error"] == error

    def test_a_report_larger_than_a_pipe_arrives_whole(self, runner, tmp_path):
        rng = np.random.default_rng(600)
        path = write_family(tmp_path / "big.json", FrameFamily([Frame(rng.normal(size=(600, 8))) for _ in range(2)]))
        args = ["weave", "dual", path, "--partition", ",".join(str(j % 2) for j in range(600))]
        proc = run_process(args)
        res = runner.invoke(main, args)
        assert len(proc.stdout) > 1 << 16
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, res.stdout_bytes, b"")

    def test_the_cli_imports_no_click(self):
        # the parser is argparse's, and numpy is the one runtime dependency
        code = "import sys, wovenframes.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'click'))"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120, check=True)
        assert proc.stdout == b"[]\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_failed_report_write_still_fails(self, pair_file):
        with open("/dev/full", "wb") as full:
            proc = run_process(["weave", "check", pair_file], stdout=full)
        # the write error leaves run with its traceback from the report write,
        # and the teardown's flush of the still-buffered report fails again
        stderr = proc.stderr.decode()
        assert proc.returncode == 120
        assert "in _emit" in stderr
        assert os.strerror(errno.ENOSPC) in stderr


class TestReportShape:
    def test_one_frame_reports_are_strict_json(self, runner, tmp_path):
        # with one frame or one operator some margins are vacuous; none may print as Infinity
        one = write_family(tmp_path / "one.json", FrameFamily([example_pair()[0]]))
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"operators": [np.eye(2).tolist()]}))
        extra = {
            "op-characterization": ["--universal", "0.5,3"],
            "op-family": ["--ops", str(ops)],
            "lm-perturb": ["--lambda", "0.5", "--mu", "0"],
            "invertible": ["--ops", str(ops)],
            "synthesis-perturb": ["--perturbed", one],
        }

        def strict(token):
            raise ValueError(f"{token} is not JSON")

        for method in CERTIFY_METHODS:
            res = runner.invoke(main, ["certify", method, one, *extra.get(method, [])])
            # these need a second frame, or one (lambda, mu) pair per other frame
            if method in ("dual-canonicals", "dual-pair", "lm-perturb"):
                assert (res.exit_code, res.stdout) == (2, "")
                continue
            assert res.exit_code == 0, method
            json.loads(res.stdout, parse_constant=strict)

    def test_keys_sorted_and_versioned(self, runner, pair_file):
        res = runner.invoke(main, ["weave", "check", pair_file])
        doc = json.loads(res.output)
        assert doc["tool_version"] == "0.1.0"
        assert list(doc) == sorted(doc)
        assert res.output == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    # each expected text is what the per-type converters of 0.1.0 rendered for the same object
    @pytest.mark.parametrize(
        "result, expected",
        [
            (
                WeavingReport(True, 0.1 + 0.2, 1 / 3, Partition((1, 0, 1), 2), 8, "sampled", 7),
                """{
  "command": "t",
  "inputs": {},
  "result": {
    "mode": "sampled",
    "partitions_examined": 8,
    "seed": 7,
    "universal_lower": 0.30000000000000004,
    "universal_upper": 0.3333333333333333,
    "witness_partition": [
      1,
      0,
      1
    ],
    "woven": true
  },
  "tool_version": "0.1.0"
}
""",
            ),
            (
                Certificate(
                    "positivity",
                    True,
                    {"slack": np.float64(2.0) / 3, "tiny": 1e-17, "gap_1": 1e300},
                    None,
                    2.5,
                    "a note",
                ),
                """{
  "command": "t",
  "inputs": {},
  "result": {
    "guaranteed_lower": null,
    "guaranteed_upper": 2.5,
    "hypothesis_satisfied": true,
    "margins": {
      "gap_1": 1e+300,
      "slack": 0.6666666666666666,
      "tiny": 1e-17
    },
    "method": "positivity",
    "notes": "a note"
  },
  "tool_version": "0.1.0"
}
""",
            ),
            (
                Bounds(np.float64(1 / 3), 2.0**0.5),
                """{
  "command": "t",
  "inputs": {},
  "result": {
    "lower": 0.3333333333333333,
    "upper": 1.4142135623730951
  },
  "tool_version": "0.1.0"
}
""",
            ),
            (
                Frame(np.array([[1.0, 1 / 3], [-0.0, 1e-17]]), label=None),
                """{
  "command": "t",
  "inputs": {},
  "result": {
    "label": null,
    "vectors": [
      [
        1.0,
        0.3333333333333333
      ],
      [
        -0.0,
        1e-17
      ]
    ]
  },
  "tool_version": "0.1.0"
}
""",
            ),
        ],
        ids=["report", "certificate", "bounds", "frame"],
    )
    def test_result_objects_render_as_their_fields(self, result, expected):
        assert render_report("t", {}, result) == expected

    def test_unknown_result_type_is_refused(self):
        with pytest.raises(TypeError):
            render_report("t", {}, object())
