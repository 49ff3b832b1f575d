import json

import numpy as np
import pytest
from click.testing import CliRunner

from support import clamped_shift_frame, counterexample_family, example_pair
from wovenframes import Bounds, Certificate, Frame, FrameFamily, Partition, WeavingReport, weaving
from wovenframes.cli import CERTIFY_METHODS, main
from wovenframes.io import (
    family_to_dict,
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
        # 2^15 words at d=2: the cell path scans a few candidate rows
        cells = write_family(
            tmp_path / "cells.json",
            FrameFamily([Frame(rng.normal(size=(15, 2))) for _ in range(2)]),
        )
        # identical frames at d=8: all 2^15 weavings tie exactly on lambda_min
        fr = Frame(rng.normal(size=(15, 8)))
        all_tied = write_family(tmp_path / "all_tied.json", FrameFamily([fr, fr]))
        # 2^15 words at d=3: two flat scan chunks of 2^14
        two_chunks = write_family(
            tmp_path / "two_chunks.json",
            FrameFamily([Frame(rng.normal(size=(15, 3))) for _ in range(2)]),
        )
        stacks = []
        scan = weaving._scan

        def recording_scan(s, *cuts):
            stacks.append(len(s))
            return scan(s, *cuts)

        monkeypatch.setattr(weaving, "_scan", recording_scan)
        for path, words in ((pair_file, 8), (cells, 2**15), (all_tied, 2**15), (two_chunks, 2**15)):
            stacks.clear()
            one = runner.invoke(main, ["--threads", "1", "weave", "check", path])
            two = runner.invoke(main, ["--threads", "2", "weave", "check", path])
            assert json.loads(one.output)["result"]["partitions_examined"] == words
            assert one.output == two.output
        assert stacks == [2**14] * 4

    def test_cell_path_output_matches_the_flat_scan(self, runner, pair_file, tmp_path, monkeypatch):
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

        def outputs():
            runs = [
                runner.invoke(main, ["--threads", t, "weave", "check", path])
                for path in paths
                for t in ("1", "2")
            ]
            return [(r.exit_code, r.stdout, r.stderr) for r in runs]

        cells = outputs()
        monkeypatch.setattr(weaving, "_cell_candidates", lambda *args: None)
        assert cells == outputs()
        assert {code for code, _, _ in cells} == {0, 1}

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


class TestWeaveBounds:
    def test_partition_word(self, runner, pair_file):
        res = runner.invoke(main, ["weave", "bounds", pair_file, "--partition", "0,0,1"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["result"]["bounds"]["lower"] == pytest.approx(1.0)
        assert doc["result"]["bounds"]["upper"] == pytest.approx(3.0)

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


OVERFLOW = {"dim": 2, "frames": [{"vectors": [[1e200, 0], [0, 1], [1, 1]]}, {"vectors": [[1, 0], [1, 1], [1, -1]]}]}
OVERFLOW_SPLIT = {"dim": 2, "frames": [{"vectors": [[1e154, 0], [0, 1], [1, 1]]}, {"vectors": [[1, 0], [1e154, 0], [1, -1]]}]}


class TestErrorContract:
    """Every exit-2 path writes nothing to stdout and one JSON line to stderr."""

    @pytest.fixture
    def files(self, tmp_path, pair_file):
        docs = {
            "overflow": OVERFLOW,
            "split": OVERFLOW_SPLIT,
            "lenient": {"dim": 2, "frames": [{"vectors": [[True, "2"], [0, "1e0"]]}]},
            "ops": {"operators": [np.eye(2).tolist(), np.eye(2).tolist()]},
            "huge_ops": {"operators": [[[1e200, 0], [0, 1]], np.eye(2).tolist()]},
            "rank_one_ops": {"operators": [[[1, 2], [3, 6]], np.eye(2).tolist()]},
        }
        paths = {"pair": pair_file, "absent": str(tmp_path / "absent.json")}
        for name, doc in docs.items():
            paths[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
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
            # operators whose Gram trace overflows when squared
            (["certify", "invertible", "{pair}", "--ops", "{huge_ops}", "--universal", "1,3"], "invalid-argument"),
            (["certify", "op-family", "{pair}", "--ops", "{huge_ops}"], "invalid-argument"),
            # a rank-one operator has sigma_min = 0, not the Gram product's rounding
            (["certify", "invertible", "{pair}", "--ops", "{rank_one_ops}", "--universal", "1,3"], "singular-operator"),
            # booleans and numeric strings are not numbers
            (["frames", "info", "{lenient}"], "parse-error"),
            # non-finite numeric options
            (["certify", "invertible", "{pair}", "--ops", "{ops}", "--universal", "1,inf"], "invalid-argument"),
            (["certify", "lm-perturb", "{pair}", "--lambda", "0.5", "--mu", "inf"], "invalid-params"),
            # usage errors click raises
            (["weave", "bounds", "{pair}"], "invalid-argument"),
            (["--threads", "abc", "weave", "check", "{pair}"], "invalid-argument"),
            (["certify", "nosuch", "{pair}"], "invalid-argument"),
            (["--nosuch", "weave", "check", "{pair}"], "invalid-argument"),
            (["weave", "check"], "invalid-argument"),
            (["weave", "check", "{pair}", "--mode", "bogus"], "invalid-argument"),
            # errors the library raises
            (["weave", "check", "{absent}"], "parse-error"),
            (["--cap", "4", "weave", "check", "{pair}"], "cap-exceeded"),
            (["weave", "bounds", "{pair}", "--partition", "0,2,0"], "index-out-of-range"),
            (["--tol", "nan", "weave", "check", "{pair}"], "invalid-argument"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
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
            assert res.stdout.startswith("Usage: ")


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
