"""CLI conformance: command output, stream separation, exit codes."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import helpers
from pipevis import cli

invoke = helpers.run_cli


@pytest.fixture(scope="module")
def samples(samples_dir):
    return {
        "first_party": str(samples_dir / "first_party.json"),
        "later": str(samples_dir / "first_party_later.json"),
        "minimal": str(samples_dir / "third_party_minimal.json"),
        "documented": str(samples_dir / "third_party_documented.json"),
    }


@pytest.fixture()
def broken_doc(tmp_path, samples):
    doc = json.loads(Path(samples["first_party"]).read_bytes())
    doc["judgements"]["DS"]["quantity"] = 5
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidate:
    def test_valid_document_is_silent(self, samples):
        result = invoke(["validate", samples["first_party"]])
        assert result.exit_code == 0
        assert result.stdout == ""
        assert result.stderr == ""

    def test_invalid_document_lists_violations(self, broken_doc):
        result = invoke(["validate", broken_doc])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert (
            "violation: judgements.DS.quantity: must be between 1 and 4, got 5"
            in result.stderr
        )

    def test_lenient_downgrades_unknown_fields(self, tmp_path, samples):
        doc = json.loads(Path(samples["first_party"]).read_bytes())
        doc["vendor_extra"] = 1
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        strict = invoke(["validate", str(path)])
        assert strict.exit_code == 1
        assert "violation: unknown field: vendor_extra" in strict.stderr
        lenient = invoke(["validate", str(path), "--lenient"])
        assert lenient.exit_code == 0
        assert "vendor_extra" in lenient.stderr  # warning, not violation
        assert "violation:" not in lenient.stderr

    def test_reads_standard_input(self, samples):
        blob = Path(samples["later"]).read_bytes()
        result = invoke(["validate", "-"], input=blob)
        assert result.exit_code == 0


class TestScore:
    def test_table_iv_style_output(self, samples):
        result = invoke(["score", samples["later"]])
        assert result.exit_code == 0
        assert result.stdout == (
            "Node | Quantity | Freshness | Accuracy | VISQuality | VIS\n"
            "DS | 3 | 3 | 2 | 2.45 | 2.71\n"
            "H1 | 3 | 3 | 3 | 3 | 3\n"
            "H2 | 3 | 3 | 3 | 3 | 3\n"
            "Overall VIS for model | 2.90\n"
        )

    @pytest.mark.parametrize(
        ("key", "displayed"),
        [
            ("first_party", "4"),
            ("later", "2.90"),
            ("minimal", "1.19"),
            ("documented", "3.46"),
        ],
    )
    def test_overall_values_on_golden_documents(self, samples, key, displayed):
        result = invoke(["score", samples[key]])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[-1] == f"Overall VIS for model | {displayed}"

    def test_derived_asset_scoring(self, samples):
        result = invoke(["score", samples["later"], "--node", "LD"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[-1] == "Overall VIS for model | 2.86"
        assert [line.split(" | ")[0] for line in lines[1:-1]] == ["DS", "H1"]

    # SHA-256 of the stdout of ``score <sample> --format machine``, overall and
    # with ``--node LD``: any change of bytes, indentation included, fails.
    MACHINE_SHA256 = {
        ("first_party", None):
            "996923d0f52c025d49129ca67b5b221ebc68fd382c017e9cf33db3cf2718a07b",
        ("first_party", "LD"):
            "83c28ea707a882b3c02dad31ec23c9652e6d41256bf466ecb541a7363b558c83",
        ("later", None):
            "fe475ba29bbfe76d3bdd54d45b7e3a026e80ea1cc7c41b5108b79c28e05459f2",
        ("later", "LD"):
            "d28c13bfcc8e8ab937bf11bcf84685731b8021a30a09d81437d5e0117a2d5f8e",
        ("documented", None):
            "f2f4f71a451bdc6fec24f3c200576998a5f673015ea79070fbaab0a0ac8b1040",
        ("documented", "LD"):
            "2809d233a248b312fe24cf81f31e534c12bfc43aa1acbee7e62deb3ebbce9896",
        ("minimal", None):
            "2de46b4b2a3cbfb1f6fc2bf5dab25fd00f3f3168c282be871126399bf5486925",
        ("minimal", "LD"):
            "5a2f0a43d6a49fed1b6932d00ff24a2e07e33c664fa78aa4ebe7555c16f7118b",
    }

    @pytest.mark.parametrize(("key", "node"), list(MACHINE_SHA256))
    def test_machine_bytes_are_pinned(self, samples, key, node):
        scope = [] if node is None else ["--node", node]
        result = invoke(["score", samples[key], *scope, "--format", "machine"])
        assert result.exit_code == 0
        digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
        assert digest == self.MACHINE_SHA256[key, node]

    def test_machine_format(self, samples):
        result = invoke(["score", samples["later"], "--format", "machine"])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["results"]["scope"] == "overall"
        assert doc["results"]["overall_visibility"] == pytest.approx(
            2.9036020036098447, rel=1e-14
        )

    def test_scoped_machine_format(self, samples):
        result = invoke(
            ["score", samples["later"], "--node", "LD", "--format", "machine"]
        )
        doc = json.loads(result.stdout)
        assert doc["results"]["scope"] == "LD"
        assert doc["results"]["leaf_count"] == 2

    def test_precision_flag(self, samples):
        result = invoke(["score", samples["later"], "--precision", "4"])
        assert result.stdout.splitlines()[-1] == "Overall VIS for model | 2.9036"

    def test_reads_standard_input(self, samples):
        blob = Path(samples["minimal"]).read_bytes()
        result = invoke(["score", "-"], input=blob)
        assert result.exit_code == 0
        assert "Overall VIS for model | 1.19" in result.stdout


class TestCompare:
    def test_scenario_ranking(self, samples):
        result = invoke(
            ["compare", samples["minimal"], samples["later"], samples["documented"]]
        )
        assert result.exit_code == 0
        assert result.stdout == (
            "Asset | Version | VIS\n"
            "vendor-ner-pro | 4.1.0 | 3.46\n"
            "example-classifier | 1.0.0 | 2.90\n"
            "marketplace-sentiment | 0.9.2 | 1.19\n"
        )

    def test_single_document(self, samples):
        result = invoke(["compare", samples["later"]])
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == 2

    def test_duplicate_documents_tie_deterministically(self, samples):
        result = invoke(["compare", samples["later"], samples["later"]])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[1] == lines[2] == "example-classifier | 1.0.0 | 2.90"

    def test_invalid_document_names_the_file(self, samples, broken_doc):
        result = invoke(["compare", samples["later"], broken_doc])
        assert result.exit_code == 1
        assert f"violation: {broken_doc}: judgements.DS.quantity" in result.stderr


class TestWhatif:
    def test_degradation_delta(self, samples):
        result = invoke(
            [
                "whatif",
                samples["first_party"],
                "--set",
                "DS:3,2,3",
                "--set",
                "H1:3,3,3",
                "--set",
                "H2:3,3,3",
            ]
        )
        assert result.exit_code == 0
        assert result.stdout == "Baseline | 4.00\nModified | 2.90\nDelta | -1.10\n"

    def test_no_changes_is_zero_delta(self, samples):
        result = invoke(["whatif", samples["later"]])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[-1] == "Delta | 0.00"

    def test_reweighting(self, samples):
        result = invoke(
            ["whatif", samples["later"], "--weights", "DS=0.8,H1=0.1,H2=0.1"]
        )
        assert result.exit_code == 0
        assert result.stdout == "Baseline | 2.90\nModified | 2.77\nDelta | -0.13\n"

    def test_a_zero_delta_prints_in_fixed_point_at_seven_decimals(self, samples):
        result = invoke(
            ["whatif", samples["later"], "--set", "DS:3,2,3", "--precision", "7"]
        )
        assert result.exit_code == 0
        assert result.stdout == (
            "Baseline | 2.9036020\nModified | 2.9036020\nDelta | 0.0000000\n"
        )

    def test_equal_weights_spec_is_identity(self, samples):
        result = invoke(["whatif", samples["later"], "--weights", "equal"])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[-1] == "Delta | 0.00"

    def test_ids_with_colon_and_equals_are_addressable(self, tmp_path, samples):
        text = Path(samples["later"]).read_text("utf-8")
        renamed = text.replace('"DS"', '"src:a"').replace('"H1"', '"h=1"')
        path = tmp_path / "renamed.json"
        path.write_text(renamed, encoding="utf-8")
        for flags, renamed_flags in [
            (["--set", "DS:3,3,3"], ["--set", "src:a:3,3,3"]),
            (["--set", "H1:1,1,1"], ["--set", "h=1:1,1,1"]),
            (
                ["--weights", "DS=0.8,H1=0.1,H2=0.1"],
                ["--weights", "src:a=0.8,h=1=0.1,H2=0.1"],
            ),
        ]:
            expected = invoke(["whatif", samples["later"], *flags])
            result = invoke(["whatif", str(path), *renamed_flags])
            assert expected.exit_code == result.exit_code == 0, result.stderr
            assert result.stdout == expected.stdout


class TestRubric:
    def test_contains_scale_text(self):
        result = invoke(["rubric"])
        assert result.exit_code == 0
        assert "Evidenced and verifiable" in result.stdout
        assert (
            "1 | Sparse or insufficient information | Never updated | "
            "Demonstrably inaccurate" in result.stdout
        )

    def test_output_is_stable(self):
        assert invoke(["rubric"]).stdout == invoke(["rubric"]).stdout


class TestExitCodes:
    """The ExitStatus map, exercised across a matrix of invalid inputs."""

    def test_nonexistent_path_is_usage_error(self):
        assert invoke(["validate", "/no/such/file.json"]).exit_code == 2

    def test_malformed_json_is_data_error(self, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{not json")
        result = invoke(["validate", str(path)])
        assert result.exit_code == 1
        assert result.stderr.startswith("violation: ")

    @pytest.mark.parametrize(
        "blob",
        [b"[" * 100000, b'{"schema_version": ' + b"1" * 5000 + b"}"],
        ids=["deep_nesting", "long_integer"],
    )
    def test_unparseable_json_is_data_error(self, blob):
        result = invoke(["validate", "-"], input=blob)
        assert result.exit_code == 1
        assert result.stderr.startswith("violation: ")
        assert "internal error" not in result.stderr

    def test_lone_surrogate_is_data_error(self, samples):
        doc = json.loads(Path(samples["first_party"]).read_bytes())
        doc["assessor"] = "\ud800"
        result = invoke(["score", "-", "--format", "machine"], input=json.dumps(doc))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("violation: ")
        assert "lone surrogate" in result.stderr

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["weights", "schema_version"])
    def test_non_json_token_is_data_error(self, samples, field, token):
        doc = json.loads(Path(samples["first_party"]).read_bytes())
        result = invoke(
            ["validate", "-"], input=helpers.with_bare_token(doc, field, token)
        )
        assert result.exit_code == 1
        assert result.stderr == f"violation: {token} is not valid JSON\n"

    def test_empty_stdin_is_data_error(self):
        result = invoke(["validate", "-"], input=b"")
        assert result.exit_code == 1
        assert "violation:" in result.stderr

    def test_out_of_range_score_is_data_error(self, broken_doc):
        assert invoke(["score", broken_doc]).exit_code == 1

    def test_unknown_scoring_node_is_usage_error(self, samples):
        result = invoke(["score", samples["later"], "--node", "XX"])
        assert result.exit_code == 2
        assert "unknown node: XX" in result.stderr

    def test_leaf_scoring_node_is_usage_error(self, samples):
        result = invoke(["score", samples["later"], "--node", "DS"])
        assert result.exit_code == 2
        assert "derived-asset scoring" in result.stderr

    @pytest.mark.parametrize(
        "paths", [["-", "-"], ["-", "later", "-"], ["-", "-", "/no/such/file.json"]],
        ids=["twice", "around_a_file", "before_opening"],
    )
    def test_standard_input_given_twice_is_usage_error(self, samples, paths):
        # The second read used to find stdin empty and blame "<stdin>" for it.
        paths = [samples.get(path, path) for path in paths]
        blob = Path(samples["later"]).read_bytes()
        result = invoke(["compare", *paths], input=blob)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == (
            "pipevis compare: error: standard input ('-') can be read only once"
        )

    def test_malformed_set_flag_is_usage_error(self, samples):
        assert invoke(["whatif", samples["later"], "--set", "DS"]).exit_code == 2

    def test_out_of_range_set_flag_is_usage_error(self, samples):
        assert (
            invoke(["whatif", samples["later"], "--set", "DS:9,1,1"]).exit_code == 2
        )

    def test_unknown_set_node_is_usage_error(self, samples):
        result = invoke(["whatif", samples["later"], "--set", "ZZ:1,1,1"])
        assert result.exit_code == 2

    def test_non_leaf_set_node_is_usage_error(self, samples):
        result = invoke(["whatif", samples["later"], "--set", "LD:1,1,1"])
        assert result.exit_code == 2
        assert "not a leaf" in result.stderr

    def test_malformed_weights_flag_is_usage_error(self, samples):
        assert (
            invoke(["whatif", samples["later"], "--weights", "nonsense"]).exit_code
            == 2
        )

    @pytest.mark.parametrize(
        ("flags", "error"),
        [
            (["--set", "DS:1,2"],
             "malformed --set 'DS:1,2': expected three scores Q,A,F"),
            (["--weights", "DS=x"],
             "malformed --weights entry 'DS=x': 'x' is not a number"),
        ],
        ids=["two_scores", "non_number_weight"],
    )
    def test_malformed_flag_names_its_fault(self, samples, flags, error):
        result = invoke(["whatif", samples["later"], *flags])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == f"pipevis whatif: error: {error}"

    @pytest.mark.parametrize(
        ("flags", "error"),
        [
            (["--set", "DS:\u0661,1,1"],
             "malformed --set 'DS:\u0661,1,1': quantity must be an integer, got '\u0661'"),
            (["--set", "DS:+1,1,1"],
             "malformed --set 'DS:+1,1,1': quantity must be an integer, got '+1'"),
            (["--set", "DS: 1 ,1,1"],
             "malformed --set 'DS: 1 ,1,1': quantity must be an integer, got ' 1 '"),
            (["--set", "DS:1_0,1,1"],
             "malformed --set 'DS:1_0,1,1': quantity must be an integer, got '1_0'"),
            (["--set", "DS:1,1,\uff13"],
             "malformed --set 'DS:1,1,\uff13': freshness must be an integer, got '\uff13'"),
            (["--weights", "DS=0.5,H1=0.25,H2=2_5e-1"],
             "malformed --weights entry 'H2=2_5e-1': '2_5e-1' is not a number"),
            (["--weights", "DS= 0.5,H1=0.25,H2=0.25"],
             "malformed --weights entry 'DS= 0.5': ' 0.5' is not a number"),
            (["--weights", "DS=0.5,H1=0.25,H2=\u0660.\u0662\u0665"],
             "malformed --weights entry 'H2=\u0660.\u0662\u0665': "
             "'\u0660.\u0662\u0665' is not a number"),
            (["--set", "DS:5,2,3"],
             "malformed --set 'DS:5,2,3': quantity must be between 1 and 4, got 5"),
        ],
        ids=["arabic_indic_level", "plus_level", "spaced_level", "underscore_level",
             "fullwidth_level", "underscore_weight", "spaced_weight",
             "arabic_indic_weight", "level_past_the_range"],
    )
    def test_a_flag_value_is_read_as_typed(self, samples, flags, error):
        result = invoke(["whatif", samples["later"], *flags])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == f"pipevis whatif: error: {error}"

    def test_ascii_numbers_are_still_read(self, samples):
        flags = ["--set", "DS:04,4,4", "--weights", "DS=5e-1,H1=+0.25,H2=.25"]
        result = invoke(["whatif", samples["later"], *flags])
        expected = invoke(["whatif", samples["later"], "--set", "DS:4,4,4",
                           "--weights", "DS=0.5,H1=0.25,H2=0.25"])
        assert result == expected
        assert result.exit_code == 0

    def test_an_internal_error_is_exit_3(self, monkeypatch):
        def render_rubric():
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "render_rubric", render_rubric)
        result = invoke(["rubric"])
        assert result == (3, "", "error: internal error: boom\n")

    def test_degenerate_derived_weights_are_data_error(self, samples):
        doc = json.loads(Path(samples["later"]).read_bytes())
        doc["weights"] = {"DS": 0, "H1": 0, "H2": 1}
        result = invoke(["score", "--node", "LD", "-"], json.dumps(doc))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            "violation: explicit weights of the leaves contributing to LD sum to 0 "
            "(DS, H1); cannot renormalise\n"
        )

    @pytest.mark.parametrize(
        ("flags", "option"),
        [
            (["--weights", "DS=0.9,H1=0.05,H2=0.05,DS=0.9"], "--weights"),
            (["--weights", "DS=0.5,H1=0.25,H2=0.25,DS=0.5"], "--weights"),
            (["--set", "DS:1,1,1", "--set", "DS:4,4,4"], "--set"),
            (["--set", "DS:4,4,4", "--set", "H1:2,2,2", "--set", "DS:4,4,4"], "--set"),
        ],
    )
    def test_repeated_id_is_usage_error(self, samples, flags, option):
        result = invoke(["whatif", samples["later"], *flags])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"repeated id 'DS' in {option}" in result.stderr

    def test_unbalanced_weights_flag_is_usage_error(self, samples):
        result = invoke(
            ["whatif", samples["later"], "--weights", "DS=0.5,H1=0.2,H2=0.2"]
        )
        assert result.exit_code == 2
        assert "violation: weights sum" in result.stderr

    @pytest.mark.parametrize(
        ("weights", "total"),
        [("DS=1e308,H1=1e308,H2=0", "inf"), ("DS=inf,H1=-inf,H2=0", "nan")],
    )
    def test_weights_flag_past_what_fsum_takes_is_usage_error(
        self, samples, weights, total
    ):
        result = invoke(["whatif", samples["later"], "--weights", weights])
        assert result.exit_code == 2
        violation = f"violation: weights sum {total}, expected 1 within 1e-9"
        assert violation in result.stderr

    def test_overflowing_document_weights_are_data_error(self, tmp_path, samples):
        doc = json.loads(Path(samples["later"]).read_bytes())
        doc["weights"] = {"DS": 1e308, "H1": 1e308, "H2": 0}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        result = invoke(["score", str(path)])
        assert result.exit_code == 1
        assert result.stderr == "violation: weights sum inf, expected 1 within 1e-9\n"

    def test_compare_with_invalid_document_is_data_error(self, broken_doc, samples):
        assert invoke(["compare", samples["later"], broken_doc]).exit_code == 1

    def test_compare_without_paths_is_usage_error(self):
        assert invoke(["compare"]).exit_code == 2

    def test_negative_precision_is_usage_error(self, samples):
        assert (
            invoke(["score", samples["later"], "--precision", "-1"]).exit_code == 2
        )

    def test_unknown_format_is_usage_error(self, samples):
        assert (
            invoke(["score", samples["later"], "--format", "yaml"]).exit_code == 2
        )

    def test_semantic_violation_is_data_error(self, tmp_path, samples):
        doc = json.loads(Path(samples["first_party"]).read_bytes())
        doc["judgements"]["LD"] = {"quantity": 3, "accuracy": 3, "freshness": 3}
        path = tmp_path / "nonleaf.json"
        path.write_text(json.dumps(doc))
        result = invoke(["validate", str(path)])
        assert result.exit_code == 1
        assert "violation: judgement on non-leaf node LD" in result.stderr

    def test_unknown_schema_version_is_data_error(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text('{"schema_version": "9.9"}')
        assert invoke(["validate", str(path)]).exit_code == 1

    def test_reports_never_go_to_stderr(self, samples):
        result = invoke(["score", samples["later"]])
        assert "Overall VIS" in result.stdout
        assert result.stderr == ""

    def test_violations_never_go_to_stdout(self, broken_doc):
        result = invoke(["score", broken_doc])
        assert result.stdout == ""
        assert "violation:" in result.stderr


class TestNoNodeBuilt:
    """A command reads a parsed graph's node columns and builds no node."""

    @pytest.mark.parametrize(
        ("args", "code"),
        [
            (["score", "later"], 0),
            (["score", "--format", "machine", "later"], 0),
            (["score", "--node", "LD", "later"], 0),
            (["compare", "minimal", "later", "documented"], 0),
            (["whatif", "later", "--set", "DS:1,1,1"], 0),
            (["rubric"], 0),
            (["validate", "cycle"], 1),
        ],
        ids=["score", "machine", "node", "compare", "whatif", "rubric", "cycle"],
    )
    def test_each_command_builds_no_node(
        self, monkeypatch, tmp_path, samples, args, code
    ):
        doc = json.loads(Path(samples["later"]).read_bytes())
        doc["edges"].append({"from": "M", "to": "LD"})
        cycle = tmp_path / "cycle.json"
        cycle.write_text(json.dumps(doc))
        paths = {**samples, "cycle": str(cycle)}
        built = helpers.count_nodes(monkeypatch)
        result = invoke([paths.get(arg, arg) for arg in args])
        assert result.exit_code == code
        if code:
            assert result.stderr == "violation: cycle detected: LD,M\n"
        assert built == []
