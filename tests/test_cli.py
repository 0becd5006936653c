"""CLI conformance: command output, stream separation, exit codes."""

from __future__ import annotations

import inspect
import json

import pytest
from click.testing import CliRunner

from pipevis.cli import main


def invoke(args, input=None):
    params = inspect.signature(CliRunner.__init__).parameters
    runner = CliRunner(mix_stderr=False) if "mix_stderr" in params else CliRunner()
    return runner.invoke(main, args, input=input)


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
    doc = json.loads(open(samples["first_party"], "rb").read())
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
        doc = json.loads(open(samples["first_party"], "rb").read())
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
        blob = open(samples["later"], "rb").read()
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
        blob = open(samples["minimal"], "rb").read()
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

    def test_equal_weights_spec_is_identity(self, samples):
        result = invoke(["whatif", samples["later"], "--weights", "equal"])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[-1] == "Delta | 0.00"


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
        doc = json.loads(open(samples["first_party"], "rb").read())
        doc["assessor"] = "\ud800"
        result = invoke(["score", "-", "--format", "machine"], input=json.dumps(doc))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("violation: ")
        assert "lone surrogate" in result.stderr

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

    def test_unbalanced_weights_flag_is_usage_error(self, samples):
        result = invoke(
            ["whatif", samples["later"], "--weights", "DS=0.5,H1=0.2,H2=0.2"]
        )
        assert result.exit_code == 2
        assert "violation: weights sum" in result.stderr

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
        doc = json.loads(open(samples["first_party"], "rb").read())
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
