import argparse
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spinbrauer.cli import CliConfig, _build_parser, load_config, run_command
from spinbrauer.linalg import _MR_BOUND
from spinbrauer.verify import CHECKS, _CIRCUITS, _EQUIVARIANT_FAMILIES


def run(argv):
    stream = io.StringIO()
    code = run_command(argv, stream)
    return code, stream.getvalue()


def test_enumerate_count(fixtures_dir):
    code, out = run(["enumerate", "--n", "2", "--count-only"])
    assert code == 0
    assert json.loads(out) == {"n": 2, "count": 10}


def test_multiply_demo_matches_fixture(fixtures_dir):
    code, out = run([
        "multiply",
        str(fixtures_dir / "product_demo_top.json"),
        str(fixtures_dir / "product_demo_bottom.json"),
    ])
    assert code == 0
    expected = json.loads((fixtures_dir / "product_demo_result.json").read_text())
    assert json.loads(out) == expected


def test_multiply_with_delta(fixtures_dir):
    code, out = run([
        "multiply",
        str(fixtures_dir / "product_demo_top.json"),
        str(fixtures_dir / "product_demo_bottom.json"),
        "--delta", "7",
    ])
    assert code == 0
    coeffs = [t["coeff"] for t in json.loads(out)["terms"]]
    assert coeffs == [[[0, -7]], [[0, 14]]]


def test_realize_entry_order(fixtures_dir, tmp_path):
    path = tmp_path / "strand.json"
    path.write_text(json.dumps({
        "n": 1, "top": {"isolated": [], "arcs": []},
        "bottom": {"isolated": [], "arcs": []}, "through": [[1, 1]],
    }))
    code, out = run(["realize", str(path), "--N", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == data["cols"] == 6
    coords = [(c, r) for r, c, _ in data["entries"]]
    assert coords == sorted(coords)
    assert all(e[0] == e[1] for e in data["entries"])


def test_cell_phi_fixture(fixtures_dir):
    code, out = run([
        "cell", "phi", "--ell", "3",
        str(fixtures_dir / "bilinear_demo_x.json"),
        str(fixtures_dir / "bilinear_demo_y.json"),
    ])
    assert code == 0
    expected = json.loads((fixtures_dir / "bilinear_demo_result.json").read_text())
    assert json.loads(out) == expected


SRC = Path(__file__).resolve().parent.parent / "src"


def _cli_process(argv, *flags):
    """(exit code, stdout) of the command line run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, *flags, "-m", "spinbrauer.cli", *argv],
                          stdout=subprocess.PIPE, env=env, text=True, check=False)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("argv", [
    ["cell", "phi", "--ell", "3", "bilinear_demo_x.json", "bilinear_demo_y.json"],
    ["verify", "modmult", "--n", "2"],
    ["verify", "cell-symmetry", "--n", "2"],
])
def test_optimized_interpreter_gives_the_same_output(argv, fixtures_dir):
    # python -O strips assert statements; no answer may depend on one.
    argv = [str(fixtures_dir / a) if a.endswith(".json") else a for a in argv]
    plain = _cli_process(argv)
    assert plain[0] == 0 and plain[1]
    assert _cli_process(argv, "-O") == plain


def test_cell_phi_zero(tmp_path):
    xs = tmp_path / "xs.json"
    ys = tmp_path / "ys.json"
    xs.write_text(json.dumps({"blocks": [[1], [2], [3]], "S": [[1]]}))
    ys.write_text(json.dumps({"blocks": [[1, 2], [3]], "S": [[3]]}))
    code, out = run(["cell", "phi", "--ell", "1", str(xs), str(ys)])
    assert code == 0
    assert json.loads(out) == {"zero": True}


def test_encode_five_vertex(fixtures_dir):
    code, out = run(["encode", str(fixtures_dir / "five_vertex_datum.json")])
    assert code == 0
    assert json.loads(out) == {
        "ell": 1,
        "x": [[1, 3], [2], [4], [5]],
        "S": [[4]],
        "y": [[1], [2, 5], [3], [4]],
        "T": [[3]],
        "sigma": [1],
    }


def test_involute_round_trip(fixtures_dir, tmp_path):
    code, out = run(["involute", str(fixtures_dir / "five_vertex_datum.json")])
    assert code == 0
    flipped = tmp_path / "flipped.json"
    flipped.write_text(out)
    code, out2 = run(["involute", str(flipped)])
    assert code == 0
    original = json.loads((fixtures_dir / "five_vertex_datum.json").read_text())
    assert json.loads(out2) == original


def test_classify():
    code, out = run(["classify", "--n", "2", "--char", "2"])
    assert code == 0
    assert json.loads(out)["indices"] == [
        {"m": 0, "partition": []},
        {"m": 1, "partition": [1]},
        {"m": 2, "partition": [2]},
    ]


@pytest.mark.parametrize("char", [1, 4])
def test_classify_rejects_a_characteristic_no_field_has(char, capsys):
    assert run(["classify", "--n", "3", "--char", str(char)]) == (2, "")
    assert capsys.readouterr().err == f"char={char} is neither 0 nor a prime\n"


def test_classify_accepts_a_twenty_digit_prime():
    code, out = run(["classify", "--n", "1", "--char", "10000000000000000051"])
    assert code == 0
    assert json.loads(out)["indices"] == [{"m": 0, "partition": []},
                                          {"m": 1, "partition": [1]}]


@pytest.mark.parametrize("char, message", [
    ((10**9 + 7) * (10**9 + 9), "is neither 0 nor a prime"),
    # The least strong pseudoprime to the Miller-Rabin bases: composite,
    # and where the primality test stops being exact.
    (_MR_BOUND, "is too large"),
])
def test_classify_refuses_a_large_composite(char, message, capsys):
    assert run(["classify", "--n", "1", "--char", str(char)]) == (2, "")
    assert capsys.readouterr().err.startswith(f"char={char} {message}")


@pytest.mark.parametrize("char, partitions", [
    (0, [[], [1], [2], [1, 1], [3], [2, 1], [1, 1, 1]]),
    (2, [[], [1], [2], [3], [2, 1]]),
    (3, [[], [1], [2], [1, 1], [3], [2, 1]]),
])
def test_classify_at_a_field_characteristic(char, partitions):
    code, out = run(["classify", "--n", "3", "--char", str(char)])
    assert code == 0
    assert json.loads(out)["indices"] == [{"m": sum(p), "partition": p} for p in partitions]


_FLOAT_DIAGRAM = {"n": 1.5, "top": {"isolated": [], "arcs": []},
                  "bottom": {"isolated": [], "arcs": []}, "through": [[1.9, True]]}


@pytest.mark.parametrize("argv", [
    ["involute"], ["encode"], ["realize", "--N", "2"],
    ["multiply", "product_demo_top.json"],
])
def test_diagram_file_with_non_integers_is_named(argv, fixtures_dir, tmp_path, capsys):
    bad = tmp_path / "float.json"
    bad.write_text(json.dumps(_FLOAT_DIAGRAM))
    good = [str(fixtures_dir / arg) if arg.endswith(".json") else arg for arg in argv]
    assert run([*good, str(bad)]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}: malformed diagram JSON") and err.count("\n") == 1


@pytest.mark.parametrize("arcs, through", [
    ([[1, 2, 3]], [[3, 3]]), ([[1, 2]], [[3, 3, 3]]),
], ids=["arc", "through"])
def test_diagram_file_with_a_three_entry_pair_is_refused(arcs, through, tmp_path, capsys):
    bad = tmp_path / "triple.json"
    bad.write_text(json.dumps({"n": 3, "top": {"isolated": [], "arcs": arcs},
                               "bottom": {"isolated": [1, 2], "arcs": []},
                               "through": through}))
    assert run(["involute", str(bad)]) == (2, "")
    assert capsys.readouterr().err.startswith(f"{bad}: ")


def test_verify_exit_codes():
    code, out = run(["verify", "circuit", "--N", "3", "--type", "IV", "--arcs", "0"])
    assert code == 0
    assert json.loads(out)["passed"] is True
    # Every rank case is certified by the top-row groups; their stdout is
    # pinned byte for byte.
    for argv, stdout in [
        (["--n", "1", "--N", "3"],
         '{"check": "rank", "info": {"asserted": true, "basis_size": 2, "rank": 2}, '
         '"parameters": {"N": 3, "n": 1}, "passed": true}\n'),
        (["--n", "2", "--N", "6"],
         '{"check": "rank", "info": {"asserted": true, "basis_size": 10, "rank": 10}, '
         '"parameters": {"N": 6, "n": 2}, "passed": true}\n'),
        (["--n", "4", "--N", "8", "--bound", "65536"],
         '{"check": "rank", "info": {"asserted": true, "basis_size": 764, "rank": 764}, '
         '"parameters": {"N": 8, "n": 4}, "passed": true}\n'),
    ]:
        assert run(["verify", "rank", *argv]) == (0, stdout)


def test_verify_homomorphism_exhaustive_exit_zero():
    code, out = run(["verify", "homomorphism", "--n", "2", "--N", "5",
                     "--mode", "exhaustive"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and report["parameters"]["pairs"] == 100


def test_enumerate_pretty_mode(tmp_path):
    cfg = tmp_path / "spinbrauer.toml"
    cfg.write_text("output = pretty\n")
    code, out = run(["--config", str(cfg), "enumerate", "--n", "1"])
    assert code == 0
    assert "⊙" in out


def test_bare_names_resolve_against_fixtures_dir(fixtures_dir, tmp_path):
    cfg = tmp_path / "spinbrauer.toml"
    cfg.write_text(f"fixtures_dir = {fixtures_dir}\n")
    code, out = run(["--config", str(cfg), "encode", "five_vertex_datum.json"])
    assert code == 0
    assert json.loads(out)["ell"] == 1


def test_validation_error_surfaces(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 2, "top": {"isolated": [2, 1], "arcs": []},
        "bottom": {"isolated": [1, 2], "arcs": []}, "through": [],
    }))
    code, _ = run(["involute", str(bad)])
    assert code == 2
    assert "not ascending" in capsys.readouterr().err


def test_usage_error_is_exit_two(capsys):
    assert run(["frobnicate"])[0] == 2
    capsys.readouterr()


def test_verify_missing_flag_is_usage_error(capsys):
    code, _ = run(["verify", "homomorphism", "--N", "3"])
    assert code == 2
    assert "--n" in capsys.readouterr().err


# Each check at its smallest size: the CLI arguments and the keyword
# arguments they must reach the check with (CLI defaults included).
SMALLEST_CHECKS = {
    "homomorphism": (["--n", "1", "--N", "2"],
                     dict(n=1, N=2, mode="exhaustive", samples=50, seed=0, bound=4096)),
    "equivariance": (["--N", "2"], dict(N=2, map_kind="projection", bound=4096)),
    "circuit": (["--N", "2"], dict(N=2, circuit_type="IV", arcs=0, bound=4096)),
    "clifford": (["--N", "2"], dict(N=2, bound=4096)),
    "rank": (["--n", "1", "--N", "2"], dict(n=1, N=2, bound=4096)),
    "surjectivity": (["--n", "1", "--N", "2"], dict(n=1, N=2, bound=4096)),
    "brauer": (["--n", "1"], dict(n=1)),
    "associativity": (["--n", "1"], dict(n=1, samples=50, seed=0)),
    "filtration": (["--n", "1"], dict(n=1)),
    "modmult": (["--n", "1"], dict(n=1)),
    "cell-symmetry": (["--n", "1"], dict(n=1)),
    "involution": (["--n", "1"], dict(n=1)),
}


def test_smallest_checks_cover_every_check():
    assert set(SMALLEST_CHECKS) == set(CHECKS)


@pytest.mark.parametrize("name", sorted(SMALLEST_CHECKS))
def test_verify_cli_matches_direct_call(name):
    argv, kwargs = SMALLEST_CHECKS[name]
    code, out = run(["verify", name, *argv])
    report = CHECKS[name](**kwargs)
    assert code == (0 if report.passed else 1)
    assert out == json.dumps(report.to_json(), sort_keys=True, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("name", sorted(SMALLEST_CHECKS))
def test_verify_defaults_are_the_checks_own(name):
    # Given only its required flags, the CLI runs the check as a direct call
    # with only those arguments does: each default has one source.
    argv, kwargs = SMALLEST_CHECKS[name]
    required = {p.name: kwargs[p.name]
                for p in inspect.signature(CHECKS[name]).parameters.values()
                if p.default is p.empty}
    report = CHECKS[name](**required)
    assert run(["verify", name, *argv])[1] == json.dumps(
        report.to_json(), sort_keys=True, ensure_ascii=False) + "\n"


def _readme_checks_paragraph():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return re.search(r"Available checks: (.*?)\.\n", text, re.DOTALL).group(1)


def test_readme_names_every_check():
    names = re.findall(r"`([^`]+)`", re.sub(r"\(.*?\)", "", _readme_checks_paragraph(),
                                            flags=re.DOTALL))
    assert names == list(CHECKS)


def test_readme_command_lines_parse():
    # Each line of the "Command line" block, its comment removed, is accepted
    # by the parser; nothing is run.
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.DOTALL).group(1)
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    assert lines and all(words[0] == "spinbrauer" for words in lines)
    parser = _build_parser()
    for words in lines:
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(words)}")


def test_readme_names_every_map_kind():
    kinds = re.search(r"`--map-kind ([^`]+)`", _readme_checks_paragraph()).group(1)
    assert [k.strip() for k in kinds.split("|")] == list(_EQUIVARIANT_FAMILIES)


def test_circuit_type_choices_are_the_circuit_table():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    (choices,) = [a.choices for a in sub.choices["verify"]._actions
                  if a.dest == "circuit_type"]
    assert list(choices) == list(_CIRCUITS)


def test_verify_map_kinds_are_the_equivariance_families(capsys):
    for kind in _EQUIVARIANT_FAMILIES:
        assert run(["verify", "equivariance", "--N", "2", "--map-kind", kind])[0] == 0
    for kind in ("bogus", "", "gamma"):
        assert run(["verify", "equivariance", "--N", "2", "--map-kind", kind])[0] == 2
        assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv,dim,bound", [
    (["clifford", "--N", "6", "--bound", "100"], 288, 100),
    (["equivariance", "--N", "5", "--map-kind", "invariant", "--bound", "10"], 100, 10),
    (["equivariance", "--N", "8", "--map-kind", "immersion"], 8192, 4096),
    (["circuit", "--N", "5", "--type", "II", "--arcs", "2", "--bound", "10"], 500, 10),
    (["circuit", "--N", "8", "--type", "I", "--arcs", "2"], 65536, 4096),
    (["surjectivity", "--n", "4", "--N", "8"], 65536, 4096),
    (["surjectivity", "--n", "3", "--N", "5", "--bound", "100"], 500, 100),
])
def test_verify_over_bound_is_usage_error(argv, dim, bound, capsys):
    code, out = run(["verify", *argv])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"total dimension {dim} exceeds bound {bound}\n"


def test_realize_over_bound_is_usage_error(fixtures_dir, tmp_path, capsys):
    cfg = tmp_path / "spinbrauer.toml"
    cfg.write_text("max_total_dimension = 100\n")
    code, out = run(["--config", str(cfg), "realize",
                     str(fixtures_dir / "five_vertex_datum.json"), "--N", "3"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "total dimension 486 exceeds bound 100\n"


def test_identical_invocations_are_byte_identical(fixtures_dir):
    args = ["multiply", str(fixtures_dir / "product_demo_top.json"),
            str(fixtures_dir / "product_demo_bottom.json")]
    assert run(args)[1] == run(args)[1]


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "spinbrauer.toml"
    cfg.write_text("max_n = 4\nwibble = 2\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(str(cfg))


def test_config_round_trip(tmp_path):
    cfg = tmp_path / "spinbrauer.toml"
    cfg.write_text("# bounds\nmax_n = 4\noutput = pretty\nseed = 9\n")
    conf = load_config(str(cfg))
    assert conf == CliConfig(max_n=4, output="pretty", seed=9)


def test_config_validates_values(tmp_path):
    cfg = tmp_path / "spinbrauer.toml"
    cfg.write_text("max_n = 0\n")
    with pytest.raises(ValueError):
        load_config(str(cfg))


def test_bad_config_path_is_usage_error(capsys):
    code, _ = run(["--config", "/nonexistent/conf", "enumerate", "--n", "1"])
    assert code == 2
    capsys.readouterr()


def test_enumerate_over_bound_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "spinbrauer.toml"
    cfg.write_text("max_n = 2\n")
    code, _ = run(["--config", str(cfg), "enumerate", "--n", "3"])
    assert code == 2
    capsys.readouterr()


def test_max_n_is_the_one_row_limit(tmp_path, capsys):
    # Above the default max_n the basis is listed once the config allows it.
    cfg = tmp_path / "spinbrauer.toml"
    cfg.write_text("max_n = 6\n")
    code, out = run(["--config", str(cfg), "verify", "associativity",
                     "--n", "6", "--samples", "1"])
    assert code == 0 and json.loads(out)["passed"]
    code, out = run(["enumerate", "--n", "6"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "n=6 exceeds max_n 5\n"


def test_config_reads_every_field(tmp_path):
    cfg = tmp_path / "spinbrauer.toml"
    cfg.write_text("max_n = 3\nmax_total_dimension = 7\noutput = 'pretty'\n"
                   "seed = 4\nfixtures_dir = \"elsewhere\"\n")
    assert load_config(str(cfg)) == CliConfig(3, 7, "pretty", 4, "elsewhere")


@pytest.mark.parametrize("argv", [
    ["verify", "associativity", "--n", "4", "--samples", "2"],
    ["verify", "surjectivity", "--n", "4", "--N", "2"],
    ["classify", "--n", "4"],
])
def test_verify_over_max_n_is_usage_error(argv, tmp_path, capsys):
    cfg = tmp_path / "spinbrauer.toml"
    cfg.write_text("max_n = 3\n")
    code, out = run(["--config", str(cfg), *argv])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "n=4 exceeds max_n 3\n"


@pytest.mark.parametrize("content", [
    {"blocks": [[1], [2]]},
    [[[1], [2]], [[1]]],
    {"blocks": [[1.7], [2]], "S": [[2]]},
    {"blocks": [[1], [2]], "S": [[True]]},
    {"blocks": [["1"], [2]], "S": [[2]]},
    {"blocks": [["a"]], "S": []},
])
def test_malformed_partition_file_is_usage_error(content, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"blocks": [[1], [2]], "S": [[1]]}))
    for files in ([bad, good], [good, bad]):
        code, out = run(["cell", "phi", "--ell", "1", *map(str, files)])
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(bad) in err


@pytest.mark.parametrize("argv", [
    ["involute"],
    ["multiply", "product_demo_top.json"],
    ["cell", "phi", "--ell", "1", "bilinear_demo_y.json"],
])
@pytest.mark.parametrize("content", [b"hello\n", b"\xff\xfe"], ids=["text", "binary"])
def test_file_that_is_not_json_is_named(argv, content, fixtures_dir, tmp_path, capsys):
    # The broken file is the last argument, after any good one.
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    good = [str(fixtures_dir / arg) if arg.endswith(".json") else arg for arg in argv]
    code, out = run([*good, str(bad)])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "cell-symmetry", "--n", "-2"],
    ["verify", "associativity", "--n", "2", "--samples", "-1"],
    ["verify", "homomorphism", "--n", "1", "--N", "3", "--mode", "random",
     "--samples", "-3"],
    ["verify", "homomorphism", "--n", "1", "--N", "3", "--samples", "-3"],
    ["classify", "--n", "-1"],
    ["classify", "--n", "3", "--char", "-1"],
])
def test_negative_sizes_are_usage_errors(argv, capsys):
    assert run(argv) == (2, "")
    assert "nonnegative" in capsys.readouterr().err


def test_default_config_runs_verify_filtration_at_three():
    code, out = run(["verify", "filtration", "--n", "3"])
    assert code == 0
    assert json.loads(out)["passed"] is True
