import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

from eulerchi import cli, translation
from eulerchi.errors import (
    CrossCheckError,
    EulerchiError,
    ResourceLimitExceeded,
    UnsupportedCombination,
    ValidationError,
)
from eulerchi.groups import Presentation, symmetric_group

from test_jsonio import complex_obj

DATA = Path(str(resources.files("eulerchi") / "data"))


def run_cli(*argv, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "eulerchi.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_cli_import_leaves_numpy_out():
    r = subprocess.run(
        [sys.executable, "-c", "import sys, eulerchi.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_cli_import_leaves_out_dataclasses_and_the_harness():
    # every command is a fresh process: importing the CLI builds no
    # generated records, and only verify loads the harness; the harness,
    # loaded late, keeps no stand-in patched over a cells function
    script = (
        "import sys, eulerchi.cli, eulerchi.cells as cells\n"
        "lazy = {'dataclasses', 'inspect', 'eulerchi.harness'}\n"
        "assert not lazy & set(sys.modules), lazy & set(sys.modules)\n"
        "original = cells.integrate\n"
        "stand_in = cells.integrate = lambda *a: original(*a)\n"
        "code = eulerchi.cli.main(['--report', 'json', 'verify', '--seed', '1', '--cases', '1'])\n"
        "cells.integrate = original\n"
        "assert code == 0, code\n"
        "assert 'eulerchi.harness' in sys.modules\n"
        "held = [n for n, m in sys.modules.items() if n.startswith('eulerchi')\n"
        "        and any(v is stand_in for v in vars(m).values())]\n"
        "assert not held, held\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["result"]["passed"] is True


def test_chi_bundled_interval():
    r = run_cli("chi", str(DATA / "closed_interval.json"))
    assert r.returncode == 0
    assert "result: 1" in r.stdout


def test_chi_bundled_ray():
    r = run_cli("chi", str(DATA / "so3_r3_orbit.json"))
    assert r.returncode == 0
    assert "result: 0" in r.stdout


def test_chi_malformed_file_names_field(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cells": [{"id": "a"}]}))
    r = run_cli("chi", str(bad))
    assert r.returncode == 1
    assert "dim" in r.stderr


def test_chi_missing_file():
    r = run_cli("chi", "definitely/not/here.json")
    assert r.returncode == 1
    assert r.stderr == "eulerchi: [Errno 2] No such file or directory: 'definitely/not/here.json'\n"


def test_chi_of_a_directory_exits_1(tmp_path):
    r = run_cli("chi", str(tmp_path))
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("eulerchi: [Errno 21] Is a directory")


def test_out_to_a_directory_exits_1(tmp_path):
    r = run_cli("--out", str(tmp_path), "chi", str(DATA / "closed_interval.json"))
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("eulerchi: [Errno 21] Is a directory")


def test_gamma_chi_values():
    cases = [
        ("so2_s2.json", '{"kind":"cyclic","order":3}', 5),
        ("so2_s2.json", '{"kind":"free_abelian","rank":2}', -1),
        ("so3_r3.json", '{"kind":"free_abelian","rank":1}', 1),
    ]
    for name, gamma, expected in cases:
        r = run_cli("--report", "json", "gamma-chi", str(DATA / name), "--gamma", gamma)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["result"] == expected


@pytest.mark.parametrize(
    "stratum,message",
    [
        ({"id": "a", "dim": -1}, "cells[0].dim: expected a non-negative integer, got -1"),
        ({"id": "a"}, "strata[0]: missing field 'dim'"),
    ],
)
def test_groupoid_strata_are_read_as_cells(tmp_path, capsys, stratum, message):
    """A groupoid's strata go through the one cell reader: its shape errors
    name the strata, and ``validate_space`` words a bad dimension."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"strata": [{**stratum, "isotropy": {"kind": "SO3"}}]}))
    assert cli.main(["gamma-chi", str(path), "--gamma", '{"kind":"trivial"}']) == 1
    assert capsys.readouterr().err == f"eulerchi: invalid input: {message}\n"


def test_gamma_chi_unsupported_exits_2():
    r = run_cli("gamma-chi", str(DATA / "so3_r3.json"), "--gamma", '{"kind":"cyclic","order":2}')
    assert r.returncode == 2
    assert "origin" in r.stderr


def test_translation_all_methods():
    r = run_cli(
        "--report", "json",
        "translation", str(DATA / "s3_point.json"),
        "--gamma", '{"kind":"free_abelian","rank":2}',
    )
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["result"] == {"strata": 8, "inertia": 8, "noniter": 8}
    assert all(a["pass"] for a in out["assertions"])


def test_translation_single_method():
    r = run_cli(
        "--report", "json",
        "translation", str(DATA / "s3_point.json"),
        "--gamma", '{"kind":"trivial"}', "--method", "inertia",
    )
    assert json.loads(r.stdout)["result"] == 1


def test_order_ell():
    r = run_cli("--report", "json", "order-ell", str(DATA / "s3_point.json"), "--ell", "2")
    report = json.loads(r.stdout)
    assert report["result"] == 8
    assert report["breakdown"]["recursion"] == [
        {"depth": 1, "branches": 3},
        {"depth": 2, "branches": 8},
    ]
    r = run_cli("--report", "json", "order-ell", str(DATA / "q8_point.json"), "--ell", "1")
    assert json.loads(r.stdout)["result"] == 5
    r = run_cli("--report", "json", "order-ell", str(DATA / "s3_point.json"), "--ell", "0")
    assert json.loads(r.stdout)["result"] == 1
    r = run_cli("--report", "json", "order-ell", str(DATA / "q8_point.json"), "--ell", "10", "--cap", "10")
    report = json.loads(r.stdout)
    assert report["result"] == 1572352
    assert [b["branches"] for b in report["breakdown"]["recursion"]] == [5, 22]


def test_order_ell_cap_exit_2():
    r = run_cli("order-ell", str(DATA / "s3_point.json"), "--ell", "5")
    assert r.returncode == 2
    r = run_cli(
        "order-ell", str(DATA / "s3_point.json"), "--ell", "5",
        env_extra={"EULERCHI_RECURSION_CAP": "6"},
    )
    assert r.returncode == 0


def test_order_ell_eleven_on_q8_runs_through_main():
    """Q8 on a point at order 11 has 6,290,432 branches at its last depth;
    the memoized walk visits each distinct subtree once."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(
            ["--report", "json", "order-ell", str(DATA / "q8_point.json"), "--ell", "11", "--cap", "11"]
        )
    assert code == 0
    report = json.loads(out.getvalue())
    assert report["result"] == 6290432
    assert [b["branches"] for b in report["breakdown"]["recursion"]] == [5, 22]


def test_order_ell_breakdown_is_the_groups_value_on_a_point(tmp_path, capsys):
    """The breakdown of a complex that is not a point lists its group's
    order-1 and order-2 values on a point: S4 has 5 classes of elements
    and 21 classes of commuting pairs."""
    s4 = symmetric_group(4)
    involution = next(a for a in s4.elements() if a and s4.mul(a, a) == 0)
    x = translation.coset_complex(s4, [0, involution])
    path = tmp_path / "s4_cosets.json"
    path.write_text(json.dumps(complex_obj(x)))
    assert cli.main(["--report", "json", "order-ell", str(path), "--ell", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"] == translation.chi_gamma_noniter(Presentation.free_abelian(3), x) == 8
    assert translation.chi_order_ell(translation.point_complex(s4), 3) == 84
    assert report["breakdown"]["recursion"] == [{"depth": 1, "branches": 5}, {"depth": 2, "branches": 21}]


def test_stack_overflows_are_refused_with_exit_2(tmp_path, capsys):
    """A walk or an enumeration deeper than the interpreter's stack ends in
    one ``unsupported`` line and exit 2, not a traceback."""
    point = tmp_path / "trivial_point.json"
    point.write_text(json.dumps(
        {"group": {"order": 1, "table": [[0]]}, "cells": [{"id": "pt", "dim": 0}], "action": {}}
    ))
    depth = str(sys.getrecursionlimit())
    assert cli.main(["order-ell", str(point), "--ell", depth, "--cap", depth]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        f"eulerchi: unsupported: order-ell walk: order {depth} recurses deeper "
        "than the interpreter's stack allows\n"
    )
    n = sys.getrecursionlimit() + 100
    gamma = json.dumps({"kind": "presentation", "generators": n})
    assert cli.main(["translation", str(point), "--gamma", gamma]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        f"eulerchi: unsupported: hom_orbit_reps: {n} generators recurse deeper "
        "than the interpreter's stack allows at 'pt'\n"
    )


def test_negative_recursion_cap_is_invalid_input():
    r = run_cli("order-ell", str(DATA / "s3_point.json"), "--ell", "0", "--cap", "-1")
    assert r.returncode == 1
    assert "recursion cap must be >= 0, got -1" in r.stderr
    r = run_cli(
        "order-ell", str(DATA / "s3_point.json"), "--ell", "0",
        env_extra={"EULERCHI_RECURSION_CAP": "-2"},
    )
    assert r.returncode == 1
    assert "recursion cap must be >= 0, got -2" in r.stderr


def test_order_ell_refusals_keep_their_order(tmp_path, capsys, monkeypatch):
    """The variable is parsed first, then the file is read, then a negative
    order is refused ahead of a negative cap, and the cap itself comes last."""
    point, missing = str(DATA / "s3_point.json"), str(tmp_path / "missing.json")
    monkeypatch.delenv("EULERCHI_RECURSION_CAP", raising=False)
    for argv, code, err in [
        ([point, "--ell", "-1", "--cap", "-1"], 1, "eulerchi: invalid input: ell must be >= 0\n"),
        ([point, "--ell", "0", "--cap", "-1"], 1, "eulerchi: invalid input: recursion cap must be >= 0, got -1\n"),
        ([missing, "--ell", "5", "--cap", "-1"], 1, f"eulerchi: [Errno 2] No such file or directory: {missing!r}\n"),
        ([missing, "--ell", "5"], 1, f"eulerchi: [Errno 2] No such file or directory: {missing!r}\n"),
        ([point, "--ell", "5"], 2, "eulerchi: unsupported: order 5 exceeds the recursion cap 4\n"),
    ]:
        assert cli.main(["order-ell", *argv]) == code, argv
        assert capsys.readouterr() == ("", err), argv
    monkeypatch.setenv("EULERCHI_RECURSION_CAP", "many")
    assert cli.main(["order-ell", missing, "--ell", "-1"]) == 1
    assert capsys.readouterr() == ("", "eulerchi: invalid input: EULERCHI_RECURSION_CAP must be an integer, got 'many'\n")


def test_bad_recursion_cap_variable_is_read_only_by_order_ell():
    env = {"EULERCHI_RECURSION_CAP": "many"}
    assert run_cli("--help", env_extra=env).returncode == 0
    r = run_cli("chi", str(DATA / "closed_interval.json"), env_extra=env)
    assert r.returncode == 0, r.stderr
    r = run_cli("order-ell", str(DATA / "s3_point.json"), "--ell", "1", env_extra=env)
    assert r.returncode == 1
    assert "EULERCHI_RECURSION_CAP must be an integer, got 'many'" in r.stderr
    r = run_cli("order-ell", str(DATA / "s3_point.json"), "--ell", "1", "--cap", "4", env_extra=env)
    assert r.returncode == 0, r.stderr


def test_gamma_file_path_is_read_as_a_file(tmp_path):
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps({"kind": "free_abelian", "rank": 1}))
    r = run_cli("--report", "json", "translation", str(DATA / "s3_point.json"), "--gamma", str(gamma))
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["result"] == {"strata": 3, "inertia": 3, "noniter": 3}
    assert report["inputs"]["gamma"]["path"] == str(gamma)


def test_gamma_missing_path_is_refused():
    r = run_cli("translation", str(DATA / "s3_point.json"), "--gamma", "no/such/file.json")
    assert r.returncode == 1
    assert "--gamma: 'no/such/file.json' is neither an existing file nor valid JSON" in r.stderr


@pytest.mark.parametrize("nested", ["function", "gamma"])
def test_a_nul_byte_in_a_path_is_refused_in_one_line(tmp_path, nested):
    """A path read from JSON, nested in a file or given inline, may hold a
    NUL byte, which no file name can: it is refused as a file that cannot
    be read, in one line and not a traceback."""
    if nested == "function":
        f = tmp_path / "f.json"
        f.write_text('{"space": "a\\u0000b", "values": {}}')
        r = run_cli("integrate", str(f))
    else:
        r = run_cli("translation", str(DATA / "s3_point.json"), "--gamma", '"p\\u0000.json"')
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr.startswith("eulerchi: invalid input: cannot read ")
    assert r.stderr.endswith(": embedded null byte\n") and r.stderr.count("\n") == 1


def test_long_inline_gamma_is_not_a_file_name():
    gamma = json.dumps({"kind": "presentation", "generators": 2, "relators": [[1, 2, -1, -2]] * 30})
    assert len(gamma) > 255 and "/" not in gamma
    r = run_cli("--report", "json", "translation", str(DATA / "s3_point.json"), "--gamma", gamma)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["result"] == {"strata": 8, "inertia": 8, "noniter": 8}
    assert report["inputs"]["gamma"]["inline"] == gamma


def test_pushforward_fubini():
    r = run_cli(
        "--report", "json",
        "pushforward", str(DATA / "square_to_interval.json"), str(DATA / "ones_on_square.json"),
    )
    out = json.loads(r.stdout)
    assert out["result"] == {"v0": 1, "v1": 1, "e": 1}
    assert out["assertions"][0]["pass"]


def test_integrate_with_levelset_assertion(tmp_path):
    fn = tmp_path / "f.json"
    fn.write_text(
        json.dumps(
            {
                "space": {"cells": [{"id": "v", "dim": 0}, {"id": "e", "dim": 1}]},
                "values": {"v": 2, "e": -1},
            }
        )
    )
    r = run_cli("--report", "json", "integrate", str(fn))
    out = json.loads(r.stdout)
    assert out["result"] == 3
    assert out["assertions"][0]["name"] == "levelset_formulation"


def test_atlas_sums_pieces():
    r = run_cli(
        "--report", "json",
        "atlas", str(DATA / "s3_point.json"), str(DATA / "s3_point.json"),
        "--gamma", '{"kind":"free_abelian","rank":1}',
    )
    out = json.loads(r.stdout)
    assert out["result"] == 6
    assert any("disjoint" in w for w in out["warnings"])


def test_extension_report():
    r = run_cli("--report", "json", "extension", str(DATA / "o2_extension.json"))
    out = json.loads(r.stdout)
    assert out["result"] == 0
    assert out["breakdown"] == {"base_factor": 2, "ell": 1, "fiber_factor": 0}


_S3_TABLE = [[0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], [2, 0, 1, 5, 3, 4],
             [3, 5, 4, 0, 2, 1], [4, 3, 5, 1, 0, 2], [5, 4, 3, 2, 1, 0]]


@pytest.mark.parametrize(
    "change,message",
    [
        ({"fiber": {"kind": "finite", "group": {"order": 6, "table": _S3_TABLE}}},
         "finite fiber is not abelian"),
        ({"fiber": {"kind": "SO3"}}, "fiber must be a finite abelian or torus entry"),
        ({"group": {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}},
         "complex is not an action of the given group"),
    ],
)
def test_extension_refusals(tmp_path, change, message):
    ext = tmp_path / "extension.json"
    ext.write_text(json.dumps({**json.loads((DATA / "o2_extension.json").read_text()), **change}))
    r = run_cli("extension", str(ext))
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == f"eulerchi: invalid input: abelian_extension_chi: {message}\n"


def test_inertia_command():
    r = run_cli(
        "--report", "json",
        "inertia", str(DATA / "s3_point.json"), "--gamma", '{"kind":"free_abelian","rank":1}',
    )
    out = json.loads(r.stdout)
    assert out["result"] == 3
    assert out["breakdown"]["cells"] == 6


def test_verify_deterministic_and_green():
    args = ("--report", "json", "verify", "--seed", "42", "--cases", "15")
    r1, r2 = run_cli(*args), run_cli(*args)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    out = json.loads(r1.stdout)
    assert out["result"]["passed"] is True


def test_verify_fault_injection_exits_3(tmp_path):
    dump = tmp_path / "counterexample.json"
    r = run_cli(
        "verify", "--seed", "42", "--cases", "5", "--dump", str(dump),
        env_extra={"EULERCHI_INJECT_FAULT": "lambda_plus_one"},
    )
    assert r.returncode == 3
    assert dump.exists()
    payload = json.loads(dump.read_text())
    assert "instance" in payload and "check" in payload


def test_verify_report_of_200_cases_is_pinned(capsys):
    assert cli.main(["--report", "json", "verify", "--seed", "42", "--cases", "200"]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == "3100b973e34655b09aadaa6943d661c7"


@pytest.mark.parametrize(
    "error,code,line",
    [
        (ValidationError("bad table"), 1, "eulerchi: invalid input: bad table\n"),
        (
            UnsupportedCombination("M", "P"), 2,
            "eulerchi: unsupported: no exact value for isotropy model 'M' with group 'P'\n",
        ),
        (
            ResourceLimitExceeded("walk", "too deep", "pt"), 2,
            "eulerchi: unsupported: walk: too deep at 'pt'\n",
        ),
        (CrossCheckError("routes disagree"), 3, "eulerchi: cross-check failure: routes disagree\n"),
        (EulerchiError("plain"), 1, "eulerchi: plain\n"),
    ],
    ids=["ValidationError", "UnsupportedCombination", "ResourceLimitExceeded", "CrossCheckError", "EulerchiError"],
)
def test_each_error_exits_with_its_code_and_one_line(monkeypatch, capsys, error, code, line):
    def route(p, x):
        raise error

    monkeypatch.setattr(translation, "chi_gamma_strata", route)
    argv = ["translation", str(DATA / "s3_point.json"), "--gamma", '{"kind":"trivial"}', "--method", "strata"]
    assert cli.main(argv) == code
    assert capsys.readouterr() == ("", line)


@pytest.mark.parametrize(
    "argv,env,message",
    [
        (("--cases", "-5"), None, "--cases must be >= 1"),
        (("--cases", "0"), None, "--cases must be >= 1"),
        (("--max-group", "0"), None, "--max-group must be >= 1"),
        ((), {"EULERCHI_INJECT_FAULT": "gremlins"}, "unknown fault 'gremlins'"),
        (("--max-cells", "-5"), None, "--max-cells must be >= 1"),
    ],
)
def test_verify_refuses_bad_arguments(argv, env, message):
    r = run_cli("verify", "--cases", "1", *argv, env_extra=env)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("eulerchi: invalid input: ")
    assert message in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "gamma,message",
    [
        ('{"kind":"cyclic","order":2.5}', "cyclic order must be an integer >= 1, got 2.5"),
        ('{"kind":"cyclic","order":true}', "cyclic order must be an integer >= 1, got True"),
        ('{"kind":"free_abelian","rank":"2"}', "free abelian rank must be an integer >= 0, got '2'"),
        ('{"kind":"presentation","generators":true}', "generators: expected a non-negative integer, got True"),
    ],
)
def test_gamma_refuses_non_integer_fields(gamma, message):
    r = run_cli("translation", str(DATA / "s3_point.json"), "--gamma", gamma)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("eulerchi: invalid input: ")
    assert message in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "relators,message",
    [
        ("[[true,true]]", "relators[0]: letter True is not an integer"),
        ("[1,2]", "relators[0]: expected a list of letters, got 1"),
    ],
)
def test_gamma_refuses_bad_relators(relators, message):
    gamma = '{"kind":"presentation","generators":2,"relators":%s}' % relators
    r = run_cli("translation", str(DATA / "s3_point.json"), "--gamma", gamma)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == f"eulerchi: invalid input: {message}\n"


def test_gamma_empty_relator_is_the_relator_left_out():
    runs = [
        run_cli("--report", "json", "translation", str(DATA / "s3_point.json"), "--gamma",
                '{"kind":"presentation","generators":2%s}' % extra)
        for extra in (',"relators":[[]]', "")
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert "Traceback" not in runs[0].stderr
    results = [json.loads(r.stdout)["result"] for r in runs]
    assert results[0] == results[1] == {"inertia": 11, "noniter": 11, "strata": 11}


def test_report_out_file(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("--report", "json", "--out", str(out), "chi", str(DATA / "closed_interval.json"))
    assert r.returncode == 0
    assert json.loads(out.read_text())["result"] == 1


def test_custom_catalog_entry_warns(tmp_path):
    groupoid = tmp_path / "g.json"
    groupoid.write_text(
        json.dumps(
            {
                "strata": [
                    {
                        "id": "pt",
                        "dim": 0,
                        "isotropy": {"kind": "custom", "name": "mystery", "chi": {"Z": 7}},
                    }
                ]
            }
        )
    )
    r = run_cli("--report", "json", "gamma-chi", str(groupoid), "--gamma", '{"kind":"free_abelian","rank":1}')
    out = json.loads(r.stdout)
    assert out["result"] == 7
    assert any("user-supplied" in w for w in out["warnings"])


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_crlf_file_with_invalid_json_counts_chars_after_newline_translation(tmp_path):
    bad = tmp_path / "crlf.json"
    bad.write_bytes(b'{\r\n  "cells": [\r\n    {"id": "a", "dim": 0},\r\n  ]\r\n}\r\n')
    r = run_cli("chi", str(bad))
    assert r.returncode == 1
    assert r.stderr.startswith("eulerchi: invalid input: ")
    assert r.stderr.endswith(": invalid JSON: Expecting value: line 4 column 3 (char 44)\n")


def test_file_whose_json_is_a_string_is_not_followed(tmp_path):
    square = tmp_path / "square.json"
    square.write_text(json.dumps({"cells": [{"id": "v", "dim": 0}]}))
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps(str(square)))
    r = run_cli("chi", str(ref))
    assert r.returncode == 1
    assert r.stderr == "eulerchi: invalid input: cell space: expected an object, got str\n"


def test_missing_nested_space_reference_names_the_resolved_path(tmp_path):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"space": "nope.json", "values": {}}))
    r = run_cli("integrate", str(fn))
    assert r.returncode == 1
    assert r.stderr.startswith(f"eulerchi: invalid input: cannot read {tmp_path / 'nope.json'}: ")
    assert r.stderr.count("\n") == 1


def test_pushforward_inputs_name_each_file_and_its_digest():
    map_path, fn_path = DATA / "square_to_interval.json", DATA / "ones_on_square.json"
    r = run_cli("--report", "json", "pushforward", str(map_path), str(fn_path))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["inputs"] == {
        "map": {"path": str(map_path), "sha256": _sha256(map_path)},
        "function": {"path": str(fn_path), "sha256": _sha256(fn_path)},
    }


def test_gamma_file_input_names_the_file_and_its_digest(tmp_path):
    gamma = tmp_path / "gamma.json"
    gamma.write_text('{"kind": "trivial"}\n')
    r = run_cli("--report", "json", "translation", str(DATA / "s3_point.json"), "--gamma", str(gamma))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["inputs"]["gamma"] == {"path": str(gamma), "sha256": _sha256(gamma)}


NOT_UTF8 = bytes.fromhex("fffe7b7d")


def _refused_once(r, path):
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("eulerchi: invalid input: ")
    assert str(path) in r.stderr
    assert r.stderr.count("\n") == 1
    assert "Traceback" not in r.stderr


def test_non_utf8_file_is_refused(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    _refused_once(run_cli("chi", str(bad)), bad)


def test_non_utf8_gamma_file_is_refused(tmp_path):
    bad = tmp_path / "gamma.json"
    bad.write_bytes(NOT_UTF8)
    _refused_once(run_cli("translation", str(DATA / "s3_point.json"), "--gamma", str(bad)), bad)


def test_non_utf8_nested_reference_is_refused(tmp_path):
    (tmp_path / "space.json").write_bytes(NOT_UTF8)
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"space": "space.json", "values": {}}))
    _refused_once(run_cli("integrate", str(fn)), tmp_path / "space.json")


def test_non_utf8_inline_gamma_is_refused():
    r = subprocess.run(
        [sys.executable, "-m", "eulerchi.cli", "translation", str(DATA / "s3_point.json"),
         "--gamma", b'{"kind":"trivial","note":"\xff"}'],
        capture_output=True,
    )
    assert r.returncode == 1
    assert r.stderr == b"eulerchi: invalid input: --gamma: not UTF-8\n"


def test_over_deep_json_file_is_refused(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    _refused_once(run_cli("chi", str(deep)), deep)


def test_over_deep_inline_gamma_is_refused():
    r = run_cli("translation", str(DATA / "s3_point.json"), "--gamma", "[" * 100_000)
    assert r.returncode == 1
    assert r.stderr == "eulerchi: invalid input: --gamma: JSON nested too deeply\n"


def _nested_product(depth: int) -> dict:
    iso = {"kind": "torus", "n": 1}
    for _ in range(depth):
        iso = {"kind": "product", "factors": [iso]}
    return iso


def test_over_deep_isotropy_products_are_refused(tmp_path):
    trivial = '{"kind":"trivial"}'
    groupoid = tmp_path / "groupoid.json"
    for depth, code in ((100, 0), (101, 1), (400, 1)):
        groupoid.write_text(json.dumps({"strata": [{"id": "a", "dim": 0, "isotropy": _nested_product(depth)}]}))
        r = run_cli("gamma-chi", str(groupoid), "--gamma", trivial)
        if code:
            _refused_once(r, groupoid)
        else:
            assert r.returncode == 0, r.stderr
    ext = tmp_path / "extension.json"
    ext.write_text(json.dumps({**json.loads((DATA / "o2_extension.json").read_text()), "fiber": _nested_product(400)}))
    _refused_once(run_cli("extension", str(ext)), ext)
    # a product that refers to its own file nests without end
    (tmp_path / "iso.json").write_text('{"kind": "product", "factors": ["iso.json"]}')
    groupoid.write_text('{"strata": [{"id": "a", "dim": 0, "isotropy": "iso.json"}]}')
    _refused_once(run_cli("gamma-chi", str(groupoid), "--gamma", trivial), groupoid)


BIG_INT = "1" * 5000  # past the interpreter's 4,300-digit int-string limit


def test_integer_past_the_digit_limit_is_invalid_json(tmp_path):
    space = tmp_path / "space.json"
    space.write_text('{"cells": [{"id": "a", "dim": %s}]}' % BIG_INT)
    r = run_cli("chi", str(space))
    _refused_once(r, space)
    assert "invalid JSON" in r.stderr
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"space": "space.json", "values": {}}))
    r = run_cli("integrate", str(fn))
    _refused_once(r, space)
    assert "invalid JSON" in r.stderr
    r = run_cli("translation", str(DATA / "s3_point.json"), "--gamma", '{"kind":"cyclic","order":%s}' % BIG_INT)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr.startswith("eulerchi: invalid input: --gamma: ")
    assert r.stderr.endswith(" is neither an existing file nor valid JSON\n")
    assert r.stderr.count("\n") == 1


def test_result_past_the_digit_limit_is_refused_in_one_line(tmp_path):
    torus = tmp_path / "torus.json"
    torus.write_text(json.dumps({"strata": [{"id": "p", "dim": 0, "isotropy": {"kind": "torus", "n": 20000}}]}))
    two = {"cells": [{"id": "a", "dim": 0}, {"id": "b", "dim": 0}]}
    onto_one = tmp_path / "map.json"
    onto_one.write_text(json.dumps({"source": two, "target": {"cells": [{"id": "c", "dim": 0}]}, "assign": {"a": "c", "b": "c"}}))
    fn = tmp_path / "fn.json"
    big = "9" * 4300  # loads; the sum of two has 4,301 digits
    fn.write_text('{"space": %s, "values": {"a": %s, "b": %s}}' % (json.dumps(two), big, big))
    limit = f"more than {sys.get_int_max_str_digits()} digits"
    for argv in (
        ["gamma-chi", str(torus), "--gamma", '{"kind":"cyclic","order":2}'],  # 2^20000
        ["pushforward", str(onto_one), str(fn)],
    ):
        for fmt in ("text", "json"):
            r = run_cli("--report", fmt, *argv)
            assert (r.returncode, r.stdout) == (1, ""), r.stderr
            assert r.stderr.startswith("eulerchi: ") and limit in r.stderr
            assert r.stderr.count("\n") == 1


ASCII_STDOUT = {"PYTHONIOENCODING": "ascii"}


def test_report_that_stdout_cannot_encode_is_refused_in_one_line(tmp_path):
    # a non-ASCII cell id reaches the breakdown, a non-ASCII path the inputs
    (tmp_path / "f.json").write_text('{"cells": [{"id": "\\u00e9", "dim": 0}]}', encoding="utf-8")
    (tmp_path / "é.json").write_text((DATA / "closed_interval.json").read_text(encoding="utf-8"), encoding="utf-8")
    for name in ("f.json", "é.json"):
        for fmt in ("text", "json"):
            r = run_cli("--report", fmt, "chi", str(tmp_path / name), env_extra=ASCII_STDOUT)
            assert (r.returncode, r.stdout) == (1, ""), r.stderr
            assert r.stderr == (
                "eulerchi: stdout's encoding, ascii, cannot encode the report; "
                "use --out FILE, which writes UTF-8\n"
            )


def test_ascii_report_and_out_file_pass_an_ascii_stdout(tmp_path):
    (tmp_path / "f.json").write_text('{"cells": [{"id": "\\u00e9", "dim": 0}]}', encoding="utf-8")
    r = run_cli("chi", str(DATA / "closed_interval.json"), env_extra=ASCII_STDOUT)
    assert (r.returncode, r.stderr) == (0, ""), r.stderr
    assert "result: 1" in r.stdout
    out = tmp_path / "report.txt"
    r = run_cli("--out", str(out), "chi", str(tmp_path / "f.json"), env_extra=ASCII_STDOUT)
    assert (r.returncode, r.stdout, r.stderr) == (0, "", "")
    assert 'breakdown: [{"cell": "é", "dim": 0, "sign": 1}]' in out.read_text(encoding="utf-8")


# files each bundled file refers to by path, once per reference
NESTED = {
    "ones_on_square.json": ["square.json"],
    "square_to_interval.json": ["square.json"],
}


def _read_counting_runs(gamma_file):
    files = sorted(p.name for p in DATA.glob("*.json"))
    z1 = '{"kind":"free_abelian","rank":1}'
    for f in files:
        yield ["chi", f]
        yield ["integrate", f]
        yield ["pushforward", f, "ones_on_square.json"]
        yield ["gamma-chi", f, "--gamma", gamma_file]
        yield ["translation", f, "--gamma", gamma_file]
        yield ["order-ell", f, "--ell", "1"]
        yield ["inertia", f, "--gamma", z1]
        yield ["atlas", f, f, "--gamma", z1]
        yield ["extension", f]
    yield ["verify", "--seed", "1", "--cases", "2"]


def test_each_input_file_is_read_once_and_only_by_jsonio(tmp_path, monkeypatch):
    gamma_file = str(tmp_path / "gamma.json")
    Path(gamma_file).write_text('{"kind":"free_abelian","rank":1}')
    reads: Counter = Counter()
    readers: set = set()

    def counting(method):
        def read(self, *args, **kwargs):
            reads[self.resolve()] += 1
            readers.add(sys._getframe(1).f_globals["__name__"])
            return method(self, *args, **kwargs)
        return read

    monkeypatch.setattr(Path, "read_bytes", counting(Path.read_bytes))
    monkeypatch.setattr(Path, "read_text", counting(Path.read_text))
    monkeypatch.chdir(DATA)
    ok = 0
    for argv in _read_counting_runs(gamma_file):
        reads.clear()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["--report", "json", *argv])
        expected: Counter = Counter()
        for arg in argv[1:]:
            if arg.endswith(".json"):
                expected[(DATA / arg).resolve()] += 1
                for ref in NESTED.get(arg, []):
                    expected[(DATA / ref).resolve()] += 1
        if code == 0:
            ok += 1
            assert reads == expected, argv
        else:  # a refusal stops at the first fault, before some reads
            assert all(n <= expected[p] for p, n in reads.items()), argv
    assert ok >= 10
    assert readers == {"eulerchi.jsonio"}
