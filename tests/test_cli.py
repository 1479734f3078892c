import json

import pytest

from addcomb.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cover_output(capsys):
    code, out, _ = invoke(capsys, "cover", "n=11:{0,3,4,5,6}")
    assert code == 0
    assert "length 7" in out
    assert "bound 6" in out
    assert "within_bound false" in out
    assert "witness start=0 step=1 length=7" in out


def test_verdict_conjecture_consistent(capsys):
    code, out, _ = invoke(capsys, "verdict", "conjecture", "n=13:{0,1,2,3,4}")
    assert code == 0
    assert "status CONSISTENT" in out
    assert "x 0" in out


def test_sumset_singleton(capsys):
    code, out, _ = invoke(capsys, "sumset", "n=7:{0}")
    assert code == 0
    assert out.strip() == "{0}"


def test_sumset_integer_literal(capsys):
    code, out, _ = invoke(capsys, "sumset", "{0,2,3,4}")
    assert code == 0
    assert out.strip() == "{0,2,3,4,5,6,7,8}"


def test_dim_json_includes_nullspace(capsys):
    code, out, _ = invoke(capsys, "dim", "{0,1,10,11}", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert len(payload["nullspace_basis"]) == 3


def test_iso(capsys):
    code, out, _ = invoke(capsys, "iso", "{0,1,2}", "{5,9,13}")
    assert code == 0 and out.strip() == "true"
    code, out, _ = invoke(capsys, "iso", "{0,1,2}", "{0,1,3}")
    assert code == 0 and out.strip() == "false"


def test_spectrum_json_schema(capsys):
    code, out, _ = invoke(capsys, "spectrum", "n=5:{0,1}", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 5
    assert len(payload["magnitudes"]) == 5
    assert payload["argmax_d"] == 1
    assert payload["energy_residual"] < 1e-9
    assert payload["large_coefficient_bound"] == pytest.approx(4 / 3)


def test_engine_emits_json_trace(capsys):
    code, out, _ = invoke(capsys, "engine", "n=11:{0,3,4,5,6}")
    assert code == 0
    trace = json.loads(out)
    assert trace["branch"] == "fallback"
    assert trace["result"]["length"] == 7
    assert trace["schema_version"] == 1


def test_rectify(capsys):
    code, out, _ = invoke(capsys, "rectify", "n=11:{0,1,2}")
    assert code == 0
    assert out.strip().startswith("{") and out.strip().endswith("}")


def test_hunt_writes_report(tmp_path, capsys):
    code, out, _ = invoke(capsys, "hunt", "--primes", "5,7", "--out", str(tmp_path))
    assert code == 0
    assert "counterexamples 0" in out
    reports = list(tmp_path.glob("hunt-conjecture-*.json"))
    assert len(reports) == 1


def test_hunt_refuses_a_repeated_prime(tmp_path, capsys):
    code, out, err = invoke(capsys, "hunt", "--primes", "5,5", "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert err == "error: repeated prime in [5, 5]\n"
    assert not list(tmp_path.iterdir())


def test_hunt_refuses_an_empty_prime_list(tmp_path, capsys):
    code, out, err = invoke(capsys, "hunt", "--primes", ",", "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert err == "error: no primes to hunt\n"
    assert not list(tmp_path.iterdir())


def test_hunt_override_budget_warns(tmp_path, capsys):
    code, out, err = invoke(
        capsys, "hunt", "--primes", "5", "--override-budget", "--out", str(tmp_path), "--json"
    )
    assert code == 0
    assert err == "warning: budget override, large primes can take long\n"
    payload = json.loads(out)
    assert payload["campaign"] == "hunt-conjecture" and payload["counterexamples"] == []
    assert len(list(tmp_path.glob("hunt-conjecture-*.json"))) == 1


def test_verdict_main_and_vosper(capsys):
    code, out, _ = invoke(capsys, "verdict", "main", "n=13:{0,1,2,3,5}", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["conclusion_holds"] is True
    assert {"doubling_ok", "density_note", "size", "sumset_size"} <= payload.keys()
    assert payload["cover"]["length"] == 6 == payload["cover"]["bound"]
    code, out, _ = invoke(capsys, "verdict", "vosper", "n=13:{0,1,2,3,5}", "--json")
    payload = json.loads(out)
    assert code == 0
    assert (payload["equality_holds"], payload["is_ap"], payload["agree"]) == (False, False, True)
    code, out, _ = invoke(capsys, "verdict", "vosper", "n=13:{0,1,2,3,4}")
    assert code == 0 and out == "equality_holds true\nis_ap true\nagree true\n"


def test_suite_writes_report(tmp_path, capsys):
    code, out, _ = invoke(capsys, "suite", "dim_bound", "--out", str(tmp_path), "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["campaign"] == "suite-dim_bound" and payload["counterexamples"] == []
    assert payload["classes_examined"] == 1507
    (path,) = tmp_path.glob("suite-dim_bound-*.json")
    assert json.loads(path.read_text())["classes_examined"] == 1507


def test_family_verify_exit_code_on_findings(tmp_path, capsys):
    # max_p = 20 includes the coverable t = 3 instance: findings -> exit 2
    code, out, _ = invoke(
        capsys, "family", "verify", "example2", "--max-p", "20",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "violations" in out


def test_family_build(capsys):
    code, out, _ = invoke(capsys, "family", "build", "example1", "-k", "5", "-x", "1")
    assert code == 0
    assert "n=11:{0,3,4,5,6}" in out


def test_usage_errors_exit_nonzero(capsys):
    code, _, err = invoke(capsys, "cover", "n=12:{0,1}")  # composite modulus
    assert code == 1
    assert "error" in err
    code, _, err = invoke(capsys, "cover", "n=11:{0,11}")  # duplicate after reduction
    assert code == 1
    # a wrong set kind or a missing set is one error line, like any bad set
    for argv in [("cover", "{1,2,3}"), ("dim", "n=11:{0,1}"), ("cover",), ("verdict", "main")]:
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    # argparse-level usage errors must also exit 1 (2 is reserved for findings)
    code, _, err = invoke(capsys, "nosuchcommand")
    assert code == 1
    code, _, err = invoke(capsys, "hunt", "--primes", "5,x")  # not a prime list
    assert code == 1 and "Traceback" not in err


def test_oversized_modulus_exits_1_quickly(tmp_path, capsys):
    import time

    started = time.monotonic()
    code, _, err = invoke(capsys, "sumset", "n=1000000000000:{1,2}")
    assert code == 1
    assert "exceeds the cap" in err
    code, _, err = invoke(capsys, "cover", "n=" + "9" * 5000 + ":{1}")
    assert code == 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"modulus": 10**12, "elements": [1, 2]}))
    code, _, err = invoke(capsys, "sumset", "--file", str(path))
    assert code == 1 and "exceeds the cap" in err
    assert time.monotonic() - started < 1.0
    # the cap itself is accepted
    code, out, _ = invoke(capsys, "sumset", "n=4194304:{1,2}")
    assert (code, out.strip()) == (0, "{2,3,4}")


def test_cover_json_round_trip(capsys):
    code, out, _ = invoke(capsys, "cover", "n=11:{0,1,3,6}", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 5 and payload["within_bound"]
    assert payload["witness"] == {"start": 0, "step": 3, "length": 5, "modulus": 11}


def test_file_input(tmp_path, capsys):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"modulus": 11, "elements": [0, 3, 4, 5, 6]}))
    code, out, _ = invoke(capsys, "cover", "--file", str(path))
    assert code == 0 and "length 7" in out

    arr = tmp_path / "arr.json"
    arr.write_text("[0,2,3,4]")
    code, out, _ = invoke(capsys, "sumset", "--file", str(arr))
    assert code == 0 and out.strip() == "{0,2,3,4,5,6,7,8}"


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "addcomb" in out and "schema" in out


@pytest.mark.parametrize(
    "content",
    [
        '{"modulus": "11", "elements": [1, 2]}',
        '{"modulus": 11, "elements": [1.5, 2]}',
        '{"modulus": 11, "elements": "12"}',
        '{"modulus": 11, "elements": [null, 2]}',
        "not json",
        "[]",
        "[true, 3]",
        '{"modulus": 11, "elements": [true, 5]}',
    ],
    ids=[
        "string-modulus", "float-element", "string-elements", "null-element",
        "not-json", "empty-array", "bool-element", "bool-residue",
    ],
)
def test_malformed_file_exits_1(tmp_path, capsys, content):
    path = tmp_path / "set.json"
    path.write_text(content)
    code, _, err = invoke(capsys, "cover", "--file", str(path))
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_missing_file_exits_1(tmp_path, capsys):
    code, _, err = invoke(capsys, "cover", "--file", str(tmp_path / "absent.json"))
    assert code == 1
    assert err.startswith("error: cannot read --file")


def test_overlong_literal_element_exits_1(capsys):
    code, _, err = invoke(capsys, "sumset", "n=11:{" + "1" * 4400 + "}")
    assert code == 1
    assert err.startswith("error: ") and "too long" in err


def test_rectify_sidon_sets_and_random_residues_exit_0_quickly(capsys):
    import random
    import time

    assert invoke(capsys, "rectify", "n=10007:{0,1,3,7,12,20}") == (
        0, "{0,1,3,7,12,20}\n", ""
    )
    assert invoke(capsys, "rectify", "n=39:{0,8,15,33,34,37}") == (
        0, "{0,2,7,15,16,19}\n", ""
    )
    # no dilate fits, so the moment curve gives values of about 145 bits
    els = random.Random(120).sample(range(1_000_003), 120)
    started = time.monotonic()
    code, out, err = invoke(capsys, "rectify", "n=1000003:{" + ",".join(map(str, els)) + "}")
    assert time.monotonic() - started < 5.0
    assert (code, err) == (0, "") and len(out.split(",")) == 120


def test_cover_of_a_sparse_near_progression_at_the_cap_exits_0_quickly(capsys):
    import random
    import time

    # 120 of the 150 terms of a progression of Z_4194301, both ends among
    # them: the paper's regime of |A| tiny next to p
    rng = random.Random(4194301)
    p, length = 4_194_301, 150
    start, step = rng.randrange(p), rng.randrange(1, p)
    terms = [0, length - 1, *rng.sample(range(1, length - 1), 118)]
    els = sorted((start + i * step) % p for i in terms)
    started = time.monotonic()
    code, out, err = invoke(capsys, "cover", f"n={p}:{{" + ",".join(map(str, els)) + "}", "--json")
    assert time.monotonic() - started < 5.0
    assert (code, err) == (0, "")
    res = json.loads(out)
    # brute force at the progression's step: the longest missing run of
    # (1/step) * A leaves exactly its length
    row = sorted(x * pow(step, -1, p) % p for x in els)
    run = max((b - a - 1) % p for a, b in zip(row[-1:] + row[:-1], row))
    assert res["length"] == p - run == length
    assert res["witness"]["step"] in (step, p - step)


def test_dim_and_rectify_past_row_budget_exit_1_quickly(capsys):
    import random
    import time

    els = sorted(random.Random(1000).sample(range(10_000), 1000))
    body = "{" + ",".join(map(str, els)) + "}"
    started = time.monotonic()
    code, out, err = invoke(capsys, "dim", body)
    assert time.monotonic() - started < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "exceed the budget" in err
    started = time.monotonic()
    code, out, err = invoke(capsys, "rectify", "n=10007:" + body)
    assert time.monotonic() - started < 1.0
    assert (code, out) == (1, "") and "exceed the budget" in err


def test_iso_of_2000_elements_answers(capsys):
    import random

    els = sorted(random.Random(2000).sample(range(10**9), 2000))
    body = "{" + ",".join(map(str, els)) + "}"
    assert invoke(capsys, "iso", body, body) == (0, "true\n", "")


def test_iso_past_candidate_budget_exits_1(capsys, monkeypatch):
    from addcomb import freiman

    monkeypatch.setattr(freiman, "ISO_CANDIDATE_BUDGET", 10)
    code, out, err = invoke(capsys, "iso", "{0,6,12,13,15,16}", "{2,3,10,12,17,20}")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "candidate images" in err


def test_dim_past_pair_budget_exits_1_quickly(capsys):
    import time

    body = "{" + ",".join(str(x * x) for x in range(2048)) + "}"
    started = time.monotonic()
    code, out, err = invoke(capsys, "dim", body)
    assert time.monotonic() - started < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "2048 elements make 2098176 index pairs" in err


def test_integer_sumset_past_span_cap_exits_1(capsys):
    code, out, err = invoke(capsys, "sumset", "{0,1000000000000000}")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "reaches the cap 4194304" in err


def _load_script(name):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_hunt_cap_defaults_to_the_library_cap(monkeypatch):
    import sys

    from addcomb.cli import build_parser
    from addcomb.search import HUNT_DEFAULT_MAX_P

    assert build_parser().parse_args(["hunt", "--primes", "5"]).max_p == HUNT_DEFAULT_MAX_P
    script = _load_script("run_conjecture_hunt")
    calls = []

    def hunt(primes, threads, max_p):
        calls.append(max_p)
        raise SystemExit(0)

    monkeypatch.setattr(script, "hunt_conjecture", hunt)
    monkeypatch.setattr(sys, "argv", ["run_conjecture_hunt.py", "--primes", "5"])
    with pytest.raises(SystemExit):
        script.main()
    assert calls == [HUNT_DEFAULT_MAX_P]


@pytest.mark.parametrize(
    "name, call, finding",
    [
        ("run_family_audit", "verify_family",
         {"params": {"k": 5, "x": 2, "t": None, "p": 13}, "cover_length": 7, "bound": 7}),
        ("run_theorem_suites", "run_suite", {"set": [0, 1, 99], "max": 99, "size": 3}),
    ],
)
def test_campaign_scripts_exit_by_findings(monkeypatch, tmp_path, capsys, name, call, finding):
    import sys

    from addcomb.search import SearchReport

    script = _load_script(name)
    for findings, code in [([], 0), ([finding], 2)]:
        out = tmp_path / f"reports-{code}"

        def campaign(label, *args, **kwargs):
            return SearchReport(f"fake-{label}", {"label": label}, 1, findings)

        monkeypatch.setattr(script, call, campaign)
        monkeypatch.setattr(sys, "argv", [f"{name}.py", "--out", str(out)])
        assert script.main() == code
        written = sorted(out.iterdir())
        assert written and all(path.suffix == ".json" for path in written)
        printed = capsys.readouterr().out
        assert all(f"-> {path}" in printed for path in written)


@pytest.mark.parametrize("argv", [("dim", "1,2,3"), ("sumset", "{1,2")])
def test_integer_literal_refusal(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: not an integer-set literal: {argv[1]!r}"]
