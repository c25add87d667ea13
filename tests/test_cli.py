import dataclasses
import hashlib
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from lrcdec import cli
from lrcdec.cli import main
from lrcdec.galois import Field
from lrcdec.lrc import construct_tamo_barg
from lrcdec.pmds import failure_prob_exact
from lrcdec.radii import RadiusReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tables_2_byte_stable(capsys):
    code1, out1, _ = run_cli(capsys, "tables", "2")
    code2, out2, _ = run_cli(capsys, "tables", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    rows = out1.strip().splitlines()
    assert len(rows) == 7  # header + 6 rows
    assert rows[0].startswith("n,k,r,rho")


def test_tables_1_has_15_rows(capsys):
    code, out, _ = run_cli(capsys, "tables", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    header = lines[0].split(",")
    assert header[-1] == "one_minus_success_prob"
    # the exponent rows keep their magnitude: 1 - P ~ 1.90e-36 at q = 512
    row = dict(zip(header, next(l for l in lines if l.startswith("500,99,33,68,512,")).split(",")))
    assert 1e-36 < float(row["one_minus_success_prob"]) <= 1e-35


# SHA-256 of the CSV that each command prints: any change to a printed
# digit of the reference tables or of the curve samples shows here
PINNED_CSV = [
    (("tables", "1"), "eec2fe611d741c4d3b4a9fe4034246d357bf9711ca9cb73e164fddb7cc9cb8c9"),
    (("tables", "2"), "ce8d26d561ae8cd8d6d9e00c491ace0fd30dc5ebdcd463451f8696d4d9d8a1ea"),
    (("tables", "pmds"), "29b41d4241a09d31a8eb45f59beefbe9b1141676813065fd0a5b4052e9cd3ad2"),
    (("curves",), "3cf635f81a30654ce5924be41f5ef4caf907d0a6fa91ec047f0e658840f0fb37"),
]


@pytest.mark.parametrize("argv, digest", PINNED_CSV, ids=["tables-1", "tables-2", "tables-pmds",
                                                          "curves"])
def test_csv_output_is_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_tables_pmds_rows(capsys):
    code, out, _ = run_cli(capsys, "tables", "pmds", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    # t runs over [d - 1, n - k - 1] for each of the three sets
    assert [sum(1 for row in rows if row["set"] == s) for s in "123"] == [7, 4, 10]
    for row in rows:
        exact = failure_prob_exact(*(row[c] for c in ("n", "k", "r", "rho", "t")))
        assert Fraction(row["failure_prob_exact"]) == exact
        assert row["failure_prob"] == float(exact)


def test_radii_empty_is_header_only(capsys):
    code, out, _ = run_cli(capsys, "radii")
    assert code == 0
    assert len(out.strip().splitlines()) == 1


def test_radii_invalid_shape_warns_but_exits_zero(capsys):
    code, out, err = run_cli(capsys, "radii", "10 4 2 2")  # n_l=3 does not divide 10
    assert code == 0
    assert "warning" in err


def test_report_holds_what_the_tables_print():
    # every field of the radius report is a printed column or the t_l
    # that table 1's success probability reads
    printed = set(cli.RADII_COLUMNS + cli.TABLE1_COLUMNS + cli.TABLE2_COLUMNS + ["t_local"])
    fields = {f.name for f in dataclasses.fields(RadiusReport)}
    assert fields == printed - {"q", "rate_global", "rate_local", "success_prob",
                                "one_minus_success_prob"}


def test_radii_field_size_below_two_is_an_error_row(capsys):
    # the radii do not use q, but a q below 2 names no field
    code, out, err = run_cli(capsys, "radii", "15 6 3 3 1")
    assert code == 0
    assert out.splitlines()[1] == "15,6,3,3,1,,error: q = 1 is below the limit 2,,,,,,"
    assert err == "warning: shape '15 6 3 3 1': q = 1 is below the limit 2\n"


def test_radii_json_format(capsys):
    code, out, _ = run_cli(capsys, "radii", "15 6 3 3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["n"] == 15
    assert rows[0]["refined_t_g"] == 5


def test_pmds_prob(capsys):
    code, out, _ = run_cli(
        capsys, "pmds-prob", "--n", "12", "--k", "4", "--r", "2", "--rho", "2",
        "--t-range", "6:7", "--bound",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "2/11" in lines[2]  # exact rational at t = 7


def test_curves_beta1_endpoint(capsys):
    code, out, _ = run_cli(capsys, "curves", "--beta", "1", "--grid", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].split(",")[1:] == ["1", "1"]  # singleton crossing included once
    assert sum(1 for l in lines if l.startswith("1,1,")) == 1


def test_gen_code_roundtrip(tmp_path, capsys):
    path = tmp_path / "tb.json"
    code, _, _ = run_cli(
        capsys, "gen-code", "tamo-barg", "--q", "16", "--n", "15", "--k", "6",
        "--r", "3", "--rho", "3", "-o", str(path),
    )
    assert code == 0
    from lrcdec import LrcCode

    lrc = LrcCode.from_json(json.loads(path.read_text()))
    cw = lrc.encode([1, 2, 3, 4, 5, 6])

    recv = tmp_path / "recv.hex"
    w = list(cw)
    w[0] = lrc.field.add(w[0], 3)
    recv.write_text(" ".join(f"{x:x}" for x in w))
    code, out, _ = run_cli(
        capsys, "decode", "--code", str(path), "--received", str(recv),
        "--tl", "1", "--tg", "5",
    )
    assert code == 0
    res = json.loads(out)
    assert list(cw) in res["list"]
    assert res["stats"]["complete"]
    # the GS decodes by path: one error, so every local list is settled or
    # covered, and nothing interpolates
    local, short = res["stats"]["local_gs_paths"], res["stats"]["shortened_gs_paths"]
    assert sum(local.values()) == 3 and sum(short.values()) == res["stats"]["shortened_decodes"]
    assert local["interpolated"] == short["interpolated"] == 0


def test_decode_stats_are_pinned(tmp_path, capsys):
    # one fixed word at distance 5 from two codewords on the 15-symbol
    # descriptor: set 0 has an empty local list, one set is covered, and
    # the two shortened decodes are covered.  The local stage decodes the
    # sets together, which must not change what the counters count
    path, recv = tmp_path / "tb.json", tmp_path / "recv.hex"
    path.write_text(json.dumps(construct_tamo_barg(Field(16), 15, 6, 3, 3).to_json()))
    recv.write_text(" ".join(f"{x:x}" for x in [2, 7, 6, 2, 1, 1, 7, 10, 2, 2, 3, 15, 0, 5, 0]))
    code, out, _ = run_cli(
        capsys, "decode", "--code", str(path), "--received", str(recv), "--tl", "1", "--tg", "5",
    )
    assert code == 0
    res = json.loads(out)
    assert res["list"] == [
        [2, 3, 10, 2, 1, 1, 7, 10, 2, 15, 9, 15, 1, 5, 0],
        [13, 7, 6, 10, 5, 1, 7, 10, 2, 15, 3, 11, 0, 5, 0],
    ]
    assert res["stats"] == {
        "local_list_sizes": [0, 1, 1],
        "combinations_explored": 2,
        "shortened_decodes": 2,
        "complete": True,
        "local_gs_paths": {"settled": 2, "covered": 1, "interpolated": 0},
        "shortened_gs_paths": {"settled": 0, "covered": 2, "interpolated": 0},
    }


def test_gen_code_invalid_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "gen-code", "tamo-barg", "--q", "16", "--n", "15", "--k", "5",
        "--r", "3", "--rho", "3",
    )
    assert code == 2
    assert "error" in err


def test_decode_failure_exit_1(tmp_path, capsys):
    from lrcdec import DecodeConfig, LrcCode, unique_decode_probabilistic

    path = tmp_path / "tb.json"
    run_cli(capsys, "gen-code", "tamo-barg", "--q", "16", "--n", "15", "--k", "6",
            "--r", "3", "--rho", "3", "-o", str(path))
    lrc = LrcCode.from_json(json.loads(path.read_text()))
    cfg = DecodeConfig(t_l=1, t_g=5)
    cw = lrc.encode([1, 2, 3, 4, 5, 6])
    word = None
    for shift in range(1, 16):  # two errors per repair set until decoding fails
        w = list(cw)
        for rs in lrc.repair_sets:
            for pos in rs[:2]:
                w[pos] = lrc.field.add(w[pos], shift)
        if unique_decode_probabilistic(lrc, tuple(w), cfg) is None:
            word = w
            break
    assert word is not None
    recv = tmp_path / "recv.hex"
    recv.write_text(" ".join(f"{x:x}" for x in word))
    code, out, _ = run_cli(
        capsys, "decode", "--code", str(path), "--received", str(recv),
        "--tl", "1", "--tg", "5", "--mode", "unique",
    )
    assert code == 1


@pytest.mark.parametrize(
    "tl, message",
    [
        ("8", r"t_l = 8 exceeds the limit 7, the radius of the local \[63, 49\] GRS decode"),
        ("4", r"t_g = 8 exceeds the limit 7, the radius of the shortened \[63, 49\] GRS decode"),
    ],
    # fixed ids keep each case's name stable across rewordings of its message
    ids=[
        r"8-t_l = 8 exceeds the radius 7 of the local \[63, 49\] GRS decode",
        r"4-t_g = 8 exceeds the radius 7 of the shortened \[63, 49\] GRS decode",
    ],
)
def test_decode_radius_past_reach_exits_2(tmp_path, capsys, tl, message):
    # Tamo-Barg [63, 49, 49, 15] over GF(64): the Johnson closed form allows
    # 8 on its [63, 49] decodes, but the GS decoder reaches only 7
    path = tmp_path / "tb.json"
    run_cli(capsys, "gen-code", "tamo-barg", "--q", "64", "--n", "63", "--k", "49",
            "--r", "49", "--rho", "15", "-o", str(path))
    recv = tmp_path / "recv.hex"
    recv.write_text(" ".join(["0"] * 63))
    code, out, err = run_cli(
        capsys, "decode", "--code", str(path), "--received", str(recv),
        "--tl", tl, "--tg", "8",
    )
    assert code == 2
    assert out == ""
    assert re.search(message, err)


def _decode_15_6(tmp_path, capsys, symbols, *argv):
    path = tmp_path / "tb.json"
    run_cli(capsys, "gen-code", "tamo-barg", "--q", "16", "--n", "15", "--k", "6",
            "--r", "3", "--rho", "3", "-o", str(path))
    recv = tmp_path / "recv.hex"
    recv.write_text(" ".join(symbols))
    return run_cli(capsys, "decode", "--code", str(path), "--received", str(recv), *argv)


@pytest.mark.parametrize(
    "tl, tg, message",
    [("-1", "5", r"t_l = -1 is below the limit 0"), ("1", "-2", r"t_g = -2 is below the limit 0")],
)
def test_decode_negative_radius_exits_2(tmp_path, capsys, tl, tg, message):
    code, out, err = _decode_15_6(tmp_path, capsys, ["0"] * 15, "--tl", tl, "--tg", tg)
    assert code == 2
    assert out == ""
    assert re.search(message, err)
    assert "Traceback" not in err


def test_decode_symbol_outside_field_exits_2(tmp_path, capsys):
    symbols = ["0"] * 15
    symbols[4] = "1f"
    code, out, err = _decode_15_6(tmp_path, capsys, symbols, "--tl", "1", "--tg", "5")
    assert code == 2
    assert out == ""
    assert re.search(r"symbol 0x1f at position 4 is not in GF\(16\)", err)


def test_simulate_negative_radius_exits_2(tmp_path, capsys):
    path = tmp_path / "tb.json"
    run_cli(capsys, "gen-code", "tamo-barg", "--q", "16", "--n", "15", "--k", "6",
            "--r", "3", "--rho", "3", "-o", str(path))
    code, out, err = run_cli(
        capsys, "simulate", "lrc-list", "--code", str(path), "--trials", "1", "--tl", "-1",
    )
    assert code == 2
    assert re.search(r"t_l = -1 is below the limit 0", err)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_simulate_trials_below_one_exits_2(tmp_path, capsys, trials):
    path = tmp_path / "tb.json"
    run_cli(capsys, "gen-code", "tamo-barg", "--q", "16", "--n", "15", "--k", "6",
            "--r", "3", "--rho", "3", "-o", str(path))
    code, out, err = run_cli(
        capsys, "simulate", "lrc-list", "--code", str(path), "--trials", trials,
    )
    assert code == 2
    assert out == ""
    assert re.search(rf"--trials = {trials} is below the limit 1", err)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "kind, argv, message",
    [
        # --weights 0: a missing check must fail here, not spin on an empty column
        ("mk", ("--ell", "0", "--weights", "0"), r"--ell = 0 is below the limit 1"),
        ("mk", ("--ell", "-1"), r"--ell = -1 is below the limit 1"),
        ("mk", ("--weights", "13"), r"--weights value = 13 exceeds the limit n = 12"),
        ("mk", ("--weights", "3,-1"), r"--weights value = -1 is below the limit 0"),
        ("lrc-list", ("--weights", "16"), r"--weights value = 16 exceeds the limit n = 15"),
        ("mk", ("--weights", "1,x"), r"--weights value 'x' is not an integer"),
    ],
    ids=["ell-0", "ell-negative", "weight-past-n", "weight-negative", "lrc-weight-past-n",
         "weight-not-integer"],
)
def test_simulate_out_of_range_exits_2(tmp_path, capsys, kind, argv, message):
    path = _gen_code(tmp_path, capsys, "random-pmds" if kind == "mk" else "tamo-barg")
    code, out, err = run_cli(capsys, "simulate", kind, "--code", str(path), "--trials", "1", *argv)
    assert code == 2
    assert out == ""
    assert re.search("error: " + message, err)


@pytest.mark.parametrize("t_range", ["5", "5:6:7", "a:b", "5:2"])
def test_pmds_prob_malformed_t_range_exits_2(capsys, t_range):
    code, out, err = run_cli(capsys, "pmds-prob", "--n", "12", "--k", "4", "--r", "2",
                             "--rho", "2", "--t-range", t_range)
    assert code == 2
    assert out == ""
    assert f"error: --t-range = {t_range} is not of the form lo:hi" in err


@pytest.mark.parametrize(
    "argv, symbols, message",
    [
        (("radii", "a b c d"), None, r"shape 'a b c d' value 'a' is not an integer"),
        (("decode", "--tl", "1", "--tg", "5"), "zz",
         r"--received file \S+recv\.hex value 'zz' is not a hex symbol"),
        (("decode", "--tl", "1", "--tg", "5", "--budget", "0"), "0",
         r"budget = 0 is below the limit 1"),
        (("decode", "--tl", "1", "--tg", "5", "--budget", "-1"), "0",
         r"budget = -1 is below the limit 1"),
        (("decode", "--tl", "1", "--tg", "5", "--mode", "unique", "--budget", "0"), "0",
         r"budget = 0 is below the limit 1"),
        (("simulate", "lrc-unique", "--trials", "1", "--budget", "0"), None,
         r"budget = 0 is below the limit 1"),
        (("curves", "--grid", "0"), None, r"--grid = 0 is below the limit 1"),
        (("curves", "--grid", "-3"), None, r"--grid = -3 is below the limit 1"),
        (("curves", "--beta", "2", "x"), None, r"argument --beta: invalid float value: 'x'"),
        (("curves", "--beta", "nan"), None, r"beta = nan is below the limit 1"),
        (("curves", "--beta", "2", "inf"), None, r"beta = inf exceeds the limit 1\.79769e\+308"),
        (("curves", "--beta", "0"), None, r"beta = 0 is below the limit 1"),
        (("curves", "--beta", "-1"), None, r"beta = -1 is below the limit 1"),
    ],
    ids=["radii-not-integer", "received-not-hex", "decode-budget-0", "decode-budget-negative",
         "unique-budget-0", "simulate-budget-0", "grid-0", "grid-negative", "beta-not-number",
         "beta-nan", "beta-inf", "beta-0", "beta-negative"],
)
def test_malformed_input_is_named_exits_2(tmp_path, capsys, argv, symbols, message):
    if argv[0] in ("decode", "simulate"):
        argv = (*argv, "--code", str(_gen_code(tmp_path, capsys, "tamo-barg")))
    if symbols is not None:
        recv = tmp_path / "recv.hex"
        recv.write_text(" ".join([symbols] + ["0"] * 14))
        argv = (*argv, "--received", str(recv))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert re.search("error: " + message, err)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("pmds-prob", "--n", "12", "--k", "4", "--r", "2", "--rho", "1", "--t-range", "1:2"),
         r"rho = 1 is below the limit 2"),
        (("gen-code", "random-pmds", "--q", "16", "--n", "12", "--k", "4", "--r", "2", "--rho", "1"),
         r"rho = 1 is below the limit 2"),
        (("gen-code", "random-pmds", "--q", "1024", "--n", "12", "--k", "0", "--r", "2",
          "--rho", "2"), r"r = 2 exceeds the limit k = 0"),
    ],
    ids=["pmds-prob-rho-1", "random-pmds-rho-1", "random-pmds-k-0"],
)
def test_pmds_shape_without_locality_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert re.search("error: " + message, err)


@pytest.mark.parametrize(
    "r, rho, message",
    [(5, -1, r"r = 5 exceeds the limit k = 4"), (3, 1, r"rho = 1 is below the limit 2")],
    # fixed ids keep each case's name stable across rewordings of its message
    ids=[
        r"5--1-r = 5 must lie in \[1, k = 4\]",
        "3-1-rho = 1 must be at least 2",
    ],
)
def test_pmds_descriptor_shape_without_locality_exits_2(tmp_path, capsys, r, rho, message):
    # r + rho - 1 = 3 still matches the repair sets of the [12, 4, 2, 2] code
    path = _gen_code(tmp_path, capsys, "random-pmds")
    obj = json.loads(path.read_text())
    obj.update(r=r, rho=rho)
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "simulate", "mk", "--code", str(path), "--trials", "1")
    assert code == 2
    assert out == ""
    assert re.search("error: " + message, err)


def test_decode_descriptor_with_wrong_distance_exits_2(tmp_path, capsys):
    # a trusted "d": 6 used to move the refined-count bound on t_g from 5 to 3
    path = _gen_code(tmp_path, capsys, "tamo-barg")
    obj = json.loads(path.read_text())
    obj["d"] = 6
    path.write_text(json.dumps(obj))
    recv = tmp_path / "recv.hex"
    recv.write_text(" ".join(["0"] * 15))
    code, out, err = run_cli(capsys, "decode", "--code", str(path), "--received", str(recv),
                             "--tl", "1", "--tg", "5")
    assert code == 2
    assert out == ""
    assert "error: descriptor d = 6 differs from the shape's d = 8" in err


def test_simulate_deterministic(tmp_path, capsys):
    path = tmp_path / "pmds.json"
    run_cli(capsys, "gen-code", "random-pmds", "--q", "1024", "--n", "12", "--k", "4",
            "--r", "2", "--rho", "2", "--seed", "1", "-o", str(path))
    args = ("simulate", "mk", "--code", str(path), "--trials", "25", "--seed", "5",
            "--weights", "7", "--ell", "8")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    res = json.loads(out1)
    assert res["per_weight"][0]["weight"] == 7


GEN_CODE_ARGS = {
    # the [15, 6, 3, 3] Tamo-Barg code over GF(16), the seeded [12, 4, 2, 2] PMDS code over GF(1024)
    "tamo-barg": ("--q", "16", "--n", "15", "--k", "6", "--r", "3", "--rho", "3"),
    "random-pmds": ("--q", "1024", "--n", "12", "--k", "4", "--r", "2", "--rho", "2", "--seed", "1"),
}


def _gen_code(tmp_path, capsys, kind):
    path = tmp_path / f"{kind}.json"
    assert run_cli(capsys, "gen-code", kind, *GEN_CODE_ARGS[kind], "-o", str(path))[0] == 0
    return path


@pytest.mark.parametrize(
    "kind, code_kind, argv, successes, budget_exceeded",
    [
        # pinned from the scalar error draw that the array draw replaced
        ("lrc-list", "tamo-barg", ("--seed", "7", "--weights", "3,4,5", "--trials", "10",
                                   "--budget", "2"), [6, 8, 9], [4, 2, 1]),
        ("lrc-unique", "tamo-barg", ("--seed", "7", "--weights", "3,4,5", "--trials", "20"),
         [19, 16, 15], [0, 0, 0]),
        ("mk", "random-pmds", ("--seed", "5", "--weights", "5,6,7", "--trials", "25",
                               "--ell", "8"), [25, 25, 19], [None] * 3),
    ],
)
def test_simulate_pinned_successes(tmp_path, capsys, kind, code_kind, argv, successes,
                                   budget_exceeded):
    path = _gen_code(tmp_path, capsys, code_kind)
    code, out, err = run_cli(capsys, "simulate", kind, "--code", str(path), *argv)
    assert code == 0, err
    rows = json.loads(out)["per_weight"]
    assert [row["successes"] for row in rows] == successes
    assert [row.get("budget_exceeded") for row in rows] == budget_exceeded


@pytest.mark.parametrize("q, n, k, r, rho", [(16, 15, 6, 3, 3), (31, 15, 6, 3, 3),
                                             (64, 21, 6, 3, 5), (1024, 33, 6, 3, 9)])
def test_lrc_trial_error_draw_matches_scalar_draws(monkeypatch, q, n, k, r, rho):
    # reference: one scalar draw and one scalar field sum per error position
    code = construct_tamo_barg(Field(q), n, k, r, rho)
    words = []
    monkeypatch.setattr(cli, "unique_decode_probabilistic",
                        lambda code, word, cfg: words.append(tuple(word.tolist())))
    for seed in range(40):
        w = seed % 6
        cli._lrc_trial(code, "lrc-unique", None, np.random.default_rng([seed, w]), w)
        rng = np.random.default_rng([seed, w])
        word = list(code.encode(rng.integers(0, q, size=k).tolist()))
        for p in rng.choice(n, size=w, replace=False):
            word[p] = code.field.add(word[p], int(rng.integers(1, q)))
        assert words[-1] == tuple(word)


@pytest.mark.parametrize("kind", ["tamo-barg", "random-pmds"])
def test_descriptor_roundtrip(tmp_path, capsys, kind):
    from lrcdec import LrcCode, PmdsCode

    obj = json.loads(_gen_code(tmp_path, capsys, kind).read_text())
    family = LrcCode if kind == "tamo-barg" else PmdsCode
    assert family.from_json(obj).to_json() == obj


@pytest.mark.parametrize(
    "row, col, value, message",
    [(0, 0, None, "does not annihilate the generator"),
     (1, 3, 1024, r"symbol 0x400 at position \(1, 3\) is not in GF\(1024\)")],
)
def test_simulate_tampered_parity_exits_2(tmp_path, capsys, row, col, value, message):
    path = _gen_code(tmp_path, capsys, "random-pmds")
    obj = json.loads(path.read_text())
    parity = obj["parity"]
    parity[row][col] = parity[row][col] ^ 1 if value is None else value
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "simulate", "mk", "--code", str(path), "--trials", "1")
    assert code == 2
    assert out == ""
    assert re.search(message, err)


def test_simulate_zeroed_parity_exits_2(tmp_path, capsys):
    # a zero parity annihilates the generator, but has rank 0, not n - k = 8
    path = _gen_code(tmp_path, capsys, "random-pmds")
    obj = json.loads(path.read_text())
    obj["parity"] = [[0] * 12 for _ in obj["parity"]]
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "simulate", "mk", "--code", str(path), "--trials", "1")
    assert code == 2
    assert out == ""
    assert re.search(r"error: the parity-check matrix has rank 0, need n - k = 8", err)


@pytest.mark.parametrize("kind", ["decode", "simulate"])
def test_descriptor_of_the_other_family_exits_2(tmp_path, capsys, kind):
    # decode and simulate lrc-* read an LRC descriptor, simulate mk a PMDS one
    if kind == "decode":
        path, family, key = _gen_code(tmp_path, capsys, "random-pmds"), "LrcCode", "locators"
        recv = tmp_path / "recv.hex"
        recv.write_text(" ".join(["0"] * 12))
        argv = ("decode", "--code", str(path), "--received", str(recv), "--tl", "1", "--tg", "5")
    else:
        path, family, key = _gen_code(tmp_path, capsys, "tamo-barg"), "PmdsCode", "generator"
        argv = ("simulate", "mk", "--code", str(path), "--trials", "1")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"error: {path} is not a {family} descriptor: key '{key}' is missing" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field_name, value", [("locators", -1), ("locators", 16),
                                               ("multipliers", 16)])
def test_decode_descriptor_symbol_outside_field_exits_2(tmp_path, capsys, field_name, value):
    # a locator -1 used to be read through log_table[-1], and decode exited 0
    path = _gen_code(tmp_path, capsys, "tamo-barg")
    obj = json.loads(path.read_text())
    obj[field_name][0] = value
    path.write_text(json.dumps(obj))
    recv = tmp_path / "recv.hex"
    recv.write_text(" ".join(["0"] * 15))
    code, out, err = run_cli(capsys, "decode", "--code", str(path), "--received", str(recv),
                             "--tl", "1", "--tg", "5")
    assert code == 2
    assert out == ""
    assert re.search(rf"symbol -?0x{abs(value):x} at position 0 is not in GF\(16\)", err)


def test_decode_symbol_past_64_bits_exits_2(tmp_path, capsys):
    # a 20-hex-digit symbol used to die with an OverflowError traceback, exit 1
    code, out, err = _decode_15_6(tmp_path, capsys, ["0"] * 14 + ["f" * 20], "--tl", "1",
                                  "--tg", "5")
    assert code == 2
    assert out == ""
    assert re.search(r"error: received word holds object values, need int64 symbols of GF\(16\)",
                     err)
    assert "Traceback" not in err


def _floats(obj, key):
    """obj with its entries at key as floats."""
    return dict(obj, **{key: np.array(obj[key], dtype=float).tolist()})


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        # a locator 1.25 loaded as 1; "k": 6.0 and float degrees loaded, and
        # simulate then died with a TypeError or IndexError traceback
        ("decode", lambda obj: dict(obj, locators=[1.25] + obj["locators"][1:]),
         r"locators holds float64 values, need int64 symbols of GF\(16\)"),
        ("lrc-list", lambda obj: dict(obj, k=6.0), r"k = 6\.0 is not an integer"),
        ("lrc-list", lambda obj: _floats(obj, "degrees"), r"degree = 0\.0 is not an integer"),
        # degree -1 loaded and read the supercode's last generator row
        ("lrc-list", lambda obj: dict(obj, degrees=obj["degrees"][:-1] + [-1]),
         r"degree = -1 is below the limit 0"),
        # a modulus of -19 passed as monic of degree 4, and the
        # irreducibility test never returned
        ("decode", lambda obj: dict(obj, field=dict(obj["field"], modulus=-19)),
         r"modulus = -19 is below the limit 16"),
        ("mk", lambda obj: _floats(obj, "generator"),
         r"generator holds float64 values, need int64 symbols of GF\(1024\)"),
        ("mk", lambda obj: dict(obj, k=4.0), r"k = 4\.0 is not an integer"),
    ],
    ids=["locator-1.25", "k-6.0", "float-degrees", "degree-minus-1", "modulus-minus-19",
         "float-generator", "pmds-k-4.0"],
)
def test_descriptor_with_non_integer_entries_exits_2(tmp_path, capsys, kind, edit, message):
    path = _gen_code(tmp_path, capsys, "random-pmds" if kind == "mk" else "tamo-barg")
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    if kind == "decode":
        recv = tmp_path / "recv.hex"
        recv.write_text(" ".join(["0"] * 15))
        argv = ("decode", "--code", str(path), "--received", str(recv), "--tl", "1", "--tg", "5")
    else:
        argv = ("simulate", kind, "--code", str(path), "--trials", "1")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert re.search("error: " + message, err)
    assert "Traceback" not in err


def test_simulate_lrc_weight0(tmp_path, capsys):
    path = tmp_path / "tb.json"
    run_cli(capsys, "gen-code", "tamo-barg", "--q", "16", "--n", "15", "--k", "6",
            "--r", "3", "--rho", "3", "-o", str(path))
    code, out, _ = run_cli(
        capsys, "simulate", "lrc-list", "--code", str(path), "--trials", "10",
        "--seed", "0", "--weights", "0",
    )
    assert code == 0
    res = json.loads(out)
    assert res["per_weight"][0]["rate"] == 1.0


@pytest.mark.parametrize("kind", ["lrc-list", "lrc-unique"])
def test_simulate_default_radii_are_reachable(tmp_path, capsys, kind):
    # on [63, 49, 49, 15] over GF(64) the Johnson t_l = 8 and the refined
    # t_g = 8 are both past the GS reach of 7; the defaults stay within it
    path = tmp_path / "tb.json"
    run_cli(capsys, "gen-code", "tamo-barg", "--q", "64", "--n", "63", "--k", "49",
            "--r", "49", "--rho", "15", "-o", str(path))
    code, out, err = run_cli(
        capsys, "simulate", kind, "--code", str(path), "--trials", "1", "--weights", "0",
    )
    assert code == 0, err
    assert json.loads(out)["per_weight"][0]["rate"] == 1.0


def test_simulate_default_radii_on_15_6(tmp_path, capsys):
    """On [15, 6, 3, 3] the defaults are t_l = 1 and t_g = 5."""
    path = tmp_path / "tb.json"
    run_cli(capsys, "gen-code", "tamo-barg", "--q", "16", "--n", "15", "--k", "6",
            "--r", "3", "--rho", "3", "-o", str(path))
    args = ("simulate", "lrc-list", "--code", str(path), "--trials", "2", "--seed", "3")
    default = run_cli(capsys, *args)
    explicit = run_cli(capsys, *args, "--tl", "1", "--tg", "5")
    assert default[0] == 0 and default == explicit
    assert [w["weight"] for w in json.loads(default[1])["per_weight"]] == list(range(6))


def test_unknown_flag_exits_2(capsys):
    assert main(["radii", "--bogus"]) == 2
