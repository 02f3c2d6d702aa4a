import json
import random

import pytest

from dgkernel import jsonio
from dgkernel.cli import main
from dgkernel.complexes import (
    ChainMap,
    Complex,
    Proto,
    functor_L,
    homology_H,
    identity_map,
    make_complex,
    suspension,
    unit_complex,
)
from dgkernel.dgcat import (
    LEFT,
    DGModule,
    exterior_g_category,
    group_like_category,
    module_from_complex,
    representable,
    representable_cauchy_data,
    trivial_weight,
    unit_dg_category,
)
from dgkernel.monoidal import TensorSpace
from dgkernel.totals import TotComparison
from dgkernel.jsonio import module_to_json
from dgkernel.rand import rand_double_complex
from dgkernel.zlinalg import IntMatrix

M2 = make_complex({1: 1, 0: 1}, {1: [[2]]})


@pytest.fixture()
def files(tmp_path):
    paths = {}

    def write(name, payload):
        p = tmp_path / name
        jsonio.dump(payload, str(p))
        paths[name] = str(p)
        return str(p)

    write("m2.json", jsonio.complex_to_json(M2))
    write("k0.json", jsonio.complex_to_json(unit_complex()))
    write("id_m2.json", jsonio.proto_to_json(identity_map(M2)))
    lz = functor_L(unit_complex())
    slz = suspension(lz, -1)
    f = ChainMap(slz, lz, 0, {-1: IntMatrix.from_rows([[1]])})
    t = Proto(lz, slz, 0, {-1: IntMatrix.from_rows([[1]])})
    write("split_f.json", jsonio.proto_to_json(f))
    write("split_t.json", jsonio.proto_to_json(t))
    write("dc.json", jsonio.double_complex_to_json(
        rand_double_complex(random.Random(5))))
    ext = exterior_g_category(1)
    write("ext.json", jsonio.category_to_json(ext))
    write("cauchy.json", jsonio.cauchy_data_to_json(
        representable_cauchy_data(ext, "*")))
    bad = jsonio.cauchy_data_to_json(representable_cauchy_data(ext, "*"))
    for key in bad["eps"]:
        for deg in bad["eps"][key]:
            bad["eps"][key][deg]["data"] = [
                str(-int(x)) for x in bad["eps"][key][deg]["data"]]
    write("cauchy_bad.json", bad)
    badcat = jsonio.category_to_json(ext)
    badcat["identities"]["*"]["vec"] = ["2"]
    write("ext_bad.json", badcat)
    unit = unit_dg_category()
    write("unit_cat.json", jsonio.category_to_json(unit))
    write("weight.json", module_to_json(trivial_weight(unit)))
    write("diagram.json", module_to_json(
        module_from_complex(unit, M2, LEFT)))
    # g o g = 2: the trivial weight breaks associativity, 1.(g o g) != (1.g).g
    c2 = group_like_category(2)
    write("c2.json", jsonio.category_to_json(c2))
    write("c2_weight.json", module_to_json(trivial_weight(c2)))
    write("c2_diagram.json", module_to_json(representable(c2, "*", LEFT)))
    # Z- (x)_{Z[C2]} Z+ = Z/2: lawful modules, torsion coend
    c1 = group_like_category(1)
    k0 = unit_complex()
    hom = c1.hom("*", "*")
    z_minus = DGModule(c1, {"*": k0}, {("*", "*"): ChainMap(
        TensorSpace(k0, hom).complex, k0, 0, {0: IntMatrix.from_rows([[1, -1]])})})
    z_plus = DGModule(c1, {"*": k0}, {("*", "*"): ChainMap(
        TensorSpace(hom, k0).complex, k0, 0, {0: IntMatrix.from_rows([[1, 1]])})}, LEFT)
    write("c1.json", jsonio.category_to_json(c1))
    write("z_minus.json", module_to_json(z_minus))
    write("z_plus.json", module_to_json(z_plus))
    bad_m = jsonio.cauchy_data_to_json(representable_cauchy_data(ext, "*"))
    for comps in bad_m["M"]["actions"].values():
        for mat in comps.values():
            mat["data"] = [str(2 * int(x)) for x in mat["data"]]
    write("cauchy_bad_m.json", bad_m)
    paths["tmp"] = str(tmp_path)
    return paths


class TestVerbs:
    def test_homology_report(self, files, capsys):
        assert main(["homology", files["m2.json"]]) == 0
        out = capsys.readouterr().out
        assert "H_0 = Z/2" in out

    def test_homology_json_flag(self, files, capsys):
        assert main(["--json", "homology", files["m2.json"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["homology"] == {"H_0": "Z/2"}

    def test_cone_of_identity_is_acyclic(self, files, capsys):
        assert main(["cone", "--map-cone-of-identity", files["k0.json"]]) == 0
        out = capsys.readouterr().out
        assert "H = 0" in out

    def test_cone_of_chain_map(self, files, capsys):
        assert main(["cone", "--f", files["id_m2.json"]]) == 0
        assert "H = 0" in capsys.readouterr().out

    def test_tensor_and_hom_write_output(self, files, capsys, tmp_path):
        out_t = str(tmp_path / "t_out.json")
        assert main(["tensor", files["m2.json"], files["m2.json"],
                     "--out", out_t]) == 0
        capsys.readouterr()
        written = jsonio.complex_from_json(jsonio.load(out_t))
        assert written.rank(1) == 2
        out_h = str(tmp_path / "h_out.json")
        assert main(["hom", files["m2.json"], files["k0.json"],
                     "--out", out_h]) == 0

    def test_cokernel_protosplit_example(self, files, capsys):
        assert main(["cokernel-protosplit", "--f", files["split_f.json"],
                     "--t", files["split_t.json"]]) == 0
        out = capsys.readouterr().out
        assert "cokernel ranks: {'0': 1}" in out

    def test_tot_with_comparison(self, files, capsys):
        assert main(["tot", files["dc.json"], "--compare-colim"]) == 0
        assert "comparison iso: ok" in capsys.readouterr().out

    def test_colim_tensor_case(self, files, capsys):
        assert main(["colim", "--category", files["unit_cat.json"],
                     "--weight", files["weight.json"],
                     "--diagram", files["diagram.json"]]) == 0
        assert "colimit ranks" in capsys.readouterr().out

    def test_colim_rejects_unlawful_weight(self, files, capsys):
        assert main(["colim", "--category", files["c2.json"],
                     "--weight", files["c2_weight.json"],
                     "--diagram", files["c2_diagram.json"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: weight: " in captured.err
        assert "associativity" in captured.err

    def test_colim_reports_torsion_coend(self, files, capsys):
        assert main(["colim", "--category", files["c1.json"],
                     "--weight", files["z_minus.json"],
                     "--diagram", files["z_plus.json"]]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert main(["--json", "colim", "--category", files["c1.json"],
                     "--weight", files["z_minus.json"],
                     "--diagram", files["z_plus.json"]]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is False
        assert "degree 0: Z/2" in payload["witness"]

    def test_tot_compare_checks_both_composites(self, files, capsys, monkeypatch):
        # iso: Z^2 -> Z and inverse: Z -> Z^2 with iso o inverse = 1 only
        colim, tot = Complex.concentrated(0, 2), Complex.concentrated(0, 1)
        iso = ChainMap(colim, tot, 0, {0: IntMatrix.from_rows([[1, 0]])})
        inverse = ChainMap(tot, colim, 0, {0: IntMatrix.from_rows([[1], [0]])})
        monkeypatch.setattr("dgkernel.cli.tot_via_weighted_colimit",
                            lambda a, window=None: TotComparison(colim, tot, iso, inverse, 1))
        assert main(["tot", files["dc.json"], "--compare-colim"]) == 1
        assert "comparison iso: FAIL" in capsys.readouterr().out

    def test_verify_cauchy_rejects_unlawful_module(self, files, capsys):
        assert main(["verify-cauchy", files["cauchy_bad_m.json"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: M: " in captured.err

    def test_verify_cauchy_pass_and_fail(self, files, capsys):
        assert main(["verify-cauchy", files["cauchy.json"], "--naturality"]) == 0
        capsys.readouterr()
        assert main(["verify-cauchy", files["cauchy_bad.json"]]) == 1
        assert "snake fails" in capsys.readouterr().out

    def test_verify_category_pass_and_fail(self, files, capsys):
        assert main(["verify-category", files["ext.json"]]) == 0
        capsys.readouterr()
        assert main(["verify-category", files["ext_bad.json"]]) == 1
        out = capsys.readouterr().out
        assert "unit" in out or "identity" in out

    def test_input_errors_exit_two(self, files, capsys):
        assert main(["homology", files["tmp"] + "/absent.json"]) == 2
        truncated = files["tmp"] + "/trunc.json"
        with open(truncated, "w") as fh:
            fh.write("{\"lo\": 0}")
        assert main(["homology", truncated]) == 2
        err = capsys.readouterr().err
        assert "input error" in err
        assert "hi" in err  # names the offending field

    @pytest.mark.parametrize("matrix, message", [
        ({"rows": -1, "cols": -1, "data": ["0"]}, "field 'rows': expected a non-negative"),
        ({"rows": 1, "cols": -2, "data": []}, "field 'cols': expected a non-negative"),
        ({"rows": 1, "cols": 1, "data": [2.5]}, "field 'data': expected an integer, got 2.5"),
        ({"rows": 1, "cols": 1, "data": ["2.5"]}, "field 'data': expected an integer"),
        ({"rows": 1, "cols": 1, "data": [True]}, "field 'data': expected an integer, got True"),
        ({"rows": 1.0, "cols": 1, "data": ["2"]}, "field 'rows': expected an integer"),
    ])
    def test_malformed_matrix_exits_two(self, files, capsys, matrix, message):
        # d_1 = [[2.5]] used to be read as [[2]] and report H_0 = Z/2 with exit 0
        bad = files["tmp"] + "/bad_matrix.json"
        jsonio.dump({"lo": 0, "hi": 1, "ranks": [1, 1], "diffs": {"1": matrix}}, bad)
        assert main(["homology", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and message in captured.err


HOMOLOGY_VERBS = {
    "homology": lambda f: ["homology", f["m2.json"]],
    "cone --f": lambda f: ["cone", "--f", f["id_m2.json"]],
    "cone --map-cone-of-identity": lambda f: ["cone", "--map-cone-of-identity", f["m2.json"]],
    "tot": lambda f: ["tot", f["dc.json"], "--compare-colim"],
    "cokernel-protosplit": lambda f: ["cokernel-protosplit", "--f", f["split_f.json"],
                                      "--t", f["split_t.json"]],
    "colim": lambda f: ["colim", "--category", f["unit_cat.json"],
                        "--weight", f["weight.json"], "--diagram", f["diagram.json"]],
}


class TestHomologyOncePerReport:
    @pytest.mark.parametrize("verb", sorted(HOMOLOGY_VERBS))
    def test_one_homology_call_per_run(self, verb, files, capsys, monkeypatch):
        calls = []

        def counted(cx):
            calls.append(cx)
            return homology_H(cx)

        argv = HOMOLOGY_VERBS[verb](files)
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(["--json"] + argv) == 0
        plain_json = capsys.readouterr().out
        monkeypatch.setattr("dgkernel.cli.homology_H", counted)
        assert main(argv) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == plain
        assert main(["--json"] + argv) == 0
        assert len(calls) == 2
        out = capsys.readouterr().out
        assert out == plain_json
        # the text lines and the JSON report come from the same groups
        report = json.loads(out)["homology"]
        lines = [ln for ln in plain.splitlines() if ln.startswith("H")]
        if verb in ("homology", "tot") or verb.startswith("cone"):
            assert lines != []
            assert dict(ln.split(" = ") for ln in lines if ln != "H = 0") == report


class TestDeterminism:
    def test_byte_identical_reports(self, files, capsys):
        main(["--json", "tot", files["dc.json"], "--compare-colim"])
        first = capsys.readouterr().out
        main(["--json", "tot", files["dc.json"], "--compare-colim"])
        second = capsys.readouterr().out
        assert first == second


class TestSuiteVerb:
    def test_suite_passes_and_reports_each_criterion(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        for k in range(1, 13):
            assert f"criterion {k:2d}" in out
        assert "FAIL" not in out
