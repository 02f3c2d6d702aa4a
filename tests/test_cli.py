import hashlib
import json
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import simplex_skeleton
from dgkernel import cli, jsonio, totals
from dgkernel.cli import main
from dgkernel.cones import cokernel_protosplit, mapping_cone
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
    dg_subcategory_of_complexes,
    exterior_g_category,
    group_like_category,
    module_from_complex,
    representable,
    representable_cauchy_data,
    trivial_weight,
    unit_dg_category,
)
from dgkernel.monoidal import TensorSpace
from dgkernel.jsonio import module_to_json
from dgkernel.rand import rand_complex, rand_double_complex
from dgkernel.zlinalg import FPAbGroup, IntMatrix

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
                            lambda a: (iso, inverse))
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

    @pytest.mark.parametrize("argv", [
        lambda f: ["homology", f["tmp"]],                          # a directory
        lambda f: ["homology", f["latin1.json"]],                  # not UTF-8
        lambda f: ["tensor", f["m2.json"], f["m2.json"], "--out", f["tmp"]],
    ], ids=["read-directory", "read-non-utf8", "write-directory"])
    def test_unusable_paths_exit_two(self, files, capsys, argv):
        files["latin1.json"] = files["tmp"] + "/latin1.json"
        with open(files["latin1.json"], "wb") as fh:
            fh.write(b'{"lo": 0, "hi": -1, "ranks": [], "diffs": {"\xe9": 1}}')
        assert main(argv(files)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
        assert argv(files)[-1] in captured.err   # names the path

    @pytest.mark.parametrize("depth", [0, -1, 6])
    def test_probe_depth_out_of_range_exits_two(self, files, capsys, depth):
        # depth 0 used to check no probe and still report the property verified
        argv = ["cokernel-protosplit", "--f", files["split_f.json"],
                "--t", files["split_t.json"], "--probe-depth", str(depth)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--probe-depth" in captured.err

    @pytest.mark.parametrize("depth", [1, 5])
    def test_probe_depth_in_range(self, files, capsys, depth):
        assert main(["cokernel-protosplit", "--f", files["split_f.json"],
                     "--t", files["split_t.json"], "--probe-depth", str(depth)]) == 0
        assert "universal property verified" in capsys.readouterr().out

    @pytest.mark.parametrize("depth", [None, 1, 5])
    def test_probe_depth_samples_the_first_targets(self, files, capsys, monkeypatch, depth):
        # without the flag the verdict rests on the cokernel's equations alone
        sampled = []
        real = cli.factors_uniquely

        def recorded(k, w, t):
            sampled.append(t)
            return real(k, w, t)

        monkeypatch.setattr(cli, "factors_uniquely", recorded)
        argv = ["cokernel-protosplit", "--f", files["split_f.json"], "--t", files["split_t.json"]]
        assert main(argv + ([] if depth is None else ["--probe-depth", str(depth)])) == 0
        lz = functor_L(unit_complex())
        family = [lz, suspension(lz, 1), suspension(lz, -1), unit_complex(), lz]
        assert sampled == family[: depth or 0]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_probe_depth_names_the_failing_target(self, files, capsys, monkeypatch, fmt):
        lz = functor_L(unit_complex())
        monkeypatch.setattr(cli, "factors_uniquely", lambda k, w, t: t != suspension(lz, 1))
        argv = ["cokernel-protosplit", "--f", files["split_f.json"],
                "--t", files["split_t.json"], "--probe-depth", "3"]
        assert main((["--json"] if fmt == "json" else []) + argv) == 1
        captured = capsys.readouterr()
        witness = "a map into SA killing f does not factor uniquely through w"
        assert witness in captured.out and captured.err == ""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_broken_cokernel_equation_exits_one_with_its_name(self, files, capsys,
                                                              section_off_by_one_entry, fmt):
        argv = ["cokernel-protosplit", "--f", files["split_f.json"], "--t", files["split_t.json"]]
        assert main((["--json"] if fmt == "json" else []) + argv) == 1
        captured = capsys.readouterr()
        assert "w o s != 1" in captured.out and captured.err == ""
        if fmt == "json":
            assert json.loads(captured.out) == {
                "verified": False, "witness": "witness equations failed: w o s != 1, s o w != e"}

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_broken_idempotent_equation_exits_one_with_its_name(self, capsys, tmp_path,
                                                                doubled_identity, fmt):
        # f = t = 0, so e = 2 - f t breaks e e = e alone
        zero = str(tmp_path / "zero.json")
        jsonio.dump(jsonio.proto_to_json(Proto.zero(M2, M2)), zero)
        argv = ["cokernel-protosplit", "--f", zero, "--t", zero]
        assert main((["--json"] if fmt == "json" else []) + argv) == 1
        captured = capsys.readouterr()
        assert "e o e != e" in captured.out and captured.err == ""
        if fmt == "json":
            assert json.loads(captured.out) == {
                "verified": False, "witness": "witness equations failed: e o e != e"}

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


class TestInputCaps:
    @pytest.mark.parametrize("payload, message", [
        ({"lo": 0, "hi": 0, "ranks": ["1000000000"], "diffs": {}},
         "field 'ranks': 1000000000 exceeds the largest supported rank 4096"),
        ({"lo": 0, "hi": 1, "ranks": [1, 1],
          "diffs": {"1": {"rows": 1000000000, "cols": 0, "data": []}}},
         "field 'rows': 1000000000 exceeds the largest supported rank 4096"),
        ({"lo": 0, "hi": 1, "ranks": [1, 1],
          "diffs": {"1": {"rows": 0, "cols": 4097, "data": []}}},
         "field 'cols': 4097 exceeds the largest supported rank 4096"),
        ({"lo": 0, "hi": 1, "ranks": [1, -1], "diffs": {}},
         "field 'ranks': expected a non-negative integer, got -1"),
    ], ids=["rank", "rows", "cols", "negative rank"])
    def test_oversized_input_exits_two(self, files, capsys, payload, message):
        # a rank of 10^9 used to reach kernel_basis as a 10^9-column matrix
        path = files["tmp"] + "/oversized.json"
        jsonio.dump(payload, path)
        assert main(["homology", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    def test_far_apart_columns_exit_two_at_once(self, files, capsys):
        # Tot walks every total degree between its lowest and highest
        # column: columns 0 and 10^8 used to make it spin
        one = jsonio.complex_to_json(unit_complex())
        path = files["tmp"] + "/far.json"
        jsonio.dump({"columns": {"0": one, "100000000": one}, "delta": {}}, path)
        assert main(["tot", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: field 'columns key': 100000000 is outside "
                                "the supported degrees [-1024, 1024]\n")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("verb, flag, degree", [
        ("cone", "--f", 1), ("cone", "--f", -1),
        ("cokernel-protosplit", "--f", 1), ("cokernel-protosplit", "--t", -1),
    ])
    def test_maps_of_nonzero_degree_exit_two(self, files, capsys, json_flag, verb, flag, degree):
        # cone --f used to end in a NotAChainMap traceback, and
        # cokernel-protosplit in "FAIL: f o t o f != f" with exit 1
        lo, hi = (0, 1) if degree == 1 else (1, 0)
        shifted = ChainMap(Complex.concentrated(lo), Complex.concentrated(hi), degree,
                           {lo: IntMatrix.from_rows([[1]])})
        path = files["tmp"] + "/shifted.json"
        jsonio.dump(jsonio.proto_to_json(shifted), path)
        maps = {"--f": files["split_f.json"], "--t": files["split_t.json"], flag: path}
        argv = ([verb, "--f", maps["--f"]] if verb == "cone"
                else [verb, "--f", maps["--f"], "--t", maps["--t"]])
        assert main(json_flag + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"input error: field 'degree': {flag} must have degree 0, "
                                f"got {degree}\n")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("f, t", [("id_z.json", "id_lz.json"), ("split_f.json", "id_lz.json")])
    def test_a_splitting_between_other_complexes_exits_two(self, files, capsys, json_flag, f, t):
        # both ends wrong, or only the target: it used to print
        # "FAIL: f o t o f != f" and exit 1
        for name, cx in (("id_z.json", unit_complex()), ("id_lz.json", functor_L(unit_complex()))):
            files[name] = files["tmp"] + "/" + name
            jsonio.dump(jsonio.proto_to_json(identity_map(cx)), files[name])
        assert main(json_flag + ["cokernel-protosplit", "--f", files[f], "--t", files[t]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: --t must go from the target of --f to its source\n"

    @pytest.mark.parametrize("field, payload", [
        ("lo", {"lo": -1025, "hi": -1025, "ranks": [1]}),
        ("hi", {"lo": 0, "hi": 1025, "ranks": [1] * 1026}),
        ("diffs key", {"lo": 0, "hi": 0, "ranks": [1],
                       "diffs": {"5000": {"rows": 0, "cols": 0, "data": []}}}),
    ])
    def test_every_degree_field_is_capped(self, files, capsys, field, payload):
        path = files["tmp"] + "/far_degree.json"
        jsonio.dump(payload, path)
        assert main(["homology", path]) == 2
        assert f"field {field!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("field, read", [
        ("degree", lambda big: jsonio.proto_from_json(
            dict(jsonio.proto_to_json(identity_map(M2)), degree=big))),
        ("comps key", lambda big: jsonio.proto_from_json(
            dict(jsonio.proto_to_json(identity_map(M2)),
                 comps={big: {"rows": 0, "cols": 0, "data": []}}))),
        ("delta key", lambda big: jsonio.double_complex_from_json(
            {"columns": {}, "delta": {big: {}}})),
        ("delta comp key", lambda big: jsonio.double_complex_from_json(
            {"columns": {}, "delta": {"0": {big: {"rows": 0, "cols": 0, "data": []}}}})),
        ("compose degree", lambda big: jsonio.category_from_json(
            dict(jsonio.category_to_json(exterior_g_category(1)),
                 compose={"*->*->*": {big: {"rows": 0, "cols": 0, "data": []}}}))),
        ("action degree", lambda big: jsonio.left_module_from_json(
            {"values": {}, "actions": {"*->*": {big: {}}}}, unit_dg_category())),
        ("eps degree", lambda big: jsonio.cauchy_data_from_json(
            dict(jsonio.cauchy_data_to_json(representable_cauchy_data(exterior_g_category(1), "*")),
                 eps={"*->*": {big: {}}}))),
    ])
    def test_degree_keys_outside_the_cap_are_input_errors(self, field, read):
        for big in ("1025", "-1025", "10000000000"):
            with pytest.raises(jsonio.InputError, match=f"field {field!r}: {big} is outside"):
                read(big)

    def test_elt_degree_is_capped(self):
        obj = jsonio.cauchy_data_to_json(representable_cauchy_data(exterior_g_category(1), "*"))
        obj["eta"][0]["x"]["degree"] = 2000
        with pytest.raises(jsonio.InputError, match="field 'degree': 2000 is outside"):
            jsonio.cauchy_data_from_json(obj)

    def test_degree_cap_is_inclusive(self):
        assert jsonio.MAX_DEGREE == 1024
        for n in (-jsonio.MAX_DEGREE, jsonio.MAX_DEGREE):
            cx = jsonio.complex_from_json({"lo": n, "hi": n, "ranks": [1]})
            assert cx.rank(n) == 1

    @pytest.mark.parametrize("field, cap", [("objects", 1024), ("homs", 4096)])
    def test_category_entry_counts_are_capped(self, files, capsys, field, cap):
        # the count is checked before any entry is read: these entries
        # would not parse
        obj = jsonio.category_to_json(exterior_g_category(1))
        obj[field] = ([{}] * (cap + 1) if field == "objects"
                      else {f"{i}->{i}": {} for i in range(cap + 1)})
        path = files["tmp"] + "/many.json"
        jsonio.dump(obj, path)
        assert main(["verify-category", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"input error: field {field!r}: {cap + 1} entries exceed "
                                f"the largest supported count {cap}\n")

    def test_category_entry_caps_are_inclusive(self):
        assert (jsonio.MAX_OBJECTS, jsonio.MAX_HOMS) == (1024, 4096)
        k0 = jsonio.complex_to_json(unit_complex())
        cat = jsonio.category_from_json({
            "objects": [str(i) for i in range(jsonio.MAX_OBJECTS)],
            "homs": {f"{i % jsonio.MAX_OBJECTS}->{i // jsonio.MAX_OBJECTS}": k0
                     for i in range(jsonio.MAX_HOMS)},
            "identities": {}})
        assert len(cat.objects) == jsonio.MAX_OBJECTS
        assert len(cat.homs) == jsonio.MAX_HOMS

    def test_duplicate_objects_exit_two(self, files, capsys):
        # every scan visits each object once; a repeated name used to be
        # visited twice
        obj = jsonio.category_to_json(exterior_g_category(1))
        obj["objects"] = ["*", "*"]
        path = files["tmp"] + "/twice.json"
        jsonio.dump(obj, path)
        assert main(["verify-category", path]) == 2
        assert capsys.readouterr().err == "input error: field 'objects': '*' is listed twice\n"

    def test_hom_to_an_unlisted_object_exits_two(self, files, capsys):
        # the category used to verify: every check visits the listed objects
        # only, so the ghost hom was never looked at
        obj = jsonio.category_to_json(unit_dg_category())
        obj["homs"]["ghost->*"] = jsonio.complex_to_json(unit_complex())
        path = files["tmp"] + "/ghost_cat.json"
        jsonio.dump(obj, path)
        assert main(["verify-category", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: field 'homs': object 'ghost' in 'ghost->*' "
                                "is not listed in 'objects'\n")

    def test_weight_value_at_an_unlisted_object_exits_two(self, files, capsys):
        # the colimit used to be printed, with the ghost value left out
        weight = jsonio.load(files["weight.json"])
        weight["values"]["ghost"] = jsonio.complex_to_json(unit_complex())
        path = files["tmp"] + "/ghost_weight.json"
        jsonio.dump(weight, path)
        assert main(["colim", "--category", files["unit_cat.json"], "--weight", path,
                     "--diagram", files["diagram.json"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: field 'values': object 'ghost' "
                                "is not listed in 'objects'\n")

    @staticmethod
    def _renamed(obj, name):
        """obj with its one object '*' renamed to str(name)."""
        return json.loads(json.dumps(obj).replace("*", str(name)))

    @pytest.mark.parametrize("name", [True, 7], ids=["bool", "int"])
    def test_an_object_name_that_is_not_a_string_exits_two(self, files, capsys, name):
        # [true] used to be read as the object 'True' and [7] as '7', and the
        # category verified with exit 0
        obj = self._renamed(jsonio.category_to_json(unit_dg_category()), name)
        obj["objects"] = [name]
        path = files["tmp"] + "/named_cat.json"
        jsonio.dump(obj, path)
        assert main(["verify-category", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: field 'objects': expected an object name "
                                f"(a string), got {name!r}\n")

    def test_an_eta_object_that_is_not_a_string_exits_two(self, files, capsys):
        # "object": 7 used to be read as the listed object '7', exit 0
        obj = self._renamed(jsonio.load(files["cauchy.json"]), 7)
        obj["eta"][0]["object"] = 7
        path = files["tmp"] + "/named_cauchy.json"
        jsonio.dump(obj, path)
        assert main(["verify-cauchy", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: field 'object': expected an object name "
                                "(a string), got 7\n")

    def test_string_names_still_read(self, files, capsys):
        obj = self._renamed(jsonio.load(files["cauchy.json"]), 7)
        path = files["tmp"] + "/string_cauchy.json"
        jsonio.dump(obj, path)
        assert main(["verify-cauchy", path]) == 0

    @pytest.mark.parametrize("field, mutate", [
        ("compose", lambda o: o["category"]["compose"].update({"*->ghost->*": {}})),
        ("values", lambda o: o["M"]["values"].update({"ghost": o["M"]["values"]["*"]})),
        ("actions", lambda o: o["N"]["actions"].update({"ghost->*": {}})),
        ("eta", lambda o: o["eta"][0].update({"object": "ghost"})),
        ("eps", lambda o: o["eps"].update({"*->ghost": {}})),
    ])
    def test_every_object_field_must_name_a_listed_object(self, field, mutate):
        obj = jsonio.cauchy_data_to_json(representable_cauchy_data(exterior_g_category(1), "*"))
        mutate(obj)
        with pytest.raises(jsonio.InputError, match=f"field {field!r}: object 'ghost'"):
            jsonio.cauchy_data_from_json(obj)

    def test_listed_objects_read_as_before(self):
        obj = jsonio.cauchy_data_to_json(representable_cauchy_data(exterior_g_category(1), "*"))
        assert jsonio.cauchy_data_to_json(jsonio.cauchy_data_from_json(obj)) == obj

    def test_tables_are_read_against_their_owners_spaces(self):
        # each compose, action and eps table is checked against the tensor
        # space its owner evaluates it on, so no space is built twice
        cat = dg_subcategory_of_complexes({"Z": unit_complex(), "LZ": functor_L(unit_complex())})
        obj = jsonio.cauchy_data_to_json(representable_cauchy_data(cat, "Z"))
        cd = jsonio.cauchy_data_from_json(obj)
        base = cd.m.base
        tables = ([(t, base.pair_space(*k)) for k, t in base.compose_table.items()]
                  + [(t, mod.action_space(*k)) for mod in (cd.m, cd.n)
                     for k, t in mod.actions.items()]
                  + [(t, cd.eps_space(*k)) for k, t in cd.eps.items()])
        assert base.compose_table and cd.m.actions and cd.n.actions and cd.eps
        assert all(t.source is ts.complex for t, ts in tables)

    def test_cap_is_inclusive(self):
        assert jsonio.MAX_RANK == 4096
        m = jsonio.matrix_from_json({"rows": jsonio.MAX_RANK, "cols": 0, "data": []})
        assert m.shape == (jsonio.MAX_RANK, 0)
        cx = jsonio.complex_from_json({"lo": 0, "hi": 0, "ranks": [jsonio.MAX_RANK]})
        assert cx.rank(0) == jsonio.MAX_RANK


class TestMalformedTables:
    """The four optional chain-map tables, and each of their entries, must
    be JSON objects; a list in their place used to end in AttributeError."""

    @staticmethod
    def _colim(f, path):
        return ["colim", "--category", f["unit_cat.json"], "--weight", path,
                "--diagram", f["diagram.json"]]

    @pytest.mark.parametrize("source, field, entry, verb", [
        ("dc.json", "delta", None, lambda f, p: ["tot", p]),
        ("dc.json", "delta", "0", lambda f, p: ["tot", p]),
        ("ext.json", "compose", None, lambda f, p: ["verify-category", p]),
        ("ext.json", "compose", "*->*->*", lambda f, p: ["verify-category", p]),
        ("weight.json", "actions", None, lambda f, p: TestMalformedTables._colim(f, p)),
        ("weight.json", "actions", "*->*", lambda f, p: TestMalformedTables._colim(f, p)),
        ("cauchy.json", "eps", None, lambda f, p: ["verify-cauchy", p]),
        ("cauchy.json", "eps", "*->*", lambda f, p: ["verify-cauchy", p]),
    ], ids=["delta", "delta-entry", "compose", "compose-entry", "actions",
            "actions-entry", "eps", "eps-entry"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_a_list_in_place_of_a_table_exits_two(self, files, capsys, source, field,
                                                  entry, verb, json_flag):
        obj = jsonio.load(files[source])
        if entry is None:
            obj[field] = []
            message = f"field {field!r}: expected dict"
        else:
            assert entry in obj[field]
            obj[field][entry] = []
            message = f"field {field!r}: entry {entry!r}: expected dict"
        path = files["tmp"] + "/malformed_table.json"
        jsonio.dump(obj, path)
        assert main(json_flag + verb(files, path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"


ONE = {"rows": 1, "cols": 1, "data": ["1"]}


def _edited(source, verb, edit):
    """argv running verb on the JSON of files[source], or on source() if
    source is callable, after edit(obj) on it."""
    def make(f):
        obj = source() if callable(source) else jsonio.load(f[source])
        edit(obj)
        path = f["tmp"] + "/edited.json"
        jsonio.dump(obj, path)
        return verb + [path]
    return make


def _set(path, value):
    """An edit setting obj[k1][k2]... = value for path = (k1, k2, ...)."""
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return edit


def _bump_first_entry(obj):
    mat = obj["compose"]["m->m->m"]["0"]
    mat["data"][0] = str(int(mat["data"][0]) + 1)


def _rename_key(table, old, new):
    def edit(obj):
        obj[table][new] = obj[table].pop(old)
    return edit


def _square_nonzero_dc(obj):
    col = jsonio.complex_to_json(unit_complex())
    obj.clear()
    obj.update({"columns": {"1": col, "0": col, "-1": col},
                "delta": {"1": {"0": ONE}, "0": {"0": ONE}}})


def _square_nonzero_complex(obj):
    obj.clear()
    obj.update({"lo": 0, "hi": 2, "ranks": [1, 1, 1], "diffs": {"1": ONE, "2": ONE}})


class TestInputErrorsAndWrites:
    """Input errors that end in exit 2 with their message, and the --out
    writes of cone and cokernel-protosplit.  An empty err marks a write:
    the run exits 0 and the file holds the complex the case names."""

    @pytest.mark.parametrize("make, err, written", [
        (_edited("m2.json", ["homology"], _square_nonzero_complex),
         "invalid complex: d^2 != 0 at degree 2", None),
        (_edited("dc.json", ["tot"], _square_nonzero_dc),
         "invalid double complex: delta_0 o delta_1 != 0", None),
        (_edited("id_m2.json", ["cone", "--f"], _set(("comps", "0", "data"), ["2"])),
         "invalid protomorphism: degree-0 proto is not a cycle", None),
        (_edited("ext.json", ["verify-category"],
                 _set(("identities", "*", "vec"), ["1", "0", "0"])),
         "invalid element: element length 3 vs rank 1", None),
        (_edited("ext.json", ["verify-category"], _rename_key("identities", "*", "ghost")),
         "identity for unknown object 'ghost'", None),
        (_edited("ext.json", ["verify-category"], _rename_key("homs", "*->*", "*")),
         "homs key '*': expected 'A->B'", None),
        (_edited(lambda: jsonio.category_to_json(dg_subcategory_of_complexes({"m": M2})),
                 ["verify-category"], _bump_first_entry),
         "compose table m->m->m: degree-0 proto is not a cycle", None),
        (lambda f: ["cone"], "cone needs --f or --map-cone-of-identity", None),
        (lambda f: ["cone", "--map-cone-of-identity", f["k0.json"], "--out",
                    f["tmp"] + "/cone_out.json"], "",
         lambda f: mapping_cone(identity_map(unit_complex())).middle),
        (lambda f: ["cokernel-protosplit", "--f", f["split_f.json"], "--t", f["split_t.json"],
                    "--out", f["tmp"] + "/coker_out.json"], "",
         lambda f: cokernel_protosplit(
             jsonio.proto_from_json(jsonio.load(f["split_f.json"]), chain_map=True),
             jsonio.proto_from_json(jsonio.load(f["split_t.json"]))).quotient),
    ], ids=["complex-d-squared", "double-complex-delta-squared", "protomorphism",
            "element-length", "identity-of-unlisted-object", "homs-key-shape",
            "compose-not-a-chain-map", "cone-without-a-map", "cone-out",
            "cokernel-protosplit-out"])
    def test_exit_code_message_and_written_file(self, files, capsys, make, err, written):
        argv = make(files)
        assert main(argv) == (2 if err else 0)
        captured = capsys.readouterr()
        if err:
            assert (captured.out, captured.err) == ("", f"input error: {err}\n")
        else:
            assert captured.err == ""
            assert jsonio.complex_from_json(jsonio.load(argv[-1])) == written(files)


def per_entry_read(obj) -> IntMatrix:
    """The matrix read one entry at a time, as every entry was read before
    the one-pass read of decimal strings."""
    return IntMatrix(obj["rows"], obj["cols"], [jsonio._int(x, "data") for x in obj["data"]])


DECIMAL_STRINGS = st.builds(str.__add__, st.sampled_from(["", "-", "+"]),
                            st.text("0123456789", min_size=1, max_size=40))
LONG_DIGITS = "9" * 5000   # more digits than int() converts


@st.composite
def matrix_objects(draw):
    """A JSON matrix of decimal strings, or of strings and JSON integers."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = draw(st.sampled_from([DECIMAL_STRINGS,
                                  st.one_of(DECIMAL_STRINGS, st.integers(-10**30, 10**30))]))
    data = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return {"rows": rows, "cols": cols, "data": data}


class TestMatrixRead:
    @settings(max_examples=300, deadline=None)
    @given(matrix_objects())
    @example({"rows": 1, "cols": 1, "data": ["9" * 4300]})
    @example({"rows": 1, "cols": 2, "data": ["-007", "+0"]})
    def test_one_pass_read_equals_per_entry_read(self, obj):
        m = jsonio.matrix_from_json(obj)
        assert m == per_entry_read(obj)
        assert type(m.entries()) is tuple and all(type(x) is int for x in m.entries())

    @pytest.mark.parametrize("data, bad", [
        ([True], True), ([1.5], 1.5), ([" 1"], " 1"), (["1_0"], "1_0"),
        (["\u0661"], "\u0661"), (["1,2"], "1,2"), ([""], ""), (["+"], "+"),
        (["1", 2, "x", 4], "x"), (["1", "2", "3", "1,"], "1,"), (["7", "1,", "2"], "1,"),
        ([LONG_DIGITS], LONG_DIGITS), (["1", "2", LONG_DIGITS, "x"], LONG_DIGITS),
        # int() accepts the first four; each sits among decimal strings
        (["1", " 2", "-3"], " 2"), (["1", "2 ", "-3"], "2 "), (["1", "1_0", "-3"], "1_0"),
        (["1", "\u0661", "-3"], "\u0661"), (["1", "+-1", "-3"], "+-1"), (["1", "", "-3"], ""),
    ], ids=["true", "float", "space", "underscore", "arabic-indic", "comma", "empty",
            "sign", "mixed", "trailing-comma", "comma-pair", "long", "long-then-bad",
            "among-leading-space", "among-trailing-space", "among-underscore",
            "among-arabic-indic", "among-two-signs", "among-empty"])
    def test_bad_entries_keep_their_message(self, files, capsys, data, bad):
        bad_path = files["tmp"] + "/bad_matrix.json"
        jsonio.dump({"lo": 0, "hi": 1, "ranks": [len(data), 1],
                     "diffs": {"1": {"rows": 1, "cols": len(data), "data": data}}}, bad_path)
        assert main(["homology", bad_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: field 'data': expected an integer, got {bad!r}\n"


class TestSkeletonHomology:
    """The k-skeleton of the simplex on v vertices is a wedge of
    C(v - 1, k + 1) k-spheres: sparse +-1 boundaries, read through
    homology_H and through the homology verb."""

    @pytest.mark.parametrize("vertices, k", [(6, 3), (8, 5)])
    def test_wedge_of_spheres(self, files, capsys, vertices, k):
        a = simplex_skeleton(random.Random(vertices * 10 + k), vertices, k)
        spheres = comb(vertices - 1, k + 1)
        h = homology_H(a)
        assert h.support() == [0, k]
        assert h.at(0) == FPAbGroup.free(1) and h.at(k) == FPAbGroup.free(spheres)
        path = files["tmp"] + "/skeleton.json"
        jsonio.dump(jsonio.complex_to_json(a), path)
        assert main(["--json", "homology", path]) == 0
        assert json.loads(capsys.readouterr().out)["homology"] == {
            "H_0": "Z", f"H_{k}": f"Z^{spheres}"}


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


class TestTotOncePerReport:
    def test_compare_colim_reports_the_comparisons_tot(self, files, capsys, monkeypatch):
        # --compare-colim reads ranks, homology and --out from the Tot that
        # the comparison built, and builds no second one
        real, built, reports, written = totals.TotSpace, [], [], []
        monkeypatch.setattr(totals, "TotSpace", lambda a: built.append(a) or real(a))
        for flags in ([], ["--compare-colim"]):
            out = f"{files['tmp']}/tot{len(flags)}.json"
            assert main(["--json", "tot", files["dc.json"], "--out", out] + flags) == 0
            assert len(built) == len(reports) + 1
            reports.append(json.loads(capsys.readouterr().out))
            written.append(Path(out).read_text())
        assert reports[1].pop("colim_comparison") is True
        assert reports[0] == reports[1] and written[0] == written[1]


SRC = Path(__file__).resolve().parent.parent / "src"


def _separate_process(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "dgkernel.cli"] + argv,
                          capture_output=True, text=True, env=env)


class TestOneParserPerProcess:
    SEQUENCE = [
        lambda f: ["homology", f["m2.json"]],
        lambda f: ["--json", "tot", f["dc.json"], "--compare-colim"],
        lambda f: ["verify-category", f["ext_bad.json"]],
        lambda f: ["cokernel-protosplit", "--f", f["split_f.json"],
                   "--t", f["split_t.json"], "--probe-depth", "0"],
        lambda f: ["--json", "hom", f["m2.json"], f["k0.json"]],
        lambda f: ["homology", f["m2.json"]],
    ]

    def test_calls_in_one_process_match_separate_processes(self, files, capsys):
        codes = []
        for make in self.SEQUENCE:
            argv = make(files)
            code = main(argv)
            captured = capsys.readouterr()
            proc = _separate_process(argv)
            assert (code, captured.out, captured.err) == (
                proc.returncode, proc.stdout, proc.stderr), argv
            codes.append(code)
        assert codes == [0, 0, 1, 2, 0, 0]

    def test_bad_argument_still_exits_two(self, files, capsys):
        assert main(["homology", files["m2.json"]]) == 0
        # tot has no --window option: argparse rejects it
        for argv in (["tot", files["dc.json"], "--window", "abc"],
                     ["tot", files["dc.json"], "--compare-colim", "--window", "2"],
                     ["no-such-verb"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage: dgkernel" in capsys.readouterr().err
        assert main(["homology", files["m2.json"]]) == 0
        assert capsys.readouterr().out == "H_0 = Z/2\n"

    def test_parser_is_built_on_first_call_not_at_import(self):
        probe = ("import dgkernel.cli as c; print(c._parser.cache_info().currsize); "
                 "c._parser(); print(c._parser.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, env=env, check=True).stdout
        assert out.split() == ["0", "1"]
        assert cli._parser() is cli._parser()


class TestClosedStdout:
    @pytest.mark.parametrize("make", [lambda f: ["homology", f["m2.json"]],
                                      lambda f: ["--json", "tot", f["dc.json"]]],
                             ids=["text", "json"])
    def test_no_traceback_when_the_reader_has_gone(self, files, make):
        # the read end is closed before the process writes anything, as
        # when `dgkernel ... | head -c 50` outlives its reader
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen([sys.executable, "-m", "dgkernel.cli"] + make(files),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == ""   # no BrokenPipeError traceback, nor anything else


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


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestGoldenOutput:
    """Pinned `--out` files: a reordered basis changes a written matrix even
    where every rank, homology group and verdict stays the same."""

    RAND = {f"r{s}.json": s for s in (0, 5, 6)}   # rand_complex seeds

    DIGESTS = {
        ("hom", "m2.json", "m2.json"):
            "45a71558e424082260a3e6ec3b134ebca78302b7e03f042748b2a2ccbba8bcab",
        ("hom", "r5.json", "r6.json"):
            "23a2d8c61cd9859bd6a8f2d041f93eedf02affb40aa218c56b2a2d8e0805550c",
        ("tensor", "r0.json", "r5.json"):
            "86b421473bf16b84a43d301d070653d8a3784c27a0c966a6b0ee49a693b2bf9e",
        ("tensor", "r5.json", "r6.json"):
            "0917f53d0bfa81e133830e896ca5dea50007da87bd37682e1fb81eb4a824b3c7",
        ("tot", "dc.json"):
            "e8e7f0de9fa652f1f73e0a2413f2f6cb3873bdb6f49136bbfdb4d12175eb3132",
        ("colim", "--category", "unit_cat.json", "--weight", "weight.json",
         "--diagram", "diagram.json"):
            "20d79317fe2dd7c0b5a31a36a028abe2ea566bcffa6bec3e59ba98bee0bfbdba",
    }

    def _run(self, files, capsys, argv) -> str:
        for name, seed in self.RAND.items():
            if name not in files:
                files[name] = files["tmp"] + "/" + name
                jsonio.dump(jsonio.complex_to_json(rand_complex(random.Random(seed))),
                            files[name])
        out = files["tmp"] + "/golden_out.json"
        real = [files.get(a, a) for a in argv]
        assert main(real + ["--out", out]) == 0
        capsys.readouterr()
        return out

    # stdout of `--json verify-cauchy --naturality` on Cauchy data over a
    # two-object DG-category whose eps lacks its LZ->LZ component: pins the
    # order of the naturality failure list and the basis elements each names
    NATURALITY_DIGEST = "0fd9da64bcbabf06e7e43cce031b63c15baf768d072c75933a75ad59976802a5"

    def test_naturality_failure_list_digest(self, files, capsys):
        cat = dg_subcategory_of_complexes({"Z": unit_complex(), "LZ": functor_L(unit_complex())})
        obj = jsonio.cauchy_data_to_json(representable_cauchy_data(cat, "Z"))
        del obj["eps"]["LZ->LZ"]
        path = files["tmp"] + "/cauchy_drop.json"
        jsonio.dump(obj, path)
        assert main(["--json", "verify-cauchy", path, "--naturality"]) == 1
        out = capsys.readouterr().out
        assert out.count("eps naturality in") == 16
        assert len(set(json.loads(out)["naturality_failures"])) == 16   # no two alike
        assert hashlib.sha256(out.encode()).hexdigest() == self.NATURALITY_DIGEST

    def test_tensor_m2_differential(self, files, capsys):
        out = self._run(files, capsys, ["tensor", "m2.json", "m2.json"])
        written = jsonio.load(out)
        assert written["diffs"]["2"] == {"rows": 2, "cols": 1, "data": ["2", "-2"]}

    @pytest.mark.parametrize("argv", sorted(DIGESTS), ids=lambda a: " ".join(a))
    def test_out_file_digest(self, files, capsys, argv):
        assert _sha256(self._run(files, capsys, list(argv))) == self.DIGESTS[argv]
