"""Unit tests for the APK model: resources, manifest, loader, obfuscation."""

from __future__ import annotations

import zipfile

import pytest

from repro.apk.deobfuscate import build_deobfuscation_map
from repro.apk.loader import load_apk, save_apk
from repro.apk.manifest import Manifest
from repro.apk.model import Apk, BundleError, EntryPoint, TriggerKind
from repro.apk.obfuscator import obfuscate, plan_renames
from repro.apk.resources import Resources
from repro.apk.rewrite import RenameMap, rename_program
from repro.ir.builder import ProgramBuilder
from repro.ir.validate import validate_program
from repro.ir.printer import print_program


def make_apk(program=None) -> Apk:
    if program is None:
        pb = ProgramBuilder()
        cb = pb.class_("com.demo.Main", superclass="android.app.Activity")
        cb.field("mToken", "java.lang.String")
        m = cb.method("onCreate")
        m.call_this("fetch", ["seed"])
        m.ret_void()
        f = cb.method("fetch", params=["java.lang.String"])
        f.putfield(f.this, "mToken", f.param(0), cls="com.demo.Main")
        f.ret_void()
        program = pb.build()
    res = Resources()
    res.add_string("api_key", "k-123")
    return Apk(
        manifest=Manifest(
            package="com.demo",
            activities=["com.demo.Main"],
            permissions=["android.permission.INTERNET"],
        ),
        program=program,
        resources=res,
        entrypoints=[
            EntryPoint(
                method_id="<com.demo.Main: void onCreate()>",
                kind=TriggerKind.LIFECYCLE,
                name="launch",
            )
        ],
    )


class TestResources:
    def test_ids_are_stable_and_resolvable(self):
        res = Resources()
        rid = res.add_string("base_url", "https://api.example.com")
        assert res.get_string(rid) == "https://api.example.com"
        assert res.get_string("base_url") == "https://api.example.com"
        assert res.string_id("base_url") == rid
        assert res.has_id(rid)

    def test_reregistering_same_value_is_idempotent(self):
        res = Resources()
        a = res.add_string("k", "v")
        b = res.add_string("k", "v")
        assert a == b
        with pytest.raises(ValueError):
            res.add_string("k", "other")

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            Resources().get_string(0x7F0E0000)

    def test_roundtrip_dict(self):
        res = Resources()
        res.add_string("a", "1")
        res.add_string("b", "2")
        again = Resources.from_dict(res.to_dict())
        assert again.get_string("a") == "1"
        assert len(again) == 2


class TestManifest:
    def test_label_defaults_to_package_tail(self):
        assert Manifest(package="com.x.myapp").label == "myapp"

    def test_internet_permission(self):
        m = Manifest(package="p", permissions=["android.permission.INTERNET"])
        assert m.uses_internet
        assert not Manifest(package="p").uses_internet

    def test_dict_roundtrip(self):
        m = Manifest(package="com.a", activities=["com.a.M"], version_name="2.1")
        again = Manifest.from_dict(m.to_dict())
        assert again == m


class TestLoader:
    def test_save_load_directory(self, tmp_path):
        apk = make_apk()
        bundle = save_apk(apk, tmp_path / "demo.sapk")
        loaded = load_apk(bundle)
        assert loaded.package == "com.demo"
        assert loaded.resources.get_string("api_key") == "k-123"
        assert loaded.entrypoints == apk.entrypoints
        assert print_program(loaded.program) == print_program(apk.program)

    def test_save_load_zip(self, tmp_path):
        apk = make_apk()
        bundle = save_apk(apk, tmp_path / "demo.zip")
        loaded = load_apk(bundle)
        assert loaded.package == "com.demo"

    def test_missing_bundle_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_apk(tmp_path / "nope.sapk")

    @pytest.mark.parametrize("member,data", [
        pytest.param("manifest.json", b"", id="manifest-empty"),
        pytest.param("manifest.json", b"{}", id="manifest-no-package"),
        pytest.param("manifest.json", b"[]", id="manifest-array"),
        pytest.param("resources.json", b"[]", id="resources-array"),
        pytest.param("entrypoints.json", b"[{", id="entrypoints-torn"),
        pytest.param("entrypoints.json",
                     b'[{"method_id": "m", "kind": "nope"}]',
                     id="entrypoints-bad-kind"),
        pytest.param("classes.jimple", b"class com.demo.Main {",
                     id="jimple-torn"),
        pytest.param("classes.jimple", b"\xff\xfe", id="jimple-not-utf8"),
    ])
    def test_malformed_member_raises_one_typed_error(
        self, tmp_path, member, data
    ):
        bundle = save_apk(make_apk(), tmp_path / "demo.sapk")
        (bundle / member).write_bytes(data)
        with pytest.raises(BundleError, match=member):
            load_apk(bundle)

    def test_unreadable_container_raises_the_typed_error(self, tmp_path):
        not_zip = tmp_path / "upload.zip"
        not_zip.write_bytes(b"not a zip archive")
        with pytest.raises(BundleError, match="zip"):
            load_apk(not_zip)
        with zipfile.ZipFile(tmp_path / "partial.zip", "w") as zf:
            zf.writestr("manifest.json", "{}")
        with pytest.raises(BundleError, match="resources.json"):
            load_apk(tmp_path / "partial.zip")
        bundle = save_apk(make_apk(), tmp_path / "demo.sapk")
        (bundle / "classes.jimple").unlink()
        with pytest.raises(BundleError, match="classes.jimple"):
            load_apk(bundle)


class TestObfuscation:
    def test_app_classes_renamed_framework_names_kept(self):
        apk = make_apk()
        result = obfuscate(apk)
        prog = result.apk.program
        assert "com.demo.Main" not in prog.classes
        renamed = next(iter(prog.classes.values()))
        # onCreate is a framework callback — kept; fetch is renamed.
        names = {m.name for m in renamed.methods()}
        assert "onCreate" in names
        assert "fetch" not in names
        assert validate_program(prog) == []
        assert result.apk.obfuscated

    def test_entrypoints_remapped(self):
        apk = make_apk()
        result = obfuscate(apk)
        ep = result.apk.entrypoints[0]
        cls_name = next(iter(result.apk.program.classes))
        assert cls_name in ep.method_id
        # the remapped entrypoint resolves in the renamed program
        assert result.apk.program.method_by_id(ep.method_id) is not None

    def test_library_calls_untouched(self):
        pb = ProgramBuilder()
        cb = pb.class_("com.demo.Net")
        m = cb.method("go")
        sb = m.new("java.lang.StringBuilder")
        m.vcall(sb, "append", ["x"], returns="java.lang.StringBuilder")
        m.ret_void()
        apk = make_apk(pb.build())
        apk.entrypoints.clear()
        result = obfuscate(apk)
        text = print_program(result.apk.program)
        assert "java.lang.StringBuilder" in text
        assert "append" in text

    def test_obfuscation_is_deterministic(self):
        a = obfuscate(make_apk()).renames
        b = obfuscate(make_apk()).renames
        assert a.class_map == b.class_map
        assert a.method_map == b.method_map

    def test_plan_skips_kept_classes(self):
        apk = make_apk()
        renames = plan_renames(apk.program, keep_classes=frozenset({"com.demo.Main"}))
        assert "com.demo.Main" not in renames.class_map


class TestRename:
    def test_rename_program_updates_field_refs(self):
        apk = make_apk()
        renames = RenameMap(
            class_map={"com.demo.Main": "o.a"},
            field_map={"mToken": "f0"},
        )
        prog = rename_program(apk.program, renames)
        text = print_program(prog)
        assert "mToken" not in text
        assert "f0" in text
        assert validate_program(prog) == []

    def test_inverted_roundtrips(self):
        apk = make_apk()
        renames = plan_renames(apk.program)
        forward = rename_program(apk.program, renames)
        back = rename_program(forward, renames.inverted())
        assert print_program(back) == print_program(apk.program)


class TestDeobfuscation:
    def _library_program(self):
        pb = ProgramBuilder()
        cb = pb.class_("okio.BufferTool")
        cb.field("size", "int")
        m = cb.method("writeUtf8", params=["java.lang.String"], returns="okio.BufferTool")
        m.ret(m.this)
        m2 = cb.method("flush")
        m2.ret_void()
        return pb.build()

    def test_map_recovers_original_names(self):
        reference = self._library_program()
        apk = Apk(manifest=Manifest(package="lib"), program=self._library_program())
        result = obfuscate(apk, rename_libraries=True, library_prefixes=("okio.",))
        mapping = build_deobfuscation_map(result.apk.program, reference)
        assert mapping.matched_classes == 1
        obf_name = next(iter(result.apk.program.classes))
        assert mapping.renames.class_map.get(obf_name) == "okio.BufferTool"
        assert "writeUtf8" in mapping.renames.method_map.values()

    def test_unmatched_class_counted(self):
        reference = self._library_program()
        pb = ProgramBuilder()
        other = pb.class_("o.z")
        mm = other.method("x", params=["int", "int"], returns="int")
        mm.ret(mm.param(0))
        mapping = build_deobfuscation_map(pb.build(), reference)
        assert mapping.unmatched_classes == 1
