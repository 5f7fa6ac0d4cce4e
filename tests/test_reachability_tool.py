"""The reachability audit (``tools/reachability.py``): its call hook, its
AST walk, its buckets and report, and its exemption check."""

import importlib.util
import os
import pathlib
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "reachability", ROOT / "tools" / "reachability.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_function_only_a_fork_child_calls_is_reached(tool, tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "target.py").write_text(textwrap.dedent("""\
        def parent_only():
            return 1


        def child_only():
            return 2


        def never():
            return 3
    """))
    script = tmp_path / "main.py"
    script.write_text(textwrap.dedent(f"""\
        import multiprocessing
        import sys

        sys.path.insert(0, {str(pkg)!r})
        import target


        def child():
            target.child_only()


        if __name__ == "__main__":
            target.parent_only()
            proc = multiprocessing.get_context("fork").Process(target=child)
            proc.start()
            proc.join(60)
            sys.exit(0 if proc.exitcode == 0 else 1)
    """))
    logs = tmp_path / "logs"
    status = tool.run_hooked(
        [sys.executable, str(script)], logs, tmp_path / "work",
        prefix=str(pkg) + os.sep, cwd=tmp_path,
    )
    assert status == 0, (tmp_path / "work" / "runs.out").read_text()
    # The child logs to a file of its own, on its first call.
    assert len(list(logs.glob("*.log"))) == 2

    functions, _ = tool.definitions(pkg, src=tmp_path)
    buckets = tool.classify(functions, tool.load_reached(logs), set())
    names = {b: sorted(d.name for d in defs) for b, defs in buckets.items()}
    assert names["product"] == ["child_only", "parent_only"]
    assert names["unreached"] == ["never"]


def test_exemptions_resolve(tool):
    assert tool.main(["--check"]) == 0


def test_check_names_a_stale_exemption(tool):
    _, names = tool.definitions()
    gone = next(iter(tool.EXEMPT))
    assert tool.stale_exemptions(names - {gone}) == [gone]


def _package(tmp_path, source):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(source)
    return pkg


NESTED = textwrap.dedent("""\
    import functools


    class Box:
        def get(self):
            return 1


    @functools.lru_cache(maxsize=None)
    def cached():
        return 2


    def outer():
        def inner():
            return 3
        return inner()
""")


def test_definitions_name_methods_and_nested_functions(tool, tmp_path):
    pkg = _package(tmp_path, NESTED)
    functions, names = tool.definitions(pkg, src=tmp_path)
    by_name = {d.name: d for d in functions}
    assert sorted(by_name) == ["Box.get", "cached", "outer", "outer.inner"]
    assert {"pkg", "pkg.mod", "pkg.mod.Box", "pkg.mod.outer.inner"} <= names
    # A decorated function starts at its decorator, as its code object does.
    assert by_name["cached"].first == 9
    assert by_name["cached"].lines == 3


def test_hooked_calls_match_their_definitions(tool, tmp_path):
    # Methods, decorated and nested functions, and a function only a
    # thread calls, are all keyed by the line the AST walk gives them.
    pkg = _package(tmp_path, NESTED + textwrap.dedent("""\


        def threaded():
            return 4


        def never():
            return 5
    """))
    script = tmp_path / "main.py"
    script.write_text(textwrap.dedent(f"""\
        import sys
        import threading

        sys.path.insert(0, {str(tmp_path)!r})
        from pkg import mod

        mod.Box().get()
        mod.cached()
        mod.outer()
        worker = threading.Thread(target=mod.threaded)
        worker.start()
        worker.join()
    """))
    logs = tmp_path / "logs"
    status = tool.run_hooked(
        [sys.executable, str(script)], logs, tmp_path / "work",
        prefix=str(pkg) + os.sep, cwd=tmp_path,
    )
    assert status == 0, (tmp_path / "work" / "runs.out").read_text()

    functions, _ = tool.definitions(pkg, src=tmp_path)
    buckets = tool.classify(functions, tool.load_reached(logs), set())
    names = {b: sorted(d.name for d in defs) for b, defs in buckets.items()}
    assert names["product"] == [
        "Box.get", "cached", "outer", "outer.inner", "threaded",
    ]
    assert names["unreached"] == ["never"]


def test_load_reached_unions_every_process_log(tool, tmp_path):
    (tmp_path / "1.log").write_text("/a.py\t1\n/a.py\t7\n")
    (tmp_path / "2.log").write_text("/a.py\t7\n/b\tc.py\t3\n")
    (tmp_path / "notes.txt").write_text("/ignored.py\t1\n")
    assert tool.load_reached(tmp_path) == {
        ("/a.py", 1), ("/a.py", 7), ("/b\tc.py", 3),
    }


def _definition(tool, name, first, file="repro/mod.py"):
    module = file.removesuffix(".py").replace("/", ".")
    return tool.Definition(module, name, str(tool.SRC / file), first, first + 1)


def test_classify_puts_product_before_exemption_before_tests(tool, monkeypatch):
    monkeypatch.setattr(tool, "EXEMPT", {
        "repro.mod.kept": "a reason", "repro.mod.tested_kept": "a reason",
    })
    defs = {
        name: _definition(tool, name, first) for name, first in [
            ("kept", 1), ("kept.used", 4), ("tested", 7), ("tested_kept", 10),
            ("dead", 13),
        ]
    }
    product = {(defs["kept.used"].path, 4)}
    tests = {(d.path, d.first) for d in defs.values()} - {(defs["dead"].path, 13)}
    buckets = tool.classify(list(defs.values()), product, tests)
    names = {b: sorted(d.name for d in v) for b, v in buckets.items()}
    assert names == {
        "product": ["kept.used"],
        "exempt": ["kept", "tested_kept"],
        "test-only": ["tested"],
        "unreached": ["dead"],
    }


def test_an_exemption_covers_what_is_defined_inside_it(tool, monkeypatch):
    monkeypatch.setattr(tool, "EXEMPT", {"repro.mod.Kept": "a reason"})
    assert tool.exemption_for(_definition(tool, "Kept.run", 1)) == "repro.mod.Kept"
    assert tool.exemption_for(_definition(tool, "Kept", 1)) == "repro.mod.Kept"
    assert tool.exemption_for(_definition(tool, "Kept2.run", 1)) is None
    assert tool.exemption_for(_definition(tool, "other", 1)) is None


def test_every_exemption_gives_its_reason(tool):
    assert all(isinstance(r, str) and r.strip() for r in tool.EXEMPT.values())


def test_check_fails_on_a_stale_exemption(tool, monkeypatch, capsys):
    monkeypatch.setitem(tool.EXEMPT, "repro.no_such_module", "a reason")
    assert tool.main(["--check"]) == 1
    assert "stale exemption: repro.no_such_module" in capsys.readouterr().err


def test_report_lists_files_with_a_non_product_function(tool):
    buckets = {
        "product": [_definition(tool, "hot", 1),
                    _definition(tool, "busy", 1, "repro/busy.py")],
        "exempt": [],
        "test-only": [_definition(tool, "tested", 5)],
        "unreached": [_definition(tool, "dead", 9)],
    }
    report = tool.render(buckets).splitlines()
    assert any(line.startswith("repro/mod.py") for line in report)
    assert not any(line.startswith("repro/busy.py") for line in report)
    assert report[-1] == "  repro.mod.dead  (2 lines)"
    assert report[report.index("test-only:") + 1] == "  repro.mod.tested  (2 lines)"
    [total] = [line for line in report if line.startswith("total")]
    assert total.split()[1:] == ["4", "2", "(4)", "-", "1", "(2)", "1", "(2)"]


def test_changed_sources_names_edited_added_and_removed_files(tool, tmp_path):
    pkg = _package(tmp_path, NESTED)
    hashes = {}
    tool.definitions(pkg, src=tmp_path, hashes=hashes)
    assert sorted(hashes) == [str(pkg / "__init__.py"), str(pkg / "mod.py")]
    assert tool.changed_sources(hashes, pkg) == []
    (pkg / "mod.py").write_text(NESTED.replace("return 1", "return 10"))
    (pkg / "new.py").write_text("")
    (pkg / "__init__.py").unlink()
    assert tool.changed_sources(hashes, pkg) == sorted(
        str(pkg / name) for name in ("__init__.py", "mod.py", "new.py")
    )


@pytest.mark.parametrize("edit", [False, True])
def test_an_edit_before_the_last_run_ends_fails_the_audit(
    tool, tmp_path, monkeypatch, capsys, edit,
):
    pkg = _package(tmp_path, NESTED)
    monkeypatch.setattr(tool, "PKG", pkg)
    monkeypatch.setattr(tool, "SRC", tmp_path)
    monkeypatch.setattr(tool, "EXEMPT", {})
    monkeypatch.setattr(tool, "run_product", lambda tmp, prefix: [])

    def run_tests(tmp, prefix):
        if edit:  # a docstring grows while the suite runs
            (pkg / "mod.py").write_text('"""Docs."""\n' + NESTED)
        return 0

    monkeypatch.setattr(tool, "run_tests", run_tests)
    status = tool.main([])
    out, err = capsys.readouterr()
    if edit:
        assert status == 1
        assert f"source changed during the audit: {pkg / 'mod.py'}" in err
        assert out == ""
    else:
        assert status == 0
        assert "unreached:" in out and "pkg.mod.outer" in out
